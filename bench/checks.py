"""Answer verification, run outside the timed region.

Each check parses the query's own words and the JSON answer back into
elements with ``parse_word`` and re-derives the claim by plain
multiplication.  A check returns None when the answer is right and a short
reason otherwise.
"""

from __future__ import annotations

import json
from fractions import Fraction

from garside import invert, multiply, power, structure_from_descriptor
from garside.cli import parse_word

from invariants import cycle_type, degree


def element_from_json(S, payload: dict):
    """Parse an ``element_json`` record back and check it was a normal form."""
    tokens = [f"D^{payload['inf']}"] if payload["inf"] else []
    tokens += [name for factor in payload["factors"] for name in factor]
    g = parse_word(S, " ".join(tokens))
    if g.inf != payload["inf"] or g.canonical_length != len(payload["factors"]):
        raise ValueError("element is not in normal form")
    return g


def _conjugates(w, a, b) -> bool:
    """w^{-1} a w == b."""
    return multiply(multiply(invert(w), a), w) == b


def check(query: dict, rc: int, stdout: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    try:
        answer = json.loads(stdout)
    except json.JSONDecodeError:
        return "output is not JSON"
    argv, expect = query["argv"], query["expect"]
    S = structure_from_descriptor(argv[2])
    elements = [parse_word(S, w) for w in query["words"]]
    try:
        return _CHECKS[expect["kind"]](S, elements, expect, answer)
    except (KeyError, ValueError, TypeError) as exc:
        return f"malformed answer: {exc!r}"


def _tnum(S, elements, expect, answer):
    (g,) = elements
    N = S.delta_norm()
    t_inf, t_sup, t_len, t_d, t_bar = (Fraction(answer[k]) for k in
                                      ("t_inf", "t_sup", "t_len", "t_D", "t_Dbar"))
    if t_inf.denominator > N or t_sup.denominator > N:
        return "t_inf or t_sup denominator exceeds ||Delta||"
    if t_d.denominator > N * N:
        return "t_D denominator exceeds ||Delta||^2"
    if t_len != t_sup - t_inf or t_bar != t_len:
        return "t_len or t_Dbar inconsistent"
    if not g.is_identity and t_d < Fraction(1, N):
        return "t_D below 1/||Delta||"
    # inf(g^k)/k <= t_inf <= t_sup <= sup(g^k)/k for every k >= 1.
    for k in (1, N):
        gk = power(g, k)
        if not (Fraction(gk.inf, k) <= t_inf <= t_sup <= Fraction(gk.sup, k)):
            return f"translation numbers outside the power-{k} bracket"
    return None


def _summit(S, elements, expect, answer):
    (g,) = elements
    rep = element_from_json(S, answer["representative"])
    w = element_from_json(S, answer["witness"])
    if (rep.inf, rep.sup) != (answer["inf_s"], answer["sup_s"]):
        return "representative does not realise inf_s/sup_s"
    if rep.inf < g.inf or rep.sup > g.sup:
        return "summit invariants worse than the input"
    if not _conjugates(w, g, rep):
        return "summit witness does not conjugate"
    return None


def _sss(S, elements, expect, answer):
    (g,) = elements
    members = [element_from_json(S, e) for e in answer["elements"]]
    if answer["size"] != expect["size"] or len(members) != expect["size"]:
        return f"size {answer['size']} != catalog size {expect['size']}"
    if len(set(members)) != len(members):
        return "repeated element"
    inv = (degree(g), cycle_type(g))
    for h in members:
        if (h.inf, h.sup) != (expect["inf_s"], expect["sup_s"]):
            return "element off the summit invariants"
        if (degree(h), cycle_type(h)) != inv:
            return "element fails a conjugacy invariant"
    return None


def _conj(S, elements, expect, answer):
    g, h = elements
    if answer["conjugate"] != expect["conjugate"]:
        return f"conjugate={answer['conjugate']}, expected {expect['conjugate']}"
    if answer["conjugate"] and not _conjugates(element_from_json(S, answer["witness"]), g, h):
        return "witness does not conjugate"
    return None


def _power(S, elements, expect, answer):
    g, h = elements
    if expect["n"] is None:
        return None if answer["outcome"] == "no_solution" else f"outcome {answer['outcome']} on a negative"
    if answer["outcome"] != "solution":
        return f"outcome {answer['outcome']} on a planted instance"
    if abs(answer["n"]) != expect["n"]:
        return f"|n|={abs(answer['n'])}, planted {expect['n']}"
    if not _conjugates(element_from_json(S, answer["witness"]), power(h, answer["n"]), g):
        return "witness does not conjugate h^n onto g"
    return None


def _root(S, elements, expect, answer):
    (g,) = elements
    if not expect["solvable"]:
        return None if answer["outcome"] == "no_solution" else f"outcome {answer['outcome']} on a negative"
    if answer["outcome"] != "solution" or answer["n"] != expect["n"]:
        return f"outcome {answer['outcome']} n={answer.get('n')} on a planted instance"
    root = element_from_json(S, answer["root"])
    if not _conjugates(element_from_json(S, answer["witness"]), power(root, expect["n"]), g):
        return "witness does not conjugate root^n onto g"
    return None


def _properpower(S, elements, expect, answer):
    (g,) = elements
    if expect["max_n"] is None:
        return None if answer["outcome"] == "no_solution" else f"outcome {answer['outcome']} on a negative"
    if answer["outcome"] != "solution":
        return f"outcome {answer['outcome']} on a planted instance"
    n = answer["n"]
    # Exponents are tried in increasing order, so the planted one bounds n.
    if not 2 <= n <= expect["max_n"]:
        return f"n={n} outside [2, {expect['max_n']}]"
    root = element_from_json(S, answer["root"])
    if not _conjugates(element_from_json(S, answer["witness"]), power(root, n), g):
        return "witness does not conjugate root^n onto g"
    return None


def _genpower(S, elements, expect, answer):
    g, h = elements
    if not expect["solvable"]:
        return None if answer["outcome"] == "no_solution" else f"outcome {answer['outcome']} on a negative"
    if answer["outcome"] != "solution":
        return f"outcome {answer['outcome']} on a planted instance"
    n, m = answer["n"], answer["m"]
    if n == 0 or m == 0:
        return "zero exponent"
    gn, hm = power(g, n), power(h, m)
    if expect["conjugacy"]:
        ok = _conjugates(element_from_json(S, answer["witness"]), gn, hm)
    else:
        ok = gn == hm
    return None if ok else "g^n and h^m do not match"


_CHECKS = {
    "tnum": _tnum,
    "summit": _summit,
    "sss": _sss,
    "conj": _conj,
    "power": _power,
    "root": _root,
    "properpower": _properpower,
    "genpower": _genpower,
}
