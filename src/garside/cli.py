"""
Command-line front end.

Words are whitespace-separated tokens ``<name>`` or ``<name>^<int>``, where
``<name>`` is an atom of the selected structure (braid atoms ``a1..a{n-1}``,
torus atoms ``x`` and ``y``, product atoms ``L.<name>`` / ``R.<name>``) and
the literal ``D`` denotes Delta.  Structures are chosen with
``--group braid:<n>``, ``--group torus:<N>:<M>`` or
``--group product:(<desc>,<desc>)``.

Exit codes: 0 = computed (a no-solution answer is an answer), 1 = resource
limit (including a word of more than MAX_WORD_ATOMS atom letters) or
unsupported structure, 2 = usage or parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import conjugacy, problems, translation
from .core import Element, GarsideStructure, normalize, word_length
from .problems import ProblemAnswer, UnsupportedStructureError
from .structures import DescriptorError, structure_from_descriptor

# A word of k atom letters normalises through about k factors, so the atom
# count is bounded before any arithmetic; Delta powers cost nothing and are
# not counted.
MAX_WORD_ATOMS = 100_000

_TOKEN = re.compile(r"^(?P<name>[A-Za-z][A-Za-z0-9.]*)(\^(?P<exp>-?\d+))?$")


class WordParseError(ValueError):
    """A word failed to parse; the message carries the offending position."""


def parse_tokens(text: str) -> tuple[tuple[str, int], ...]:
    """A word as (generator token, nonzero exponent) pairs."""
    terms = []
    for position, token in enumerate(text.split(), start=1):
        match = _TOKEN.match(token)
        if match is None:
            raise WordParseError(f"malformed token {token!r} at position {position}")
        exp = match.group("exp")
        exponent = int(exp) if exp is not None else 1
        if exponent == 0:
            raise WordParseError(f"zero exponent in {token!r} at position {position}")
        terms.append((match.group("name"), exponent))
    return tuple(terms)


def evaluate_word(S: GarsideStructure, terms: tuple[tuple[str, int], ...]) -> Element:
    """The element of a token word, with one `normalize` call.

    Read from the right, each Delta moves to the front, s·Delta^d =
    Delta^d·tau^d(s), and a^{-1} = Delta^{-1}·left_complement(a).
    """
    atom_letters = sum(abs(exponent) for name, exponent in terms if name != "D")
    if atom_letters > MAX_WORD_ATOMS:
        raise conjugacy.ResourceLimitError(
            f"word has {atom_letters} atom letters, above the bound of {MAX_WORD_ATOMS}"
        )
    atoms = S.atom_by_name()
    for position, (name, _) in enumerate(terms, start=1):
        if name != "D" and name not in atoms:
            raise WordParseError(f"unknown generator {name!r} at position {position}")
    raw = []
    d = 0
    for name, exponent in reversed(terms):
        if name == "D":
            d += exponent
            continue
        a = S.atom_simple(atoms[name].index)
        if exponent > 0:
            raw += [S.tau_power(a, d)] * exponent
        else:
            complement = S.left_complement(a)
            for _ in range(-exponent):
                raw.append(S.tau_power(complement, d))
                d -= 1
    return normalize(S, d, reversed(raw))


def parse_word(S: GarsideStructure, text: str) -> Element:
    """Parse a word over the structure's atoms into a normalized element."""
    return evaluate_word(S, parse_tokens(text))


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------


def render_word(g: Element) -> str:
    """A token string that parses back to g; empty for the identity."""
    S = g.structure
    chunks = []
    if g.inf == 1:
        chunks.append("D")
    elif g.inf != 0:
        chunks.append(f"D^{g.inf}")
    for s in g.factors:
        chunks.extend(S.simple_atom_names(s))
    return " ".join(chunks)


def element_json(g: Element) -> dict:
    return {
        "group": g.structure.descriptor(),
        "inf": g.inf,
        "factors": [list(g.structure.simple_atom_names(s)) for s in g.factors],
    }


def _nf_text(g: Element) -> str:
    factor_words = [" ".join(g.structure.simple_atom_names(s)) for s in g.factors]
    body = " · ".join(factor_words) if factor_words else "(empty)"
    return f"D^{g.inf} · {body}"


def _witness_text(w: Element) -> str:
    return render_word(w) or "(identity)"


def _answer_json(answer: ProblemAnswer) -> dict:
    out: dict = {"outcome": answer.outcome.value}
    if answer.n is not None:
        out["n"] = answer.n
    if answer.m is not None:
        out["m"] = answer.m
    if answer.root is not None:
        out["root"] = element_json(answer.root)
    if answer.witness is not None:
        out["witness"] = element_json(answer.witness)
    if answer.diagnostic is not None:
        out["diagnostic"] = answer.diagnostic
    return out


def _answer_text(answer: ProblemAnswer) -> str:
    if answer.is_no_solution:
        return "no solution"
    if answer.is_resource_limit:
        return f"resource limit: {answer.diagnostic}"
    parts = []
    if answer.n is not None:
        parts.append(f"n={answer.n}")
    if answer.m is not None:
        parts.append(f"m={answer.m}")
    if answer.root is not None:
        parts.append(f"root {render_word(answer.root) or '(identity)'}")
    if answer.witness is not None:
        parts.append(f"witness {_witness_text(answer.witness)}")
    return "solution " + " ".join(parts)


# ----------------------------------------------------------------------
# command dispatch
# ----------------------------------------------------------------------


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="garside", description="Garside group calculator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, words, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--group", required=True, help="structure descriptor")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        for word in words:
            p.add_argument(word)
        return p

    add("nf", ["word"], "normal form with inf/sup/len")
    add("tnum", ["word"], "exact translation numbers")
    add("straight", ["word"], "straightness and conjugate straightness flags")
    add("summit", ["word"], "summit invariants with witness")
    add("sss", ["word"], "full super summit set")
    add("conj", ["word1", "word2"], "conjugacy decision with witness")
    p = add("power", ["word1", "word2"], "solve h^n = g for n (g first)")
    p.add_argument("--conjugacy", action="store_true", help="solve up to conjugacy")
    p = add("root", ["word"], "solve h^n conjugate to g")
    p.add_argument("-n", type=int, required=True, help="root degree")
    add("properpower", ["word"], "find (h, n >= 2) with h^n conjugate to g")
    p = add("genpower", ["word1", "word2"], "find nonzero (n, m) with g^n = h^m")
    p.add_argument("--conjugacy", action="store_true", help="solve up to conjugacy")
    return parser


def _emit(payload: dict, text: str, as_json: bool) -> None:
    print(json.dumps(payload) if as_json else text)


def _exit_code(answer: ProblemAnswer) -> int:
    return 1 if answer.is_resource_limit else 0


def _run(args) -> int:
    S = structure_from_descriptor(args.group)

    if args.command == "nf":
        g = parse_word(S, args.word)
        _emit(
            {"element": element_json(g), "inf": g.inf, "sup": g.sup, "len": g.canonical_length,
             "word_length": word_length(g)},
            f"{_nf_text(g)}\ninf={g.inf} sup={g.sup} len={g.canonical_length}",
            args.json,
        )
        return 0

    if args.command == "tnum":
        g = parse_word(S, args.word)
        # The quotient value t_Dbar is t_len.
        triple = translation.translation_triple(g)
        _emit(
            {"t_inf": str(triple.t_inf), "t_sup": str(triple.t_sup),
             "t_len": str(triple.t_len), "t_D": str(triple.t_D), "t_Dbar": str(triple.t_len)},
            f"t_inf={triple.t_inf} t_sup={triple.t_sup} t_len={triple.t_len} "
            f"t_D={triple.t_D} t_Dbar={triple.t_len}",
            args.json,
        )
        return 0

    if args.command == "straight":
        g = parse_word(S, args.word)
        inf_st, sup_st = translation.straightness(g)
        conj_inf, conj_sup = translation.conjugate_straightness(g)
        _emit(
            {"inf_straight": inf_st, "sup_straight": sup_st,
             "conjugate_inf_straight": conj_inf, "conjugate_sup_straight": conj_sup},
            f"inf_straight={inf_st} sup_straight={sup_st} "
            f"conjugate_inf_straight={conj_inf} conjugate_sup_straight={conj_sup}",
            args.json,
        )
        return 0

    if args.command == "summit":
        g = parse_word(S, args.word)
        sd = conjugacy.summit(g)
        _emit(
            {"inf_s": sd.inf_s, "sup_s": sd.sup_s,
             "representative": element_json(sd.representative),
             "witness": element_json(sd.witness)},
            f"inf_s={sd.inf_s} sup_s={sd.sup_s}\n"
            f"representative: {_nf_text(sd.representative)}\n"
            f"witness: {_witness_text(sd.witness)}",
            args.json,
        )
        return 0

    if args.command == "sss":
        g = parse_word(S, args.word)
        sss = conjugacy.super_summit_set(g)
        lines = [f"size={len(sss)}"] + [_nf_text(h) for h in sss]
        _emit({"size": len(sss), "elements": [element_json(h) for h in sss]},
              "\n".join(lines), args.json)
        return 0

    if args.command == "conj":
        g = parse_word(S, args.word1)
        h = parse_word(S, args.word2)
        witness = conjugacy.are_conjugate(g, h)
        if witness is None:
            _emit({"conjugate": False}, "not conjugate", args.json)
        else:
            _emit({"conjugate": True, "witness": element_json(witness)},
                  f"conjugate, witness {_witness_text(witness)}", args.json)
        return 0

    if args.command == "power":
        g = parse_word(S, args.word1)
        h = parse_word(S, args.word2)
        answer = problems.solve_power(g, h, up_to_conjugacy=args.conjugacy)
    elif args.command == "root":
        g = parse_word(S, args.word)
        answer = problems.solve_root_conjugacy(g, args.n)
    elif args.command == "properpower":
        g = parse_word(S, args.word)
        answer = problems.solve_proper_power_conjugacy(g)
    elif args.command == "genpower":
        g = parse_word(S, args.word1)
        h = parse_word(S, args.word2)
        answer = problems.solve_generalized_power(g, h, up_to_conjugacy=args.conjugacy)
    else:  # pragma: no cover - argparse enforces the command set
        raise _UsageError(f"unknown command {args.command!r}")

    _emit(_answer_json(answer), _answer_text(answer), args.json)
    return _exit_code(answer)


def run_command(argv: list[str]) -> int:
    """Run one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (WordParseError, DescriptorError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (conjugacy.ResourceLimitError, UnsupportedStructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:  # pragma: no cover - thin process wrapper
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    main()
