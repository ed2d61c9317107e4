"""
Command-line front end.

Words are whitespace-separated tokens ``<name>`` or ``<name>^<int>``, where
``<name>`` is an atom of the selected structure (braid atoms ``a1..a{n-1}``,
torus atoms ``x`` and ``y``, product atoms ``L.<name>`` / ``R.<name>``) and
the literal ``D`` denotes Delta.  Structures are chosen with
``--group braid:<n>``, ``--group torus:<N>:<M>`` or
``--group product:(<desc>,<desc>)``.  A word is read in one pass, and
its errors come in a fixed order: a malformed token or a zero exponent, by
position; then a word of more than MAX_WORD_ATOMS atom letters; then the
first unknown generator, by position.

Exit codes: 0 = computed (a no-solution answer is an answer), 1 = resource
limit or unsupported structure, 2 = usage or parse error.  A tripped limit
(a search cap, a table too large, a power of more than
`core.MAX_POWER_FACTORS` factors, or a word of more than MAX_WORD_ATOMS
atom letters) is raised as `ResourceLimitError` by whichever layer trips
it and answered here, for every command, as a ``resource_limit`` outcome
on stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import re
import sys

from . import conjugacy, problems, translation
from .core import Element, GarsideStructure, ResourceLimitError, Simple, normalize_word, word_length
from .problems import ProblemAnswer, UnsupportedStructureError
from .structures import structure_from_descriptor

# A word of k atom letters normalises through about k factors, so the atom
# count is bounded before any arithmetic; Delta powers cost nothing and are
# not counted.
MAX_WORD_ATOMS = 100_000

_TOKEN = re.compile(r"^(?P<name>[A-Za-z][A-Za-z0-9.]*)(\^(?P<exp>-?[0-9]+))?$")


class WordParseError(ValueError):
    """A word failed to parse; the message carries the offending position."""


def parse_word(S: GarsideStructure, text: str) -> Element:
    """Parse a word over the structure's atoms into a normalized element.

    One pass reads the tokens through a table from token text to its
    letter (simple, exponent) and atom-letter count, so each distinct token
    is matched once, and sums the atom letters; one `normalize_word` call
    then forms the element.  A malformed token, an exponent too long for
    `int` or a zero exponent raises where it is read; after the pass, a
    word over MAX_WORD_ATOMS atom letters raises, then the first unknown
    generator, by position.
    """
    atoms = S.atom_by_name()
    table: dict[str, tuple[tuple[Simple | None, int], int]] = {}
    word = []
    atom_letters = 0
    unknown = None
    for position, token in enumerate(text.split(), start=1):
        entry = table.get(token)
        if entry is None:
            match = _TOKEN.match(token)
            if match is None:
                raise WordParseError(f"malformed token {token!r} at position {position}")
            exp = match.group("exp")
            try:
                exponent = int(exp) if exp is not None else 1
            except ValueError:  # past sys.get_int_max_str_digits()
                raise WordParseError(f"exponent too long at position {position}") from None
            if exponent == 0:
                raise WordParseError(f"zero exponent in {token!r} at position {position}")
            name = match.group("name")
            if name == "D":
                entry = (S.delta(), exponent), 0
            elif name in atoms:
                entry = (S.atom_simple(atoms[name].index), exponent), abs(exponent)
            else:
                entry = (None, exponent), abs(exponent)
                unknown = unknown or f"unknown generator {name!r} at position {position}"
            table[token] = entry
        letter, letters = entry
        word.append(letter)
        atom_letters += letters
    if atom_letters > MAX_WORD_ATOMS:
        raise ResourceLimitError(
            f"word has {atom_letters} atom letters, above the bound of {MAX_WORD_ATOMS}"
        )
    if unknown is not None:
        raise WordParseError(unknown)
    return normalize_word(S, word)


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


def _witness_text(w: Element) -> str:
    return render_word(w) or "(identity)"


def _answer_json(answer: ProblemAnswer) -> dict:
    """The outcome, then every set field under its own name, in field order."""
    out: dict = {"outcome": "solution" if answer.is_solution else "no_solution"}
    for f in dataclasses.fields(answer):
        value = getattr(answer, f.name)
        if value is not None:
            out[f.name] = element_json(value) if isinstance(value, Element) else value
    return out


def _answer_text(answer: ProblemAnswer) -> str:
    if not answer.is_solution:
        return "no solution"
    parts = [f"n={answer.n}"]
    if answer.m is not None:
        parts.append(f"m={answer.m}")
    if answer.root is not None:
        parts.append(f"root {_witness_text(answer.root)}")
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


def _degree(text: str) -> int:
    """`root -n`, read in ASCII digits as word exponents and descriptors are."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid root degree {text!r}")
    return int(text)  # raises past sys.get_int_max_str_digits()


def _nf(args, g):
    return (
        {"element": element_json(g), "inf": g.inf, "sup": g.sup, "len": g.canonical_length,
         "word_length": word_length(g)},
        f"{g}\ninf={g.inf} sup={g.sup} len={g.canonical_length}",
    )


def _tnum(args, g):
    # The quotient value t_Dbar is t_len.
    t = translation.translation_triple(g)
    return (
        {"t_inf": str(t.t_inf), "t_sup": str(t.t_sup), "t_len": str(t.t_len), "t_D": str(t.t_D),
         "t_Dbar": str(t.t_len)},
        f"t_inf={t.t_inf} t_sup={t.t_sup} t_len={t.t_len} t_D={t.t_D} t_Dbar={t.t_len}",
    )


def _straight(args, g):
    inf_st, sup_st, conj_inf, conj_sup = translation.straightness(g)
    return (
        {"inf_straight": inf_st, "sup_straight": sup_st,
         "conjugate_inf_straight": conj_inf, "conjugate_sup_straight": conj_sup},
        f"inf_straight={inf_st} sup_straight={sup_st} "
        f"conjugate_inf_straight={conj_inf} conjugate_sup_straight={conj_sup}",
    )


def _summit(args, g):
    sd = conjugacy.summit(g)
    return (
        {"inf_s": sd.inf_s, "sup_s": sd.sup_s, "representative": element_json(sd.representative),
         "witness": element_json(sd.witness)},
        f"inf_s={sd.inf_s} sup_s={sd.sup_s}\nrepresentative: {sd.representative}\n"
        f"witness: {_witness_text(sd.witness)}",
    )


def _sss(args, g):
    sss = conjugacy.super_summit_set(g)
    return (
        {"size": len(sss), "elements": [element_json(h) for h in sss]},
        "\n".join([f"size={len(sss)}"] + [str(h) for h in sss]),
    )


def _conj(args, g, h):
    witness = conjugacy.are_conjugate(g, h)
    if witness is None:
        return {"conjugate": False}, "not conjugate"
    return ({"conjugate": True, "witness": element_json(witness)},
            f"conjugate, witness {_witness_text(witness)}")


_CONJUGACY = ("--conjugacy", {"action": "store_true", "help": "solve up to conjugacy"})

# Each command: its word arguments, help, extra option (flag, argparse keywords)
# and handler.  A handler takes the parsed arguments and the words' elements
# and returns (JSON payload, text), or a ProblemAnswer.
_COMMANDS = {
    "nf": (("word",), "normal form with inf/sup/len", None, _nf),
    "tnum": (("word",), "exact translation numbers", None, _tnum),
    "straight": (("word",), "straightness and conjugate straightness flags", None, _straight),
    "summit": (("word",), "summit invariants with witness", None, _summit),
    "sss": (("word",), "full super summit set", None, _sss),
    "conj": (("word1", "word2"), "conjugacy decision with witness", None, _conj),
    "power": (("word1", "word2"), "solve h^n = g for n (g first)", _CONJUGACY,
              lambda args, g, h: problems.solve_power(g, h, up_to_conjugacy=args.conjugacy)),
    "root": (("word",), "solve h^n conjugate to g",
             ("-n", {"type": _degree, "required": True, "help": "root degree"}),
             lambda args, g: problems.solve_root_conjugacy(g, args.n)),
    "properpower": (("word",), "find (h, n >= 2) with h^n conjugate to g", None,
                    lambda args, g: problems.solve_proper_power_conjugacy(g)),
    "genpower": (("word1", "word2"), "find nonzero (n, m) with g^n = h^m", _CONJUGACY,
                 lambda args, g, h: problems.solve_generalized_power(
                     g, h, up_to_conjugacy=args.conjugacy)),
}


@functools.cache
def _build_parser() -> _Parser:
    """The full parser; `parser.commands` maps each command to its subparser."""
    parser = _Parser(prog="garside", description="Garside group calculator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (words, help_text, option, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--group", required=True, help="structure descriptor")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        for word in words:
            p.add_argument(word)
        if option is not None:
            p.add_argument(option[0], **option[1])
    parser.commands = sub.choices
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """The parsed arguments of argv.  When argv[0] names a command, its own
    subparser reads the rest, as the full parser would after one more level
    of dispatch; help, an unknown command or an empty argv go through the
    full parser."""
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args = command.parse_args(argv[1:])
    args.command = argv[0]
    return args


def _run(args) -> int:
    S = structure_from_descriptor(args.group)
    words, _, _, handler = _COMMANDS[args.command]
    code = 0
    try:
        result = handler(args, *[parse_word(S, getattr(args, word)) for word in words])
    except ResourceLimitError as exc:
        code = 1
        result = {"outcome": "resource_limit", "diagnostic": str(exc)}, f"resource limit: {exc}"
    if isinstance(result, ProblemAnswer):
        result = (_answer_json(result), _answer_text(result))
    payload, text = result
    print(json.dumps(payload) if args.json else text)
    return code


def run_command(argv: list[str]) -> int:
    """Run one CLI invocation; returns the process exit code."""
    try:
        return _run(_parse(argv))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedStructureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:  # pragma: no cover - thin process wrapper
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    main()
