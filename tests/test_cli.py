"""Word parsing, command dispatch, JSON round trips, exit codes."""

import json

import pytest

from garside import (
    BraidStructure,
    Element,
    TorusStructure,
    conjugacy,
    core,
    multiply,
    problems,
)
from garside import cli
from garside.cli import WordParseError, element_json, parse_word, render_word, run_command

B3 = BraidStructure(3)
T53 = TorusStructure(5, 3)


def test_parse_word_fixtures():
    g = parse_word(B3, "a1 a1 a2")
    assert g.inf == 0
    assert [s.payload for s in g.factors] == [(1, 0, 2), (2, 0, 1)]

    h = parse_word(T53, "D^-1 x^7")
    assert h.inf == 0
    assert [s.payload for s in h.factors] == [("x", 2)]

    assert parse_word(B3, "") == Element(B3, 0, ())
    assert parse_word(B3, "D^3") == Element(B3, 3, ())


def test_parse_word_errors_carry_position():
    with pytest.raises(WordParseError, match="position 1"):
        parse_word(B3, "a5")
    with pytest.raises(WordParseError, match="position 2"):
        parse_word(B3, "a1 a9")
    with pytest.raises(WordParseError, match="malformed"):
        parse_word(B3, "a1^x")
    with pytest.raises(WordParseError, match="zero exponent"):
        parse_word(B3, "a1^0")


def test_render_word_round_trip():
    words = [
        (B3, "a1 a1 a2"),
        (B3, "D^-2 a2 a1"),
        (T53, "x^4 y^-1"),
        (B3, ""),
    ]
    for S, text in words:
        g = parse_word(S, text)
        assert parse_word(S, render_word(g)) == g


def test_element_json_round_trip():
    prod = "product:(torus:2:3,torus:2:3)"
    cases = [
        ("braid:3", "a1 a1 a2"),
        ("braid:4", "a1 a3 a2^-1 D"),
        ("torus:5:3", "x^7 y^-2"),
        (prod, "L.x R.y L.y^2"),
    ]
    from garside import structure_from_descriptor

    for desc, text in cases:
        S = structure_from_descriptor(desc)
        g = parse_word(S, text)
        blob = element_json(g)
        assert blob["group"] == desc
        rebuilt = Element(S, blob["inf"], ())
        for factor_word in blob["factors"]:
            rebuilt = multiply(rebuilt, parse_word(S, " ".join(factor_word)))
        assert rebuilt == g


def test_cli_tnum_text(capsys):
    code = run_command(["tnum", "--group", "torus:5:3", "x"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out.startswith("t_inf=1/5 t_sup=1/5 t_len=0 t_D=1/5")


def test_cli_nf_empty(capsys):
    code = run_command(["nf", "--group", "braid:3", ""])
    out = capsys.readouterr().out
    assert code == 0
    assert "D^0 · (empty)" in out


def test_cli_conj_witness(capsys):
    code = run_command(["conj", "--group", "braid:3", "a1 a1 a2", "D"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out.startswith("conjugate, witness")


@pytest.mark.parametrize(
    "g, h",
    [
        # Degrees 1 and 2: the class invariants reject.
        ("a1", "a1^2"),
        # A word and its reversal: equal invariants and summit bounds, so the walk rejects.
        ("a1^2 a2^-1 a1 a2^-2", "a2^-2 a1 a2^-1 a1^2"),
    ],
)
def test_cli_conj_negative(capsys, g, h):
    assert run_command(["conj", "--group", "braid:3", g, h]) == 0
    assert capsys.readouterr().out.strip() == "not conjugate"
    assert run_command(["conj", "--group", "braid:3", g, h, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"conjugate": False}


def test_cli_json_outputs(capsys):
    code = run_command(["tnum", "--group", "torus:5:3", "x", "--json"])
    blob = json.loads(capsys.readouterr().out)
    assert code == 0
    assert blob == {"t_inf": "1/5", "t_sup": "1/5", "t_len": "0", "t_D": "1/5", "t_Dbar": "0"}

    code = run_command(["nf", "--group", "braid:3", "a1 a1 a2", "--json"])
    blob = json.loads(capsys.readouterr().out)
    assert blob["element"]["factors"] == [["a1"], ["a1", "a2"]]
    assert (blob["inf"], blob["sup"], blob["len"]) == (0, 2, 2)

    code = run_command(["sss", "--group", "braid:3", "a1", "--json"])
    blob = json.loads(capsys.readouterr().out)
    assert blob["size"] == 2


def test_cli_solver_commands(capsys):
    assert run_command(["power", "--group", "braid:3", "D^2", "D"]) == 0
    assert "n=2" in capsys.readouterr().out

    assert run_command(["power", "--group", "braid:3", "a1", "a2"]) == 0
    assert "no solution" in capsys.readouterr().out

    assert run_command(["power", "--group", "braid:3", "a1", "a2", "--conjugacy"]) == 0
    assert "n=1" in capsys.readouterr().out

    assert run_command(["root", "--group", "braid:3", "-n", "2", "D^2"]) == 0
    assert "root D" in capsys.readouterr().out

    assert run_command(["properpower", "--group", "braid:3", "a1"]) == 0
    assert "no solution" in capsys.readouterr().out

    # Huge Delta exponents: the divisor scan stops at the first degree
    # that answers, 2 here and 101 for the odd exponent 10^18 + 1.
    assert run_command(["properpower", "--group", "braid:3", "D^1000000000000000000"]) == 0
    assert capsys.readouterr().out.startswith("solution n=2 root D^500000000000000000")
    assert run_command(["properpower", "--group", "braid:3", "D^1000000000000000001"]) == 0
    assert capsys.readouterr().out.startswith("solution n=101 root D^9900990099009901")

    assert run_command(["genpower", "--group", "braid:3", "D", "D^3"]) == 0
    out = capsys.readouterr().out
    assert "n=18" in out and "m=6" in out

    assert run_command(["summit", "--group", "braid:3", "a1 a1 a2"]) == 0
    assert "inf_s=1 sup_s=1" in capsys.readouterr().out

    assert run_command(["straight", "--group", "torus:5:3", "x"]) == 0
    assert "inf_straight=False" in capsys.readouterr().out


def test_cli_flags_do_not_carry_over_between_calls(capsys):
    # The parser is built once per process; each call must parse afresh.
    assert run_command(["power", "--group", "braid:3", "a1", "a2", "--conjugacy", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["outcome"] == "solution"
    assert run_command(["power", "--group", "braid:3", "a1", "a2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"outcome": "no_solution"}


def test_cli_exit_codes(capsys):
    # parse errors and usage errors exit 2
    assert run_command(["nf", "--group", "braid:3", "a5"]) == 2
    assert capsys.readouterr() == ("", "error: unknown generator 'a5' at position 1\n")
    assert run_command(["nf", "--group", "wat:3", "a1"]) == 2
    assert capsys.readouterr() == ("", "error: unknown structure descriptor 'wat:3'\n")
    assert run_command(["nf", "--group", "braid:0_3", "a1"]) == 2
    assert capsys.readouterr() == ("", "error: bad integer '0_3' in descriptor 'braid:0_3'\n")
    deep = "product:(braid:2," * 3000 + "braid:2" + ")" * 3000
    assert run_command(["nf", "--group", deep, "D"]) == 2
    assert "nested deeper than 16" in capsys.readouterr().err
    assert run_command(["tnum", "--group", "torus:2000:1999", "x y^-1 x"]) == 2
    assert "torus exponents" in capsys.readouterr().err
    assert run_command(["nf", "--group", "braid:9", "a1"]) == 2
    assert capsys.readouterr().err == "error: strand count must satisfy 2 <= n <= 8, got 9\n"
    # `root -n` is read in ASCII digits, as word exponents and descriptors are.
    for degree in ("٣", "+3", "0_3", " 3", "3 ", "-1", ""):
        assert run_command(["root", "--group", "braid:3", "-n", degree, "D^2"]) == 2
        assert capsys.readouterr() == (
            "", f"usage error: argument -n: invalid root degree {degree!r}\n")
    assert run_command(["root", "--group", "braid:3", "-n", "0", "D^2"]) == 2
    assert capsys.readouterr() == ("", "error: root degree must be at least 1\n")
    assert run_command(["bogus"]) == 2
    capsys.readouterr()
    assert run_command(["nf"]) == 2
    capsys.readouterr()
    # unsupported structure exits 1
    assert run_command(["genpower", "--group", "torus:5:3", "x", "y"]) == 1
    capsys.readouterr()
    # a word above the atom-letter bound is refused before it is evaluated
    assert run_command(["nf", "--group", "braid:3", "a1^1000000000"]) == 1
    assert "100000" in capsys.readouterr().out
    # answered questions exit 0 even when the answer is "no solution"
    assert run_command(["root", "--group", "braid:3", "-n", "2", "a1"]) == 0
    capsys.readouterr()


def _parsed(parse, argv):
    try:
        return vars(parse(argv))
    except cli._UsageError as exc:
        return f"usage error: {exc}"


def test_command_dispatch_parses_as_the_full_parser():
    # The argvs of test_cli_exit_codes, then malformed and abbreviated ones:
    # a command's own subparser gives the namespace and the error messages
    # of the full parser.
    deep = "product:(braid:2," * 3000 + "braid:2" + ")" * 3000
    argvs = [
        ["nf", "--group", "braid:3", "a5"],
        ["nf", "--group", "wat:3", "a1"],
        ["nf", "--group", "braid:0_3", "a1"],
        ["nf", "--group", deep, "D"],
        ["tnum", "--group", "torus:2000:1999", "x y^-1 x"],
        ["nf", "--group", "braid:9", "a1"],
        *(["root", "--group", "braid:3", "-n", d, "D^2"] for d in ("٣", "+3", "0_3", " 3", "-1", "")),
        ["root", "--group", "braid:3", "-n", "0", "D^2"],
        ["bogus"],
        ["nf"],
        [],
        ["genpower", "--group", "torus:5:3", "x", "y"],
        ["nf", "--group", "braid:3", "a1^1000000000"],
        ["root", "--group", "braid:3", "-n", "2", "a1"],
        ["tnum", "--group", "braid:3"],
        ["tnum", "--group", "braid:3", "a1", "a2"],
        ["tnum", "--group"],
        ["tnum", "--gro", "braid:3", "--js", "a1"],
        ["tnum", "--group=braid:3", "a1"],
        ["root", "--group", "braid:3", "a1"],
        ["root", "-n3", "--group", "braid:3", "a1"],
        ["conj", "--group", "braid:3", "a1"],
        ["power", "--group", "braid:3", "a1", "a2", "--conj"],
        ["genpower", "--group", "braid:3", "a1", "a2", "--conjugacy=1"],
        ["nf", "--group", "braid:3", "--bogus", "a1"],
        ["--json", "nf", "--group", "braid:3", "a1"],
    ]
    full = cli._build_parser().parse_args
    for argv in argvs:
        assert _parsed(cli._parse, argv) == _parsed(full, argv)


def test_cli_every_limit_answers_on_stdout(capsys, monkeypatch):
    # a1 and a2 share a two-element super summit set, above this cap.
    monkeypatch.setattr(conjugacy, "DEFAULT_SSS_CAP", 1)
    message = "super summit set exceeds cap of 1 elements"
    assert run_command(["conj", "--group", "braid:3", "a1", "a2", "--json"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out) == {"outcome": "resource_limit", "diagnostic": message}
    assert err == ""
    assert run_command(["conj", "--group", "braid:3", "a1", "a2"]) == 1
    assert capsys.readouterr() == (f"resource limit: {message}\n", "")

    # A solver's limit answers in the same form, with its own diagnostic.
    monkeypatch.setattr(problems, "DEFAULT_CANDIDATE_CAP", 0)
    assert run_command(["root", "--group", "braid:3", "-n", "3", "D^2", "--json"]) == 1
    assert capsys.readouterr() == (
        '{"outcome": "resource_limit", "diagnostic": "root search exceeded 0 candidates"}\n', "")
    assert run_command(["root", "--group", "braid:3", "-n", "3", "D^2"]) == 1
    assert capsys.readouterr() == ("resource limit: root search exceeded 0 candidates\n", "")


def test_cli_word_errors_come_in_a_fixed_order(capsys):
    # A malformed token, an exponent past int()'s digit limit or a zero
    # exponent comes first, by position; then a word over the atom bound
    # (unknown generators count); then the first unknown generator, by
    # position.
    nines = "9" * 5000
    cases = [
        ("a9 a1^x", 2, "", "error: malformed token 'a1^x' at position 2\n"),
        ("a9 a1^\u0663", 2, "", "error: malformed token 'a1^\u0663' at position 2\n"),
        (f"a9 D^{nines}", 2, "", "error: exponent too long at position 2\n"),
        (f"a1^{nines} zz", 2, "", "error: exponent too long at position 1\n"),
        ("a9 a1^0", 2, "", "error: zero exponent in 'a1^0' at position 2\n"),
        ("a9 a1^100001", 1,
         "resource limit: word has 100002 atom letters, above the bound of 100000\n", ""),
        ("a1 a9 a8", 2, "", "error: unknown generator 'a9' at position 2\n"),
    ]
    for word, code, out, err in cases:
        assert run_command(["nf", "--group", "braid:3", word]) == code
        assert capsys.readouterr() == (out, err)


def test_cli_refuses_a_power_of_too_many_factors(capsys, monkeypatch):
    # The summit representative x = Delta^-1 · a1a2a1a3a2 · a3 · a3 of this
    # word is not rigid, nor is the summit of any power up to x^N, so its
    # triple forms x^2, ..., x^6 (N = 6), the last of 18 factors.
    word = "a3 a3 a1^-1"
    monkeypatch.setattr(core, "MAX_POWER_FACTORS", 17)
    assert run_command(["tnum", "--group", "braid:4", word]) == 1
    assert capsys.readouterr() == ("resource limit: power has more than 17 factors\n", "")
    monkeypatch.setattr(core, "MAX_POWER_FACTORS", 18)
    assert run_command(["tnum", "--group", "braid:4", word]) == 0
    assert capsys.readouterr() == ("t_inf=-1 t_sup=2 t_len=3 t_D=3 t_Dbar=3\n", "")


def test_cli_reads_a_rigid_triple_without_a_power(capsys):
    # a1^100000 is its own rigid summit representative: its triple is read
    # off it, where g^(N^2) would have 4.41·10^7 factors...
    argv = ["tnum", "--group", "braid:7", "a1^100000"]
    assert run_command(argv) == 0
    assert capsys.readouterr() == (
        "t_inf=0 t_sup=100000 t_len=100000 t_D=100000 t_Dbar=100000\n", "")
    # ...while the generalized power of a1 and a1^100000 still forms such a power.
    assert run_command(["genpower", "--group", "braid:7", "a1", "a1^100000"]) == 1
    assert capsys.readouterr() == (
        f"resource limit: power has more than {core.MAX_POWER_FACTORS} factors\n", "")


def test_cli_reads_a_product_triple_off_its_components(capsys):
    # The left component a1^3000 is rigid, and the right one's two-factor
    # summit x is not, nor is the summit of any x^m up to m = N = 28; the
    # 3,001-factor summit of the whole word, powered to (28 + 28)^2 = 3136,
    # ran past 40 s.
    argv = ["tnum", "--group", "product:(braid:8,braid:8)", "L.a1^3000 R.a1 R.a2^-1"]
    assert run_command(argv) == 0
    assert capsys.readouterr() == ("t_inf=-1 t_sup=3000 t_len=3001 t_D=3001 t_Dbar=3001\n", "")


def test_cli_sss_reads_the_cap_at_call_time(capsys, monkeypatch):
    # The super summit set of a1 is {a1, a2}, above a cap of 1 set after import.
    monkeypatch.setattr(conjugacy, "DEFAULT_SSS_CAP", 1)
    assert run_command(["sss", "--group", "braid:3", "--json", "a1"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "outcome": "resource_limit", "diagnostic": "super summit set exceeds cap of 1 elements"}


def test_cli_refuses_a_table_of_too_many_simples(capsys):
    # 40,320^2 simples: the count stops at MAX_SIMPLES + 1, before any is made.
    argv = ["root", "--group", "product:(braid:8,braid:8)", "-n", "2", "L.a1^2 R.a1^2", "--json"]
    assert run_command(argv) == 1
    assert capsys.readouterr() == (
        '{"outcome": "resource_limit", '
        '"diagnostic": "product:(braid:8,braid:8) has more than 1000000 simples"}\n', "")
