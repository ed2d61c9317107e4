"""The example and timing scripts run against the current API."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from garside import structure_from_descriptor
from garside.cli import _build_parser, parse_word

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [["scripts/translation_showcase.py"], ["scripts/denominator_survey.py", "--samples", "5"]],
)
def test_script_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_same_answers_smoke():
    src = str(ROOT / "src")
    result = subprocess.run(
        [sys.executable, "scripts/same_answers.py", src, src, "--per-workload", "2",
         "--per-command", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.strip().endswith("236 queries, 0 differences")


def test_hard_inputs_smoke():
    result = subprocess.run(
        [sys.executable, "scripts/hard_inputs.py", "H2c", "--timeout", "120"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    key, seconds, unit, answer = result.stdout.strip().split(maxsplit=3)
    assert (key, unit, answer) == ("H2c", "s", "no solution")
    assert float(seconds) >= 0


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / f"scripts/{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def parse_cli_words(argv):
    """Parse argv with the CLI's parser and each of its words in its group."""
    args = _build_parser().parse_args(argv)
    S = structure_from_descriptor(args.group)
    for name in ("word", "word1", "word2"):
        if hasattr(args, name):
            parse_word(S, getattr(args, name))
    return args


def test_hard_inputs_know_every_id():
    # Pinned, not run: several of these take from 5 to more than 90 s.
    script = load_script("hard_inputs")
    expected = [*(f"H1{c}" for c in "abcd"), *(f"H2{c}" for c in "abcd"), "H3a", "H3b", "H3c",
                "H4a", "H4b", "H5a", "H5b", "H5c", "H6a", "H6b", "H7",
                *(f"H8{c}" for c in "abcde")]
    assert list(script.INPUTS) == expected
    # Every CLI input is a valid command on words that parse.
    for kind, argv in script.INPUTS.values():
        if kind == "cli":
            parse_cli_words(argv)
    with pytest.raises(SystemExit):
        script.main(["H9"])


def test_hard_inputs_report_a_timeout():
    result = subprocess.run(
        [sys.executable, "scripts/hard_inputs.py", "H8e", "--timeout", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout == "H8e  timeout after 1 s\n"


def test_hostile_sweep_queries_are_seeded_and_parse():
    sweep = load_script("hostile_sweep")
    drawn = sweep.queries(1, 60)
    assert drawn == sweep.queries(1, 60)
    assert drawn[:30] == sweep.queries(1, 30)
    assert drawn != sweep.queries(2, 60)
    for argv in drawn:
        args = parse_cli_words(argv)
        assert args.group in sweep.STRUCTURES
        word = args.word if hasattr(args, "word") else args.word1
        assert 3 <= len(word.split()) <= 14


def test_hostile_sweep_runs_one_query_per_line():
    sweep = load_script("hostile_sweep")
    outcome, line = sweep.run_query(["tnum", "--group", "braid:3", "a1 a2"], timeout=120)
    assert outcome == "answer"
    assert line.endswith("garside tnum --group braid:3 'a1 a2'  ->  "
                         "t_inf=2/3 t_sup=2/3 t_len=0 t_D=2/3 t_Dbar=0")
    outcome, line = sweep.run_query(["nf", "--group", "braid:9", "a1"], timeout=120)
    assert outcome == "error"
    assert line.endswith("exit 2  error: strand count must satisfy 2 <= n <= 8, got 9")
