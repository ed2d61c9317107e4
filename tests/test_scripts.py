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


def test_hard_inputs_know_every_id():
    # Pinned, not run: several of these take from 5 to more than 90 s.
    spec = importlib.util.spec_from_file_location("hard_inputs", ROOT / "scripts/hard_inputs.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    expected = [*(f"H1{c}" for c in "abcd"), *(f"H2{c}" for c in "abcd"), "H3a", "H3b", "H3c",
                "H4a", "H4b", "H5a", "H5b", "H5c", "H6a", "H6b", "H7",
                *(f"H8{c}" for c in "abcde")]
    assert list(script.INPUTS) == expected
    # Every CLI input is a valid command on words that parse.
    for kind, argv in script.INPUTS.values():
        if kind == "cli":
            args = _build_parser().parse_args(argv)
            S = structure_from_descriptor(args.group)
            for name in ("word", "word1", "word2"):
                if hasattr(args, name):
                    parse_word(S, getattr(args, name))
    with pytest.raises(SystemExit):
        script.main(["H9"])
