"""The example and timing scripts run against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
