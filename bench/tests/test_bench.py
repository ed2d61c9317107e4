"""Self-test of the benchmark harness.

    python3 -m pytest bench/tests -q

Inputs are a function of the seed, per-layer counts repeat exactly for a
seed, every end-to-end metric of BENCHMARK.json is reported with its unit,
the answer checks reject tampered answers, and the benchmark refuses to run
without the library's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
RUN = BENCH / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, script=RUN, check=True):
    return subprocess.run([sys.executable, str(script), *args], capture_output=True, text=True,
                          cwd=script.parent.parent, check=check, timeout=170)


def _gen(workload, seed):
    out = _run("--role", "gen", "--workload", workload, "--seed", str(seed), "--seconds", "1").stdout
    return json.loads(out)


def _result(*args):
    return json.loads(_run(*args).stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_follow_the_seed(workload):
    a, b, c = _gen(workload, 1), _gen(workload, 1), _gen(workload, 2)
    assert a == b
    assert [q["argv"] for q in a["queries"]] != [q["argv"] for q in c["queries"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_a_seed(workload):
    args = ("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1")
    runs = [_result(*args) for _ in range(2)]
    for run in runs:
        assert run["correct"] and run["failed"] == 0
        assert {m["name"] for m in SPEC["per_layer"]} == set(run["metrics"])
    counts = [{k: m["value"] for k, m in run["metrics"].items() if m["unit"] in ("count", "1")}
              for run in runs]
    assert counts[0] == counts[1]
    assert counts[0]["core.normalize_calls"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_units(workload):
    run = _result("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: m["unit"] for name, m in run["metrics"].items()}
    assert all(m["value"] > 0 for m in run["metrics"].values())


def _tampered(answer: dict) -> dict:
    answer = dict(answer)
    if "conjugate" in answer:
        answer["conjugate"] = not answer["conjugate"]
    elif "outcome" in answer:
        answer["outcome"] = "no_solution" if answer["outcome"] == "solution" else "solution"
    elif "t_D" in answer:
        answer["t_Dbar"] = "1/1000"
    elif "size" in answer:
        answer["elements"] = answer["elements"][1:]
    else:
        answer["inf_s"] += 1
    return answer


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_accept_answers_and_reject_tampered_ones(workload):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import run
    from checks import check

    call = run._make_caller()
    data = _gen(workload, 7)
    for query in data["queries"][:data["round"]]:
        rc, out = call(query["argv"])
        assert check(query, rc, out) is None, query["argv"]
        assert check(query, rc, json.dumps(_tampered(json.loads(out)))) is not None, query["argv"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "solver-mix", "--seed", "1", "--seconds", "1", "--trace", "0",
                script=tmp_path / "bench" / "run.py", check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
