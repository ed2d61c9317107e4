#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of the garside CLI operations.

    python3 bench/run.py --workload tnum-long --seed 1 --seconds 30 --trace 0

Each query is one in-process ``garside.cli.run_command([... "--json" ...])``
call with stdout captured, sent as a closed loop by one client in one
process with no threads.  Answers are verified after the timed loop.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric by name
with its unit, the failure share and the measured input properties.

The run is split over fresh processes so that set-up is measured cold:

* ``gen``: builds the seeded query pool (input generation is not set-up);
* ``worker``: imports garside, builds the structures, runs the warm-up pass
  (that is ``setup_s``), then the timed loop, then the checks;
* ``setup`` (ten more): the same set-up alone, so ``setup_s`` is the
  median of eleven cold starts.

On a CPU shared with other tenants a fixed piece of work can take half as
long again in one stretch of seconds as in the next.  So every time is scaled to a reference speed: after each query the worker
runs a fixed pure-Python *reference* computation and times it, and a
query's time is multiplied by ``REFERENCE_S`` over the median of the
reference times next to it.  Set-up is scaled the same way by reference runs
in its own process.  The unscaled wall-clock figures are printed too.

With ``--trace 1`` the worker instead runs a fixed prefix of the pool three
times: untraced (structures cache deltas), traced (spans and counts, see
``tracing.py``) and untraced again (the tracing overhead is the difference
in queries per second between the last two).  See README.md for the metric list.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"

# A query running longer than this is stopped and counted as failed; the
# slowest query in any workload takes about 2 s at the seed commit.
DEADLINE_S = 15.0
SETUP_PROBES = 10
# About the reference computation's median time on the 2-CPU Intel Xeon
# container, Python 3.11, of the README baseline; every scaled time is
# expressed at this speed.
REFERENCE_S = 0.00125
REFERENCE_ITERATIONS = 4000
# A query's speed is the median reference time of the queries within this
# many places of it: the runs straight before and after it and after the
# next query.  The host's speed changes within a second, so a wider window
# scales worse.  Set-up is scaled by SETUP_REFERENCES runs before and after.
REFERENCE_WINDOW = 1
SETUP_REFERENCES = 3
# A whole run must end within 180 s; child processes are stopped before.
RUN_BUDGET_S = 170.0


# ----------------------------------------------------------------------
# shared by the child roles
# ----------------------------------------------------------------------


def _import_garside():
    """Import garside from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import garside

    if not Path(garside.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"garside imported from {garside.__file__}, not from {SRC}")
    return garside


class _Deadline(BaseException):
    """Raised by SIGALRM inside a query that overran DEADLINE_S."""


def _on_alarm(signum, frame):
    raise _Deadline()


def _make_caller():
    """A function running one CLI query with captured output and a deadline."""
    import contextlib
    import io
    import signal

    from garside.cli import run_command

    signal.signal(signal.SIGALRM, _on_alarm)

    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = run_command(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except _Deadline:
            return "deadline", ""
        except Exception as exc:  # a crash is an answer to report, not a harness error
            return "raised", repr(exc)
        return rc, out.getvalue()

    return call


def _reference() -> float:
    """Seconds one run of a fixed pure-Python computation takes.

    It hashes tuples into a dict, as the library's caches do, and uses
    nothing from the library, so a change to the library leaves its time
    alone while a slower or busier host lengthens both alike.
    """
    start = time.perf_counter()
    table = {}
    key = (0, 0)
    for i in range(REFERENCE_ITERATIONS):
        key = (key[1], (key[0] + i) & 255)
        table[key] = table.get(key, 0) + 1
    return time.perf_counter() - start


def _scaled(seconds, references):
    """Wall seconds scaled to the reference speed."""
    return seconds * REFERENCE_S / statistics.median(references)


def _setup(data):
    """Import, build the structures and run the warm-up pass.

    Returns the set-up wall time, the same scaled to the reference speed by
    reference runs straight before and after it, and the query caller.
    """
    references = [_reference() for _ in range(SETUP_REFERENCES)]
    start = time.perf_counter()
    _import_garside()
    from garside import structure_from_descriptor

    for desc in data["structures"]:
        structure_from_descriptor(desc).enumerate_simples()
    call = _make_caller()
    for argv in data["warmup"]:
        call(argv)
    seconds = time.perf_counter() - start
    references += [_reference() for _ in range(SETUP_REFERENCES)]
    return seconds, _scaled(seconds, references), call


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _loop(call, queries, seconds=None, limit=None, tracer=None, checkpoint=None):
    """Closed loop over the pool; stops after `seconds` or `limit` queries.

    Returns the records (pool index, start, latency, reference time, exit
    code, stdout), the elapsed time, and the peak RSS read after
    `checkpoint` queries (or at the end, if the loop stops before).  The
    reference computation runs after each query, outside its latency.
    """
    records = []
    rss = None
    start = time.perf_counter()
    i = 0
    while True:
        now = time.perf_counter()
        if limit is not None and i >= limit:
            break
        if seconds is not None and now - start >= seconds:
            break
        if now - start >= RUN_BUDGET_S / 2:
            break
        index = i % len(queries)
        if tracer is not None:
            tracer.query = i
            span = tracer.open("cli.query")
        t0 = time.perf_counter()
        rc, out = call(queries[index]["argv"])
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.close(span)
        records.append((index, t0 - start, t1 - t0, _reference(), rc, out))
        i += 1
        if i == checkpoint:
            rss = _peak_rss_mb()
    return records, time.perf_counter() - start, rss if rss is not None else _peak_rss_mb()


def _verify(queries, records):
    """(failed, reasons): the queries that raised, exited non-zero, overran
    the deadline or failed their check, and a count per command and reason."""
    from checks import check

    failed = 0
    reasons = Counter()
    verdicts = {}
    for index, _, _, _, rc, out in records:
        key = (index, rc, out)
        if key not in verdicts:
            if rc in ("deadline", "raised"):
                verdicts[key] = rc
            else:
                verdicts[key] = check(queries[index], rc, out)
        reason = verdicts[key]
        if reason is not None:
            failed += 1
            reasons[f"{queries[index]['argv'][0]}: {reason}"] += 1
    return failed, dict(reasons)


# ----------------------------------------------------------------------
# roles
# ----------------------------------------------------------------------


def role_gen(args):
    _import_garside()
    from workloads import generate

    json.dump(generate(args.workload, args.seed), sys.stdout)


def role_setup(args):
    data = json.load(sys.stdin)
    seconds, scaled, _ = _setup(data)
    json.dump({"setup_s": scaled, "setup_wall_s": seconds}, sys.stdout)


def role_worker(args):
    data = json.load(sys.stdin)
    queries = data["queries"]
    if args.trace:
        return _trace_worker(args, data)
    setup_wall_s, setup_s, call = _setup(data)
    records, elapsed, peak = _loop(call, queries, seconds=args.seconds,
                                   checkpoint=data["rss_rounds"] * data["round"])
    failed, reasons = _verify(queries, records)
    json.dump({
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "elapsed_s": elapsed,
        "round": data["round"],
        "latencies": [r[2] for r in records],
        "references": [r[3] for r in records],
        "indices": [r[0] for r in records],
        "peak_rss_mb": peak,
        "failed": failed,
        "reasons": reasons,
    }, sys.stdout)


def _trace_worker(args, data):
    _import_garside()
    from tracing import FollowersTimer, Tracer, cache_stats

    followers = FollowersTimer()
    _, _, call = _setup(data)
    queries = data["queries"]
    rounds = max(1, round(args.seconds * data["trace_rounds_per_s"]))
    limit = min(len(queries), rounds * data["round"])
    # Pass 1, untraced, straight after the warm-up: the structures caches
    # still miss here, so their deltas are taken over this pass.
    caches_before = cache_stats()
    first, _, _ = _loop(call, queries, limit=limit)
    caches_after = cache_stats()
    # Pass 2 traced and pass 3 untraced run on the same warm caches; their
    # difference in queries per second is the tracing overhead.
    tracer = Tracer()
    tracer.install()
    try:
        traced, _, _ = _loop(call, queries, limit=limit, tracer=tracer)
    finally:
        tracer.remove()
        followers.remove()
    plain, _, _ = _loop(call, queries, limit=limit)
    metrics = tracer.metrics(caches_before, caches_after)
    tracer.write_spans(TRACE_DIR / f"{args.workload}-{args.seed}.tsv")
    records = first + traced + plain
    failed, reasons = _verify(queries, records)
    plain_qps, traced_qps = _scaled_rate(plain), _scaled_rate(traced)
    metrics.update({
        "enumeration.followers_build_s": followers.build_s,
        "trace.queries": len(traced),
        "trace.spans": len(tracer.spans),
        "trace.untraced_queries_per_s": plain_qps,
        "trace.traced_queries_per_s": traced_qps,
        "trace.overhead_queries_per_s": plain_qps - traced_qps,
    })
    json.dump({"metrics": metrics, "attempted": len(records), "failed": failed,
               "reasons": reasons}, sys.stdout)


# ----------------------------------------------------------------------
# orchestration
# ----------------------------------------------------------------------


def _child(role, args, stdin_text, deadline):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, input=stdin_text, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{role} process overran the {RUN_BUDGET_S:.0f} s run budget") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{role} process failed with exit code {proc.returncode}")
    return proc.stdout


def _spec() -> dict:
    """BENCHMARK.json: the workload names and the metrics to report."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _scaled_latencies(lats, refs) -> list[float]:
    """Each query's latency scaled by the reference runs next to it."""
    return [_scaled(lat, refs[max(0, i - REFERENCE_WINDOW):i + REFERENCE_WINDOW + 1])
            for i, lat in enumerate(lats)]


def _scaled_rate(records) -> float:
    """Queries per second of a loop's records at the reference speed."""
    return len(records) / sum(_scaled_latencies([r[2] for r in records], [r[3] for r in records]))


def _round_rate(size, latencies) -> float:
    """Median over complete rounds of the pool of queries per second.

    Every round holds the same mix, so each is one sample of the mix's
    throughput; a run shorter than one round falls back to the whole run.
    """
    rates = [size / sum(latencies[i:i + size]) for i in range(0, len(latencies) - size + 1, size)]
    return statistics.median(rates) if rates else len(latencies) / sum(latencies)


def _timings(size, lat_ms) -> dict:
    return {"queries_per_s": 1000.0 * _round_rate(size, lat_ms),
            "latency_p50_ms": statistics.median(lat_ms),
            "latency_p90_ms": _quantile(lat_ms, 0.9)}


def _quantile(values, q):
    """The q-quantile (0 < q < 1) by the exclusive method of statistics.quantiles."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="exclusive")[round(q * 100) - 1]


def describe(queries: list[dict]) -> dict:
    """Input properties of the queries a run sent."""
    n = len(queries)
    lengths, sizes = defaultdict(list), []
    for q in queries:
        lengths[f'{q["props"]["command"]} {q["props"]["structure"]}'].extend(q["props"]["lengths"])
        if "sss_size" in q["props"]:
            sizes.append(q["props"]["sss_size"])

    def spread(values):
        values = sorted(values)
        return {"min": values[0], "median": statistics.median(values), "max": values[-1]}

    out = {
        "structure_share": _shares(q["props"]["structure"] for q in queries),
        "command_share": _shares(q["props"]["command"] for q in queries),
        "negative_share": round(sum(q["props"]["negative"] for q in queries) / n, 4),
        "canonical_length": {d: spread(v) for d, v in sorted(lengths.items())},
    }
    if sizes:
        out["sss_size"] = spread(sizes)
    return out


def _shares(items):
    counts = Counter(items)
    total = sum(counts.values())
    return {k: round(v / total, 4) for k, v in sorted(counts.items())}


def orchestrate(args):
    deadline = time.monotonic() + RUN_BUDGET_S
    gen_text = _child("gen", args, "", deadline)
    data = json.loads(gen_text)
    result = json.loads(_child("worker", args, gen_text, deadline))
    spec = _spec()
    if args.trace:
        values = result["metrics"]
        attempted = result["attempted"]
    else:
        setup_input = json.dumps({k: data[k] for k in ("structures", "warmup")})
        setups = [result] + [json.loads(_child("setup", args, setup_input, deadline))
                             for _ in range(SETUP_PROBES)]
        lat_ms = [1000.0 * s for s in _scaled_latencies(result["latencies"], result["references"])]
        attempted = len(lat_ms)
        values = _timings(result["round"], lat_ms)
        values["setup_s"] = statistics.median(p["setup_s"] for p in setups)
        values["peak_rss_mb"] = result["peak_rss_mb"]
        wall = _timings(result["round"], [1000.0 * s for s in result["latencies"]])
        wall["setup_s"] = statistics.median(p["setup_wall_s"] for p in setups)
        wall["reference_ms"] = 1000.0 * statistics.median(result["references"])
        print("unscaled_wall " + json.dumps({k: round(v, 4) for k, v in wall.items()}))
        sent = [data["queries"][i] for i in result["indices"]]
        print("inputs " + json.dumps(describe(sent), sort_keys=True))
        by_slot = defaultdict(list)
        for q, ms in zip(sent, lat_ms):
            by_slot[q["props"]["slot"]].append(ms)
        print("latency_ms_by_slot " + json.dumps(
            {k: [len(v), round(statistics.median(v), 2), round(max(v), 2)]
             for k, v in sorted(by_slot.items())}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    failed = result["failed"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} queries, {failed} failed")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"latency_samples {attempted} count")
    print(f"failed_frac {failed / attempted if attempted else 0:.6g} 1")
    if result["reasons"]:
        print("failures " + json.dumps(result["reasons"], sort_keys=True))
    # No query fails at the seed commit, so any failure, a resource limit or
    # deadline included, makes the run incorrect.
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in _spec()["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("gen", "worker", "setup"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    role = {"gen": role_gen, "worker": role_worker, "setup": role_setup}.get(args.role, orchestrate)
    role(args)


if __name__ == "__main__":
    main()
