"""mspotty benchmark: seeded, self-checking workloads through the public API.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in fresh child
processes (bench/child.py), one at a time, so that set-up time and peak
memory belong to that workload.  The dual scan always runs with one worker.

--trace 0 prints the end-to-end metrics, measured with tracing off:
  solve_s      median wall seconds per pass; a pass solves every input once
               and checks every output
  setup_s      child start to inputs ready (interpreter and imports, seeded
               inputs written, expected answers computed), median of three
               fresh children; the untimed warm-up pass follows it
  peak_rss_mb  peak resident memory of the measuring child
failed_ratio (failed passes / passes attempted, the warm-up pass included)
is printed with them and is carried by `failed` and `attempted` in the
result line.

--trace 1 prints per-layer metrics from a separate run that alternates
untraced and traced passes: inclusive (`_s`) and self seconds per pass of
the calls into each layer, exact work counts, and the tracing overhead.
A layer the workload never calls reads 0.

Before it, one JSON line stamps the environment (nproc, Python and numpy
versions, seed, load average at start and end).  The last line of stdout is
one JSON object: correct, attempted, failed, metrics.  Any failure to run
exits non-zero without printing it.  `python3 bench/smoke.py` tests the
benchmark itself.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

from child import scratch_dir

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

WORKLOADS = ("worked_dual", "transform_tables", "verify_grid")
RUN_LIMIT_S = 170.0  # per workload; a run must end within 180 s

END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (unit, source): ("inclusive"|"self", span name) for
# times, ("count", counter name) for work counts, or a derived value.
PER_LAYER = {
    "code.load_matrix_s": ("s", ("inclusive", "code.load_matrix")),
    "code.span_s": ("s", ("inclusive", "code.span")),
    "code.span.codewords": ("count", ("count", "code.span.codewords")),
    "code.dual_s": ("s", ("inclusive", "code.dual")),
    "code.dual.scan_s": ("s", ("inclusive", "code.dual.scan")),
    "code.dual.build_s": ("s", ("self", "code.dual")),
    "code.dual.vectors": ("count", ("count", "code.dual.vectors")),
    "code.dual.hits": ("count", ("count", "code.dual.hits")),
    "code.dual.hit_ratio": ("ratio", "hit_ratio"),
    "code.dual.workers_speedup": ("ratio", "workers_speedup"),
    "weight.distribution_s": ("s", ("inclusive", "weight.distribution")),
    "weight.enumerator_s": ("s", ("inclusive", "weight.enumerator")),
    "weight.distribution.rows": ("count", ("count", "weight.distribution.rows")),
    "macwilliams.transform_s": ("s", ("inclusive", "macwilliams.transform")),
    "macwilliams.transform.rows": ("count", ("count", "macwilliams.transform.rows")),
    "macwilliams.transform.degree": (
        "count",
        ("count", "macwilliams.transform.degree"),
    ),
    "polynomial.mul_calls": ("count", ("count", "polynomial.mul_calls")),
    "polynomial.mul_term_pairs": ("count", ("count", "polynomial.mul_term_pairs")),
    "polynomial.mul_s": ("s", ("inclusive", "polynomial.mul")),
    "oracle.campaign_s": ("s", ("inclusive", "oracle.campaign")),
    "oracle.support_sums_s": ("s", ("inclusive", "oracle.support_sums")),
    "oracle.support_sums.calls": ("count", ("count", "oracle.support_sums.calls")),
    "oracle.poisson_check_s": ("s", ("inclusive", "oracle.poisson_check")),
    "oracle.campaign.checks": ("count", ("count", "oracle.campaign.checks")),
    "cli.main_s": ("s", ("inclusive", "cli.main")),
    "cli.self_s": ("s", ("self", "cli.main")),
    "trace.pass_s": ("s", "traced_pass"),
    "trace.overhead_s": ("s", "overhead"),
    "trace.coverage": ("ratio", "coverage"),
}


class BenchError(Exception):
    pass


def run_child(workload, seed, mode, seconds, tmp, deadline, spans=None):
    """Run child.py once; returns its JSON result and its start time."""
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed)]
    cmd += ["--mode", mode, "--seconds", repr(seconds), "--tmp", tmp]
    if spans:
        cmd += ["--spans", spans]
    started = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{workload} {mode}: child ran past the time limit") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload} {mode}: child exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), started


def tail_percentile(times: list[float]) -> tuple[int, float] | None:
    """The highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    best = None
    for p in (75, 90, 95, 99):
        if len(times) * (100 - p) / 100 >= 10:
            best = (p, statistics.quantiles(times, n=100)[p - 1])
    return best


def end_to_end(workload, seed, seconds, tmp, deadline):
    def setup_only():
        r, started = run_child(workload, seed, "setup", 0, tmp, deadline)
        return r["ready"] - started

    # One set-up-only child on each side of the measuring one, so that the
    # median samples the host at both ends of the run.
    setups = [setup_only()]
    r, started = run_child(workload, seed, "measure", seconds, tmp, deadline)
    setups += [r["ready"] - started, setup_only()]
    passes = r["passes"]
    metrics = {
        "solve_s": statistics.median(passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": r["peak_rss_mb"],
    }
    failed = r["failed"] + bool(r["warmup_errors"])
    attempted = len(passes) + 1
    line = (
        f"{workload}: solve_s={metrics['solve_s']:.4f} s (median of "
        f"{len(passes)} passes"
    )
    tail = tail_percentile(passes)
    if tail:
        line += f", p{tail[0]} {tail[1]:.4f} s"
    line += (
        f"), setup_s={metrics['setup_s']:.4f} s (median of {len(setups)}), "
        f"peak_rss_mb={metrics['peak_rss_mb']:.1f} MB, "
        f"failed_ratio={failed / attempted:.4f} ({failed}/{attempted} passes)"
    )
    print(line)
    for err in r["errors"] + r["warmup_errors"]:
        print(f"  check failed: {err}")
    print(json.dumps({"samples": {"passes_s": passes, "setups_s": setups}}))
    return metrics, END_TO_END, attempted, failed, failed == 0


def per_layer(workload, seed, seconds, tmp, deadline):
    spans_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, f"spans-{workload}.jsonl")
    r, _ = run_child(workload, seed, "trace", seconds, tmp, deadline, spans)
    counts = Counter()
    for case_counts in r["case_counts"].values():
        counts.update(case_counts)
    plain, traced = statistics.median(r["passes"]), statistics.median(r["traced"])
    vectors = counts.get("code.dual.vectors", 0)
    derived = {
        "hit_ratio": counts.get("code.dual.hits", 0) / vectors if vectors else 0.0,
        "workers_speedup": r.get("workers_speedup", 0.0),
        "traced_pass": traced,
        "overhead": traced - plain,
        "coverage": r["coverage"],
    }
    tables = {"inclusive": r["inclusive_s"], "self": r["self_s"], "count": counts}
    metrics = {}
    for name, (_, source) in PER_LAYER.items():
        if isinstance(source, tuple):
            metrics[name] = tables[source[0]].get(source[1], 0)
        else:
            metrics[name] = derived[source]
    failed = r["failed"] + bool(r["warmup_errors"])
    attempted = r["attempted"] + 1
    correct = failed == 0 and r["counts_repeat"]
    print(
        f"{workload}: traced pass {traced:.4f} s vs untraced {plain:.4f} s "
        f"(overhead {traced - plain:+.4f} s, {len(r['traced'])} traced passes); "
        f"top-level spans cover {r['coverage']:.1%}; "
        f"counts repeat exactly: {r['counts_repeat']}"
    )
    if "workers" in r:
        print(f"  workers_speedup measured at 1 vs {r['workers']} workers")
    for name, (unit, _) in PER_LAYER.items():
        if metrics[name]:
            print(f"  {name:<30} {metrics[name]:>14.6g} {unit}")
    for case, case_counts in r["case_counts"].items():
        listed = ", ".join(f"{k}={v}" for k, v in sorted(case_counts.items()))
        print(f"  counts for {case}: {listed or 'none'}")
    if r["missing"]:
        print(f"  missing (no longer in the package): {', '.join(r['missing'])}")
    print(f"  spans of the last traced pass: {os.path.relpath(spans, ROOT)}")
    for err in r["errors"] + r["warmup_errors"]:
        print(f"  check failed: {err}")
    units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    return metrics, units, attempted, failed, correct


def environment(seed) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "seed": seed,
        "loadavg_start": os.getloadavg(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="mspotty benchmark")
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    if not os.path.isfile(os.path.join(ROOT, "src", "mspotty", "__init__.py")):
        print(f"error: no mspotty sources under {ROOT}/src", file=sys.stderr)
        return 2
    env = environment(args.seed)
    one = per_layer if args.trace else end_to_end
    results = {}
    try:
        with scratch_dir() as tmp:
            for name in names:
                results[name] = one(name, args.seed, args.seconds, tmp, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = os.getloadavg()
    print(json.dumps({"env": env}))

    metrics = {}
    for name, (values, units, *_) in results.items():
        prefix = "" if len(names) == 1 else f"{name}."
        for key, value in values.items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
    summary = {
        "correct": all(r[4] for r in results.values()),
        "attempted": sum(r[2] for r in results.values()),
        "failed": sum(r[3] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
