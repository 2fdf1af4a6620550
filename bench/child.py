"""One workload in one fresh process: set up, warm up, then time or trace.

`run.py` starts this file; it prints a single JSON line.  Modes:

  setup    build the seeded inputs and expected answers, report when ready
  measure  set up, one untimed warm-up pass, then timed passes (tracing off)
  trace    set up, warm up, then alternate untimed-tracing and traced passes

Passes run back to back in this one process (a closed loop with a single
caller) until the next pass would end past --seconds, with at least
MIN_PASSES timed passes (two traced rounds when tracing).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# A median with a middle: the longest workloads fit only two passes in 20 s.
MIN_PASSES = 3


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under .bench_tmp/ in the checkout, removed after."""
    base = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(base, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=base)
    try:
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(base)  # only once no other run is using it


def _import_package():
    """Import `mspotty` from this checkout's sources, and nothing else."""
    sys.path[:0] = [SRC, HERE]
    import mspotty

    where = os.path.dirname(os.path.abspath(mspotty.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise ImportError(f"mspotty imported from {where}, not from {SRC}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _loop(seconds: float, at_least: int, one_round) -> None:
    """Call one_round() at least `at_least` times, then until the next round
    would end past `seconds`; one_round returns the seconds it took."""
    end = time.perf_counter() + seconds
    took = [one_round() for _ in range(at_least)]
    while time.perf_counter() + statistics.median(took) <= end:
        took.append(one_round())


def measure(cases, seconds: float) -> dict:
    from workloads import run_pass

    times, failed, errors = [], 0, []

    def one_pass():
        nonlocal failed
        t0 = time.perf_counter()
        problems = run_pass(cases)
        dt = time.perf_counter() - t0
        times.append(dt)
        if problems:
            failed += 1
            errors.extend(problems)
        return dt

    _loop(seconds, MIN_PASSES, one_pass)
    return {"passes": times, "failed": failed, "errors": errors[:5]}


def _workers_speedup() -> tuple[float, int]:
    """Worked-example dual seconds at 1 worker over min(2, nproc) workers."""
    from mspotty import code
    from workloads import worked_matrix

    G = worked_matrix()
    workers = min(2, os.cpu_count() or 1)
    seconds = []
    for k in (1, workers):
        t0 = time.perf_counter()
        code.dual(G, workers=k)
        seconds.append(time.perf_counter() - t0)
    return seconds[0] / seconds[1], workers


def _traced_pass(cases, tracer) -> tuple[list[str], dict]:
    """One pass under `tracer`; returns failures and the counts per case."""
    problems, per_case = [], {}
    for case in cases:
        before = Counter(tracer.counts)
        msg = case.check()
        if msg:
            problems.append(msg)
        per_case[case.name] = dict(tracer.counts - before)
    return problems, per_case


def trace(cases, seconds: float, spans_path: str | None) -> dict:
    from tracing import Tracer, installed
    from workloads import run_pass

    plain, traced, layers, errors = [], [], [], []
    counts, counts_repeat, last = None, True, None
    failed = 0

    def one_round():
        nonlocal failed, counts, counts_repeat, last
        t0 = time.perf_counter()
        problems = run_pass(cases)
        plain.append(time.perf_counter() - t0)
        with installed(Tracer()) as tracer:
            t1 = time.perf_counter()
            problems_traced, per_case = _traced_pass(cases, tracer)
            traced.append(time.perf_counter() - t1)
        for p in (problems, problems_traced):
            if p:
                failed += 1
                errors.extend(p)
        inclusive, self_time, top = tracer.layer_times()
        layers.append({"inclusive": inclusive, "self": self_time, "top": top})
        if counts is None:
            counts = per_case
        elif counts != per_case:
            counts_repeat = False
        last = tracer
        return plain[-1] + traced[-1]

    _loop(seconds, 2, one_round)  # two traced passes, so counts can repeat
    if spans_path:
        last.write(spans_path)

    def median_of(kind, name):
        return statistics.median(layer[kind].get(name, 0.0) for layer in layers)

    names = sorted({n for layer in layers for n in layer["inclusive"]})
    return {
        "passes": plain,
        "traced": traced,
        "failed": failed,
        "attempted": len(plain) + len(traced),
        "errors": errors[:5],
        "inclusive_s": {n: median_of("inclusive", n) for n in names},
        "self_s": {n: median_of("self", n) for n in names},
        "coverage": statistics.median(
            layer["top"] / t for layer, t in zip(layers, traced)
        ),
        "case_counts": counts,
        "counts_repeat": counts_repeat,
        "missing": last.missing,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--tmp", required=True, help="scratch directory to write inputs in")
    ap.add_argument("--spans", help="write the last traced pass's spans here")
    args = ap.parse_args(argv)

    _import_package()
    import workloads

    with tempfile.TemporaryDirectory(dir=args.tmp) as tmp:
        cases = workloads.build(args.workload, args.seed, tmp)
        result = {"ready": time.monotonic()}
        if args.mode != "setup":
            warm = workloads.run_pass(cases)
            if args.mode == "measure":
                result.update(measure(cases, args.seconds))
            else:
                result.update(trace(cases, args.seconds, args.spans))
                if args.workload == "worked_dual":
                    result["workers_speedup"], result["workers"] = _workers_speedup()
            result["warmup_errors"] = warm
    result["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
