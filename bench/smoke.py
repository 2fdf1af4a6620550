"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Every workload runs one pass at reduced size with all checks on, then two
traced passes whose work counts must agree exactly and reach every wrapped
layer the workload uses.  A corrupted expected answer must make the failed
ratio nonzero (negative control), and run.py must refuse to run without
the package sources.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from math import comb

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mspotty.polynomial import Polynomial  # noqa: E402

SEED = 7

# Wrapped layers each small workload must reach.
REACHES = {
    "worked_dual": {"cli.main", "code.dual", "code.dual.scan", "macwilliams.transform"},
    "transform_tables": {"macwilliams.transform", "polynomial.mul"},
    "verify_grid": {"cli.main", "oracle.campaign", "oracle.support_sums", "code.dual"},
}


def traced_counts(cases):
    with tracing.installed(tracing.Tracer()) as tracer:
        problems, per_case = child._traced_pass(cases, tracer)
    return problems, per_case, {span[0] for span in tracer.spans}, tracer.missing


def check_workload(name: str, tmp: str) -> list[str]:
    cases = workloads.build(name, SEED, tmp, small=True)
    bad = [f"{name}: {p}" for p in workloads.run_pass(cases)]
    first = traced_counts(cases)
    # a second set-up from the same seed must give identical counts
    again = traced_counts(workloads.build(name, SEED, tmp, small=True))
    for problems, _, reached, missing in (first, again):
        bad += [f"{name} traced: {p}" for p in problems]
        bad += [f"{name}: wrapped target missing: {m}" for m in missing]
        bad += [f"{name}: never reached {r}" for r in REACHES[name] - reached]
    if first[1] != again[1]:
        bad.append(f"{name}: counts differ between runs: {first[1]} vs {again[1]}")
    return bad


def check_known_counts(tmp: str) -> list[str]:
    """Counts fixed by the inputs, independent of the seed."""
    bad = []
    _, per_case, _, _ = traced_counts(workloads.build("worked_dual", SEED, tmp, small=True))
    worked = per_case["worked dual"]
    if (worked.get("code.dual.vectors"), worked.get("code.dual.hits")) != (1 << 24, 32768):
        bad.append(f"worked dual counts {worked}")
    _, per_case, _, _ = traced_counts(
        workloads.build("transform_tables", SEED, tmp, small=True)
    )
    rows = [c["macwilliams.transform.rows"] for c in per_case.values()]
    if rows != [comb(4 + 4, 4), comb(2 + 8, 8)]:
        bad.append(f"transform rows {rows}")
    return bad


def check_negative_control(tmp: str) -> list[str]:
    cases = workloads.build("transform_tables", SEED, tmp, small=True)
    cases[0].expected = cases[0].expected + Polynomial.monomial(0)
    result = child.measure(cases, seconds=0.0)
    if result["failed"] / len(result["passes"]) > 0:
        return []
    return ["negative control: a corrupted expected answer did not fail"]


def check_declared_metrics() -> list[str]:
    """run.py reports exactly the metrics BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    bad = []
    for key, reported in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        names = [m["name"] for m in declared[key]]
        if names != list(reported):
            bad.append(f"{key}: BENCHMARK.json lists {names}, run.py {list(reported)}")
    if [w["name"] for w in declared["workloads"]] != list(workloads.WORKLOADS):
        bad.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    return bad


def check_refuses_without_sources(tmp: str) -> list[str]:
    bare = os.path.join(tmp, "bare")
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, os.path.join(bare, "bench"), ignore=skip)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    argv = ["--workload", "verify_grid", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *argv],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0 and '"correct"' not in proc.stdout:
        return []
    return [f"run.py without sources exited {proc.returncode}: {proc.stdout[-200:]}"]


def main() -> int:
    bad = []
    with child.scratch_dir() as tmp:
        for name in workloads.WORKLOADS:
            bad += check_workload(name, tmp)
        bad += check_known_counts(tmp)
        bad += check_negative_control(tmp)
        bad += check_declared_metrics()
        bad += check_refuses_without_sources(tmp)
    for line in bad:
        print(f"FAIL {line}")
    print("smoke: ok" if not bad else f"smoke: {len(bad)} failures")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
