"""Seeded inputs, expected answers and passes for the benchmark workloads.

A workload is a list of cases.  Each case solves one input through a public
entry point of `mspotty` (`cli.main`, `macwilliams.transform`) and checks
its own output against an answer fixed in set-up, so a pass fails exactly
when some output is wrong.  Every input is derived from the workload seed;
matrix files are written with `format_element` into a scratch directory.

The entry points are looked up on their modules at call time (`cli.main`,
not a name bound at import) so that the traced run can wrap them.

Why each workload exists:

* worked_dual -- the paper's running example through `transform` and
  `dual`, plus a seeded code with a small dual.  The exhaustive scan in
  `code.dual` does nearly all the work; the large dual also pays for
  turning 32,768 hits into code objects, the small one almost only scans.
* transform_tables -- full-composition distribution tables (10,626 and
  12,870 alpha rows, |C| up to 2^240) handed straight to
  `macwilliams.transform`.  Its cost grows with rows and bigint size, not
  with |C|; no span, scan or CLI runs.
* verify_grid -- the default brute-force identity campaign, the only
  workload for `oracle`.

A span-heavy workload (seeded codes through `transform`) is left out: with
three workloads each run can measure for 30 s, which the noise of a shared
2-CPU host needs.  Span, distribution and enumerator are still measured, on
worked_dual and verify_grid.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from math import comb
from typing import Callable

from mspotty import cli, macwilliams
from mspotty.code import ByteLayout, GeneratorMatrix, dual, span
from mspotty.polynomial import Polynomial
from mspotty.ring import RingElement, format_element
from mspotty.weight import (
    DistributionTable,
    distribution,
    enumerator,
    hamming_weight,
)

# The bundled worked example: m=4, b=3, t=2, n=2, rows as coefficient masks.
WORKED_M, WORKED_B, WORKED_T = 4, 3, 2
WORKED_ROWS = ((1, 0, 0, 6, 0, 0), (0, 2, 0, 4, 0, 8), (0, 0, 4, 0, 8, 0))
WORKED_DUAL_SIZE = 32768
WORKED_W_DUAL = Polynomial({0: 1, 1: 85, 2: 3153, 3: 9707, 4: 19822})


@dataclass
class Case:
    """One input: `solve` runs it, `verdict(output, expected)` returns an
    error message or None."""

    name: str
    solve: Callable[[], object]
    expected: object
    verdict: Callable[[object, object], str | None]

    def check(self) -> str | None:
        try:
            output = self.solve()
        except (Exception, SystemExit) as exc:  # any raise is a failed output
            return f"{self.name}: raised {type(exc).__name__}: {exc}"
        problem = self.verdict(output, self.expected)
        return f"{self.name}: {problem}" if problem else None


def run_pass(cases: list[Case]) -> list[str]:
    """Solve and check every case once; returns the failure messages."""
    return [msg for msg in (c.check() for c in cases) if msg]


# --- inputs ---------------------------------------------------------------


def is_free(G: GeneratorMatrix) -> bool:
    """True when the rows span a free code of size 2^(m*k).

    Over the local ring F2[u]/(u^m) that holds exactly when the rows reduced
    mod u are independent over F2; this rank test does not call `span`.
    """
    pivots: dict[int, int] = {}
    for row in G.rows:
        v = sum((x.bits & 1) << i for i, x in enumerate(row))
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
        else:
            return False
    return True


def free_matrix(rng: random.Random, m, b, t, n, k) -> GeneratorMatrix:
    """A uniformly random k-row matrix, resampled until the code has the
    fixed size 2^(m*k)."""
    layout = ByteLayout(b=b, t=t, n=n)
    while True:
        rows = [
            [RingElement(m, rng.randrange(1 << m)) for _ in range(layout.N)]
            for _ in range(k)
        ]
        G = GeneratorMatrix(rows, layout, m=m)
        if is_free(G):
            return G


def write_matrix(G: GeneratorMatrix, path: str) -> str:
    lay = G.layout
    lines = [f"m={G.m} b={lay.b} t={lay.t}"]
    lines += [" ".join(format_element(x) for x in row) for row in G.rows]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def worked_matrix() -> GeneratorMatrix:
    layout = ByteLayout(b=WORKED_B, t=WORKED_T, n=2)
    rows = [[RingElement(WORKED_M, x) for x in row] for row in WORKED_ROWS]
    return GeneratorMatrix(rows, layout, m=WORKED_M)


# --- CLI cases --------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _json_result(output) -> tuple[dict | None, str | None]:
    rc, text = output
    if rc != 0:
        return None, f"exit code {rc}"
    return json.loads(text), None


def _dual_verdict(key: str):
    """Checks dual_size and the dual enumerator found under `key`."""

    def verdict(output, expected) -> str | None:
        obj, problem = _json_result(output)
        if problem:
            return problem
        size, W = expected
        got = Polynomial.from_json_terms(obj[key]["terms"])
        if int(obj["dual_size"]) != size:
            return f"dual_size {obj['dual_size']} != {size}"
        if got != W:
            return f"dual enumerator {got} != {W}"
        return None

    return verdict


def _verify_verdict(output, expected) -> str | None:
    obj, problem = _json_result(output)
    if problem:
        return problem
    reports = obj["reports"]
    if len(reports) != expected:
        return f"{len(reports)} reports, expected {expected}"
    bad = [r["lemma"] for r in reports if not r["pass"]]
    if bad or obj["pass"] is not True:
        return f"failed reports: {bad}"
    return None


def _cli_case(name, argv, expected, verdict) -> Case:
    return Case(name, lambda: run_cli(argv), expected, verdict)


# --- workloads ----------------------------------------------------------------


def worked_dual(rng: random.Random, tmp: str, small: bool) -> list[Case]:
    path = write_matrix(worked_matrix(), os.path.join(tmp, "worked.txt"))
    # (m, b, t, n, k): a 2^24 scan with |C| = |C-dual| = 4096
    shape = (2, 3, 2, 2, 3) if small else (4, 3, 2, 2, 3)
    G = free_matrix(rng, *shape)
    rpath = write_matrix(G, os.path.join(tmp, "random.txt"))
    C = span(G)
    W_dual = macwilliams.transform(distribution(C), len(C))
    known = (WORKED_DUAL_SIZE, WORKED_W_DUAL)
    dual_args = ["--format", "json", "--workers", "1"]
    return [
        _cli_case(
            "worked transform",
            ["transform", path, "--format", "json"],
            known,
            _dual_verdict("dual_enumerator"),
        ),
        _cli_case(
            "worked dual", ["dual", path, *dual_args], known, _dual_verdict("enumerator")
        ),
        _cli_case(
            "random dual",
            ["dual", rpath, *dual_args],
            ((1 << (G.m * G.layout.N)) // len(C), W_dual),
            _dual_verdict("enumerator"),
        ),
    ]


def _byte_code(rng: random.Random, m: int, b: int, t: int, k: int):
    """A free one-byte code holding words of every Hamming weight 0..b, as
    (Hamming-weight histogram, size, enumerator of its scanned dual)."""
    while True:
        G = free_matrix(rng, m, b, t, 1, k)
        hist = [0] * (b + 1)
        for w in span(G):
            hist[hamming_weight(w)] += 1
        if all(hist):
            return hist, sum(hist), enumerator(dual(G))


def direct_sum_table(
    byte_codes: list, m: int, b: int, t: int
) -> tuple[DistributionTable, int, Polynomial]:
    """Alpha distribution, size and dual enumerator of the byte-wise direct
    sum of the given one-byte codes (as made by `_byte_code`).

    The table convolves the per-byte histograms; the dual enumerator is the
    product of the per-byte dual enumerators, so it does not go through the
    transform.
    """
    counts = {(0,) * (b + 1): 1}
    W_dual = Polynomial.one()
    size = 1
    for hist, byte_size, byte_W_dual in byte_codes:
        grown: dict[tuple[int, ...], int] = {}
        for alpha, c in counts.items():
            for h, ch in enumerate(hist):
                key = alpha[:h] + (alpha[h] + 1,) + alpha[h + 1 :]
                grown[key] = grown.get(key, 0) + c * ch
        counts = grown
        size *= byte_size
        W_dual = W_dual * byte_W_dual
    table = DistributionTable(counts, ByteLayout(b=b, t=t, n=len(byte_codes)), m)
    return table, size, W_dual


def _transform_verdict(output, expected) -> str | None:
    return None if output == expected else f"transform gives {output}, expected {expected}"


BYTE_CODE_POOL = 4


def transform_tables(rng: random.Random, tmp: str, small: bool) -> list[Case]:
    # (m, b, t, n, rows per byte code): C(n+b, b) alpha rows each
    shapes = ((4, 4, 2, 4, 3), (2, 8, 3, 2, 4)) if small else (
        (4, 4, 2, 20, 3),  # 10,626 rows, |C| = 2^240
        (2, 8, 3, 8, 4),  # 12,870 rows, |C| = 2^64
    )
    cases = []
    for m, b, t, n, k in shapes:
        # Each byte draws its code from a small seeded pool: spanning a
        # fresh 4096-word code for every one of 20 bytes would dominate set-up.
        pool = [_byte_code(rng, m, b, t, k) for _ in range(BYTE_CODE_POOL)]
        codes = [rng.choice(pool) for _ in range(n)]
        table, size, W_dual = direct_sum_table(codes, m, b, t)
        if len(table) != comb(n + b, b):
            raise RuntimeError(f"table has {len(table)} rows, not C({n + b}, {b})")
        cases.append(
            Case(
                f"table m={m} b={b} t={t} n={n}",
                lambda table=table, size=size: macwilliams.transform(table, size),
                W_dual,
                _transform_verdict,
            )
        )
    return cases


def campaign_reports(ms, bs) -> int:
    """Report count of `verify` over a grid: 3.1, 3.2, the partition check
    for m >= 2, five per-byte lemmas plus one 3.6 per t for each b, and 3.7."""
    per_b = sum(5 + b for b in bs)
    return sum(3 + (m >= 2) + per_b for m in ms)


def verify_grid(rng: random.Random, tmp: str, small: bool) -> list[Case]:
    seed = rng.getrandbits(64)
    argv = ["verify", "--format", "json", "--seed", str(seed)]
    ms, bs = (1, 2, 3, 4), (1, 2, 3)
    if small:
        ms, bs = (1, 2), (1, 2)
        argv += ["--grid-m", "1,2", "--grid-b", "1,2", "--samples", "10"]
    return [_cli_case("verify", argv, campaign_reports(ms, bs), _verify_verdict)]


_BUILDERS = {
    "worked_dual": worked_dual,
    "transform_tables": transform_tables,
    "verify_grid": verify_grid,
}


WORKLOADS = tuple(_BUILDERS)


def build(name: str, seed: int, tmp: str, small: bool = False) -> list[Case]:
    """Generate the inputs of workload `name` from `seed` and fix the
    expected answer of each."""
    return _BUILDERS[name](random.Random(f"{name}:{seed}"), tmp, small)
