"""Mutation check: each seeded fault in `src/` must fail its tests.

    python3 tools/mutants.py

Copies `src/` and `tests/` to a temporary directory, runs every test
selection there once unmutated, then applies each mutant in turn (one exact
text replacement, restored afterwards) and runs its selection with
`python -m pytest -q -x -p no:cacheprovider`.  A mutant is killed when its
selection fails.  The comment-only control is expected to survive.  Exits 1
if an unmutated selection fails, if a mutant's old text is not found exactly
once, or if any mutant's outcome is not the expected one.  Nothing is
written into the repository.  Standard library only; takes no options.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
#: Seconds before a selection counts as hung; a hung mutant is killed.
TIMEOUT = 600
_IGNORED = shutil.ignore_patterns("__pycache__", ".hypothesis")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in `path`
    new: str
    selection: tuple[str, ...]
    survives: bool = False  # only the control


CODE, WEIGHT = "src/mspotty/code.py", "src/mspotty/weight.py"
MACWILLIAMS, ORACLE = "src/mspotty/macwilliams.py", "src/mspotty/oracle.py"
POLYNOMIAL = "src/mspotty/polynomial.py"

MUTANTS = [
    Mutant(
        "_mirror returns i",
        CODE,
        "return i + m - 1 - 2 * (i % m)",
        "return i",
        ("tests/test_code.py",),
    ),
    Mutant(
        "_echelon without back-substitution",
        CODE,
        "for p in sorted(basis):  # ascending",
        "for p in ():  # ascending",
        ("tests/test_code.py",),
    ),
    Mutant(
        "_AlphaRows key field one bit narrower",
        WEIGHT,
        "self.layout, self.bits = layout, layout.n.bit_length()",
        "self.layout, self.bits = layout, layout.n.bit_length() - 1",
        ("tests/test_weight.py",),
    ),
    Mutant(
        "transform folds the rows ascending",
        MACWILLIAMS,
        "alphas, counts = dist.alphas[::-1], dist.counts[::-1]",
        "alphas, counts = dist.alphas, dist.counts",
        ("tests/test_macwilliams.py",),
    ),
    Mutant(
        "_fold stops the b <= 2 trie at depth b",
        MACWILLIAMS,
        "depth, values = b + 1, iter(counts)",
        "depth, values = b, iter(counts)",
        ("tests/test_macwilliams.py",),
    ),
    Mutant(
        "a block's digit cap ignored",
        CODE,
        "min(_BLOCK_BITS, _BLOCK_DIGIT_BITS - (N - 1).bit_length())",
        "min(_BLOCK_BITS, _BLOCK_DIGIT_BITS)",
        ("tests/test_code.py::test_blocks_run_in_canonical_order",),
    ),
    Mutant(
        "_multiples keeps the bits carried past u^(m-1)",
        CODE,
        "yield v << i & ((1 << m) - (1 << i)) * ones",
        "yield v << i & ((1 << m) - 1) * ones",
        ("tests/test_code.py",),
    ),
    Mutant(
        "_multiples shifts by i + 1",
        CODE,
        "yield v << i & (",
        "yield v << i + 1 & (",
        ("tests/test_code.py",),
    ),
    Mutant(
        "generating_rows stops one row early",
        CODE,
        "for v in gens]",
        "for v in gens[:-1]]",
        ("tests/test_code.py",),
    ),
    Mutant(
        "repr reads |C| through len()",
        CODE,
        'f"LinearCode(|C|={self._size()}, ',
        'f"LinearCode(|C|={len(self)}, ',
        ("tests/test_code.py::test_a_code_past_len_reports_its_exact_size",),
    ),
    Mutant(
        "generating_rows reads |C| through len()",
        CODE,
        "if 1 << len(basis) > C._size():",
        "if 1 << len(basis) > len(C):",
        ("tests/test_code.py::test_a_code_past_len_reports_its_exact_size",),
    ),
    Mutant(
        "generating_rows never refuses a code that is not R-linear",
        CODE,
        "if 1 << len(basis) > C._size():",
        "if False:",
        ("tests/test_code.py::test_generating_rows_refuses_a_code_that_is_not_r_linear",),
    ),
    Mutant(
        "the closure check never fires",
        CODE,
        "if span != ordered:",
        "if False:",
        ("tests/test_code.py::test_linear_code_refuses_words_not_closed_under_addition",),
    ),
    Mutant(
        "the oracle's scan array is left unsorted",
        ORACLE,
        "yield (idx >> np.uint64(m * (N - 1 - i))) & mask",
        "yield (idx >> np.uint64(m * i)) & mask",
        ("tests/test_oracle.py::test_dual_worker_and_chunk_invariance",),
    ),
    Mutant(
        "the oracle's scan array keeps duplicates",
        ORACLE,
        "return np.concatenate(hits)",
        "return np.concatenate(hits + hits)",
        ("tests/test_oracle.py::test_dual_worker_and_chunk_invariance",),
    ),
    Mutant(
        "the scan drops its last chunk",
        ORACLE,
        "for lo in range(0, space, step)",
        "for lo in range(0, max(step, space - step), step)",
        ("tests/test_oracle.py::test_dual_worker_and_chunk_invariance",),
    ),
    Mutant(
        "scan_dual accepts workers < 1",
        ORACLE,
        "if workers < 1:",
        "if False:",
        ("tests/test_code.py::test_dual_rejects_bad_workers_and_overflow",),
    ),
    Mutant(
        "poisson_check closes only the first row",
        ORACLE,
        "for row in G.rows:\n        words = _add_row(",
        "for row in G.rows[:1]:\n        words = _add_row(",
        ("tests/test_oracle.py::test_poisson_small_codes",),
    ),
    Mutant(
        "the table's sign check dropped",
        WEIGHT,
        " or min(key) < 0",
        "",
        ("tests/test_weight.py::test_distribution_table_refuses_its_first_invalid_row",),
    ),
    Mutant(
        "the table's count check off by one",
        WEIGHT,
        "if c < 1:",
        "if c < 0:",
        ("tests/test_weight.py::test_distribution_table_refuses_its_first_invalid_row",),
    ),
    Mutant(
        "the table's rows ordered by the last column first",
        WEIGHT,
        "np.lexsort(alphas.T[::-1])",
        "np.lexsort(alphas.T)",
        ("tests/test_weight.py::test_distribution_table_stores_one_sorted_alpha_matrix",),
    ),
    Mutant(
        "Polynomial keeps non-integer coefficients",
        POLYNOMIAL,
        'exp, coeff = as_int(exp, "exponent"), as_int(coeff, "coefficient")',
        'exp = as_int(exp, "exponent")',
        ("tests/test_polynomial.py::test_exponents_coefficients_and_divisors_are_ints",),
    ),
    Mutant(
        "control: a comment reworded",
        CODE,
        "# the stored form: the fully reduced basis",
        "# the stored form: a fully reduced basis",
        ("tests/test_code.py::test_linear_code_round_trips_through_pickle_and_copy",),
        survives=True,
    ),
]


def _missing(mutants: list[Mutant]) -> list[str]:
    """The mutants whose old text does not occur exactly once."""
    bad = []
    for mu in mutants:
        count = (ROOT / mu.path).read_text().count(mu.old)
        if count != 1:
            bad.append(f"{mu.name}: old text found {count} times in {mu.path}")
    return bad


def _passes(work: Path, selection: tuple[str, ...]) -> bool:
    """Whether the selection passes in `work`.  The run gets its own process
    group, so a hung run is ended with every process it started."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    proc = subprocess.Popen(
        [*argv, *selection], cwd=work, env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        return proc.wait(timeout=TIMEOUT) == 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return False


def main() -> int:
    bad = _missing(MUTANTS)
    for line in bad:
        print(f"error: {line}")
    if bad:
        return 1
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=_IGNORED)
        for selection in dict.fromkeys(mu.selection for mu in MUTANTS):
            if not _passes(work, selection):
                print(f"error: unmutated copy fails {' '.join(selection)}")
                return 1
        failures = 0
        for mu in MUTANTS:
            target = work / mu.path
            original = target.read_text()
            target.write_text(original.replace(mu.old, mu.new))
            start = time.monotonic()
            try:
                survived = _passes(work, mu.selection)
            finally:
                target.write_text(original)
            ok = survived == mu.survives
            failures += not ok
            outcome = "survived" if survived else "killed"
            note = "" if ok else "  <- unexpected"
            took = time.monotonic() - start
            print(f"{outcome:8} {mu.name} ({took:.1f} s){note}")
    print(f"{len(MUTANTS)} mutants, {failures} unexpected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
