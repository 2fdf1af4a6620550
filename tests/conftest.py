"""Collects acceptance-criterion results and echoes them after the run,
and holds the fixtures and helpers that more than one test module uses."""

import pytest

from mspotty import oracle
from mspotty.code import LinearCode, Word

ACCEPTANCE_LINES = []


@pytest.fixture
def wrong_engine(monkeypatch):
    """The oracle's per-byte engine with one wrong product: u * u = 0 in
    F2[u]/(u^2) comes back as u, so chi flips on every v with v_i = u where
    c_i = u."""
    real = oracle._products

    def corrupt(values, m):
        out = real(values, m)
        if m == 2:
            out[values == 2, 2] ^= 1 << (m - 1)
        return out

    monkeypatch.setattr(oracle, "_products", corrupt)


def xor_closure(rows, m, layout):
    """The code of the F2-span of digit rows, through the public
    constructor: closed under addition, though maybe not R-linear, with at
    most 2^len(rows) words."""
    words = {(0,) * layout.N}
    for row in rows:
        words |= {tuple(a ^ b for a, b in zip(w, row)) for w in words}
    return LinearCode([Word.from_bits(w, m, layout) for w in words], layout, m)


def record(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
