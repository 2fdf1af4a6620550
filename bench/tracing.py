"""Spans and work counts recorded around calls into each `mspotty` layer.

Nothing here edits the package: `installed()` replaces the wrapped
functions in the namespaces of the loaded `mspotty` modules (every module
that imported them by name) and puts the originals back on exit.  A target
that no longer exists is reported as missing, never silently skipped.

A span is [name, start, end, parent index]; a layer's self time is its
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable

# (span name, module, attribute path) of every wrapped call.  The scan chunk,
# `Polynomial.__mul__` (which `__pow__` also goes through) and the oracle's
# byte engine are module internals, wrapped as attributes.
TARGETS = (
    ("cli.main", "mspotty.cli", "main"),
    ("code.load_matrix", "mspotty.code", "load_matrix"),
    ("code.span", "mspotty.code", "span"),
    ("code.dual", "mspotty.code", "dual"),
    ("code.dual.scan", "mspotty.code", "_scan_chunk"),
    ("weight.distribution", "mspotty.weight", "distribution"),
    ("weight.enumerator", "mspotty.weight", "enumerator"),
    ("macwilliams.transform", "mspotty.macwilliams", "transform"),
    ("polynomial.mul", "mspotty.polynomial", "Polynomial.__mul__"),
    ("oracle.campaign", "mspotty.oracle", "campaign"),
    ("oracle.support_sums", "mspotty.oracle", "_support_sums"),
    ("oracle.poisson_check", "mspotty.oracle", "poisson_check"),
)


def _scan_counts(args, out):
    lo, hi = args[0], args[1]
    return {"code.dual.vectors": hi - lo, "code.dual.hits": len(out)}


def _term_count(p) -> int:
    terms = getattr(p, "_terms", None)  # the term map, when it has one
    return len(terms) if terms is not None else sum(1 for _ in p.terms())


def _mul_counts(args, out):
    a, b = args
    return {
        "polynomial.mul_calls": 1,
        "polynomial.mul_term_pairs": _term_count(a) * _term_count(b),
    }


# Work counts taken at the same boundaries: span name -> (args, result) -> counts.
COUNTERS: dict[str, Callable] = {
    "code.span": lambda args, out: {"code.span.codewords": len(out)},
    "code.dual.scan": _scan_counts,
    "weight.distribution": lambda args, out: {"weight.distribution.rows": len(out)},
    "macwilliams.transform": lambda args, out: {
        "macwilliams.transform.rows": len(args[0]),
        "macwilliams.transform.degree": out.degree(),
    },
    "polynomial.mul": _mul_counts,
    "oracle.support_sums": lambda args, out: {"oracle.support_sums.calls": 1},
    "oracle.campaign": lambda args, out: {"oracle.campaign.checks": len(out)},
}


class Tracer:
    """Spans and counts of one traced pass, kept in memory; use a fresh
    tracer for every pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            idx = len(spans) - 1
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if counter:
                counts.update(counter(args, out))
            return out

        traced.__wrapped__ = fn
        return traced

    def layer_times(self) -> tuple[dict, dict, float]:
        """Inclusive and self seconds per span name, and the seconds covered
        by top-level spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive, self_time = defaultdict(float), defaultdict(float)
        top = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            inclusive[name] += end - start
            self_time[name] += end - start - child[i]
            if parent < 0:
                top += end - start
        return dict(inclusive), dict(self_time), top

    def write(self, path: str) -> None:
        """One JSON array per line: name, start and end (perf_counter
        seconds), and the line index of the parent span or -1."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def _resolve(module: str, attr: str):
    owner = sys.modules.get(module)
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    return owner, last, getattr(owner, last, None)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block."""
    undo = []
    tracer.missing = []
    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "mspotty"]
    try:
        for name, module, attr in TARGETS:
            owner, last, original = _resolve(module, attr)
            if original is None:
                tracer.missing.append(name)
                continue
            wrapper = tracer.wrap(name, original)
            if isinstance(owner, type):  # a method: patch the class only
                setattr(owner, last, wrapper)
                undo.append(lambda o=owner, a=last, f=original: setattr(o, a, f))
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append(lambda o=mod, a=key, f=original: setattr(o, a, f))
        yield tracer
    finally:
        for restore in reversed(undo):
            restore()
