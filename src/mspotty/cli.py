"""Command-line front end.

Subcommands: enumerate, tables, transform, dual, verify, info.  Output is
deterministic: no timestamps, sorted JSON keys, fixed iteration orders, and
no command reads `--workers`.  Every command builds an ordered list of
typed `Section`s, and `_render` alone prints that list as text, JSON or
CSV.  A codeword listing is rendered and written one block at a time, so
its memory does not grow with the size of the code.

Exit codes: 0 success, 2 parse/parameter error, 3 budget exceeded,
4 integrity failure (inexact division or internal cross-check), 5
verification campaign failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

from . import __version__
from .code import (
    DEFAULT_SPACE_BUDGET,
    DEFAULT_SPAN_BUDGET,
    ByteLayout,
    GeneratorMatrix,
    LinearCode,
    _ascii_int,
    _word_strings,
    dual,
    load_matrix,
    span,
)
from .errors import (
    BudgetError,
    IntegrityError,
    MSpottyError,
    ParameterError,
)
from .macwilliams import enumerator_from_distribution, kernel_table, transform
from .oracle import _SCAN_CHUNK, campaign
from .polynomial import Polynomial
from .ring import MAX_M, _check_m
from .weight import DistributionTable, _AlphaRows, _walk, _WeightHistogram

_EXIT_PARSE = 2
_EXIT_BUDGET = 3
_EXIT_INTEGRITY = 4
_EXIT_VERIFY = 5
# Any other package error, and a file that cannot be read, exits _EXIT_PARSE.
_EXIT_CODES = {BudgetError: _EXIT_BUDGET, IntegrityError: _EXIT_INTEGRITY}

# Known discrepancy on the bundled worked example: some circulated
# tabulations list the top enumerator term as 104z^6, which exceeds the
# weight ceiling n*ceil(b/t) = 4; direct enumeration puts it at 104z^4.
_MISPRINT = (
    4,
    ByteLayout(b=3, t=2, n=2),
    Polynomial({0: 1, 1: 10, 2: 183, 3: 214, 4: 104}),
)  # (m, layout, W)
_MISPRINT_NOTE = (
    "note: top term is 104z^4 (the weight ceiling n*ceil(b/t) = 4); "
    "a circulated tabulation of this example prints 104z^6, which lies "
    "above the ceiling and is treated as a misprint"
)


def _misprint_notes(C: LinearCode, W: Polynomial) -> list[Section]:
    """The misprint note when C is the worked example, else nothing."""
    return [Section("note", _MISPRINT_NOTE)] if (C.m, C.layout, W) == _MISPRINT else []


# The inside-support character sum has a second, stricter reading; both are
# stated wherever campaign results are shown (in text and JSON; the CSV
# report table has no row for it).
_READING_NOTE = (
    "note: check 3.3 sums chi over all v supported inside a fixed nonempty "
    "subset of supp(c), which is 0; truncating instead at partial weight "
    "k < w(c) gives (-1)^k*C(w(c)-1, k), not 0"
)


# --- report model -------------------------------------------------------


@dataclass(frozen=True)
class Section:
    """One typed piece of a report, printed by `_render` in any format.

    kind is one of: layout (m, b, t, n, N), params (the `tables` header),
    header (scalars printed in JSON only: `verify`'s grid, samples, seed,
    pass), fields (`info`'s key/value strings; key is the CSV section),
    size, dist, poly, kernel (key is j), codewords (blocks of `str(Word)`
    strings, as `_word_strings` yields them; at most one per report),
    reports (a list of `LemmaReport`s), note.  key names the JSON key or
    CSV section, label the text form.
    """

    kind: str
    value: object
    key: object = ""
    label: str = ""


def _layout(G: GeneratorMatrix) -> Section:
    lay = G.layout
    return Section("layout", {"m": G.m, "b": lay.b, "t": lay.t, "n": lay.n, "N": lay.N})


# Where the codeword listing goes in the rendered report; no report prints it.
_LISTING = "<codewords>"


def _render(fmt: str, command: str, sections: list[Section]) -> Iterable[str]:
    """Print sections in order, as chunks whose concatenation is the
    report.  Without a codewords section that is one chunk.  With one,
    `_render_frame` prints the rest once, with `_LISTING` in the list's
    place, and the chunks are the text before it, one per block of the
    list (`_listing`), and the text after it."""
    words = next((s.value for s in sections if s.kind == "codewords"), None)
    body = _render_frame(fmt, command, sections)
    if words is None:
        return [body]
    head, tail = body.split(json.dumps(_LISTING) if fmt == "json" else _LISTING + "\n")
    return chain([head], _listing(fmt, words), [tail])


def _listing(fmt: str, blocks: Iterable[list[str]]) -> Iterator[str]:
    """The codeword list, one chunk per block, in the bytes that rendering
    the whole list at once (one indent-2 `json.dumps`, csv writer or join)
    gives."""
    index = 0
    for block in blocks:
        if fmt == "json":  # indent 4 at depth 1 is indent 2 at depth 2
            yield ("[\n" if index == 0 else ",\n") + json.dumps(block, indent=4)[2:-2]
        elif fmt == "csv":  # digits, u, +, spaces and |: nothing csv quotes
            yield "".join(f"codeword,{i},{w}\n" for i, w in enumerate(block, index))
        else:
            yield "  " + "\n  ".join(block) + "\n"
        index += len(block)
    if fmt == "json":
        yield "\n  ]"


def _render_frame(fmt: str, command: str, sections: list[Section]) -> str:
    """The report, with `_LISTING` in place of any codeword list.  In CSV
    every scalar becomes a leading `meta` row, and reports replace the
    `section,key,value` header with their own; in JSON kernels collect
    under `kernels`.  Reports end with the reading note in text and carry
    it as the `notes` list in JSON."""
    if fmt == "json":
        obj: dict = {"command": command}
        for s in sections:
            if s.kind in ("layout", "params", "header", "fields"):
                obj.update(s.value)
            elif s.kind == "size":
                obj[s.key] = str(s.value)
            elif s.kind == "dist":
                obj["distribution"] = [
                    {"alpha": list(a), "count": str(c)} for a, c in s.value.items()
                ]
            elif s.kind == "poly":
                obj[s.key] = {"terms": s.value.to_json_terms()}
            elif s.kind == "kernel":
                obj.setdefault("kernels", []).append(
                    {"j": s.key, "terms": s.value.to_json_terms()}
                )
            elif s.kind == "codewords":
                obj["codewords"] = _LISTING
            elif s.kind == "reports":
                obj["reports"] = [r.to_json() for r in s.value]
                obj["notes"] = [_READING_NOTE]
            else:
                obj["note"] = s.value
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        head = ["section", "key", "value"]
        meta: list[list[str]] = []
        rows: list[list[str]] = []
        for s in sections:
            if s.kind == "layout":
                meta += [["meta", k, str(v)] for k, v in s.value.items()]
            elif s.kind == "size":
                meta.append(["meta", s.key, str(s.value)])
            elif s.kind == "dist":
                rows += [
                    ["distribution", " ".join(map(str, a)), str(c)]
                    for a, c in s.value.items()
                ]
            elif s.kind in ("poly", "kernel"):
                section = s.key if s.kind == "poly" else f"F_{s.key}"
                rows += [[section, f"z^{e}", str(c)] for e, c in s.value.terms()]
            elif s.kind == "codewords":
                rows.append([_LISTING])
            elif s.kind == "fields":
                rows += [[s.key, k, v] for k, v in s.value.items()]
            elif s.kind == "reports":
                head = ["lemma", "params", "expected", "actual", "pass"]
                rows += [
                    [r.lemma, json.dumps(dict(r.params), sort_keys=True),
                     r.expected, r.actual, "true" if r.passed else "false"]
                    for r in s.value
                ]
            elif s.kind == "note":
                rows.append(["note", "", s.value])
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([head, *meta, *rows])
        return buf.getvalue()
    lines = []
    for s in sections:
        if s.kind in ("layout", "params"):
            lines.append(" ".join(f"{k}={v}" for k, v in s.value.items()))
        elif s.kind in ("size", "poly"):
            lines.append(f"{s.label} = {s.value}")
        elif s.kind == "dist":
            head = ", ".join(f"alpha_{j}" for j in range(s.value.layout.b + 1))
            lines.append(f"distribution ({head} : count):")
            lines += [f"  ({', '.join(map(str, a))}) : {c}" for a, c in s.value.items()]
        elif s.kind == "kernel":
            lines.append(f"F_{s.key}(z) = {s.value}")
        elif s.kind == "codewords":
            lines += ["codewords:", _LISTING]
        elif s.kind == "fields":
            width = max(map(len, s.value))
            lines += [f"{k:<{width}}  {v}" for k, v in s.value.items()]
        elif s.kind == "reports":
            for r in s.value:
                params = " ".join(f"{k}={v}" for k, v in r.params.items())
                status = "ok  " if r.passed else "FAIL"
                lines.append(f"{status} {r.lemma:<9} {params:<40} {r.actual}")
            failed = sum(not r.passed for r in s.value)
            verdict = f"{failed} FAILED" if failed else "all passed"
            lines += [f"campaign: {len(s.value)} checks, {verdict}", _READING_NOTE]
        elif s.kind == "note":
            lines.append(s.value)
    return "\n".join(lines) + "\n"


# --- subcommands ----------------------------------------------------------


def _statistics(C: LinearCode) -> tuple[DistributionTable, Polynomial]:
    """Distribution and enumerator of C from one walk of its blocks,
    cross-checked: the direct enumerator must equal the regrouped table."""
    alphas, weights = _walk(C, _AlphaRows(C.layout), _WeightHistogram(C.layout))
    dist, W = alphas.table(C.m), weights.enumerator()
    if enumerator_from_distribution(dist) != W:
        raise IntegrityError(
            "direct enumerator disagrees with the distribution regrouping"
        )
    return dist, W


def cmd_enumerate(args) -> tuple[str, int]:
    G = load_matrix(args.file)
    C = span(G, budget=args.max_space)
    dist, W = _statistics(C)
    return _render(args.format, "enumerate", [
        _layout(G),
        Section("size", len(C), "code_size", "|C|"),
        Section("dist", dist),
        Section("poly", W, "enumerator", "W(z)"),
        *_misprint_notes(C, W),
    ]), 0


def cmd_tables(args) -> tuple[str, int]:
    m, b, t = args.m, args.b, args.t
    _check_m(m)  # the ring's range, as the matrix header and `info` state it
    if b < 1:  # as the matrix header states it
        raise ParameterError(f"byte size b must be >= 1, got {b}")
    kernels = [Section("kernel", F, j) for j, F in enumerate(kernel_table(b, m, t))]
    params = Section("params", {"m": m, "b": b, "t": t})
    return _render(args.format, "tables", [params, *kernels]), 0


def cmd_transform(args) -> tuple[str, int]:
    G = load_matrix(args.file)
    C = span(G, budget=args.max_space)
    dist, W = _statistics(C)
    ambient = C.ambient_size()
    if ambient % len(C):
        raise IntegrityError(
            f"code size {len(C)} does not divide the ambient size {ambient}"
        )
    dual_size = ambient // len(C)
    W_dual = transform(dist, len(C))
    if W_dual(1) != dual_size:
        raise IntegrityError(
            f"dual enumerator evaluates to {W_dual(1)} at z=1, expected {dual_size}"
        )
    return _render(args.format, "transform", [
        _layout(G),
        Section("size", len(C), "code_size", "|C|"),
        Section("poly", W, "enumerator", "W(z)"),
        Section("size", dual_size, "dual_size", "|C-dual|"),
        Section("poly", W_dual, "dual_enumerator", "W-dual(z)"),
        *_misprint_notes(C, W),
    ]), 0


def cmd_dual(args) -> tuple[str, int]:
    G = load_matrix(args.file)
    Cd = dual(G, budget=args.max_space)
    dist, W = _statistics(Cd)
    words = [Section("codewords", _word_strings(Cd))] if args.codewords else []
    return _render(args.format, "dual", [
        _layout(G),
        Section("size", len(Cd), "dual_size", "|C-dual|"),
        Section("dist", dist),
        Section("poly", W, "enumerator", "W-dual(z)"),
        *words,
    ]), 0


def _parse_grid(text: str, what: str) -> tuple[int, ...]:
    values = tuple(_ascii_int(tok.strip()) for tok in text.split(",") if tok.strip())
    if not values or any(v is None or v < 1 for v in values):
        raise ParameterError(f"bad {what} grid: {text!r}")
    return values


def cmd_verify(args) -> tuple[str, int]:
    ms = _parse_grid(args.grid_m, "m")
    bs = _parse_grid(args.grid_b, "b")
    for m in ms:  # before the campaign's budget guards: no budget admits m > MAX_M
        _check_m(m)
    reports = campaign(
        ms=ms,
        bs=bs,
        samples=args.samples,
        seed=args.seed,
        inject_fault=args.inject_fault,
    )
    all_pass = all(r.passed for r in reports)
    header = {
        "grid": {"m": list(ms), "b": list(bs)},
        "samples": args.samples,
        "seed": args.seed,
        "pass": all_pass,
    }
    body = _render(args.format, "verify", [
        Section("header", header),
        Section("reports", reports),
    ])
    return body, 0 if all_pass else _EXIT_VERIFY


def cmd_info(args) -> tuple[str, int]:
    fields = {
        "name": "mspotty",
        "version": __version__,
        "ring": f"F2[u]/(u^m), 1 <= m <= {MAX_M}",
        "element_grammar": "'0' or '+'-separated monomials 1, u, u2, ... (u^k ok)",
        "matrix_header": "m=<int> b=<int> t=<int>",
        "span_budget_default": str(DEFAULT_SPAN_BUDGET),
        "scan_budget_default": str(DEFAULT_SPACE_BUDGET),
        "scan_chunk": str(_SCAN_CHUNK),
        "subcommands": "enumerate tables transform dual verify info",
        "exit_codes": "0 ok, 2 parse, 3 budget, 4 integrity, 5 verification",
    }
    return _render(args.format, "info", [Section("fields", fields, "info")]), 0


# --- argument parsing and dispatch ----------------------------------------


# Built once per process: parse_args leaves the parser unchanged, and every
# default is immutable, so repeated `main` calls can share it.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output format (default: text)",
    )
    common.add_argument(
        "--max-space",
        type=int,
        default=DEFAULT_SPACE_BUDGET,
        metavar="COUNT",
        help="largest enumeration allowed for span/dual scans "
        f"(default 2^{DEFAULT_SPACE_BUDGET.bit_length() - 1})",
    )
    common.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="K",
        help="must be >= 1; no command reads it: the dual command solves "
        "the kernel by elimination (default 1)",
    )
    common.add_argument(
        "--seed", type=int, default=0, metavar="U64", help="campaign sampling seed"
    )
    common.add_argument(
        "--out", metavar="PATH", help="write the report to PATH instead of stdout"
    )
    parser = argparse.ArgumentParser(
        prog="mspotty",
        description="Byte-wise spotty weight enumerators over F2[u]/(u^m).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", parents=[common], help="span a matrix file")
    p.add_argument("file", help="generator matrix file")

    p = sub.add_parser("tables", parents=[common], help="per-byte kernel polynomials")
    p.add_argument("m", type=int)
    p.add_argument("b", type=int)
    p.add_argument("t", type=int)

    p = sub.add_parser("transform", parents=[common], help="dual enumerator via transform")
    p.add_argument("file")

    p = sub.add_parser(
        "dual", parents=[common], help="dual code by F2 elimination"
    )
    p.add_argument("file")
    p.add_argument(
        "--codewords", action="store_true", help="also list every dual codeword"
    )

    p = sub.add_parser("verify", parents=[common], help="brute-force identity campaign")
    p.add_argument("--grid-m", default="1,2,3,4", metavar="LIST")
    p.add_argument("--grid-b", default="1,2,3", metavar="LIST")
    p.add_argument("--samples", type=int, default=100, metavar="N")
    p.add_argument(
        "--inject-fault",
        action="store_true",
        help="negative control: flip one character value and expect a failure",
    )

    sub.add_parser("info", parents=[common], help="limits, defaults, formats")
    return parser


_DISPATCH = {
    "enumerate": cmd_enumerate,
    "tables": cmd_tables,
    "transform": cmd_transform,
    "dual": cmd_dual,
    "verify": cmd_verify,
    "info": cmd_info,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.max_space < 1:
            raise ParameterError(f"--max-space must be positive, got {args.max_space}")
        if args.workers < 1:
            raise ParameterError(f"--workers must be >= 1, got {args.workers}")
        if not 0 <= args.seed < 1 << 64:
            raise ParameterError(f"--seed must fit in 64 bits, got {args.seed}")
        body, code = _DISPATCH[args.command](args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.writelines(body)
        else:
            sys.stdout.writelines(body)
        return code
    except (MSpottyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        codes = (c for t, c in _EXIT_CODES.items() if isinstance(exc, t))
        return next(codes, _EXIT_PARSE)


if __name__ == "__main__":
    sys.exit(main())
