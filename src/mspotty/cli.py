"""Command-line front end.

Subcommands: enumerate, tables, transform, dual, verify, info.  Output is
deterministic: no timestamps, sorted JSON keys, fixed iteration orders, and
a worker count that can only change wall time, never bytes.

Exit codes: 0 success, 2 parse/parameter error, 3 budget exceeded,
4 integrity failure (inexact division or internal cross-check), 5
verification campaign failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

from . import __version__
from .code import (
    GeneratorMatrix,
    dual,
    load_matrix,
    span,
)
from .errors import (
    BudgetError,
    IntegrityError,
    MatrixParseError,
    ParameterError,
)
from .macwilliams import enumerator_from_distribution, f_poly, transform
from .oracle import campaign
from .polynomial import Polynomial
from .weight import DistributionTable, distribution, enumerator

_EXIT_PARSE = 2
_EXIT_BUDGET = 3
_EXIT_INTEGRITY = 4
_EXIT_VERIFY = 5

DEFAULT_MAX_SPACE = 1 << 28

# Known discrepancy on the bundled worked example: some circulated
# tabulations list the top enumerator term as 104z^6, which exceeds the
# weight ceiling n*ceil(b/t) = 4; direct enumeration puts it at 104z^4.
_MISPRINT_PARAMS = (4, 3, 2, 2)  # (m, b, t, n)
_MISPRINT_POLY = Polynomial({0: 1, 1: 10, 2: 183, 3: 214, 4: 104})
_MISPRINT_NOTE = (
    "note: top term is 104z^4 (the weight ceiling n*ceil(b/t) = 4); "
    "a circulated tabulation of this example prints 104z^6, which lies "
    "above the ceiling and is treated as a misprint"
)

# The inside-support character sum has a second, stricter reading; both are
# stated wherever campaign results are shown.
_READING_NOTE = (
    "note: check 3.3 sums chi over all v supported inside a fixed nonempty "
    "subset of supp(c), which is 0; truncating instead at partial weight "
    "k < w(c) gives (-1)^k*C(w(c)-1, k), not 0"
)


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation, validated."""

    command: str
    path: str | None
    fmt: str
    max_space: int
    workers: int
    seed: int
    out: str | None

    def __post_init__(self):
        if self.max_space < 1:
            raise ParameterError(f"--max-space must be positive, got {self.max_space}")
        if self.workers < 1:
            raise ParameterError(f"--workers must be >= 1, got {self.workers}")
        if not 0 <= self.seed < 1 << 64:
            raise ParameterError(f"--seed must fit in 64 bits, got {self.seed}")


# --- shared rendering helpers --------------------------------------------


def _poly_json(p: Polynomial) -> dict:
    return {"terms": p.to_json_terms()}


def _dist_json(dist: DistributionTable) -> list[dict]:
    return [
        {"alpha": list(alpha), "count": str(count)} for alpha, count in dist.items()
    ]


def _dist_text(dist: DistributionTable) -> list[str]:
    b = dist.layout.b
    head = ", ".join(f"alpha_{j}" for j in range(b + 1))
    lines = [f"distribution ({head} : count):"]
    for alpha, count in dist.items():
        lines.append(f"  ({', '.join(str(a) for a in alpha)}) : {count}")
    return lines


def _csv_body(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _dist_csv_rows(dist: DistributionTable) -> list[list[str]]:
    return [
        ["distribution", " ".join(str(a) for a in alpha), str(count)]
        for alpha, count in dist.items()
    ]


def _poly_csv_rows(section: str, p: Polynomial) -> list[list[str]]:
    return [[section, f"z^{e}", str(c)] for e, c in p.terms()]


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _layout_meta(G: GeneratorMatrix) -> dict:
    lay = G.layout
    return {"m": G.m, "b": lay.b, "t": lay.t, "n": lay.n, "N": lay.N}


def _meta_text(meta: dict) -> str:
    return " ".join(f"{k}={meta[k]}" for k in ("m", "b", "t", "n", "N"))


def _meta_csv_rows(meta: dict) -> list[list[str]]:
    return [["meta", k, str(meta[k])] for k in ("m", "b", "t", "n", "N")]


def _misprint_note(G: GeneratorMatrix, W: Polynomial) -> str | None:
    lay = G.layout
    if (G.m, lay.b, lay.t, lay.n) == _MISPRINT_PARAMS and W == _MISPRINT_POLY:
        return _MISPRINT_NOTE
    return None


# --- subcommands ----------------------------------------------------------


def _enumerate_code(cfg: RunConfig):
    """Shared front half of enumerate/transform: file -> (G, C, dist, W)."""
    G = load_matrix(cfg.path)
    C = span(G, budget=cfg.max_space)
    dist = distribution(C)
    W = enumerator(C)
    if enumerator_from_distribution(dist) != W:
        raise IntegrityError(
            "direct enumerator disagrees with the distribution regrouping"
        )
    return G, C, dist, W


def cmd_enumerate(cfg: RunConfig, args) -> tuple[str, int]:
    G, C, dist, W = _enumerate_code(cfg)
    meta = _layout_meta(G)
    note = _misprint_note(G, W)
    if cfg.fmt == "json":
        obj = {
            "command": "enumerate",
            **meta,
            "code_size": str(len(C)),
            "distribution": _dist_json(dist),
            "enumerator": _poly_json(W),
        }
        if note:
            obj["note"] = note
        return _json_dump(obj), 0
    if cfg.fmt == "csv":
        rows = [["section", "key", "value"]]
        rows += _meta_csv_rows(meta)
        rows.append(["meta", "code_size", str(len(C))])
        rows += _dist_csv_rows(dist)
        rows += _poly_csv_rows("enumerator", W)
        if note:
            rows.append(["note", "", note])
        return _csv_body(rows), 0
    lines = [_meta_text(meta), f"|C| = {len(C)}"]
    lines += _dist_text(dist)
    lines.append(f"W(z) = {W}")
    if note:
        lines.append(note)
    return "\n".join(lines) + "\n", 0


def cmd_tables(cfg: RunConfig, args) -> tuple[str, int]:
    m, b, t = args.m, args.b, args.t
    kernels = [(j, f_poly(j, b, m, t)) for j in range(b + 1)]
    if cfg.fmt == "json":
        obj = {
            "command": "tables",
            "m": m,
            "b": b,
            "t": t,
            "kernels": [{"j": j, **_poly_json(p)} for j, p in kernels],
        }
        return _json_dump(obj), 0
    if cfg.fmt == "csv":
        rows = [["section", "key", "value"]]
        for j, p in kernels:
            rows += _poly_csv_rows(f"F_{j}", p)
        return _csv_body(rows), 0
    lines = [f"m={m} b={b} t={t}"]
    for j, p in kernels:
        lines.append(f"F_{j}(z) = {p}")
    return "\n".join(lines) + "\n", 0


def cmd_transform(cfg: RunConfig, args) -> tuple[str, int]:
    G, C, dist, W = _enumerate_code(cfg)
    meta = _layout_meta(G)
    ambient = 1 << (G.m * G.layout.N)
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
    note = _misprint_note(G, W)
    if cfg.fmt == "json":
        obj = {
            "command": "transform",
            **meta,
            "code_size": str(len(C)),
            "dual_size": str(dual_size),
            "enumerator": _poly_json(W),
            "dual_enumerator": _poly_json(W_dual),
        }
        if note:
            obj["note"] = note
        return _json_dump(obj), 0
    if cfg.fmt == "csv":
        rows = [["section", "key", "value"]]
        rows += _meta_csv_rows(meta)
        rows.append(["meta", "code_size", str(len(C))])
        rows.append(["meta", "dual_size", str(dual_size)])
        rows += _poly_csv_rows("enumerator", W)
        rows += _poly_csv_rows("dual_enumerator", W_dual)
        if note:
            rows.append(["note", "", note])
        return _csv_body(rows), 0
    lines = [
        _meta_text(meta),
        f"|C| = {len(C)}",
        f"W(z) = {W}",
        f"|C-dual| = {dual_size}",
        f"W-dual(z) = {W_dual}",
    ]
    if note:
        lines.append(note)
    return "\n".join(lines) + "\n", 0


def cmd_dual(cfg: RunConfig, args) -> tuple[str, int]:
    G = load_matrix(cfg.path)
    Cd = dual(G, budget=cfg.max_space, workers=cfg.workers)
    dist = distribution(Cd)
    W = enumerator(Cd)
    meta = _layout_meta(G)
    if cfg.fmt == "json":
        obj = {
            "command": "dual",
            **meta,
            "dual_size": str(len(Cd)),
            "distribution": _dist_json(dist),
            "enumerator": _poly_json(W),
        }
        if args.codewords:
            obj["codewords"] = [str(w) for w in Cd]
        return _json_dump(obj), 0
    if cfg.fmt == "csv":
        rows = [["section", "key", "value"]]
        rows += _meta_csv_rows(meta)
        rows.append(["meta", "dual_size", str(len(Cd))])
        rows += _dist_csv_rows(dist)
        rows += _poly_csv_rows("enumerator", W)
        if args.codewords:
            rows += [
                ["codeword", str(i), str(w)] for i, w in enumerate(Cd)
            ]
        return _csv_body(rows), 0
    lines = [_meta_text(meta), f"|C-dual| = {len(Cd)}"]
    lines += _dist_text(dist)
    lines.append(f"W-dual(z) = {W}")
    if args.codewords:
        lines.append("codewords:")
        lines += [f"  {w}" for w in Cd]
    return "\n".join(lines) + "\n", 0


def _parse_grid(text: str, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ParameterError(f"bad {what} grid: {text!r}") from None
    if not values or any(v < 1 for v in values):
        raise ParameterError(f"bad {what} grid: {text!r}")
    return values


def cmd_verify(cfg: RunConfig, args) -> tuple[str, int]:
    ms = _parse_grid(args.grid_m, "m")
    bs = _parse_grid(args.grid_b, "b")
    reports = campaign(
        ms=ms,
        bs=bs,
        samples=args.samples,
        seed=cfg.seed,
        inject_fault=args.inject_fault,
    )
    all_pass = all(r.passed for r in reports)
    code = 0 if all_pass else _EXIT_VERIFY
    if cfg.fmt == "json":
        obj = {
            "command": "verify",
            "grid": {"m": list(ms), "b": list(bs)},
            "samples": args.samples,
            "seed": cfg.seed,
            "pass": all_pass,
            "reports": [r.to_json() for r in reports],
            "notes": [_READING_NOTE],
        }
        return _json_dump(obj), code
    if cfg.fmt == "csv":
        rows = [["lemma", "params", "expected", "actual", "pass"]]
        for r in reports:
            rows.append(
                [
                    r.lemma,
                    json.dumps(dict(r.params), sort_keys=True),
                    r.expected,
                    r.actual,
                    "true" if r.passed else "false",
                ]
            )
        return _csv_body(rows), code
    lines = []
    for r in reports:
        status = "ok  " if r.passed else "FAIL"
        params = " ".join(f"{k}={v}" for k, v in r.params.items())
        lines.append(f"{status} {r.lemma:<9} {params:<40} {r.actual}")
    failed = sum(1 for r in reports if not r.passed)
    if failed:
        lines.append(f"campaign: {len(reports)} checks, {failed} FAILED")
    else:
        lines.append(f"campaign: {len(reports)} checks, all passed")
    lines.append(_READING_NOTE)
    return "\n".join(lines) + "\n", code


def cmd_info(cfg: RunConfig, args) -> tuple[str, int]:
    fields = {
        "name": "mspotty",
        "version": __version__,
        "ring": "F2[u]/(u^m), 1 <= m <= 16",
        "element_grammar": "'0' or '+'-separated monomials 1, u, u2, ... (u^k ok)",
        "matrix_header": "m=<int> b=<int> t=<int>",
        "span_budget_default": str(1 << 24),
        "scan_budget_default": str(DEFAULT_MAX_SPACE),
        "scan_chunk": str(1 << 20),
        "subcommands": "enumerate tables transform dual verify info",
        "exit_codes": "0 ok, 2 parse, 3 budget, 4 integrity, 5 verification",
    }
    if cfg.fmt == "json":
        return _json_dump({"command": "info", **fields}), 0
    if cfg.fmt == "csv":
        rows = [["section", "key", "value"]]
        rows += [["info", k, v] for k, v in fields.items()]
        return _csv_body(rows), 0
    width = max(len(k) for k in fields)
    lines = [f"{k:<{width}}  {v}" for k, v in fields.items()]
    return "\n".join(lines) + "\n", 0


# --- argument parsing and dispatch ----------------------------------------


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
        default=DEFAULT_MAX_SPACE,
        metavar="COUNT",
        help="largest enumeration allowed for span/dual scans (default 2^28)",
    )
    common.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="K",
        help="parallel workers for the library's exhaustive dual scan; "
        "the dual command uses the syndrome join (default 1)",
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
        "dual", parents=[common], help="dual code by half-vector syndrome join"
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
        cfg = RunConfig(
            command=args.command,
            path=getattr(args, "file", None),
            fmt=args.format,
            max_space=args.max_space,
            workers=args.workers,
            seed=args.seed,
            out=args.out,
        )
        body, code = _DISPATCH[args.command](cfg, args)
        if cfg.out:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(body)
        else:
            sys.stdout.write(body)
        return code
    except (MatrixParseError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_PARSE
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_BUDGET
    except IntegrityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INTEGRITY
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
