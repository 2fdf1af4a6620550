"""End-to-end CLI behavior: formats, determinism, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

import mspotty
from mspotty import cli
from mspotty import code as code_module
from mspotty.code import ByteLayout, GeneratorMatrix, dual, load_matrix
from mspotty.errors import IntegrityError
from mspotty.polynomial import Polynomial
from mspotty.ring import zero

DATA = Path(__file__).parent / "data"
EXAMPLE = str(DATA / "worked_example.txt")

SMALL = """\
m=2 b=2 t=1
1 u
"""


@pytest.fixture
def small_file(tmp_path):
    path = tmp_path / "small.txt"
    path.write_text(SMALL)
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_text(capsys):
    code, out, err = run_cli(capsys, "enumerate", EXAMPLE)
    assert code == 0 and err == ""
    assert "m=4 b=3 t=2 n=2 N=6" in out
    assert "|C| = 512" in out
    assert "(0, 0, 1, 1) : 156" in out
    assert "W(z) = 1 + 10z + 183z^2 + 214z^3 + 104z^4" in out
    assert "104z^6" in out  # the misprint notice


def test_enumerate_json(capsys):
    code, out, _ = run_cli(capsys, "enumerate", EXAMPLE, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["code_size"] == "512"
    assert {"alpha": [0, 0, 1, 1], "count": "156"} in obj["distribution"]
    assert {"exp": 4, "coeff": "104"} in obj["enumerator"]["terms"]


def test_enumerate_csv(capsys):
    code, out, _ = run_cli(capsys, "enumerate", EXAMPLE, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["section", "key", "value"]
    assert ["meta", "code_size", "512"] in rows
    assert ["distribution", "0 0 1 1", "156"] in rows
    assert ["enumerator", "z^4", "104"] in rows


def test_tables_text(capsys):
    code, out, _ = run_cli(capsys, "tables", "4", "3", "2")
    assert code == 0
    assert "F_0(z) = 1 + 720z + 3375z^2" in out
    assert "F_1(z) = 1 + 224z - 225z^2" in out
    assert "F_2(z) = 1 - 16z + 15z^2" in out
    assert "F_3(z) = 1 - z^2" in out


def test_tables_json(capsys):
    code, out, _ = run_cli(capsys, "tables", "1", "1", "1", "--format", "json")
    obj = json.loads(out)
    assert code == 0
    assert obj["kernels"][0]["terms"] == [
        {"exp": 0, "coeff": "1"},
        {"exp": 1, "coeff": "1"},
    ]
    assert obj["kernels"][1]["terms"] == [
        {"exp": 0, "coeff": "1"},
        {"exp": 1, "coeff": "-1"},
    ]


def test_tables_bad_range_exits_2(capsys):
    code, _, err = run_cli(capsys, "tables", "4", "3", "9")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("b", ["-1", "0"])
def test_tables_b_below_one_exits_2(capsys, b):
    # the matrix header's message; t is not reached
    code, out, err = run_cli(capsys, "tables", "4", b, "-5")
    assert code == 2 and out == ""
    assert err == f"error: byte size b must be >= 1, got {b}\n"


@pytest.mark.parametrize("m", ["0", "17", "99999999999999999999"])
def test_tables_m_outside_the_ring_exits_2(capsys, m):
    code, out, err = run_cli(capsys, "tables", m, "1", "1")
    assert code == 2 and out == ""
    assert err == f"error: m must be an integer in [1, 16], got {m}\n"


def test_transform_text(capsys):
    code, out, _ = run_cli(capsys, "transform", EXAMPLE)
    assert code == 0
    assert "|C-dual| = 32768" in out
    assert "W-dual(z) = 1 + 85z + 3153z^2 + 9707z^3 + 19822z^4" in out


def test_dual_small(capsys, small_file):
    code, out, _ = run_cli(capsys, "dual", small_file)
    assert code == 0
    assert "|C-dual| = 4" in out


def test_dual_codewords_listing(capsys, small_file):
    code, out, _ = run_cli(capsys, "dual", small_file, "--codewords")
    assert code == 0
    assert "codewords:" in out
    assert out.count("\n  0") >= 1  # zero word listed first


def test_dual_consistent_with_transform(capsys, small_file):
    _, out_dual, _ = run_cli(capsys, "dual", small_file, "--format", "json")
    _, out_tf, _ = run_cli(capsys, "transform", small_file, "--format", "json")
    dual_terms = json.loads(out_dual)["enumerator"]["terms"]
    tf_terms = json.loads(out_tf)["dual_enumerator"]["terms"]
    assert dual_terms == tf_terms


def test_workers_do_not_change_output(capsys, small_file):
    _, out1, _ = run_cli(capsys, "dual", small_file, "--workers", "1")
    _, out2, _ = run_cli(capsys, "dual", small_file, "--workers", "4")
    assert out1 == out2


def test_repeat_runs_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--grid-m", "1,2", "--grid-b", "1",
                         "--samples", "3", "--seed", "9")
    _, out2, _ = run_cli(capsys, "verify", "--grid-m", "1,2", "--grid-b", "1",
                         "--samples", "3", "--seed", "9")
    assert out1 == out2


def test_verify_json_report_shape(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--grid-m", "1", "--grid-b", "1",
        "--samples", "2", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["pass"] is True
    assert obj["reports"]
    for r in obj["reports"]:
        assert set(r) == {"lemma", "params", "expected", "actual", "pass"}
    assert any("truncating" in n for n in obj["notes"])


def test_verify_inject_fault_exits_5(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--grid-m", "1", "--grid-b", "1",
        "--samples", "2", "--inject-fault",
    )
    assert code == 5
    assert "FAIL" in out


def test_verify_reports_a_wrong_engine(capsys, wrong_engine):
    """A wrong engine makes the Poisson sum inexact: verify prints every
    report, check 3.7 among the failures, and exits 5, not 4."""
    code, out, err = run_cli(
        capsys, "verify", "--grid-m", "2", "--grid-b", "1,2", "--samples", "3"
    )
    assert code == 5 and err == ""
    assert "FAIL 3.7" in out and "campaign: 17 checks" in out


def test_verify_csv(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--grid-m", "1", "--grid-b", "1",
        "--samples", "2", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["lemma", "params", "expected", "actual", "pass"]
    assert all(row[4] == "true" for row in rows[1:])


def test_verify_bad_grid_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--grid-m", "1,x")
    assert code == 2 and "grid" in err


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--grid-m", "\u0662"),
        ("--grid-m", "+1"),
        ("--grid-b", "0_1"),
        pytest.param("--grid-m", "9" * 5000, id="more-digits-than-int-takes"),
    ],
)
def test_verify_grid_needs_ascii_digits(capsys, flag, value):
    code, out, err = run_cli(capsys, "verify", flag, value, "--samples", "1")
    assert code == 2 and out == ""
    assert "grid" in err


def test_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("m=2 b=1 t=1\nbogus\n")
    code, out, err = run_cli(capsys, "enumerate", str(bad))
    assert code == 2
    assert out == ""  # no partial tables
    assert "line 2" in err


@pytest.mark.parametrize("command", ["enumerate", "transform", "dual"])
def test_non_utf8_file_exit_2(capsys, tmp_path, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe m=2")
    code, out, err = run_cli(capsys, command, str(bad))
    assert code == 2 and out == ""
    assert err == "error: file is not UTF-8 text\n"


def test_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "enumerate", "/no/such/file")
    assert code == 2 and "error:" in err


def test_tables_oversized_b_exits_3_fast(capsys):
    # the b+1 kernels would hold C(100002, 3) ~ 1.7e14 bigint terms
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "tables", "4", "99999", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and "166671666700000" in err


def test_transform_oversized_b_exits_3_fast(capsys, tmp_path):
    # |C| = 2, but the b+1 kernels would hold C(403, 3) bigint terms
    path = tmp_path / "long_byte.txt"
    path.write_text("m=1 b=400 t=1\n" + " ".join(["1"] * 400) + "\n")
    code, out, _ = run_cli(capsys, "enumerate", str(path))
    assert code == 0
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "transform", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and "10827401" in err


def test_budget_exit_3(capsys):
    code, _, err = run_cli(capsys, "dual", EXAMPLE, "--max-space", "1024")
    assert code == 3
    assert "16777216" in err


def test_verify_oversized_cell_exits_3_fast(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "verify", "--grid-m", "8", "--grid-b", "4", "--samples", "1"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert "m=8 b=4" in err


def test_verify_oversized_summation_check_exits_3_fast(capsys):
    # every cell passes its own budget; check 3.7 at m=12 would scan 8^12
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "verify", "--grid-m", "12", "--grid-b", "1", "--samples", "1"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert "m=12" in err and str(8**12) in err


@pytest.mark.parametrize(
    "b,required",
    [
        # 1 << (m * b) itself overflows
        ("99999999999999999999", "101*2^99999999999999999999"),
        # the size builds, but has too many digits for str()
        ("100000000", "101*2^100000000"),
    ],
)
def test_verify_huge_grid_b_exits_3(capsys, b, required):
    code, out, err = run_cli(capsys, "verify", "--grid-b", b)
    assert code == 3 and out == ""
    assert err == (
        f"error: verify cell m=1 b={b}: 101 byte scans over R^b: "
        f"requires {required} > budget 16777216\n"
    )


@pytest.mark.parametrize("m", ["17", "100000000", "99999999999999999999"])
def test_verify_grid_m_beyond_the_ring_exits_2(capsys, m):
    """No budget admits an m the ring does not support: the range check
    runs before the campaign's budget guards, as `tables` does."""
    code, out, err = run_cli(capsys, "verify", "--grid-m", f"2,{m}", "--grid-b", "1")
    assert code == 2 and out == ""
    assert err == f"error: m must be an integer in [1, 16], got {m}\n"
    assert run_cli(capsys, "tables", m, "1", "1")[::2] == (2, err)


def test_verify_grid_m_16_still_exits_3(capsys):
    code, out, err = run_cli(capsys, "verify", "--grid-m", "16", "--grid-b", "1")
    assert code == 3 and out == ""
    assert "check 3.7 scans R^2 for each of 2^16 codewords" in err


def test_enumerate_huge_span_exits_3(capsys, tmp_path):
    # |R|^k = 2^16000 has too many digits for str()
    path = tmp_path / "wide.txt"
    path.write_text("m=16 b=1 t=1\n" + "1\n" * 1000)
    code, out, err = run_cli(capsys, "enumerate", str(path))
    assert code == 3 and out == ""
    assert err == (
        "error: span over R^k coefficient tuples: "
        "requires 2^16000 > budget 268435456\n"
    )


def test_enumerate_overlong_monomial_exits_2(capsys, tmp_path):
    # the power has more digits than int() takes from a string
    path = tmp_path / "long.txt"
    path.write_text("m=4 b=1 t=1\nu" + "9" * 5000 + "\n")
    code, out, err = run_cli(capsys, "enumerate", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: line 2: monomial 'u999")
    assert err.endswith(" >= m=4\n") and err.count("\n") == 1
    assert "Traceback" not in err


def test_verify_summation_check_capped_below_m_8(capsys):
    # every cell passes its own budget and 8^8 is within the byte budget,
    # but check 3.7 at m=8 would run for about a minute
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "verify", "--grid-m", "8", "--grid-b", "1", "--samples", "1"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert "m=8" in err and str(8**8) in err


def test_integrity_exit_4(capsys, monkeypatch):
    def boom(args):
        raise IntegrityError("forced")

    monkeypatch.setitem(cli._DISPATCH, "info", boom)
    code, _, err = run_cli(capsys, "info")
    assert code == 4 and "forced" in err


def test_bad_flag_values_exit_2(capsys):
    assert run_cli(capsys, "info", "--workers", "0")[0] == 2
    assert run_cli(capsys, "info", "--max-space", "0")[0] == 2
    assert run_cli(capsys, "info", "--seed", "-1")[0] == 2
    # --max-space, then --workers, then --seed, each with its own line
    flags = ["--seed", "-1", "--workers", "0", "--max-space", "0"]
    assert run_cli(capsys, "info", *flags) == (
        2, "", "error: --max-space must be positive, got 0\n"
    )
    assert run_cli(capsys, "info", *flags[:4]) == (
        2, "", "error: --workers must be >= 1, got 0\n"
    )
    assert run_cli(capsys, "info", *flags[:2]) == (
        2, "", "error: --seed must fit in 64 bits, got -1\n"
    )


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("case", ["tables_4_3_2", "info", "verify_fault"])
def test_out_writes_file(capsys, tmp_path, case, fmt):
    argv, want_code = GOLDEN_CASES[case]
    target = tmp_path / f"report.{fmt}"
    code, out, _ = run_cli(capsys, *argv, "--format", fmt, "--out", str(target))
    assert code == want_code and out == ""
    assert target.read_bytes() == (GOLDEN / f"{case}.{fmt}").read_bytes()


def _text_reports(out: str) -> list[tuple]:
    """(lemma, params, passed) per `ok  `/`FAIL` line; params as strings."""
    reports = []
    for line in out.splitlines()[:-2]:  # the campaign line and the note
        status, lemma, *rest = line.split()
        params = {}
        for token in rest:
            key, eq, value = token.partition("=")
            if not eq:
                break
            params[key] = value
        reports.append((lemma, params, status == "ok"))
    return reports


@pytest.mark.parametrize(
    "flags",
    [
        ["--seed", "0", "--grid-m", "1,2", "--grid-b", "1,2", "--samples", "5"],
        ["--seed", "5", "--grid-m", "1,3", "--grid-b", "1", "--samples", "4",
         "--inject-fault"],
        ["--seed", "11", "--grid-m", "2", "--grid-b", "3", "--samples", "3",
         "--inject-fault"],
        ["--seed", str(2**64 - 1), "--grid-m", "3,1", "--grid-b", "2", "--samples", "2"],
    ],
)
def test_verify_formats_agree(capsys, flags):
    """JSON, CSV and text list the same reports in the same order, and the
    exit code is 5 exactly when one of them fails."""
    runs = {fmt: run_cli(capsys, "verify", *flags, "--format", fmt)
            for fmt in ("text", "json", "csv")}
    obj = json.loads(runs["json"][1])
    from_json = [(r["lemma"], r["params"], r["pass"]) for r in obj["reports"]]
    rows = list(csv.reader(io.StringIO(runs["csv"][1])))
    assert rows[0] == ["lemma", "params", "expected", "actual", "pass"]
    from_csv = [(r[0], json.loads(r[1]), r[4] == "true") for r in rows[1:]]
    assert from_csv == from_json and all(r[4] in ("true", "false") for r in rows[1:])
    as_text = [(lemma, {k: str(v) for k, v in params.items()}, passed)
               for lemma, params, passed in from_json]
    assert _text_reports(runs["text"][1]) == as_text
    passed = all(p for _, _, p in from_json)
    assert obj["pass"] is passed and passed != ("--inject-fault" in flags)
    assert {code for code, _, _ in runs.values()} == {0 if passed else 5}


def test_info(capsys):
    code, out, _ = run_cli(capsys, "info")
    assert code == 0
    assert "mspotty" in out and "exit_codes" in out


def test_statistics_never_build_the_digit_array(capsys, monkeypatch):
    """enumerate, transform and dual stream their statistics from the
    code's basis, and --codewords renders the same blocks: none of them
    reads the digit array."""

    def refuse(C):
        raise AssertionError("digit array built")

    monkeypatch.setattr(code_module.LinearCode, "digits", property(refuse))
    for argv in (["enumerate", EXAMPLE], ["transform", EXAMPLE], ["dual", EXAMPLE],
                 ["dual", EXAMPLE, "--codewords"]):
        for fmt in ("text", "json", "csv"):
            code, out, _ = run_cli(capsys, *argv, "--format", fmt)
            assert code == 0 and out


def test_statistics_memory_is_bounded_by_the_block():
    # 2^20 dual words: their digit array alone would take 20 MB
    tracemalloc = pytest.importorskip("tracemalloc")
    lay = ByteLayout(b=20, t=1, n=1)
    Cd = dual(GeneratorMatrix([[zero(1)] * 20], lay, m=1))
    tracemalloc.start()
    try:
        dist, W = cli._statistics(Cd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(Cd) == 1 << 20
    assert W == Polynomial({h: comb(20, h) for h in range(21)})
    assert dict(dist.items()) == {
        tuple(int(j == h) for j in range(21)): comb(20, h) for h in range(21)
    }
    assert peak < 4 << 20


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_dual_codewords_match_word_strings(capsys, fmt):
    """The string table renders every dual word of the worked example as
    `str(Word)` does."""
    want = [str(w) for w in dual(load_matrix(EXAMPLE)).codewords]
    code, out, _ = run_cli(capsys, "dual", EXAMPLE, "--codewords", "--format", fmt)
    assert code == 0 and len(want) == 32768
    if fmt == "json":
        got = json.loads(out)["codewords"]
    elif fmt == "csv":
        rows = [r for r in csv.reader(io.StringIO(out)) if r[0] == "codeword"]
        assert [r[1] for r in rows] == [str(i) for i in range(len(want))]
        got = [r[2] for r in rows]
    else:
        lines = out.splitlines()
        start = lines.index("codewords:") + 1
        got = [line[2:] for line in lines[start:]]
        assert all(line.startswith("  ") for line in lines[start:])
    assert got == want


def run_child(script, *argv):
    """`python -c script argv...` on this checkout's package."""
    src = str(Path(mspotty.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, env=env
    )


# Runs every command on the matrix argv[1] in every format, then prints
# the loaded modules of the process pool's packages and of numpy.ma.
POOL_MODULES = """
import contextlib, io, sys
from mspotty import cli
for argv in (["enumerate", sys.argv[1]], ["transform", sys.argv[1]],
             ["dual", sys.argv[1], "--codewords", "--workers", "4"],
             ["tables", "4", "3", "2"], ["info"],
             ["verify", "--grid-m", "1,2", "--grid-b", "1", "--samples", "3"]):
    for fmt in ("text", "json", "csv"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([*argv, "--format", fmt]) == 0, argv
print(sorted(m for m in sys.modules
             if m.partition(".")[0] in ("concurrent", "multiprocessing")
             or m == "numpy.ma" or m.startswith("numpy.ma.")))
"""


def test_commands_do_not_load_the_process_pool():
    """Every command runs in one process: none, in any format, loads
    concurrent.futures or multiprocessing.  Nor does any load numpy.ma,
    which `np.unique` without return flags imports."""
    proc = run_child(POOL_MODULES, EXAMPLE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"[]\n"


# Scans the dual of the matrix argv[1] at 8 workers and at 1, checks that
# both give the same 32,768 words, then prints the loaded modules of the
# process pool's packages.
SCAN_MODULES = """
import sys
import numpy as np
from mspotty import load_matrix
from mspotty.oracle import scan_dual
G = load_matrix(sys.argv[1])
eight = scan_dual(G, workers=8)
one = scan_dual(G, workers=1)
assert len(eight) == 32768 and np.array_equal(eight.digits, one.digits)
print(sorted(m for m in sys.modules
             if m.partition(".")[0] in ("concurrent", "multiprocessing")))
"""


def test_scan_at_many_workers_runs_in_one_process():
    """`scan_dual(G, workers=8)` on the worked example scans its 16^6
    vectors in this process: it loads no process pool and gives the same
    words as one worker."""
    proc = run_child(SCAN_MODULES, EXAMPLE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"[]\n"


# Runs main on argv, then prints the process's peak RSS in KiB to stderr:
# VmHWM, since ru_maxrss after exec can keep the forking process's peak.
PEAK_RSS = """
import sys
from mspotty import cli
code = cli.main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(next(ln.split()[1] for ln in fh if ln.startswith("VmHWM:")), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_codeword_listing_is_written_block_by_block(tmp_path, fmt):
    """`dual --codewords` on 2^18 words (10-14 MB of output) peaks within
    20 MB of `dual` alone, since only one block's strings are held at a
    time; --out gets the bytes that stdout gets.  The csv rows, read back
    with csv.reader, hold the text listing's words in order."""
    matrix = tmp_path / "zero.txt"
    matrix.write_text("m=1 b=18 t=1\n" + " ".join(["0"] * 18) + "\n")
    out = tmp_path / "out"
    argv = ["dual", str(matrix), "--format", fmt]
    listed, alone, saved = (
        run_child(PEAK_RSS, *argv, *extra)
        for extra in (["--codewords"], [], ["--codewords", "--out", str(out)])
    )
    assert listed.returncode == alone.returncode == saved.returncode == 0
    rise_kib = int(listed.stderr) - int(alone.stderr)
    assert rise_kib < 20 << 10, (listed.stderr, alone.stderr)
    assert saved.stdout == b"" and out.read_bytes() == listed.stdout
    if fmt == "json":
        words = json.loads(listed.stdout)["codewords"]
    elif fmt == "csv":
        rows = [r for r in csv.reader(io.StringIO(listed.stdout.decode()))
                if r[0] == "codeword"]
        assert [r[1] for r in rows] == [str(i) for i in range(len(rows))]
        text = run_child(PEAK_RSS, *argv[:-1], "text", "--codewords")
        words = [r[2] for r in rows]
        lines = text.stdout.decode().split("codewords:\n")[1].splitlines()
        assert words == [line.removeprefix("  ") for line in lines]
    else:
        words = listed.stdout.split(b"codewords:\n")[1].splitlines()
    assert len(words) == 1 << 18


# Loads the CLI, runs main on argv, then prints to stderr how far main
# raised the process's peak RSS (VmHWM), in KiB.
RSS_RISE = """
import sys
from mspotty import cli

def vm_hwm():
    with open("/proc/self/status") as fh:
        return next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))

before = vm_hwm()
code = cli.main(sys.argv[1:])
print(vm_hwm() - before, file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
def test_long_words_are_read_in_blocks_of_bounded_digits(tmp_path):
    """One m=16 row of 2,000 ones spans 2^16 words of 2,000 coordinates,
    so a block of 2^14 words would hold 32.8M digits.  A block holds at
    most 2^20 digits, so `enumerate` raises the peak by under 30 MB; its
    distribution is the zero word and 65,535 words of full weight."""
    matrix = tmp_path / "long.txt"
    matrix.write_text("m=16 b=1 t=1\n" + " ".join(["1"] * 2000) + "\n")
    proc = run_child(RSS_RISE, "enumerate", str(matrix), "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stderr) < 30 << 10, proc.stderr
    rows = json.loads(proc.stdout)["distribution"]
    assert [(r["alpha"], r["count"]) for r in rows] == [
        ([0, 2000], "65535"), ([2000, 0], "1")
    ]


# Exact stdout bytes and exit codes, pinned in tests/data/golden/ as
# <case>.<format>.  "{small}" stands for a file holding SMALL.  The files
# were written by the CLI itself and are the output contract: a change that
# alters them changes what users see.
GOLDEN = DATA / "golden"
GOLDEN_CASES = {
    "enumerate_example": (["enumerate", EXAMPLE], 0),
    "enumerate_small": (["enumerate", "{small}"], 0),
    "transform_example": (["transform", EXAMPLE], 0),
    "transform_small": (["transform", "{small}"], 0),
    "dual_small": (["dual", "{small}"], 0),
    "dual_small_codewords": (["dual", "{small}", "--codewords"], 0),
    "dual_example": (["dual", EXAMPLE], 0),
    "tables_4_3_2": (["tables", "4", "3", "2"], 0),
    "tables_1_1_1": (["tables", "1", "1", "1"], 0),
    "verify": (["verify", "--grid-m", "1,2", "--grid-b", "1",
                "--samples", "3", "--seed", "9"], 0),
    "verify_fault": (["verify", "--grid-m", "1,2", "--grid-b", "1",
                      "--samples", "3", "--seed", "9", "--inject-fault"], 5),
    # the default grid, m 1-4 and b 1-3
    "verify_grid": (["verify", "--seed", "9"], 0),
    "info": (["info"], 0),
}


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_outputs(capsys, small_file, case, fmt):
    argv, want_code = GOLDEN_CASES[case]
    argv = [small_file if a == "{small}" else a for a in argv]
    code, out, _ = run_cli(capsys, *argv, "--format", fmt)
    assert code == want_code
    assert out.encode("utf-8") == (GOLDEN / f"{case}.{fmt}").read_bytes()


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mspotty.cli", "info"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "mspotty" in proc.stdout


def test_repeated_main_calls_match_fresh_processes(capsys, small_file):
    # main shares one parser across calls; no flag or default of one call
    # may leak into the next
    calls = [
        ["dual", small_file, "--format", "json", "--workers", "3"],
        ["dual", small_file],
        ["verify", "--grid-m", "1,2", "--grid-b", "1", "--samples", "3"],
        ["info"],
        ["verify", "--grid-b", "1", "--samples", "3"],
    ]
    for argv in calls:
        code, out, _ = run_cli(capsys, *argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "mspotty.cli", *argv],
            capture_output=True,
            text=True,
        )
        assert (code, out) == (fresh.returncode, fresh.stdout), argv
    assert cli._build_parser() is cli._build_parser()
