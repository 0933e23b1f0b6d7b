import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import resitan
from resitan import ScanConfig, cli, harness, parse_report, scan
from resitan.cli import main
from resitan.residues import verify_residue_sum

from conftest import require_fork


def test_residues_command(capsys):
    assert main(["residues", "--p", "13", "--m", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "1 5 8 12"
    assert out[1] == "sum = 26"


def test_residues_command_needs_only_m_dividing_p_minus_1(capsys):
    # R_4(13) = {1, 3, 9} has an odd number of members, so no pairs
    # {k, p - k}, but it is defined; only an m not dividing 12 fails
    assert main(["residues", "--p", "13", "--m", "4"]) == 0
    assert capsys.readouterr().out.splitlines() == ["1 3 9", "sum = 13"]
    assert main(["residues", "--p", "13", "--m", "5"]) == 1
    assert "not 1 mod m=5" in capsys.readouterr().err


def test_symbol_command(capsys):
    assert main(["symbol", "--a", "-2", "--p", "31", "--m", "3"]) == 0
    assert capsys.readouterr().out.strip() == "-1"
    assert main(["symbol", "--a", "2", "--p", "31", "--m", "3"]) == 0
    assert capsys.readouterr().out.strip() == "+1"


def test_symbol_non_real_exits_1(capsys):
    assert main(["symbol", "--a", "2", "--p", "13", "--m", "2"]) == 1
    assert "not real" in capsys.readouterr().err


def test_cornacchia_command(capsys):
    assert main(["cornacchia", "--p", "31", "--d", "27"]) == 0
    assert capsys.readouterr().out.strip() == "2 1"
    assert main(["cornacchia", "--p", "13", "--d", "27"]) == 0
    assert capsys.readouterr().out.strip() == "none"


def test_verify_command(capsys):
    assert main(["verify", "--p", "31", "--m", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 4
    checks = [line.split()[3].rstrip(":") for line in out.splitlines()]
    assert checks == ["gi", "gi_plus", "thm_main_exact", "thm_main_numeric"]


def test_verify_modes(capsys):
    assert main(["verify", "--p", "31", "--m", "3", "--mode", "exact"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert main(["verify", "--p", "31", "--m", "3", "--mode", "numeric",
                 "--tol", "1e-8"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_verify_large_prime_exact(capsys):
    # (-2)^50001 has 15052 digits, past str()'s default limit of 4300
    assert main(["verify", "--p", "100003", "--m", "1", "--a", "2",
                 "--mode", "exact"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[4] for line in lines] == ["pass"] * 3


# modules that `import resitan.cli`, and so every `resitan verify`, must not
# load, each with the reason it can do without
UNLOADED_BY_CLI = {
    "concurrent.futures": "a pooled scan forks its workers with os.fork",
    "fractions": "exact angle reduction is plain integer arithmetic",
    "decimal": "exact angle reduction is plain integer arithmetic",
    "json": "only report I/O needs it, and imports it where it runs",
    "csv": "only report I/O needs it, and imports it where it runs",
    "dataclasses": "the value types are namedtuples",
    "inspect": "nothing at start-up introspects code",
}


@pytest.fixture(scope="module")
def cli_import():
    """The modules of UNLOADED_BY_CLI that `import resitan.cli` loads in one
    fresh interpreter."""
    src = str(Path(resitan.__file__).resolve().parent.parent)
    code = ("import sys, resitan.cli; "
            f"print(*[m for m in {list(UNLOADED_BY_CLI)!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    return set(out.stdout.split())


def assert_not_loaded(cli_import, *modules):
    loaded = sorted(cli_import & set(modules))
    assert not loaded, {m: UNLOADED_BY_CLI[m] for m in loaded}


def test_import_loads_no_process_pool(cli_import):
    assert_not_loaded(cli_import, "concurrent.futures")


def test_pooled_scan_loads_no_process_pool_modules(tmp_path):
    # the scan's pool is os.fork and pipes: none of these is needed
    modules = ["concurrent.futures", "multiprocessing", "logging"]
    src = str(Path(resitan.__file__).resolve().parent.parent)
    out = tmp_path / "report.jsonl"
    code = ("import sys; from resitan.harness import ScanConfig, scan_counts; "
            f"print(scan_counts(ScanConfig(3, 100, out={str(out)!r}))); "
            f"print(*[m for m in {modules!r} if m in sys.modules])")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src,
                              "RESITAN_THREADS": "2"})
    counts, loaded = run.stdout.split("\n")[:2]
    assert counts.startswith("(") and out.stat().st_size
    assert loaded == ""


def test_import_loads_no_fractions_or_decimal(cli_import):
    assert_not_loaded(cli_import, "fractions", "decimal")


def test_import_loads_no_json_or_csv(cli_import):
    assert_not_loaded(cli_import, "json", "csv")


# the dense ring's names, which tests/reference_ring.py holds
RING_NAMES = ("CycloElement", "CycloRing", "binomial_product",
              "cyclotomic_poly", "get_ring", "RingMismatch")


def test_import_loads_no_reference_ring(cli_import):
    # the package holds only the verifier: no ring module, none of the
    # ring's names, and a CLI import that loads none of UNLOADED_BY_CLI
    assert importlib.util.find_spec("resitan.ring") is None
    assert [name for name in RING_NAMES if hasattr(resitan, name)] == []
    assert_not_loaded(cli_import, *UNLOADED_BY_CLI)


def test_import_loads_no_dataclasses_or_inspect(cli_import):
    assert_not_loaded(cli_import, "dataclasses", "inspect")


def test_verify_hypothesis_skip_is_clean(capsys):
    assert main(["verify", "--p", "13", "--m", "2"]) == 0
    assert "skipped(hypothesis)" in capsys.readouterr().out


@pytest.mark.parametrize("m", [4, 7])
def test_verify_skip_reasons_agree(m, capsys):
    # 2m does not divide 12: every check, numeric or exact, gives that reason
    assert main(["verify", "--p", "13", "--m", str(m)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": ")[0].split()[-1] for line in lines] == \
        ["gi", "gi_plus", "thm_main_exact", "thm_main_numeric"]
    assert {line.split("  actual=")[1] for line in lines} == \
        {f"2m={2 * m} does not divide p-1=12"}


def test_verify_rejects_nonprime(capsys):
    assert main(["verify", "--p", "15", "--m", "1"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["-1", "-0.5", "nan", "inf"])
def test_bad_tolerance_is_an_error_before_any_check(tol, tmp_path, capsys):
    assert main(["verify", "--p", "1049", "--m", "4", "--a", "7",
                 "--mode", "numeric", f"--tol={tol}"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: tolerance must be finite and >= 0")
    report = tmp_path / "report.jsonl"
    assert main(["scan", "--pmin", "3", "--pmax", "20", f"--tol={tol}",
                 "--out", str(report)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: tolerance must be finite and >= 0")
    assert not report.exists()


def test_scan_command(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    code = main(["scan", "--pmin", "3", "--pmax", "40", "--m", "all",
                 "--a-count", "2", "--checks", "gi,lemma21", "--out", str(out)])
    assert code == 0
    summary = capsys.readouterr().out
    assert "wrote" in summary and "fail=0" in summary
    lines = out.read_text().splitlines()
    assert lines
    rec = json.loads(lines[0])
    assert set(rec) == {"p", "m", "a", "check", "status", "expected", "actual",
                        "elapsed_ms"}
    assert {json.loads(l)["check"] for l in lines} == {"gi", "lemma21"}


def test_scan_defaults_are_the_config_defaults(tmp_path, monkeypatch, capsys):
    # every option left out takes ScanConfig's own default
    seen = []

    def capture(config):
        seen.append(config)
        return 0, 0, 0, 0
    monkeypatch.setattr(cli, "scan_counts", capture)
    out = str(tmp_path / "report.jsonl")
    assert main(["scan", "--pmin", "3", "--pmax", "50", "--out", out]) == 0
    assert seen == [ScanConfig(3, 50, out=out)]


def test_scan_beyond_dense_ring_bound(tmp_path, monkeypatch, capsys):
    # n = 4p = 20012 and 20036: a dense Z[zeta_n] would hold 20000-term
    # vectors; the exact checks certify modulo split primes and build no ring
    monkeypatch.setenv("RESITAN_THREADS", "1")
    out = tmp_path / "report.jsonl"
    assert main(["scan", "--pmin", "5003", "--pmax", "5010", "--checks", "gi",
                 "--m", "1", "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 12
    assert {(r["p"], r["status"]) for r in records} == {(5003, "pass"),
                                                       (5009, "pass")}


def test_scan_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    assert main(["scan", "--pmin", "5", "--pmax", "20", "--checks", "lemma21",
                 "--out", str(out), "--format", "csv"]) == 0
    assert out.read_text().startswith("p,m,a,check,status,expected,actual,elapsed_ms")


def summary_of(records, out) -> str:
    """The summary line `resitan scan` prints, counted from records."""
    statuses = [rec.status for rec in records]
    failed = statuses.count("fail")
    skipped = statuses.count("skipped(hypothesis)")
    errored = sum(s.startswith("error(") for s in statuses)
    passed = len(statuses) - failed - skipped - errored
    return (f"wrote {len(statuses)} records to {out} (pass={passed}, "
            f"fail={failed}, skipped={skipped}, error={errored})\n")


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("pmin, pmax", [(3, 120), (24, 28), (29, 29)])
def test_scan_summary_and_report_at_any_process_count(fmt, pmin, pmax,
                                                      tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.setenv("RESITAN_THREADS", "1")
    want = tmp_path / f"want.{fmt}"
    records = scan(ScanConfig(pmin, pmax, out=str(want), fmt=fmt))
    for threads in (1, 2, 3):
        monkeypatch.setenv("RESITAN_THREADS", str(threads))
        out = tmp_path / f"report-{threads}.{fmt}"
        assert main(["scan", "--pmin", str(pmin), "--pmax", str(pmax),
                     "--format", fmt, "--out", str(out)]) == 0
        assert capsys.readouterr().out == summary_of(records, out)
        assert out.read_bytes() == want.read_bytes()
    assert parse_report(want, fmt) == records
    if pmin == 24:
        # no prime in range: an empty JSONL file, a CSV header alone
        assert not records
        assert want.read_bytes() == {
            "jsonl": b"",
            "csv": b"p,m,a,check,status,expected,actual,elapsed_ms\r\n"}[fmt]


def fail_at_13(ctx, m):
    rec = verify_residue_sum(ctx, m)
    return rec._replace(status="fail") if ctx.p == 13 else rec


def raise_at_13(ctx, m):
    if ctx.p == 13:
        raise ArithmeticError("forced at 13")
    return verify_residue_sum(ctx, m)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("runner, status", [(fail_at_13, "fail"),
                                            (raise_at_13, "error(ArithmeticError: forced at 13)")])
def test_scan_failure_or_error_exits_1_with_record_counts(
        threads, runner, status, tmp_path, monkeypatch, capsys):
    require_fork(threads)
    monkeypatch.setattr(harness, "verify_residue_sum", runner)
    monkeypatch.setenv("RESITAN_THREADS", str(threads))
    out = tmp_path / "report.jsonl"
    records = scan(ScanConfig(3, 60, checks=("lemma21", "gi")))
    assert {rec.status for rec in records if rec.p == 13
            and rec.check == "lemma21"} == {status}
    assert main(["scan", "--pmin", "3", "--pmax", "60", "--checks",
                 "lemma21,gi", "--out", str(out)]) == 1
    assert capsys.readouterr().out == summary_of(records, out)


def test_pmd_command(capsys):
    assert main(["pmd", "--n", "9", "--x", "0.2"]) == 0
    assert "pass" in capsys.readouterr().out


def test_pmd_rejects_non_finite_x(capsys):
    for x in ("inf", "nan"):
        assert main(["pmd", "--n", "3", "--x", x]) == 1
        assert capsys.readouterr().err.strip() == "error: x must be finite"


def test_pmd14_command(capsys):
    assert main(["pmd14", "--p", "17"]) == 0
    assert "pass" in capsys.readouterr().out


def test_pmd14_wrong_branch_errors(capsys):
    assert main(["pmd14", "--p", "13"]) == 1
    assert "not 1 mod 8" in capsys.readouterr().err
