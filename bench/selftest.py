"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Runs every workload with --size tiny, untraced and traced, and checks that
each prints every metric of BENCHMARK.json with its unit; checks that a
failing, erroring or missing record trips the output checks; checks the
span self-time arithmetic; and checks that the benchmark refuses to run
without the resitan sources.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads
from spans import Spans

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"selftest failed: {message}")


def check_workloads() -> None:
    for name in workloads.WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", name,
                 "--seed", "3", "--seconds", "1", "--trace", str(trace),
                 "--size", "tiny"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=170)
            what = f"{name} --trace {trace}"
            expect(proc.returncode == 0, f"{what} exited {proc.returncode}: "
                   f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{what}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1, f"{what}: {lines[-1][:300]}")
            wanted = {m["name"]: m["unit"] for m in SPEC[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{what}: metrics differ from BENCHMARK.json: "
                   f"{sorted(set(got) ^ set(wanted))}")
            for metric, unit in wanted.items():
                expect(any(line.startswith(f"{metric}: ") and f" {unit} " in line
                           for line in lines), f"{what}: no line for {metric}")
            print(f"ok  {what}: {len(got)} metrics")


def check_output_checks() -> None:
    work = workloads.build("scan_all", 3, "tiny")
    keys = work.expected_keys()
    good = [{"p": p, "m": m, "a": a, "check": c, "status": "pass",
             "expected": "", "actual": "", "elapsed_ms": 0.0}
            for p, m, a, c in keys]

    def report(records) -> bytes:
        return "".join(json.dumps(r) + "\n" for r in records).encode()

    expect(not workloads.check_report(report(good), keys)["problems"],
           "a correct report was refused")
    for status in ("fail", "error(ZeroDivisionError)"):
        bad = [dict(r) for r in good]
        bad[len(bad) // 2]["status"] = status
        result = workloads.check_report(report(bad), keys)
        expect(result["bad"] == 1 and result["problems"],
               f"a record with status {status} passed the check")
    expect(workloads.check_report(report(good[:-1]), keys)["problems"],
           "a missing record passed the check")

    case = (73, 1, 5)
    lines = [f"p=73 m=1 a=5 {c}: pass  expected=x  actual=x"
             for c in workloads.VERIFY_CHECKS]
    expect(not workloads.check_verify_output("\n".join(lines), case, 0)["problems"],
           "a correct verify output was refused")
    lines[1] = lines[1].replace(": pass ", ": fail ")
    expect(workloads.check_verify_output("\n".join(lines), case, 1)["bad"] == 1,
           "a failing verify record passed the check")
    print("ok  failing, erroring and missing records trip the output checks")


def check_spans() -> None:
    spans = Spans()
    with spans.span("outer", new_item=True):
        with spans.span("inner"):
            pass
        with spans.span("inner"):
            pass
    totals = spans.totals()
    outer, inner = totals["outer"], totals["inner"]
    expect(inner["calls"] == 2 and outer["calls"] == 1, "span call counts")
    expect(abs(outer["busy_s"] - outer["self_s"] - inner["busy_s"]) < 1e-12,
           "outer self time is its busy time minus its children's")
    expect(len({rec[4] for rec in spans.records}) == 1, "one trace id per item")
    expect(abs(spans.root_time() - outer["busy_s"]) < 1e-12, "root time")
    print("ok  span self times")


def check_refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.BENCH, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "scan_all",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=170)
    expect(proc.returncode != 0 and "{" not in proc.stdout,
           f"ran without resitan sources: {proc.returncode} {proc.stdout!r}")
    print("ok  refuses to run without the resitan sources")


if __name__ == "__main__":
    run.WORK.mkdir(exist_ok=True)
    check_output_checks()
    check_spans()
    check_refuses_without_sources()
    check_workloads()
    print("selftest passed")
