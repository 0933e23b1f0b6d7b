"""Benchmark of resitan: three workloads, their end-to-end metrics and a
traced per-layer run.

    python3 bench/run.py --workload scan_all|verify_large|scan_numeric
                         --seed N --seconds S --trace 0|1 [--size full|tiny]

Run it from the repository root; resitan is imported from ./src, so nothing
needs installing.  All three workloads, one after another:

    for w in scan_all verify_large scan_numeric; do
        python3 bench/run.py --workload $w --seed 1 --seconds 30 --trace 0
    done

The seed picks the inputs (workloads.py); the same seed gives the same
inputs.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give every
figure with its unit and sample count.  The exit code is 1 when any output
check fails, 2 when resitan cannot be found.

--trace 0 (end to end, untraced).  Whole passes of the workload run back to
back until S seconds have passed, each as real `python -m resitan`
commands: one `scan` per pass on the scan workloads, using RESITAN_THREADS =
the number of usable cores, and one `verify` command per case, one after
another, on verify_large (a closed loop with one client).  Before each pass,
set-up is timed twice: a fresh interpreter imports resitan and builds the
inputs (at least eleven times per run).  Every pass is checked, and every
pass must give the same report as the first.  (That a pooled report matches
the RESITAN_THREADS=1 one byte for byte is checked in --trace 1, whose
passes run serially.)

Times at the reference speed.  A shared host's speed drifts by up to 2x,
for seconds to minutes at a time, so raw wall times of the same code spread
past any useful bound from one run to the next.  After every command the
launcher runs a fixed calibration kernel (no resitan code) once per
CAL_EVERY_S of the command's wall time, in as many processes at once as
the command's RESITAN_THREADS.  The kernel's median time over the run
tracks how fast the host was during the run.  ref_wall_s,
ref_verified_per_s and setup_s are the run's medians scaled by REF_CAL_S
(the kernel's time on the reference machine, a 2 vCPU Xeon running Python
3.11) over that median: seconds on the reference machine.  A pooled scan
spends part of its time with every worker busy and part in its parent
alone, so its scale is the geometric mean of the one-process scale (from
the kernels after the set-up probes) and the pool-size one.
A change to resitan moves them as it moves wall time; a change in the
host's speed moves the kernel too and mostly cancels.
The raw figures are printed too, as "raw_*" lines.

--trace 1 (per layer).  The same pass runs serially inside fresh
interpreters (inproc.py), untraced and traced in turn until S seconds have
passed, and once pooled for the pool efficiency.  A parallel-capacity
calibration (CPU spinners alone and side by side) is taken first:
harness.pool_eff is read against machine.parallel_speed, not against 1.
Computed counts are marked "computed" in the figure lines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from inproc import COMPUTED

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = BENCH / "_work"
SETUP_PROBES_PER_PASS = 2
MIN_SETUP_PROBES = 11
TIME_LIMIT_S = 170.0        # every child is killed past this point of the run
SPIN_LOOPS = 3_000_000
# Calibration kernel time on the reference machine, by the number of
# processes running it at once (a 2 vCPU Xeon: two at once share its cores).
REF_CAL_S = {1: 0.100, 2: 0.130}
WARMUP_CALIBRATIONS = 3
CAL_EVERY_S = 1.0           # one kernel run per second of command time

_START = time.perf_counter()
RAW_UNITS = {"raw_wall_s": "s", "raw_verified_per_s": "1/s",
             "raw_setup_s": "s", "cal_s": "s"}


def metric_units(group: str) -> dict:
    """Name -> unit of the "end_to_end" or "per_layer" metrics, in the order
    BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[group]}


def child_env(threads: int) -> dict:
    env = dict(os.environ, RESITAN_THREADS=str(threads))
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + extra if extra else "")
    return env


def inproc_args(work, *extra) -> list:
    return [BENCH / "inproc.py", "--workload", work.name, "--seed", work.seed,
            "--size", work.size, *extra]


def median(values):
    return statistics.median(values) if values else 0.0


class Run:
    """State of one invocation: inputs, checks, counts, file names and the
    launcher process that runs every measured command."""

    def __init__(self, work, workers: int, trace: int):
        self.launcher = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.work = work
        self.workers = workers
        self.tag = f"{work.name}-seed{work.seed}-trace{trace}-{os.getpid()}"
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.sha256 = set()
        self._expected = None
        self.temp_files: list[Path] = []
        # kernel times by the number of processes that ran it at once
        self.cal_s: dict[int, list[float]] = {}
        for procs in {1, self.pass_threads}:
            for _ in range(WARMUP_CALIBRATIONS):
                self.calibrate(procs)
            self.cal_s[procs] = []

    def _ask(self, request: dict) -> dict:
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        return json.loads(self.launcher.stdout.readline())

    @property
    def pass_threads(self) -> int:
        """RESITAN_THREADS of the timed passes."""
        return self.workers if self.work.kind == "scan" else 1

    def calibrate(self, procs: int) -> None:
        cal_s = self._ask({"calibrate": procs})["cal_s"]
        self.cal_s.setdefault(procs, []).append(cal_s)

    def scale(self, threads: int) -> float:
        """Factor from this run's wall seconds of commands run with
        RESITAN_THREADS=threads to seconds on the reference machine."""
        def one(procs):
            return REF_CAL_S.get(procs, REF_CAL_S[1]) / median(self.cal_s[procs])
        return one(1) if threads == 1 else (one(1) * one(threads)) ** 0.5

    def run_child(self, args, threads: int, stdout_path=None):
        """Run `python args...` to completion through the launcher, then
        run the calibration kernel once per CAL_EVERY_S of its wall time
        (at least once).

        Returns (wall seconds, peak RSS in MB, exit code, stdout text); the
        peak RSS covers the command and its pool workers.
        """
        limit = max(1.0, TIME_LIMIT_S - (time.perf_counter() - _START))
        reply = self._ask({"args": [sys.executable, *map(str, args)],
                           "env": child_env(threads), "cwd": str(ROOT),
                           "stdout": str(stdout_path) if stdout_path else None,
                           "limit": limit})
        for _ in range(max(1, round(reply["wall_s"] / CAL_EVERY_S))):
            self.calibrate(threads)
        text = ""
        if stdout_path:
            text = Path(stdout_path).read_text(encoding="utf-8", errors="replace")
        return reply["wall_s"], reply["peak_rss_mb"], reply["code"], text

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait(timeout=30)
        self.launcher.stdout.close()
        for p in self.temp_files:
            if p.exists():
                p.unlink()

    def path(self, suffix: str) -> Path:
        p = WORK / f"{self.tag}-{suffix}"
        self.temp_files.append(p)
        return p

    def expected(self):
        if self._expected is None:
            self._expected = self.work.expected_keys()
        return self._expected

    def tally(self, result: dict, what: str) -> dict:
        self.attempted += result["records"]
        self.failed += result["bad"]
        self.problems += [f"{what}: {p}" for p in result["problems"]]
        return result

    def check_scan(self, report: Path, code: int, what: str) -> tuple[dict, bytes]:
        data = report.read_bytes() if report.exists() else b""
        result = self.tally(workloads.check_report(data, self.expected()), what)
        if code != 0:
            self.problems.append(f"{what}: exit code {code}")
        self.sha256.add(result["sha256"])
        return result, data

    def check_verify(self, outputs, what: str) -> dict:
        """outputs: (stdout, exit code) per case, in case order."""
        total = {"records": 0, "pass": 0, "skipped": 0, "bad": 0, "problems": []}
        for case, (text, code) in zip(self.work.cases, outputs):
            one = workloads.check_verify_output(text, case, code)
            for key in ("records", "pass", "skipped", "bad"):
                total[key] += one[key]
            total["problems"] += one["problems"]
        return self.tally(total, what)


def time_setup(run: Run, probes: int) -> list[float]:
    walls = []
    for _ in range(probes):
        wall, _, code, _ = run.run_child(inproc_args(run.work, "--setup-only"), 1)
        if code != 0:
            run.problems.append(f"set-up probe exited with {code}")
        walls.append(wall)
    return walls


def scan_pass(run: Run, threads: int, what: str):
    report = run.path("report.jsonl")
    argv = ["-m", "resitan", *run.work.argvs(report)[0]]
    wall, rss, code, _ = run.run_child(argv, threads, run.path("stdout.txt"))
    result, data = run.check_scan(report, code, what)
    return {"wall_s": wall, "peak_rss_mb": rss, "pass": result["pass"]}, data


def verify_pass(run: Run, what: str):
    """The calls' wall times summed: the calibrations between them are left
    out."""
    outputs, rss, wall = [], 0.0, 0.0
    stdout = run.path("stdout.txt")
    for argv in run.work.argvs():
        call_wall, call_rss, code, text = run.run_child(
            ["-m", "resitan", *argv], 1, stdout)
        outputs.append((text, code))
        rss = max(rss, call_rss)
        wall += call_wall
    result = run.check_verify(outputs, what)
    return {"wall_s": wall, "peak_rss_mb": rss, "pass": result["pass"]}, outputs


def end_to_end(run: Run, seconds: float):
    samples, setup, first_output = [], [], None
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        # set-up probes are spread over the run, so that their median sees
        # the same machine as the passes do
        setup += time_setup(run, SETUP_PROBES_PER_PASS)
        what = f"pass {len(samples) + 1}"
        if run.work.kind == "scan":
            sample, output = scan_pass(run, run.pass_threads, what)
        else:
            sample, output = verify_pass(run, what)
        if first_output is None:
            first_output = output
        elif output != first_output:
            run.problems.append(f"{what}: output differs from pass 1")
        samples.append(sample)
    setup += time_setup(run, max(0, MIN_SETUP_PROBES - len(setup)))
    threads = run.pass_threads
    raw = {
        "raw_wall_s": median([s["wall_s"] for s in samples]),
        "raw_verified_per_s": median([s["pass"] / s["wall_s"] for s in samples]),
        "raw_setup_s": median(setup),
        "cal_s": median(run.cal_s[threads]),
    }
    metrics = {
        "ref_wall_s": raw["raw_wall_s"] * run.scale(threads),
        "ref_verified_per_s": raw["raw_verified_per_s"] / run.scale(threads),
        "peak_rss_mb": median([s["peak_rss_mb"] for s in samples]),
        "setup_s": raw["raw_setup_s"] * run.scale(1),
        **raw,
    }
    counts = {name: len(samples) for name in metrics}
    counts["setup_s"] = counts["raw_setup_s"] = len(setup)
    counts["cal_s"] = len(run.cal_s[threads])
    return metrics, counts, {"samples": samples, "setup_s": setup,
                             "cal_s": run.cal_s}


def parallel_speed(workers: int) -> float:
    """Speed of one CPU spinner among `workers` side by side, relative to
    one alone; own processes only.  The median of three rounds."""
    code = ("import time\nt = time.perf_counter()\nx = 0\n"
            f"for i in range({SPIN_LOOPS}):\n    x += i\n"
            "print(time.perf_counter() - t)")

    def spin(n):
        procs = [subprocess.Popen([sys.executable, "-c", code],
                                  stdout=subprocess.PIPE) for _ in range(n)]
        return [float(p.communicate()[0]) for p in procs]

    ratios = []
    for _ in range(3):
        alone = spin(1)[0]
        ratios.append(alone / max(spin(workers)))
    return median(ratios)


def inproc_pass(run: Run, what: str, trace: int, spans=None):
    summary_path = run.path(f"summary-{trace}.json")
    extra = ["--summary", summary_path, "--trace", trace]
    report = None
    if run.work.kind == "scan":
        report = run.path(f"inproc-{trace}.jsonl")
        extra += ["--out", report]
    if spans:
        extra += ["--spans", spans]
    _, _, code, _ = run.run_child(inproc_args(run.work, *extra), 1)
    if code != 0 or not summary_path.exists():
        run.problems.append(f"{what}: in-process pass exited with {code}")
        return None, None, None
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    if run.work.kind == "scan":
        check, output = run.check_scan(report, summary["calls"][0]["code"], what)
    else:
        output = [(c["stdout"], c["code"]) for c in summary["calls"]]
        check = run.check_verify(output, what)
    return summary, check, output


def per_layer(run: Run, seconds: float):
    speed = parallel_speed(run.workers)
    pooled_wall, pooled_output = 0.0, None
    if run.work.kind == "scan":
        pooled, pooled_output = scan_pass(run, run.workers, "pooled pass")
        pooled_wall = pooled["wall_s"]
    # untraced and traced serial passes alternate, so that the overhead
    # compares passes that saw the same machine
    untraced, traced, base_check = [], [], None
    spans_path = WORK / f"spans-{run.work.name}-{run.work.size}-seed{run.work.seed}.json"
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        n = len(traced) + 1
        base, base_check, base_output = inproc_pass(run, f"untraced pass {n}", 0)
        summary, _, output = inproc_pass(run, f"traced pass {n}", 1, spans_path)
        if base is None or summary is None:
            return {}, {}, {}
        if pooled_output is not None and pooled_output != base_output:
            run.problems.append("pooled report differs from the "
                                "RESITAN_THREADS=1 report")
        if output != base_output:
            run.problems.append(f"traced pass {n}: output differs from the "
                                "untraced pass")
        untraced.append(base["wall_s"])
        traced.append(summary)
    metrics = {name: median([t["layers"][name] for t in traced])
               for name in traced[0]["layers"]}
    busy = median([t["busy_s"] for t in traced])
    metrics.update({
        "harness.pool_eff": (busy / (run.workers * pooled_wall)
                             if pooled_wall else 0.0),
        "harness.report_bytes": base_check.get("bytes", 0),
        "harness.records": base_check["records"],
        "harness.skip_ratio": base_check["skipped"] / max(1, base_check["records"]),
        "harness.serial_wall_s": median(untraced),
        "trace.overhead_ratio": median([t["wall_s"] for t in traced])
                                / median(untraced) - 1.0,
        "machine.parallel_speed": speed,
    })
    counts = {name: len(traced) for name in metrics}
    return metrics, counts, {"spans_file": str(spans_path.relative_to(ROOT))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=workloads.SIZES,
                    help="tiny: small inputs for the self-test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "resitan" / "__init__.py").is_file():
        print(f"error: no resitan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = workloads.build(args.workload, args.seed, args.size)
    workers = len(os.sched_getaffinity(0))
    run = Run(work, workers, args.trace)
    info = {"workload": work.name, "seed": work.seed, "size": work.size,
            "nproc": os.cpu_count(), "usable_cores": workers,
            "workers": run.pass_threads,
            "python": platform.python_version(),
            "inputs": work.scan or {"cases": work.cases}}
    print("info " + json.dumps(info))
    try:
        if args.trace:
            metrics, counts, extra = per_layer(run, args.seconds)
        else:
            metrics, counts, extra = end_to_end(run, args.seconds)
    finally:
        run.close()

    units = metric_units("per_layer" if args.trace else "end_to_end")
    missing = [name for name in units if name not in metrics]
    if missing:
        run.problems.append(f"metrics not measured: {missing}")
    reported = {name: {"value": metrics[name], "unit": unit}
                for name, unit in units.items() if name in metrics}
    for name, m in reported.items():
        label = "computed, " if name in COMPUTED else ""
        print(f"{name}: {m['value']:.6g} {m['unit']} "
              f"({label}median of {counts[name]})")
    for name, unit in RAW_UNITS.items():
        if name in metrics:
            print(f"{name}: {metrics[name]:.6g} {unit} "
                  f"(not gated, median of {counts[name]})")
    print(f"failed_ratio: {run.failed / max(1, run.attempted):.6g} "
          f"({run.failed} of {run.attempted} records fail or error)")
    for sha in sorted(run.sha256):
        print(f"report sha256: {sha}")
    for problem in run.problems[:20]:
        print(f"check failed: {problem}")
    correct = not run.problems and run.attempted > 0
    result = {"correct": correct, "attempted": max(1, run.attempted),
              "failed": run.failed, "metrics": reported}
    record = dict(result, info=info, samples=counts, extra=extra,
                  problems=run.problems, sha256=sorted(run.sha256))
    out = WORK / f"BENCH_{work.name}_{work.size}_seed{work.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
