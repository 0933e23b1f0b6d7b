"""Where a serial scan's time goes: each check, line rendering, listing.

    python tools/scan_profile.py [RUNS] [-- SCAN OPTIONS]

Runs `resitan scan` RUNS times (default 5) in this process (cli.main,
which calls harness.scan_counts) at RESITAN_THREADS=1, with its report
going to os.devnull, after clearing the package's per-prime caches before
each run.  The scan is the benchmark's seed-1 numeric one unless scan
options follow "--", as `resitan scan` takes them without --out: for
instance

    python tools/scan_profile.py 5 -- --pmin 12 --pmax 250

In the timed runs, timers wrap:
- harness.run_check, summed per check name;
- the head and tail functions harness._renderer hands each prime, which
  render its lines;
- harness.primes_between, which lists the range.

Each timed run follows an untimed one.  Prints the median ms of each part,
of what is left of the timed scan_counts call, the engine's own work (grids,
coset names, sorting, joining), and of the whole call, timed and untimed.
Each timer adds its own cost, a fraction of a microsecond a call, partly to
the part it times and partly to the rest: the difference between the two
whole figures.  Standard library only; gates nothing.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from resitan import cli, cyclotomic, harness, numeric, residues  # noqa: E402

NUMERIC_SCAN = ["--pmin", "97", "--pmax", "6000", "--checks",
                "thm_main_numeric,pmd_thm14,lemma21,lemma31,criterion"]


def profile(options: list[str], runs: int) -> dict[str, list[float]]:
    """Seconds per run of each timed part, and of the whole scan_counts
    call, of `resitan scan OPTIONS --out os.devnull` run in-process; each
    timed run follows one untimed run, whose whole call is "untimed"."""
    spent = Counter()
    clock = time.perf_counter

    def timed(name, fn):
        def call(*args):
            t0 = clock()
            try:
                return fn(*args)
            finally:
                spent[name] += clock() - t0
        return call

    real = {name: getattr(harness, name) for name in
            ("scan_counts", "run_check", "_renderer", "primes_between")}

    def run_check(ctx, m, a, check, tol):
        t0 = clock()
        try:
            return real["run_check"](ctx, m, a, check, tol)
        finally:
            spent["check " + check] += clock() - t0

    def renderer(fmt):
        head, tail = real["_renderer"](fmt)
        return timed("rendering", head), timed("rendering", tail)

    timers = {"scan_counts": timed("scan", real["scan_counts"]),
              "run_check": run_check, "_renderer": renderer,
              "primes_between": timed("listing", real["primes_between"])}
    samples = {}
    for _ in range(runs):
        for patch in ({"scan_counts": timers["scan_counts"]}, timers):
            for cache in (residues._walks, numeric._whole,
                          numeric._index_classes, cyclotomic._unit_sign):
                cache.cache_clear()
            spent.clear()
            try:
                for name, fn in patch.items():
                    setattr(harness, name, fn)
                with redirect_stdout(StringIO()):
                    cli.main(["scan", *options, "--out", os.devnull])
            finally:
                for name in patch:
                    setattr(harness, name, real[name])
            if patch is not timers:
                spent["untimed"] = spent.pop("scan")
            for name, seconds in spent.items():
                samples.setdefault(name, []).append(seconds)
    return samples


def main(argv: list[str]) -> int:
    options = NUMERIC_SCAN
    if "--" in argv:
        at = argv.index("--")
        argv, options = argv[:at], argv[at + 1:]
    runs = int(argv[0]) if argv else 5
    if runs < 1:
        raise SystemExit("RUNS must be at least 1")
    os.environ["RESITAN_THREADS"] = "1"
    samples = profile(options, runs)
    ms = {name: median(values) * 1e3 for name, values in samples.items()}
    checks = sorted(name for name in ms if name.startswith("check "))
    parts = [*checks, "rendering", "listing"]
    rows = [*((name, ms.get(name, 0.0)) for name in parts),
            ("checks, all", sum(ms[name] for name in checks)),
            ("rest of the engine",
             ms["scan"] - sum(ms.get(name, 0.0) for name in parts)),
            ("whole scan, timed", ms["scan"]),
            ("whole scan, untimed", ms["untimed"])]
    print(f"scan {' '.join(options)}: median of {runs} serial runs")
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"  {name:<{width}}  {value:9.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
