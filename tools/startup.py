"""Time the start-up of a `resitan verify` against the interpreter's own.

    python tools/startup.py [RUNS]

Runs each of three commands RUNS times (default 21), taking them in turn so
that a drift in the machine's speed falls on all three alike:

    python -c pass                          the interpreter alone
    python -c "import resitan.cli"          and the import of the package
    python -m resitan verify --p 1033 --m 4 --a 804
                                            and one small verify

Each is a child process with src/ beside this script's parent first on
PYTHONPATH, PYTHONDONTWRITEBYTECODE=1 (so a run leaves no bytecode caches
behind it; caches already there are still read) and its output discarded.
Its wall time is taken from just before it starts to its reaping, and its
CPU time, user plus system, from os.wait4.  Prints the median of each, in
ms, per command; the differences between the rows are the costs of import
and of the verify.  Standard library only; POSIX only, for os.wait4.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

SRC = Path(__file__).resolve().parent.parent / "src"

COMMANDS = {
    "python -c pass": ["-c", "pass"],
    "import resitan.cli": ["-c", "import resitan.cli"],
    "verify --p 1033 --m 4 --a 804":
        ["-m", "resitan", "verify", "--p", "1033", "--m", "4", "--a", "804"],
}


def time_once(args: list[str], env: dict) -> tuple[float, float]:
    """Wall and CPU seconds of one run of the interpreter with args."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    # reaped here, so tell Popen, which would otherwise warn that it runs
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise RuntimeError(f"{args} exited with status {proc.returncode}")
    return wall, usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> int:
    runs = int(argv[0]) if argv else 21
    if runs < 1:
        raise SystemExit("RUNS must be at least 1")
    extra = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(SRC) + (os.pathsep + extra if extra else ""))
    times = {name: [] for name in COMMANDS}
    for _ in range(runs):
        for name, args in COMMANDS.items():
            times[name].append(time_once(args, env))
    width = max(map(len, COMMANDS))
    print(f"{'median of ' + str(runs) + ' runs':<{width}}  {'wall ms':>8}  {'cpu ms':>8}")
    for name, samples in times.items():
        wall, cpu = (median(column) * 1e3 for column in zip(*samples))
        print(f"{name:<{width}}  {wall:>8.1f}  {cpu:>8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
