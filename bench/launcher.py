"""Runs run.py's commands from a small process; reports wall time, peak RSS
and exit code.

Reads one JSON request per line on stdin:
    {"args": [...], "env": {...}, "cwd": DIR, "stdout": FILE or null,
     "limit": SECONDS}
and writes one JSON reply per line on stdout:
    {"wall_s": ..., "peak_rss_mb": ..., "code": ...}
A request {"calibrate": N} runs the fixed calibration kernel in N processes
at once (this one and N-1 forks) and replies {"cal_s": ...}, the mean of
their wall times: N = 1 for single-process commands, N = the pool size for
pooled scans, so that the kernel sees the machine as the command does.

Why a separate process: on exec the kernel folds the high-water RSS of the
spawning process's memory into the new program's ru_maxrss.  run.py holds
reports and expected record lists in memory, so commands it spawned itself
would report its peak, not their own.  This process stays small.
"""

import json
import math
import os
import signal
import subprocess
import sys
import threading
import time


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def kernel() -> float:
    """Time a fixed piece of pure-Python work, about 0.1 s on a 2 vCPU Xeon.

    Its mix follows resitan's: small-int loops, big-int products, math.tan,
    building and sorting records, JSON text.  No resitan code runs in it, so
    a change to the program does not change it; a change in the machine's
    speed does.
    """
    t0 = time.perf_counter()
    x = 0
    for i in range(120_000):
        x += i * i % 7
    a, b = 3 ** 3000, 7 ** 2900
    for i in range(240):
        x += (a * b) % (a + i) & 1
    s = 0.0
    for i in range(60_000):
        s += math.tan(i * 1e-4)
    recs = [{"p": i % 997, "m": i % 5, "a": i, "status": "pass"}
            for i in range(12_000)]
    recs.sort(key=lambda r: (r["p"], r["m"], r["a"]))
    text = "".join(json.dumps(r) + "\n" for r in recs)
    wall = time.perf_counter() - t0
    if x < 0 or s != s or not text:   # keeps the work from being skipped
        raise AssertionError
    return wall


def calibrate(procs: int) -> dict:
    """The kernel's mean wall time over `procs` processes running it at once."""
    forks = []
    for _ in range(procs - 1):
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:   # a fork must never return into the request loop
                os.close(r)
                os.write(w, repr(kernel()).encode())
            finally:
                os._exit(0)
        os.close(w)
        forks.append((pid, r))
    times = [kernel()]
    for pid, r in forks:
        with os.fdopen(r) as fh:
            times.append(float(fh.read()))
        os.waitpid(pid, 0)
    return {"cal_s": sum(times) / len(times)}


def run(req: dict) -> dict:
    out = open(req["stdout"], "wb") if req["stdout"] else subprocess.DEVNULL
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["args"], cwd=req["cwd"], env=req["env"],
                                stdout=out, start_new_session=True)
        timer = threading.Timer(req["limit"], _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if req["stdout"]:
            out.close()
    # wait4 reports the largest of the command and its waited-for children
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "code": proc.returncode}


if __name__ == "__main__":
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps(calibrate(req["calibrate"]) if "calibrate" in req
                         else run(req)),
              flush=True)
