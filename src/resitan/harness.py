"""The sweep engine: scans over prime ranges, their worker pool, and report I/O.

The checks themselves, one Check row each of the CHECKS table, are in
the checks module, which `resitan verify` imports alone; this module is the
engine that only `resitan scan` and the library's scan functions load.
A scan walks every prime in a range and reports one VerificationRecord, as
one report line, per requested (p, m, a, check) work item.  Hypothesis
failures (2m not dividing p-1, 2 not an m-th power residue, p not
representable by the relevant quadratic form, wrong congruence branch)
become skipped(hypothesis) records, never silent omissions, so sweep
coverage is auditable.

A scan runs each check once per (check, m, coset of a), not once per work
item.  A check whose record reads a only through the coset a*R_k(p), k a
field of its Check row, runs for the first a of each coset, and once per
m when that run is skipped; every other a of the grid reports that run's
record with its own a.  That is the record the item would give: the
exact layer certifies one verdict per (p, m) for every a (cyclotomic's
docstring), and a numeric product reads a through one math.fsum per coset,
the same float for every a of the coset (numeric's docstring).  The case of
each check is argued beside the table, in the checks module.

Lines are rendered once per run, not once per work item.  A report line
splits at its a field (_renderer): the head renders p, m and a, which the
item fixes, and the tail everything from the check on, which the run's
record fixes.  A run's tail is rendered and counted in the tally once, and
each item it serves becomes its own head and that tail, so no record is
copied to carry another a.

Reports are in (p, m, a, check) order, and no record carries a clock (the
report's elapsed_ms column is the constant 0.0), which makes repeated scans
with the same configuration byte-identical at any number of processes.  No
global sort produces that order.  Each prime's lines are sorted by (m, a,
check) where they are rendered, and the per-prime runs are concatenated in
ascending p: the primes are disjoint and p is the leading key, so the
concatenation is exactly the global sort.  Records are frozen: each line
reports a record as its check built it, under the (p, m, a) of an item
its run serves.

One engine, scan_counts, runs every scan.  It lists the range's primes by
one sieve of the range (arith.primes_between).  Where the range is at least
as long as the square root of its top, the sieve calls no is_prime, and
each listed prime is proven once, by the PrimeContext its scan builds.  Its
unit of work is a batch: a contiguous, ascending run of primes, cut in one
pass, that ends once its sum reaches 1/(8*workers) of the range's (each
prime weighted by p, a rough cost; see _cost_batches) or once it holds
BATCH_PRIMES primes.  That cap keeps a worker's memory independent of the
range: without it the first batch of 50..12000 at two workers holds 384
primes, and its text all at once.  A batch scans its primes one at a time,
renders each prime's lines as its check runs return, with the formatter
emit_report uses, and keeps no record past its run.  It sends back that
text and its counts of pass, fail, skipped and error lines.  With more than
one worker the batches run in children forked from the scan's process
(_forked_map): they inherit the batch list, the parent hands each idle
child the index of the next batch over a pipe, and a child sends back its
text and counts with marshal.  The parent writes the texts in batch order,
holding any that arrives early, so the file is the concatenation of the
per-prime runs.  No process pool module is imported.  Where os.fork does
not exist a scan runs in one process.  `resitan scan` takes the counts
only, so its parent never rebuilds a record; scan() reads its records back
from the text with the decoder of parse_report.
"""

from __future__ import annotations

import os
from collections import namedtuple
from functools import partial
from io import StringIO
from itertools import product
from operator import add, index

from .arith import PrimeContext, Validated, divisors, primes_between
from .checks import CHECK_NAMES, CHECKS, SCAN_DEFAULTS, run_check
from .numeric import check_tolerance
from .records import FAIL, SKIPPED, VerificationRecord
from .residues import coset_name

# a report's columns: the record's fields, in order, then elapsed_ms, which
# the formatter writes as the constant 0.0 and the reader drops
REPORT_FIELDS = VerificationRecord._fields + ("elapsed_ms",)


class ScanConfig(Validated, namedtuple(
        "ScanConfig", ("p_min", "p_max", *SCAN_DEFAULTS),
        defaults=tuple(SCAN_DEFAULTS.values()))):
    """Sweep description: prime range, m/a policies, checks, tolerance, output.

    m_policy is either "all" (every m with 2m | p-1) or an explicit tuple of
    m values; explicit values that fail 2m | p-1 produce skipped records.
    The policy selects the m of gi, gi_plus, thm_main_exact,
    thm_main_numeric and lemma21; the fixed-m checks (lemma31, criterion,
    cor11, cor12, pmd_lemma, pmd_thm14) always run at their own m.
    The a grid is {1..a_count} intersected with [1, p-1], plus always p - 1.

    A frozen tuple of its eight fields: use _replace to change one.  Its
    __new__ validates and normalises the fields on every construction path
    (arith.Validated).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        p_min, p_max, m_policy, a_count, checks, tolerance, out, fmt = \
            super().__new__(cls, *args, **kwargs)
        # a float would pass the checks below and fail in range() later
        p_min, p_max, a_count = map(index, (p_min, p_max, a_count))
        if p_min < 3:
            raise ValueError("p_min must be at least 3")
        if a_count < 1:
            raise ValueError("a_count must be at least 1")
        _report_head(fmt)
        check_tolerance(tolerance)
        if m_policy != "all":
            # int() would read 2.5 as 2 and "3" as 3 and scan another grid
            m_policy = tuple(sorted({index(m) for m in m_policy}))
            if not m_policy or m_policy[0] < 1:
                raise ValueError("explicit m values must be positive")
        if checks != "all":
            wanted = set(checks)
            unknown = wanted - set(CHECK_NAMES)
            if unknown:
                raise ValueError(f"unknown checks: {sorted(unknown)}")
            checks = tuple(c for c in CHECK_NAMES if c in wanted)
        return tuple.__new__(cls, (p_min, p_max, m_policy, a_count, checks,
                                   tolerance, out, fmt))

    def selected_checks(self) -> tuple:
        return CHECK_NAMES if self.checks == "all" else self.checks


def _scan_prime(config: ScanConfig, p: int) -> tuple[str, tuple]:
    """One prime's report text, its lines sorted by (m, a, check), and its
    counts of (pass, fail, skipped, error) lines.

    The prime's m list and a grid (see ScanConfig) are worked out once, for
    every check.  A check's work items are every m of row.ms or of that
    list, and a of row.az or of that grid, m outermost.  A check with a
    coset index k runs once per (m, coset of a in R_k(p)), and once per m
    when that run is skipped (see checks.CHECKS).  Each run's record is
    rendered once, as the tail of its line, and every item it serves is
    the head of that item's (p, m, a) and the run's tail.
    """
    ctx = PrimeContext(p)
    ms = divisors(ctx.p_minus_1 // 2) if config.m_policy == "all" \
        else config.m_policy
    az = sorted({*range(1, min(config.a_count, p - 1) + 1), p - 1})
    head, tail = _renderer(config.fmt)
    tally = [0, 0, 0, 0]
    lines = []
    for check in config.selected_checks():
        row = CHECKS[check]
        k = row.k
        # a run's (tail, tally slot), by (m, a) or (m, coset) and, once
        # skipped, by m
        runs, skips = {}, {}
        for m, a in product(row.ms or ms, row.az or az):
            run = skips.get(m)
            if run is None:
                key = (m, a) if k is None else \
                    (m, coset_name(ctx, m if k == "m" else k, a))
                run = runs.get(key)
                if run is None:
                    rec = run_check(ctx, m, a, check, config.tolerance)
                    run = runs[key] = (tail(rec), _tally_slot(rec.status))
                    if rec.status == SKIPPED and k is not None:
                        skips[m] = run
            lines.append((m, a, check, run[0]))
            tally[run[1]] += 1
    # (m, a, check) is unique, so the sort never compares two tails
    lines.sort()
    return "".join([head(p, m, a) + text for m, a, _, text in lines]), \
        tuple(tally)


def _tally_slot(status: str) -> int:
    """Where a status counts in a (pass, fail, skipped, error) tally."""
    if status == FAIL:
        return 1
    if status == SKIPPED:
        return 2
    return 3 if status.startswith("error(") else 0


def _thread_count() -> int:
    """RESITAN_THREADS if it is a positive integer, else the usable cores;
    1 where os.fork does not exist, since the pool forks its workers."""
    if not hasattr(os, "fork"):
        return 1
    try:
        v = int(os.environ.get("RESITAN_THREADS", ""))
    except ValueError:
        v = 0
    if v >= 1:
        return v
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# the most primes one batch holds (see the module docstring)
BATCH_PRIMES = 64


def _cost_batches(primes: list[int], workers: int) -> list[list[int]]:
    """The primes cut in one pass into contiguous ascending batches: a new
    batch starts once the current one's sum reaches the share, 1/(8*workers)
    of the sum of all the primes, or once it holds BATCH_PRIMES primes.

    Each prime is weighted by p.  Eight tasks per worker amortise each
    task's round trip, and the cap keeps what a worker holds at once from
    growing with the range: small primes are many per unit of cost.  The
    weight is rough: a prime's cost also has a part that does not grow with
    p (its grid of work items and their records).  Timed per batch at two
    workers (2 vCPU, Python 3.11), the full scan of 12..250 spends 18-25 ms
    on its first batch (p = 13..59) against 3-13 ms on later ones of about
    the same sum: the first batches of the full scan are its costliest.
    """
    cuts, total = 8 * workers, sum(primes)
    batches, weight = [], total  # as if a full batch came before
    for p in primes:
        if weight * cuts >= total or len(batches[-1]) == BATCH_PRIMES:
            batches.append([])
            weight = 0
        batches[-1].append(p)
        weight += p
    return batches


def _sweep_batch(config: ScanConfig, primes: list[int]):
    """One pool task: scan a contiguous run of primes.

    Returns the run's report text and its counts of (pass, fail, skipped,
    error) lines, each prime's text and counts as _scan_prime gives them.
    """
    texts, counts = [], (0, 0, 0, 0)
    for p in primes:
        text, tally = _scan_prime(config, p)
        texts.append(text)
        counts = tuple(map(add, counts, tally))
    return "".join(texts), counts


def _forked_map(fn, tasks: list, workers: int):
    """fn(task) for each task, in order, computed in `workers` forked children.

    The children inherit fn and tasks through os.fork, so nothing is pickled
    on the way in: child w starts on task w, and each time a child returns a
    result the parent writes it the index of the next task over its task
    pipe, or closes that pipe when none is left, which ends the child.  A
    child sends back a result, or the exception fn raised, pickled, with its
    traceback's text: the parent raises that exception from a RuntimeError
    that carries the text.  Each message is one marshal object, which
    marshal.load reads whole, and no more, from the result pipe; a child has
    at most one in flight, since it then waits for its next index.  The
    parent waits on every result pipe at once, holds a result that arrives
    before an earlier one and yields them in task order.

    A child that exits without sending its whole result (the pipe ends
    before a whole object) makes the parent raise RuntimeError naming its
    exit status or signal.  However the generator ends, every child is
    reaped, and one still running is killed first.  Forking is safe here
    because a scan's process runs no other thread.
    """
    import marshal
    import selectors

    # the parent's end of each result pipe (a file) -> [pid, the parent's
    # end of the task pipe, index of the child's task]; pid is None once
    # the child is reaped, and the task pipe once it is closed
    children = {}
    finished = False
    try:
        for first in range(workers):
            task_r, task_w = os.pipe()
            result_r, result_w = os.pipe()
            children[open(result_r, "rb")] = child = [None, task_w, first]
            try:
                child[0] = os.fork()
                if child[0] == 0:
                    _serve(fn, tasks, first, task_r, result_w, children)
            finally:
                os.close(task_r)
                os.close(result_w)
        with selectors.DefaultSelector() as sel:
            for reader in children:
                sel.register(reader, selectors.EVENT_READ)
            held, sent = {}, workers
            for want in range(len(tasks)):
                while want not in held:
                    for key, _ in sel.select():
                        reader = key.fileobj
                        child = children[reader]
                        try:
                            result, error, text = marshal.load(reader)
                        except EOFError:
                            pid, child[0] = child[0], None
                            status = os.waitpid(pid, 0)[1]
                            raise RuntimeError(
                                f"scan worker {pid} {_exit_cause(status)} "
                                f"before returning task {child[2]}") from None
                        if error is not None:
                            import pickle
                            raise pickle.loads(error) from RuntimeError(
                                f"scan worker {child[0]} raised:\n{text}")
                        held[child[2]] = result
                        if sent < len(tasks):
                            os.write(child[1], sent.to_bytes(4, "little"))
                            child[2] = sent
                            sent += 1
                        else:
                            sel.unregister(reader)
                            os.close(child[1])
                            child[1] = None
                yield held.pop(want)
        finished = True
    finally:
        for reader, (pid, task_w, _) in children.items():
            reader.close()
            if task_w is not None:
                os.close(task_w)
            if pid is not None:
                if not finished:
                    import signal
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _serve(fn, tasks: list, i: int, task_r: int, result_w: int,
           parent_ends: dict):
    """A forked child's life; it never returns.  It closes the parent's ends
    of its own pipes and its older siblings', since a task pipe ends only
    once every copy of its write end is closed.  Then it runs task i, sends
    its result as one marshal object and reads the next index, until its
    task pipe ends.  It exits 0 then, and 1 on any other way out."""
    code = 1
    try:
        import marshal
        for reader, (_, task_w, _) in parent_ends.items():
            os.close(reader.fileno())
            os.close(task_w)
        out = open(result_w, "wb")
        while True:
            try:
                message = (fn(tasks[i]), None, None)
            except Exception as exc:
                import pickle
                from traceback import format_exc
                message = (None, pickle.dumps(exc), format_exc())
            marshal.dump(message, out)
            out.flush()
            index = os.read(task_r, 4)
            if not index:
                code = 0
                break
            i = int.from_bytes(index, "little")
    finally:
        os._exit(code)


def _exit_cause(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        import signal
        return f"was killed by signal {signal.Signals(-code).name}"
    return f"exited with status {code}"


def scan_counts(config: ScanConfig,
                texts: list | None = None) -> tuple[int, int, int, int]:
    """Run scan(config), report included, but return only the numbers of
    (pass, fail, skipped, error) records; no record reaches the caller.
    Each batch's report text is appended to texts when it is given.

    Batches run across RESITAN_THREADS processes, forked children of this
    one (_forked_map), and their report text is written to config.out in
    batch order, so in ascending p.  If any batch raises, or a child dies
    before its batch is returned, the report at config.out is removed
    before the exception propagates, so a failed scan leaves no partial
    report.
    """
    primes = primes_between(config.p_min, config.p_max)
    threads = _thread_count()
    batches = _cost_batches(primes, max(1, min(threads, len(primes))))
    # the pool is capped at the number of batches, so no worker sits idle
    workers = min(threads, len(batches))
    out = config.out
    run = partial(_sweep_batch, config)
    counts = (0, 0, 0, 0)
    pool = fh = None
    try:
        if out is not None:
            fh = open(out, "w", encoding="utf-8", newline="")
            fh.write(_REPORT_HEAD[config.fmt])
        if workers > 1:
            # the formatter imports its module on first use: do it here,
            # once, rather than once in every child
            _renderer(config.fmt)
            pool = results = _forked_map(run, batches, workers)
        else:
            results = map(run, batches)
        for text, tally in results:
            if fh is not None:
                fh.write(text)
            if texts is not None:
                texts.append(text)
            counts = tuple(map(add, counts, tally))
    except BaseException:
        # a device such as /dev/null is written to, never removed
        if fh is not None and os.path.isfile(out):
            fh.close()
            os.remove(out)
        raise
    finally:
        if pool is not None:
            pool.close()
        if fh is not None:
            fh.close()
    return counts


def scan(config: ScanConfig) -> list[VerificationRecord]:
    """Run the configured checks over every prime in [p_min, p_max].

    Primes may run across RESITAN_THREADS processes in contiguous batches.
    The records are read back from the report text the batches return, with
    the decoder of parse_report, so they are exactly the records of the
    report at config.out, if it is set, in (p, m, a, check) order (see the
    module docstring).
    """
    texts = []
    scan_counts(config, texts)
    return _read_rows("".join(texts), config.fmt)


# what a report holds before its first record: the CSV header row, as
# csv.writer writes it
_REPORT_HEAD = {"jsonl": "", "csv": ",".join(REPORT_FIELDS) + "\r\n"}


def _report_head(fmt: str) -> str:
    """The head of a report in fmt; ValueError for an unknown format."""
    if fmt not in _REPORT_HEAD:
        raise ValueError(f"unknown report format {fmt!r}")
    return _REPORT_HEAD[fmt]


def _renderer(fmt: str):
    """The one formatter of report lines, as (head, tail): head(p, m, a)
    renders a line up to its a field, and tail(rec) the rest from rec's
    check on, line end included.  A scan renders each check run's tail
    once and gives it every (p, m, a) the run serves; emit_report renders
    both halves per record.

    A JSONL line has the bytes json.dumps gives the dict of the record's
    fields and "elapsed_ms": 0.0, with its default ", " and ": "
    separators.  A CSV line has the bytes csv.writer gives the row of the
    record's fields and 0.0: an integer never needs quoting, so the head
    is the three joined by commas, and the tail is a comma and csv.writer's
    row of the rest.  Quoted text is only ever interpolated into an f-string
    or concatenated, never put through %, since it may hold % or braces.
    """
    if fmt == "jsonl":
        # imported here, as in _read_rows, so that `import resitan.cli`,
        # and with it every `resitan verify`, does not load json or csv.
        # This is the escaper json.dumps itself uses for ASCII output.
        from json.encoder import encode_basestring_ascii as quote

        def head(p, m, a):
            return f'{{"p": {p}, "m": {m}, "a": {a}'

        def tail(rec):
            return (f', "check": {quote(rec.check)}, '
                    f'"status": {quote(rec.status)}, '
                    f'"expected": {quote(rec.expected)}, '
                    f'"actual": {quote(rec.actual)}, "elapsed_ms": 0.0}}\n')
        return head, tail
    import csv

    def head(p, m, a):
        return f"{p},{m},{a}"

    def tail(rec):
        buf = StringIO(newline="")
        csv.writer(buf).writerow(
            (rec.check, rec.status, rec.expected, rec.actual, 0.0))
        return "," + buf.getvalue()
    return head, tail


def _write_rows(fh, records, fmt: str) -> None:
    """Write records to the text stream fh, one line each, in fmt."""
    head, tail = _renderer(fmt)
    fh.writelines(head(rec.p, rec.m, rec.a) + tail(rec) for rec in records)


def emit_report(records, fmt: str, path) -> None:
    """Write records to path, one JSONL object or CSV row per record.

    Field order is fixed: p, m, a, check, status, expected, actual, then
    the constant elapsed_ms column, 0.0.  Lines are written as they are
    formatted, so the report is never held whole.
    """
    head = _report_head(fmt)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(head)
        _write_rows(fh, records, fmt)


def _read_rows(text: str, fmt: str) -> list[VerificationRecord]:
    """The records of report text written by _write_rows, head excluded.

    JSONL lines are split on "\n" alone: json.dumps escapes every other
    line break inside a string.  The elapsed_ms column is dropped, whatever
    it holds, and a JSONL line may lack it.
    """
    if fmt == "jsonl":
        import json

        def record(line):
            row = json.loads(line)
            row.pop("elapsed_ms", None)
            return VerificationRecord(**row)
        return [record(line) for line in text.split("\n") if line]
    import csv
    return [VerificationRecord(int(p), int(m), int(a), check, status,
                               expected, actual)
            for p, m, a, check, status, expected, actual, _
            in csv.reader(StringIO(text, newline=""))]


def parse_report(path, fmt: str) -> list[VerificationRecord]:
    """Read a report written by emit_report back into records."""
    head = _report_head(fmt)
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    return _read_rows(text.removeprefix(head), fmt)
