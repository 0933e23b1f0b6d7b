"""Sweep orchestration over primes, the corollary-level checks, and report I/O.

Every check is one Check row of the CHECKS table: the runner of one work
item, the m and a its items range over, whether `resitan verify` runs it,
and the coset through which its record reads a.
A scan walks every prime in a range and emits one VerificationRecord per
requested (p, m, a, check) work item.  Hypothesis failures (2m not dividing
p-1, 2 not an m-th power residue, p not representable by the relevant
quadratic form, wrong congruence branch) become skipped(hypothesis) records,
never silent omissions, so sweep coverage is auditable.

A scan runs each check once per (check, m, coset of a), not once per work
item.  A check whose record reads a only through the coset a*R_k(p), k a
field of its Check row, runs for the first a of each coset, and once per
m when that run is skipped; every other a of the grid gets a copy of that
record with its own a.  The copy is the record the item would give: the
exact layer certifies one verdict per (p, m) for every a (cyclotomic's
docstring), and a numeric product reads a through one math.fsum per coset,
the same float for every a of the coset (numeric's docstring).  The case of
each check is argued beside the table.

Reports are in (p, m, a, check) order, and no record carries a clock (the
report's elapsed_ms column is the constant 0.0), which makes repeated scans
with the same configuration byte-identical at any number of processes.  No
global sort produces that order.  Each prime's records are sorted by (m, a,
check) where they are computed, and the per-prime runs are concatenated in
ascending p: the primes are disjoint and p is the leading key, so the
concatenation is exactly the global sort.  Records are frozen: each is
reported as its check built it, or as a copy of it with another a of the
same coset.

One engine, scan_counts, runs every scan.  Its unit of work is a batch: a
contiguous, ascending run of primes, cut in one pass, that ends once its
sum reaches 1/(8*workers) of the range's (each prime weighted by p, a rough
cost; see _cost_batches) or once it holds BATCH_PRIMES primes.  That cap
keeps a worker's memory independent of the range: without it the first
batch of 50..12000 at two workers holds 384 primes, and its records and
text all at once.  A batch scans its primes one at a time, formats each
prime's lines as soon as they exist with the formatter emit_report uses,
and keeps no record past its prime.  It sends back that text and its counts
of pass, fail, skipped and error records.  With more than one worker the
batches run in children forked from the scan's process (_forked_map): they
inherit the batch list, the parent hands each idle child the index of the
next batch over a pipe, and a child sends back its text and counts with
marshal.  The parent writes the texts in batch order, holding any that
arrives early, so the file is the concatenation of the per-prime runs.  No
process pool module is imported.  Where os.fork does not exist a scan runs
in one process.  `resitan scan` takes the counts only, so its parent never
rebuilds a record; scan() reads its records back from the text with the
decoder of parse_report.
"""

from __future__ import annotations

import os
from collections import Counter, namedtuple
from functools import partial
from io import StringIO
from operator import add, attrgetter

from .arith import (PrimeContext, Validated, as_prime, divisors, is_prime,
                    mod_pow)
from .cyclotomic import verify_gi, verify_gi_plus, verify_tan_cross
from .errors import HypothesisViolation, NotRepresentable
from .numeric import (check_tolerance, pmd_lemma_identity,
                      pmd_theorem14_numeric, verify_theorem_main_numeric)
from .quadforms import check_lemma31, cornacchia, two_residue_criterion
from .records import (FAIL, PASS, SKIPPED, VerificationRecord, error_status,
                      finish, int_str)
from .residues import (coset_name, require_unit, symbol_sign,
                       verify_residue_sum)

# a report's columns: the record's fields, in order, then elapsed_ms, which
# the formatter writes as the constant 0.0 and the reader drops
REPORT_FIELDS = VerificationRecord._fields + ("elapsed_ms",)

# x grid used by the pmd_lemma check inside scans; index j maps to x = j/20
PMD_X_GRID = tuple(j / 20 for j in range(1, 10))


def _corollary(p, a: int, m: int, form_exponent, side_check,
               check: str) -> VerificationRecord:
    """Shared outline of the corollaries for p = x^2 + m*(m*y)^2, m in {3, 4}.

    The product over R_m(p) must equal (-1)^form_exponent(rep) * (-2)^((p-1)/(2m));
    it is checked against the sign symbol of -2, the exact cross-multiplied
    identity and side_check(ctx, rep), which returns (ok, label).
    """
    ctx = as_prime(p)
    require_unit(ctx, a)
    rep = cornacchia(ctx, m ** 3)
    if rep is None:
        raise NotRepresentable(f"p={ctx.p} has no representation x^2 + {m ** 3}*y^2")
    power = (-2) ** (ctx.p_minus_1 // (2 * m))
    want = (-1 if form_exponent(rep) % 2 else 1) * power
    got = symbol_sign(-2, ctx, m).value * power
    exact = verify_tan_cross(ctx, m, a)
    side_ok, side_label = side_check(ctx, rep)
    ok = want == got and exact.status == PASS and side_ok
    actual = int_str(got)
    if not (exact.status == PASS and side_ok):
        actual += f" [exact={exact.status}, {side_label}]"
    return finish(ctx.p, m, a, check, ok, int_str(want), actual)


def verify_cor11(p, a: int = 1) -> VerificationRecord:
    """Exact tangent-product value for p = x^2 + 27*y^2.

    The product over R_3(p) must equal (-1)^(xy/2) * (-2)^((p-1)/6); checked
    through the exact cross-multiplied identity, through the sign symbol of
    -2, and through the floating evaluation in sign/log2 form as well, which
    does not overflow at any p.
    """
    def numeric(ctx, rep):
        ok = verify_theorem_main_numeric(ctx, 3, a).status == PASS
        return ok, f"numeric={'pass' if ok else 'fail'}"
    return _corollary(p, a, 3, lambda rep: rep.x * rep.y // 2, numeric, "cor11")


def verify_cor12(p, a: int = 1) -> VerificationRecord:
    """Exact tangent-product value for p = x^2 + 64*y^2.

    The product over R_4(p) must equal (-1)^y * (-2)^((p-1)/8); the congruence
    (-2)^((p-1)/8) = (-1)^y (mod p) is asserted separately as well.
    """
    def congruence(ctx, rep):
        ok = mod_pow(-2, ctx.p_minus_1 // 8, ctx.p) == (ctx.p - 1 if rep.y % 2 else 1)
        return ok, f"congruence={ok}"
    return _corollary(p, a, 4, lambda rep: rep.y, congruence, "cor12")


class ScanConfig(Validated, namedtuple(
        "ScanConfig", "p_min p_max m_policy a_count checks tolerance out fmt",
        defaults=("all", 5, "all", 1e-6, None, "jsonl"))):
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
        if p_min < 3:
            raise ValueError("p_min must be at least 3")
        if a_count < 1:
            raise ValueError("a_count must be at least 1")
        _report_head(fmt)
        check_tolerance(tolerance)
        if m_policy != "all":
            m_policy = tuple(sorted({int(m) for m in m_policy}))
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


# One row of CHECKS, the table of checks.  run(ctx, m, a, tol) returns the
# record of one (m, a) work item exactly as it is reported, with that m and
# a.  A prime's items are every m of ms and a of az, m outermost (_items):
# ms None is the scan's m policy, az None its a grid.  mode ("exact",
# "numeric" or None) says which `resitan verify --mode` runs the check.
# Runners look their function up by module-global name at call time, so
# rebinding that name reaches every caller.
Check = namedtuple("Check", "run ms az mode k")

# k says how the record of (m, a) reads a, a unit mod p: only through the
# coset a*R_k(p), so a scan runs the item once per (m, coset) and gives
# every other a of that coset the same record with its own a
# (_check_records).  "m" is the item's own m; None means a is no unit but
# an index or 0, and every item runs.  No record's text names a, and no
# hypothesis reads it.
#   gi, gi_plus, thm_main_exact (k = 1): one verdict per (p, m) serves
#     both signs and every a (cyclotomic's docstring: zeta_p -> zeta_p^a
#     fixes i and epsilon), and the rest of the record reads p and m.
#   cor12 (k = 1): that exact verdict at m = 4, and a congruence mod p.
#   thm_main_numeric (k = m): tan_product reads a through the sums of
#     a*R_m(p) and 2a*R_m(p), one math.fsum per coset (numeric's
#     docstring), and the coset of 2a is fixed by that of a.
#   cor11 (k = 3): the exact verdict at m = 3 and thm_main_numeric at m = 3.
#   pmd_thm14 (k = 2): tan_product(p, 2, a), and a sign that reads p alone.
CHECKS = {
    "gi": Check(lambda ctx, m, a, tol: verify_gi(ctx, m, a),
                None, None, "exact", 1),
    "gi_plus": Check(lambda ctx, m, a, tol: verify_gi_plus(ctx, m, a),
                     None, None, "exact", 1),
    "thm_main_exact": Check(lambda ctx, m, a, tol: verify_tan_cross(ctx, m, a),
                            None, None, "exact", 1),
    "thm_main_numeric": Check(
        lambda ctx, m, a, tol: verify_theorem_main_numeric(ctx, m, a, tol),
        None, None, "numeric", "m"),
    "lemma21": Check(lambda ctx, m, a, tol: verify_residue_sum(ctx, m),
                     None, (0,), None, None),
    "lemma31": Check(lambda ctx, m, a, tol: check_lemma31(ctx),
                     (3,), (0,), None, None),
    "criterion": Check(lambda ctx, m, a, tol: two_residue_criterion(ctx, m),
                       (3, 4), (0,), None, None),
    "cor11": Check(lambda ctx, m, a, tol: verify_cor11(ctx, a),
                   (3,), None, None, 3),
    "cor12": Check(lambda ctx, m, a, tol: verify_cor12(ctx, a),
                   (4,), None, None, 1),
    # a indexes PMD_X_GRID from 1; pmd_lemma_identity itself reports a = 0
    "pmd_lemma": Check(
        lambda ctx, m, a, tol:
            pmd_lemma_identity(ctx.p, PMD_X_GRID[a - 1], tol)._replace(a=a),
        (1,), range(1, len(PMD_X_GRID) + 1), None, None),
    "pmd_thm14": Check(lambda ctx, m, a, tol: pmd_theorem14_numeric(ctx, a, tol),
                       (1,), None, None, 2),
}

CHECK_NAMES = tuple(CHECKS)


def _items(ctx: PrimeContext, config: ScanConfig, check: Check) -> list:
    """The (m, a) work items of one check at one prime, m outermost, under
    the m policy and a grid of config (see ScanConfig)."""
    ms, az = check.ms, check.az
    if ms is None:
        ms = divisors(ctx.p_minus_1 // 2) if config.m_policy == "all" \
            else config.m_policy
    if az is None:
        az = sorted({*range(1, min(config.a_count, ctx.p - 1) + 1), ctx.p - 1})
    return [(m, a) for m in ms for a in az]


def run_check(ctx: PrimeContext, m: int, a: int, check: str,
              tol: float) -> VerificationRecord:
    """Run the table check `check` on one (m, a) work item.  A hypothesis
    failure becomes a skipped record and any other exception an error
    record; an unknown check name raises KeyError."""
    run = CHECKS[check].run
    try:
        return run(ctx, m, a, tol)
    except HypothesisViolation as exc:
        return VerificationRecord(ctx.p, m, a, check, SKIPPED, "", str(exc))
    except Exception as exc:  # auditable sweeps never die on one item
        return VerificationRecord(ctx.p, m, a, check, error_status(exc), "", "")


def _check_records(ctx: PrimeContext, config: ScanConfig,
                   check: str) -> list[VerificationRecord]:
    """One check's records for one prime, in the order of its items.  A
    check with a coset index k runs once per (m, coset of a in R_k(p)), and
    once per m when that run is skipped; every other a gets a copy of the
    record with its own a (see CHECKS)."""
    row = CHECKS[check]
    k = row.k
    records, runs, skips = [], {}, {}
    for m, a in _items(ctx, config, row):
        rec = skips.get(m)
        if rec is None:
            key = (m, a) if k is None else \
                (m, coset_name(ctx, m if k == "m" else k, a))
            rec = runs.get(key)
            if rec is None:
                rec = runs[key] = run_check(ctx, m, a, check, config.tolerance)
                if rec.status == SKIPPED and k is not None:
                    skips[m] = rec
        records.append(rec if rec.a == a else rec._replace(a=a))
    return records


def _scan_prime(config: ScanConfig, p: int) -> list[VerificationRecord]:
    """One prime's records, sorted by (m, a, check)."""
    ctx = PrimeContext(p)
    records = [rec for check in config.selected_checks()
               for rec in _check_records(ctx, config, check)]
    records.sort(key=attrgetter("m", "a", "check"))
    return records


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
    error) records.  Each prime's records are formatted and counted as soon
    as they exist and dropped with the next prime.
    """
    buf = StringIO(newline="")
    seen = Counter()
    for p in primes:
        records = _scan_prime(config, p)
        _write_rows(buf, records, config.fmt)
        seen.update(rec.status for rec in records)
    total = seen.total()
    failed, skipped = seen.pop(FAIL, 0), seen.pop(SKIPPED, 0)
    errored = sum(n for status, n in seen.items() if status.startswith("error("))
    tally = (total - failed - skipped - errored, failed, skipped, errored)
    return buf.getvalue(), tally


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
    reaped, and one still running is killed first.  Forking is safe here because a scan's process runs no other thread.
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
    primes = [p for p in range(config.p_min, config.p_max + 1) if is_prime(p)]
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
            _write_rows(StringIO(), (), config.fmt)
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


# One JSONL line: the json.dumps rendering of the dict of REPORT_FIELDS,
# with its default ", " and ": " separators
_JSONL_LINE = '{%s, "elapsed_ms": 0.0}\n' % ", ".join(
    f'"{k}": %s' for k in VerificationRecord._fields)

# what a report holds before its first record: the CSV header row, as
# csv.writer writes it
_REPORT_HEAD = {"jsonl": "", "csv": ",".join(REPORT_FIELDS) + "\r\n"}


def _report_head(fmt: str) -> str:
    """The head of a report in fmt; ValueError for an unknown format."""
    if fmt not in _REPORT_HEAD:
        raise ValueError(f"unknown report format {fmt!r}")
    return _REPORT_HEAD[fmt]


def _write_rows(fh, records, fmt: str) -> None:
    """Write records to the text stream fh, one JSONL line or CSV row each.

    The one formatter of reports: emit_report writes to the file, and a
    scan's batches to a buffer whose text the parent appends to the file.
    A JSONL line has the bytes json.dumps gives the dict of the record's
    fields and "elapsed_ms": 0.0; a CSV row ends in the same 0.0.
    """
    if fmt == "jsonl":
        # imported here, as in _read_rows, so that `import resitan.cli`,
        # and with it every `resitan verify`, does not load json or csv.
        # This is the escaper json.dumps itself uses for ASCII output.
        from json.encoder import encode_basestring_ascii as quote
        fh.writelines(_JSONL_LINE % (rec.p, rec.m, rec.a, quote(rec.check),
                                     quote(rec.status), quote(rec.expected),
                                     quote(rec.actual))
                      for rec in records)
    else:
        import csv
        csv.writer(fh).writerows(rec + (0.0,) for rec in records)


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
