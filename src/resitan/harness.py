"""Sweep orchestration over primes, the corollary-level checks, and report I/O.

Every check is one entry of the CHECKS table: the (m, a) work items it runs
for a prime, the runner of one item, and whether `resitan verify` runs it.
A scan walks every prime in a range and emits one VerificationRecord per
requested (p, m, a, check) work item.  Hypothesis failures (2m not dividing
p-1, 2 not an m-th power residue, p not representable by the relevant
quadratic form, wrong congruence branch) become skipped(hypothesis) records,
never silent omissions, so sweep coverage is auditable.

Reports are in (p, m, a, check) order with elapsed_ms zeroed, which makes
repeated scans with the same configuration byte-identical at any number of
processes.  No global sort produces that order.  Each prime's records are
sorted by (m, a, check) where they are computed, and the per-prime runs are
concatenated in ascending p: the primes are disjoint and p is the leading
key, so the concatenation is exactly the global sort.  The process pool
takes the primes in contiguous batches, and its map returns the batches,
and the runs within each, in submission order.
"""

from __future__ import annotations

import math
import os
import time
from operator import attrgetter

from .arith import PrimeContext, as_prime, divisors, is_prime, mod_pow
from .cyclotomic import verify_gi, verify_gi_plus, verify_tan_cross
from .errors import HypothesisViolation, NotRepresentable
from .numeric import (check_tolerance, pmd_lemma_identity,
                      pmd_theorem14_numeric, verify_theorem_main_numeric)
from .quadforms import check_lemma31, cornacchia, two_residue_criterion
from .records import (PASS, SKIPPED, VerificationRecord, error_status, finish,
                      int_str)
from .residues import symbol_sign, verify_residue_sum

# a report's columns are the record's fields, in order
REPORT_FIELDS = VerificationRecord.__slots__

# x grid used by the pmd_lemma check inside scans; index j maps to x = j/20
PMD_X_GRID = tuple(j / 20 for j in range(1, 10))


def _corollary(p, a: int, m: int, form_exponent, side_check,
               check: str) -> VerificationRecord:
    """Shared outline of the corollaries for p = x^2 + m*(m*y)^2, m in {3, 4}.

    The product over R_m(p) must equal (-1)^form_exponent(rep) * (-2)^((p-1)/(2m));
    it is checked against the sign symbol of -2, the exact cross-multiplied
    identity and side_check(ctx, rep), which returns (ok, label).
    """
    t0 = time.perf_counter()
    ctx = as_prime(p)
    if a % ctx.p == 0:
        raise ValueError(f"a={a} is divisible by p={ctx.p}")
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
    return finish(ctx.p, m, a, check, ok, int_str(want), actual, t0)


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


class ScanConfig:
    """Sweep description: prime range, m/a policies, checks, tolerance, output.

    m_policy is either "all" (every m with 2m | p-1) or an explicit tuple of
    m values; explicit values that fail 2m | p-1 produce skipped records.
    The a grid is {1..a_count} intersected with [1, p-1], plus always p - 1.
    """

    def __init__(self, p_min: int, p_max: int,
                 m_policy: str | tuple[int, ...] = "all", a_count: int = 5,
                 checks: str | tuple[str, ...] = "all",
                 tolerance: float = 1e-6, out: str | None = None,
                 fmt: str = "jsonl"):
        if p_min < 3:
            raise ValueError("p_min must be at least 3")
        if a_count < 1:
            raise ValueError("a_count must be at least 1")
        if fmt not in ("jsonl", "csv"):
            raise ValueError(f"unknown report format {fmt!r}")
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
        self.p_min = p_min
        self.p_max = p_max
        self.m_policy = m_policy
        self.a_count = a_count
        self.checks = checks
        self.tolerance = tolerance
        self.out = out
        self.fmt = fmt

    def __repr__(self):
        return "ScanConfig(%s)" % ", ".join(
            f"{name}={value!r}" for name, value in vars(self).items())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    __hash__ = None

    def selected_checks(self) -> tuple:
        return CHECK_NAMES if self.checks == "all" else self.checks


def run_guarded(ctx: PrimeContext, m: int, a: int, check: str, thunk):
    """Run one work item; map hypothesis failures to skipped records and any
    other exception to an error record."""
    try:
        rec = thunk()
    except HypothesisViolation as exc:
        return VerificationRecord(ctx.p, m, a, check, SKIPPED, "", str(exc), 0.0)
    except Exception as exc:  # auditable sweeps never die on one item
        return VerificationRecord(ctx.p, m, a, check, error_status(exc),
                                  "", "", 0.0)
    rec.m, rec.a = m, a
    return rec


def _m_grid(ctx: PrimeContext, config: ScanConfig):
    if config.m_policy == "all":
        return divisors(ctx.p_minus_1 // 2)
    return list(config.m_policy)


def _a_grid(ctx: PrimeContext, config: ScanConfig):
    grid = set(range(1, min(config.a_count, ctx.p - 1) + 1))
    grid.add(ctx.p - 1)
    return sorted(grid)


def _each_m_a(ctx: PrimeContext, config: ScanConfig):
    a_grid = _a_grid(ctx, config)
    return [(m, a) for m in _m_grid(ctx, config) for a in a_grid]


def _each_a(m: int):
    return lambda ctx, config: [(m, a) for a in _a_grid(ctx, config)]


# name -> (grid, runner, verify mode).  grid(ctx, config) lists the (m, a)
# work items of one prime, runner(ctx, m, a, tol) returns one record, and the
# verify mode ("exact", "numeric" or None) says which `resitan verify --mode`
# runs the check.  Runners look their function up by module-global name at
# call time, so rebinding that name reaches every caller.
CHECKS = {
    "gi": (_each_m_a, lambda ctx, m, a, tol: verify_gi(ctx, m, a), "exact"),
    "gi_plus": (_each_m_a, lambda ctx, m, a, tol: verify_gi_plus(ctx, m, a),
                "exact"),
    "thm_main_exact": (_each_m_a,
                       lambda ctx, m, a, tol: verify_tan_cross(ctx, m, a), "exact"),
    "thm_main_numeric": (
        _each_m_a,
        lambda ctx, m, a, tol: verify_theorem_main_numeric(ctx, m, a, tol),
        "numeric"),
    "lemma21": (lambda ctx, config: [(m, 0) for m in _m_grid(ctx, config)],
                lambda ctx, m, a, tol: verify_residue_sum(ctx, m), None),
    "lemma31": (lambda ctx, config: [(3, 0)],
                lambda ctx, m, a, tol: check_lemma31(ctx), None),
    "criterion": (
        lambda ctx, config: [(m, 0) for m in (3, 4) if config.m_policy == "all"
                             or m in config.m_policy],
        lambda ctx, m, a, tol: two_residue_criterion(ctx, m), None),
    "cor11": (_each_a(3), lambda ctx, m, a, tol: verify_cor11(ctx, a), None),
    "cor12": (_each_a(4), lambda ctx, m, a, tol: verify_cor12(ctx, a), None),
    # a indexes PMD_X_GRID from 1
    "pmd_lemma": (
        lambda ctx, config: [(1, j) for j in range(1, len(PMD_X_GRID) + 1)],
        lambda ctx, m, a, tol: pmd_lemma_identity(ctx.p, PMD_X_GRID[a - 1], tol),
        None),
    "pmd_thm14": (_each_a(1),
                  lambda ctx, m, a, tol: pmd_theorem14_numeric(ctx, a, tol), None),
}

CHECK_NAMES = tuple(CHECKS)


def run_check(ctx: PrimeContext, m: int, a: int, check: str,
              tol: float) -> VerificationRecord:
    """Run the table check `check` on one (m, a) work item, guarded."""
    runner = CHECKS[check][1]
    return run_guarded(ctx, m, a, check, lambda: runner(ctx, m, a, tol))


_PRIME_ORDER = attrgetter("m", "a", "check")


def _scan_prime(args) -> list[VerificationRecord]:
    """One prime's records, sorted by (m, a, check), with elapsed_ms zeroed."""
    config, p = args
    ctx = PrimeContext(p)
    records = [run_check(ctx, m, a, check, config.tolerance)
               for check in config.selected_checks()
               for m, a in CHECKS[check][0](ctx, config)]
    records.sort(key=_PRIME_ORDER)
    for rec in records:
        rec.elapsed_ms = 0.0
    return records


def _thread_count() -> int:
    """RESITAN_THREADS if it is a positive integer, else the usable cores."""
    raw = os.environ.get("RESITAN_THREADS", "")
    try:
        v = int(raw)
    except ValueError:
        v = 0
    if v >= 1:
        return v
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _batching(primes: int, threads: int) -> tuple[int, int]:
    """(workers, primes per pool task) for a pooled scan.

    About eight batches per worker amortise each task's round trip while
    leaving the pool room to balance primes of unequal cost.  The pool is
    capped at the number of batches, so no worker is forked to sit idle.
    """
    workers = max(1, min(threads, primes))
    chunksize = max(1, primes // (8 * workers))
    return min(workers, math.ceil(primes / chunksize)), chunksize


def scan(config: ScanConfig) -> list[VerificationRecord]:
    """Run the configured checks over every prime in [p_min, p_max].

    Primes may run across RESITAN_THREADS processes in contiguous batches.
    The records come back in (p, m, a, check) order with elapsed_ms zeroed
    (see the module docstring), so reports are reproducible byte for byte.
    """
    primes = [p for p in range(max(config.p_min, 3), config.p_max + 1)
              if is_prime(p)]
    tasks = [(config, p) for p in primes]
    workers, chunksize = _batching(len(primes), _thread_count())
    if workers > 1:
        # imported here so that `import resitan.cli`, and with it every
        # `resitan verify`, does not load the process pool machinery
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = [rec for run in pool.map(_scan_prime, tasks,
                                               chunksize=chunksize)
                       for rec in run]
    else:
        records = [rec for task in tasks for rec in _scan_prime(task)]
    if config.out is not None:
        emit_report(records, config.fmt, config.out)
    return records


def _json_number(x) -> str:
    """x as json.dumps writes it: repr, or NaN, Infinity and -Infinity."""
    if x != x:
        return "NaN"
    if x in (math.inf, -math.inf):
        return "Infinity" if x > 0 else "-Infinity"
    return repr(x)


# One JSONL line: the json.dumps rendering of the dict of REPORT_FIELDS,
# with its default ", " and ": " separators
_JSONL_LINE = "{%s}\n" % ", ".join(f'"{k}": %s' for k in REPORT_FIELDS)


def emit_report(records, fmt: str, path) -> None:
    """Write records to path, one JSONL object or CSV row per record.

    Field order is fixed: p, m, a, check, status, expected, actual, elapsed_ms.
    A JSONL line has the bytes json.dumps gives the record's dict.  Lines
    are written as they are formatted, so the report is never held whole.
    """
    if fmt == "jsonl":
        # imported here, as in parse_report, so that `import resitan.cli`,
        # and with it every `resitan verify`, does not load json or csv.
        # This is the escaper json.dumps itself uses for ASCII output.
        from json.encoder import encode_basestring_ascii as quote
        lines = (_JSONL_LINE % (rec.p, rec.m, rec.a, quote(rec.check),
                                quote(rec.status), quote(rec.expected),
                                quote(rec.actual), _json_number(rec.elapsed_ms))
                 for rec in records)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines)
    elif fmt == "csv":
        import csv
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(REPORT_FIELDS)
            writer.writerows([getattr(rec, k) for k in REPORT_FIELDS]
                             for rec in records)
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def parse_report(path, fmt: str) -> list[VerificationRecord]:
    """Read a report written by emit_report back into records."""
    import csv
    import json
    out = []
    if fmt == "jsonl":
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    out.append(VerificationRecord(**json.loads(line)))
    elif fmt == "csv":
        with open(path, encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                out.append(VerificationRecord(
                    int(row["p"]), int(row["m"]), int(row["a"]), row["check"],
                    row["status"], row["expected"], row["actual"],
                    float(row["elapsed_ms"])))
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return out
