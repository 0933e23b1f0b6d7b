"""The table of checks, the corollary-level checks, and a scan's defaults.

Every check is one Check row of the CHECKS table: the runner of one work
item, the m and a its items range over, whether `resitan verify` runs it,
and the coset through which its record reads a.  run_check runs one row on
one (m, a) item and turns a hypothesis failure into a skipped record and
any other exception into an error record, so no caller dies on one item.

`resitan verify` needs this module alone; the sweep engine, pool and
report I/O are in harness, which only `resitan scan` imports.  SCAN_DEFAULTS
is the one table of a scan's defaults: harness.ScanConfig builds its fields
from it, and the command line's options read their defaults from it.
"""

from __future__ import annotations

from collections import namedtuple

from .arith import PrimeContext, as_prime, mod_pow
from .cyclotomic import verify_gi, verify_gi_plus, verify_tan_cross
from .errors import HypothesisViolation, NotRepresentable
from .numeric import (pmd_lemma_identity, pmd_theorem14_numeric,
                      verify_theorem_main_numeric)
from .quadforms import check_lemma31, cornacchia, two_residue_criterion
from .records import (PASS, SKIPPED, VerificationRecord, error_status, finish,
                      int_str)
from .residues import require_unit, symbol_sign, verify_residue_sum

# the fields of a scan after its prime range, in order, with their defaults
SCAN_DEFAULTS = {"m_policy": "all", "a_count": 5, "checks": "all",
                 "tolerance": 1e-6, "out": None, "fmt": "jsonl"}

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


# One row of CHECKS, the table of checks.  run(ctx, m, a, tol) returns the
# record of one (m, a) work item exactly as it is reported, with that m and
# a.  A prime's items are every m of ms and a of az, m outermost: ms None
# is the scan's m policy, az None its a grid, each worked out once per
# prime (harness._scan_prime).  mode
# ("exact", "numeric" or None) says which `resitan verify --mode` runs the
# check.  Runners look their function up by module-global name at call
# time, so rebinding that name in this module reaches every caller.
Check = namedtuple("Check", "run ms az mode k")

# k says how the record of (m, a) reads a, a unit mod p: only through the
# coset a*R_k(p), so a scan runs the item once per (m, coset) and gives
# every other a of that coset the same record with its own a
# (harness._scan_prime).  "m" is the item's own m; None means a is no
# unit but an index or 0, and every item runs.  No record's text names a,
# and no hypothesis reads it.
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
