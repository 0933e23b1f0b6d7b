import math
import random
import tracemalloc
from fractions import Fraction

import mpmath
import pytest

from conftest import admissible_m, odd_primes_up_to
from resitan import (BranchViolation, HypothesisViolation, PoleProximity,
                     PrimeContext, SignedMagnitude, is_mth_residue, jacobi,
                     pmd_lemma_identity, pmd_theorem14_numeric, residue_set,
                     symbol_sign, tan_product, verify_tan_cross,
                     verify_theorem_main_numeric)
from resitan import cyclotomic, numeric, residues
from resitan.cli import main
from resitan.harness import PMD_X_GRID, ScanConfig, _scan_prime, run_check
from resitan.numeric import POLE_EPS, ZERO_CROSS, _log_tolerance
from resitan.records import finish


def float_tan_product(p, m, a):
    """Plain float oracle, no log accumulation (safe only for small p)."""
    members = sorted({pow(k, m, p) for k in range(1, p)})
    out = 1.0
    for k in members:
        out *= 1.0 + math.tan(math.pi * (a * k % p) / p)
    return out


def reference_terms(q, residues):
    """The sign and the per-factor log2 terms of the product over residues,
    by a per-factor loop: tan and log2 each."""
    sign = 1
    terms = []
    for r in residues:
        t = r / q
        if t > 0.5:
            t -= 1.0
        f = 1.0 + math.tan(math.pi * t)
        if f < 0.0:
            sign = -sign
        terms.append(math.log2(abs(f)))
    return sign, terms


def reference_tan_product_mag(q, residues):
    """The reference terms added left to right with plain float `+`, as the
    program did before its products became one fsum per coset; a bound
    oracle, not a bit-for-bit one."""
    sign, terms = reference_terms(q, residues)
    log2 = 0.0
    for term in terms:
        log2 += term
    return SignedMagnitude(sign, log2)


def pair_terms(q, residues):
    """The log2 terms of the product over residues closed under r -> q - r,
    one per pair: log2|(1 + t)(1 - t)| with t = tan(pi*r/q) at r < q/2; a
    bound oracle for the T form."""
    assert sorted(residues) == sorted(q - r for r in residues)
    terms = []
    for r in residues:
        if 2 * r < q:
            t = math.tan(math.pi * (r / q))
            terms.append(math.log2(abs((1.0 + t) * (1.0 - t))))
    return terms


def t_terms(q, residues):
    """T[r] = log2|2 cos(pi*r/q)| for the members r < q/2 of residues closed
    under r -> q - r, one per pair, each angle pi*(q - 2r)/(2q) a ratio of
    integers rounded once."""
    assert sorted(residues) == sorted(q - r for r in residues)
    return [math.log2(2.0 * math.sin(math.pi * ((q - 2 * r) / (2 * q))))
            for r in residues if 2 * r < q]


def fsum_tan_product_mag(q, residues, seed=0):
    """H(2a) - 2*H(a) + |R|/2 with each H a math.fsum of T terms in a
    shuffled order, added by one more fsum, with the per-factor loop's sign:
    fsum rounds the exact sum once, so any order gives the program's float
    bit for bit."""
    sign, _ = reference_terms(q, residues)
    rng = random.Random(seed)
    sums = []
    for coset in (residues, [2 * r % q for r in residues]):
        terms = t_terms(q, coset)
        rng.shuffle(terms)
        sums.append(math.fsum(terms))
    h, h2 = sums
    return SignedMagnitude(sign, math.fsum((h2, -2.0 * h, len(residues) // 2)))


def coset_residues(p, m, a):
    return [a * k % p for k in sorted({pow(k, m, p) for k in range(1, p)})]


def reference_tan_product(p, m, a):
    return fsum_tan_product_mag(p, coset_residues(p, m, a), seed=p * m + a)


def reference_pmd14_strings(p, a, rel_tol=1e-6):
    """expected and actual of pmd_theorem14_numeric, by the direct loops:
    the sign count by Jacobi symbols, the product over k^2 for every k."""
    got = fsum_tan_product_mag(
        p, [a * k * k % p for k in range(1, (p - 1) // 2 + 1)], seed=a)
    count = sum(1 for k in range(1, (p - 1) // 4 + 1) if jacobi(k, p) == 1)
    expected = f"{'-' if count % 2 else '+'}2^{(p - 1) // 4} (rel_tol={rel_tol:g})"
    return expected, got.render()


def assert_near_left_to_right(got, q, residues):
    """Within 1e-10 in log2 of the left-to-right sum, with the same sign."""
    want = reference_tan_product_mag(q, residues)
    assert got.sign == want.sign, (q, residues[:3])
    assert abs(got.log2_mag - want.log2_mag) <= 1e-10, (q, residues[:3])


_QUARTER = Fraction(1, 4)
_THREE_QUARTERS = Fraction(3, 4)


def _reference_tan_factor(arg: Fraction) -> SignedMagnitude:
    """1 + tan(pi*arg) in sign/log2 form, with exact pole and zero detection.

    Returns an exact zero when the reduced argument is exactly 3/4, the only
    zero of 1 + tan(pi*t) modulo 1.
    """
    q = arg % 1
    if abs(float(q) - 0.5) < POLE_EPS:
        raise PoleProximity(
            f"argument {float(arg)!r} is within {POLE_EPS:g} of a tangent pole")
    if q == _THREE_QUARTERS:
        return SignedMagnitude(0)
    t = float(q)
    if t > 0.5:
        t -= 1.0
    f = 1.0 + math.tan(math.pi * t)
    if f == 0.0:
        return SignedMagnitude(0)
    return SignedMagnitude(1 if f > 0.0 else -1, math.log2(abs(f)))


def reference_pmd_lemma(n, x, rel_tol=1e-9):
    """pmd_lemma_identity in exact Fraction arithmetic, as it was before the
    reduction moved to plain integers."""
    if n < 1 or n % 2 == 0:
        raise ValueError("n must be odd and positive")
    fx = Fraction(x)  # exact: binary floats are dyadic rationals
    # left to right, as the program's loop folds sign and log2
    sign, log2 = 1, 0.0
    for r in range(n):
        f = _reference_tan_factor((fx + r) / n)
        sign *= f.sign
        log2 += f.log2_mag
    lhs = SignedMagnitude(sign, log2) if sign else SignedMagnitude(0)

    s2 = jacobi(2, n)
    s1 = jacobi(-1, n)
    qx = fx % 1
    if abs(float(qx) - 0.5) < POLE_EPS:
        raise PoleProximity(f"x={x!r} is within {POLE_EPS:g} of a tangent pole")
    if (s1 == 1 and qx == _THREE_QUARTERS) or (s1 == -1 and qx == _QUARTER):
        rhs = SignedMagnitude(0)
    else:
        t = float(qx)
        if t > 0.5:
            t -= 1.0
        base = 1.0 + s1 * math.tan(math.pi * t)
        if base == 0.0:
            rhs = SignedMagnitude(0)
        else:
            rhs = SignedMagnitude(s2 * (1 if base > 0.0 else -1),
                                  (n - 1) / 2 + math.log2(abs(base)))

    if lhs.sign == 0 and rhs.sign == 0:
        ok = True
    elif abs(rhs.value()) < ZERO_CROSS:
        ok = abs(lhs.value() - rhs.value()) <= ZERO_CROSS
    else:
        ok = lhs.sign == rhs.sign and \
            abs(lhs.log2_mag - rhs.log2_mag) <= _log_tolerance(rel_tol)
    expected = f"x={x!r}: {rhs.render()} (rel_tol={rel_tol:g})"
    actual = f"x={x!r}: {lhs.render()}"
    return finish(n, 1, 0, "pmd_lemma", ok, expected, actual)


def a_values(p):
    return sorted({1, 2, p - 1})


class TestSignedMagnitude:
    def test_value_and_render(self):
        assert SignedMagnitude(-1, 2.0).value() == -4.0
        assert SignedMagnitude(0).value() == 0.0
        assert SignedMagnitude(0).render() == "0"
        assert SignedMagnitude(1, 5.0).render().startswith("+2^5.0")

    def test_value_overflow_guard(self):
        assert SignedMagnitude(-1, 5000.0).value() == -math.inf


class TestTanProduct:
    def test_p5_is_minus_4(self):
        oracle = float_tan_product(5, 1, 1)
        assert abs(oracle + 4.0) < 1e-9
        sm = tan_product(5, 1, 1)
        assert sm.sign == -1
        assert abs(sm.log2_mag - 2.0) < 1e-9

    def test_p31_is_32(self):
        sm = tan_product(31, 3, 1)
        assert sm.sign == 1 and abs(sm.log2_mag - 5.0) < 1e-9

    def test_p113_is_minus_16384(self):
        sm = tan_product(113, 4, 1)
        assert sm.sign == -1 and abs(sm.log2_mag - 14.0) < 1e-9

    def test_independent_of_a(self):
        for p, m in [(31, 3), (41, 2), (13, 1)]:
            base = tan_product(p, m, 1)
            for a in range(2, p):
                sm = tan_product(p, m, a)
                assert sm.sign == base.sign
                assert abs(sm.log2_mag - base.log2_mag) < 1e-9

    def test_errors(self):
        with pytest.raises(HypothesisViolation):
            tan_product(13, 5, 1)
        with pytest.raises(ValueError):
            tan_product(13, 1, 13)

    def test_coset_partition_refines_full_product(self):
        # the m = 1 factor multiset is exactly the union of the multisets
        # over the cosets of R_m(p); equality of multisets, not of values
        for p, m, a in [(31, 3, 1), (41, 2, 3), (61, 5, 2)]:
            members = residue_set(p, m).members
            mset = set(members)
            cosets = []
            seen = set()
            for u in range(1, p):
                if u not in seen:
                    coset = {u * k % p for k in mset}
                    seen |= coset
                    cosets.append(coset)
            assert len(cosets) == m
            full = sorted(a * k % p for k in range(1, p))
            refined = sorted(a * k % p for coset in cosets for k in coset)
            assert full == refined


class TestVerifyTheoremMainNumeric:
    def test_p31(self):
        rec = verify_theorem_main_numeric(31, 3, 1, 1e-6)
        assert rec.status == "pass"
        assert rec.expected.startswith("+2^5 ")

    def test_a_is_p_minus_1_same_expected(self):
        r1 = verify_theorem_main_numeric(31, 3, 1, 1e-6)
        r30 = verify_theorem_main_numeric(31, 3, 30, 1e-6)
        assert r30.status == "pass"
        assert r1.expected == r30.expected

    def test_p5_m1(self):
        rec = verify_theorem_main_numeric(5, 1, 1, 1e-6)
        assert rec.status == "pass"
        assert rec.expected.startswith("-2^2 ")

    def test_hypothesis(self):
        with pytest.raises(HypothesisViolation):
            verify_theorem_main_numeric(13, 3, 1)  # 2 is not a cube mod 13

    @pytest.mark.parametrize("m", [4, 7])
    def test_index_hypothesis_is_tested_first(self, m):
        # 2m does not divide 12: the skip reason is the one the exact checks
        # give, not the m-th power test of 2 (m = 4) or of p = 1 mod m (m = 7)
        with pytest.raises(HypothesisViolation,
                           match=rf"^2m={2 * m} does not divide p-1=12$"):
            verify_theorem_main_numeric(13, m, 1)

    @pytest.mark.parametrize("tol", [-1.0, -0.5, math.nan, math.inf])
    def test_rejects_a_tolerance_that_is_negative_or_not_finite(self, tol):
        # inf would pass any magnitude, and a negative or nan one fails
        # every product, so every numeric check raises instead
        with pytest.raises(ValueError, match="tolerance must be finite"):
            verify_theorem_main_numeric(1049, 4, 7, rel_tol=tol)
        with pytest.raises(ValueError, match="tolerance must be finite"):
            pmd_theorem14_numeric(17, 1, rel_tol=tol)
        with pytest.raises(ValueError, match="tolerance must be finite"):
            pmd_lemma_identity(9, 0.2, rel_tol=tol)

    def test_sign_agrees_with_exact_check(self):
        rng = random.Random(8)
        for p in rng.sample(odd_primes_up_to(500), 25):
            for m in admissible_m(p):
                if not is_mth_residue(2, p, m):
                    continue
                a = rng.randrange(1, p)
                numeric = tan_product(p, m, a)
                half = (p - 1) // (2 * m)
                exact_sign = symbol_sign(-2, p, m).value * (-1) ** (half % 2)
                assert numeric.sign == exact_sign
                assert verify_tan_cross(p, m, a).status == "pass"


class TestPmdLemmaIdentity:
    def test_n1_trivial(self):
        rec = pmd_lemma_identity(1, 0.3)
        assert rec.status == "pass"

    def test_n3_frozen_value(self):
        # direct float oracle: (1+tan 6deg)(1+tan 66deg)(1+tan 126deg)
        lhs = 1.0
        for r in range(3):
            lhs *= 1.0 + math.tan(math.pi * (0.1 + r) / 3)
        rhs = jacobi(2, 3) * 2.0 * (1.0 + jacobi(-1, 3) * math.tan(math.pi * 0.1))
        assert abs(lhs - rhs) < 1e-12
        assert abs(lhs + 1.35016) < 1e-4
        rec = pmd_lemma_identity(3, 0.1)
        assert rec.status == "pass"

    def test_n9_tight_tolerance(self):
        rec = pmd_lemma_identity(9, 0.2, rel_tol=1e-9)
        assert rec.status == "pass"

    def test_grid_zero_crossing(self):
        # x = 1/4 makes both sides exactly zero when n = 3 (mod 4)
        for n in (3, 7, 11, 99):
            rec = pmd_lemma_identity(n, 0.25, rel_tol=1e-9)
            assert rec.status == "pass"
            assert "0 (rel_tol" in rec.expected and rec.actual.endswith("0")

    @pytest.mark.parametrize("x, shown", [
        (0.75 + 1e-12, "0.750000000001"), (-0.0, "-0.0"), (5e-324, "5e-324"),
        (1 / 3, "0.3333333333333333")])
    def test_record_names_the_x_it_checked(self, x, shown):
        # the shortest text that reads back as x, not a 6-digit rounding
        rec = pmd_lemma_identity(5, x)
        assert rec.expected.startswith(f"x={shown}: ")
        assert rec.actual.startswith(f"x={shown}: ")

    @pytest.mark.parametrize("n, x", [(5, 0.75 + 1e-12), (3, 0.25 + 1e-12)])
    def test_near_zero_sides_compare_absolutely(self, n, x, monkeypatch):
        # both sides are about 2^-36, and their log2 magnitudes differ by
        # 2.0e-4 and 7.6e-5 against a log tolerance of 1.4e-9: only the
        # absolute comparison below ZERO_CROSS passes them
        assert pmd_lemma_identity(n, x).status == "pass"
        monkeypatch.setattr(numeric, "ZERO_CROSS", 0.0)
        assert pmd_lemma_identity(n, x).status == "fail"

    def test_pole_rejection(self):
        with pytest.raises(PoleProximity):
            pmd_lemma_identity(3, 0.5)
        with pytest.raises(PoleProximity):
            pmd_lemma_identity(3, 1.5 + 3e-10)  # (x+0)/3 = 0.5 + 1e-10

    @pytest.mark.parametrize("n", [1, 3, 9, 401])
    @pytest.mark.parametrize("x", [0.5 + 5e-11, 2.5 - 8e-11, -1.5 + 1e-10 / 3])
    def test_pole_of_the_right_side_raises_on_the_left(self, n, x):
        # x mod 1 within 1e-10 of 1/2 is a pole of the right side's factor;
        # the left side's factor at the r with (x - x mod 1 + r) = (n-1)/2
        # (mod n) is n times closer to it, and raises first
        with pytest.raises(PoleProximity, match=r"^argument "):
            pmd_lemma_identity(n, x)

    def test_rejects_even_n(self):
        with pytest.raises(ValueError):
            pmd_lemma_identity(4, 0.1)

    def test_pole_after_a_zero_factor_raises(self, monkeypatch):
        # at odd n a zero and a pole are 1e-9 apart only when n > 10^8, so
        # widen the pole window: at n = 3, x = 2.25 factor 0 is the exact
        # zero (x/3 = 3/4) and factor 2 the pole (4.25/3 is 0.083 from 1/2)
        monkeypatch.setattr(numeric, "POLE_EPS", 0.1)
        with pytest.raises(PoleProximity, match=r"^argument 1\.41666"):
            pmd_lemma_identity(3, 2.25)

    def test_memory_does_not_grow_with_n(self):
        # one pass over r holds nothing of length n; a list of the n
        # factors alone would take several MB here
        tracemalloc.start()
        try:
            rec = pmd_lemma_identity(200001, 0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rec.status == "pass"
        assert peak < 4 * 2 ** 20, peak

    # zeros (0.25, 0.75, -0.25), poles (0.5, 1.5 + 3e-10, and -1.5, whose
    # message shows the unreduced argument), a signed zero, an int, a
    # non-dyadic x and the extremes of the float range
    EXTRA_X = (0.25, 0.75, -0.25, 0.5, 1.5 + 3e-10, -1.5, -0.0, 2, 1 / 3,
               1e300, 5e-324)

    def test_matches_fraction_reference(self):
        for n in range(1, 400, 2):
            for x in PMD_X_GRID + self.EXTRA_X:
                try:
                    want = reference_pmd_lemma(n, x)
                except Exception as exc:
                    with pytest.raises(Exception) as got:
                        pmd_lemma_identity(n, x)
                    assert (type(got.value), str(got.value)) == \
                        (type(exc), str(exc)), (n, x)
                    continue
                rec = pmd_lemma_identity(n, x)
                assert (rec.status, rec.expected, rec.actual) == \
                    (want.status, want.expected, want.actual), (n, x)

    def test_pair_terms_fold_each_image(self):
        # each image k' = a*k mod q is folded to r = min(k', q - k'): the
        # terms are T[r] bit for bit and the flags 4r > q, whether the flags
        # come from the q-byte table (m <= 4) or one comparison each
        def folded(q, a, ks):
            rs = [min(a * k % q, q - a * k % q) for k in ks]
            return t_terms(q, rs + [q - r for r in rs]), [4 * r > q for r in rs]

        for q in odd_primes_up_to(199):
            ctx = PrimeContext(q)
            for m in admissible_m(q):
                ks = residues.walk(ctx, m)[:(q - 1) // (2 * m)]
                for a in {1, 2, q - 1}:
                    terms, flags = numeric._pair_terms(q, a, ks)
                    assert (list(terms), list(map(bool, flags))) == \
                        folded(q, a, ks), (q, m, a)
        q = 2147483647
        ks = [1, 5, q // 4, q // 4 + 1, q // 2, q - 3]
        terms, flags = numeric._pair_terms(q, 3, ks)
        assert (list(terms), list(map(bool, flags))) == folded(q, 3, ks)

    def test_log2_within_error_model(self):
        # |L - log2|prod|| <= 1e-9: the 9-decimal rendering adds at most
        # 5e-10, the float factors and their sum far less at n < 200
        for n in range(1, 200, 2):
            for x in PMD_X_GRID:
                actual = pmd_lemma_identity(n, x).actual.split(": ")[1]
                with mpmath.workdps(50):
                    factors = [1 + mpmath.tan(mpmath.pi * (mpmath.mpf(x) + r) / n)
                               for r in range(n)]
                    prod = mpmath.fprod(factors)
                    want = mpmath.log(abs(prod), 2)
                if actual == "0":  # a factor is zero to 50 digits
                    assert min(map(abs, factors)) < 1e-40, (n, x)
                    continue
                assert actual[0] == ("+" if prod > 0 else "-"), (n, x)
                assert abs(float(actual[3:]) - want) <= 1e-9, (n, x)


class TestPmdTheorem14:
    def test_p17_expected_minus_16(self):
        # count oracle: residues below 17/4 are {1, 2, 4}, so sign is -1
        count = sum(1 for k in range(1, 5) if jacobi(k, 17) == 1)
        assert count == 3
        rec = pmd_theorem14_numeric(17, 1)
        assert rec.status == "pass"
        assert rec.expected.startswith("-2^4 ")

    def test_p41(self):
        rec = pmd_theorem14_numeric(41, 1)
        assert rec.status == "pass"

    def test_independent_of_a(self):
        base = pmd_theorem14_numeric(73, 1)
        for a in (2, 3, 5, 72):
            rec = pmd_theorem14_numeric(73, a)
            assert rec.status == "pass"
            assert rec.expected == base.expected

    def test_branch_violation(self):
        with pytest.raises(BranchViolation):
            pmd_theorem14_numeric(13, 1)  # 13 = 5 (mod 8)

    def test_rejects_a_divisible_by_p(self):
        with pytest.raises(ValueError):
            pmd_theorem14_numeric(17, 34)


class TestFactorTable:
    """The per-prime coset sums give the fsum of the T terms bit for bit, in
    any order and whether the sum is new or stored, and the products stay
    within 1e-10 of the per-factor tangent loop's left-to-right sum."""

    @pytest.fixture(autouse=True)
    def fresh_table(self):
        numeric._coset_sums.cache_clear()
        yield
        numeric._coset_sums.cache_clear()

    def test_tan_product_bit_identical_cold_and_warm(self):
        for p in odd_primes_up_to(399):
            for m in admissible_m(p):
                for a in a_values(p):
                    want = reference_tan_product(p, m, a)
                    numeric._coset_sums.cache_clear()
                    assert tan_product(p, m, a) == want, (p, m, a)
                    assert tan_product(p, m, a) == want, (p, m, a)
                    assert_near_left_to_right(want, p, coset_residues(p, m, a))

    def test_pmd14_bit_identical_cold_and_warm(self):
        # pmd_thm14's product is tan_product(p, 2, a) and shares its sums
        for p in odd_primes_up_to(399):
            if p % 8 != 1:
                continue
            nonresidue = min(k for k in range(2, p) if jacobi(k, p) == -1)
            for a in a_values(p) + [nonresidue]:
                want = reference_pmd14_strings(p, a)
                residues = [a * k * k % p for k in range(1, (p - 1) // 2 + 1)]
                numeric._coset_sums.cache_clear()
                for _ in range(2):
                    rec = pmd_theorem14_numeric(p, a)
                    assert (rec.expected, rec.actual) == want, (p, a)
                    stored = dict(numeric._coset_sums(p))
                    got = tan_product(p, 2, a)
                    assert numeric._coset_sums(p) == stored, (p, a)
                    assert rec.actual == got.render(), (p, a)
                    assert got == fsum_tan_product_mag(p, residues), (p, a)
                    assert_near_left_to_right(got, p, residues)

    def test_interleaved_primes_do_not_share_a_table(self):
        primes = odd_primes_up_to(399)
        for p1, p2 in zip(primes, primes[1:]):
            for p in (p1, p2, p1):
                for a in a_values(p):
                    assert tan_product(p, 1, a) == reference_tan_product(p, 1, a)
                if p % 8 == 1:
                    assert (pmd_theorem14_numeric(p, 2).expected,
                            pmd_theorem14_numeric(p, 2).actual) == \
                        reference_pmd14_strings(p, 2)

    def test_fills_only_the_factors_met(self, monkeypatch):
        # R_504(1009) = {1, 1008}, one pair, and 2 is not in it: a cold call
        # evaluates 1 sin for the coset of 5 and 1 for that of 10, not 504;
        # R_252(1009) has 2 pairs, and a coset of another m shares no sums
        calls = []
        real_sin = math.sin
        monkeypatch.setattr(math, "sin",
                            lambda x: calls.append(x) or real_sin(x))
        tan_product(1009, 504, 5)
        assert len(calls) == 2
        tan_product(1009, 252, 5)
        assert len(calls) == 6

    def test_one_fill_and_one_sum_serve_every_a_of_a_coset(self, monkeypatch):
        # at m = 1 the whole grid a = 1..5, 1008 is one coset of 504 pairs,
        # 2a included; each product adds its three sums with one more fsum
        calls = {"sin": 0, "fsum": 0}
        real_sin, real_fsum = math.sin, math.fsum

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped
        monkeypatch.setattr(math, "sin", counting("sin", real_sin))
        monkeypatch.setattr(math, "fsum", counting("fsum", real_fsum))
        grid = (1, 2, 3, 4, 5, 1008)
        got = {a: tan_product(1009, 1, a) for a in grid}
        assert calls == {"sin": 504, "fsum": 1 + len(grid)}
        assert len(numeric._coset_sums(1009)) == 1
        assert len(set(got.values())) == 1

    def test_coset_key_names_the_coset(self):
        # a and b share a stored sum iff a*R_m(p) = b*R_m(p)
        for p in (31, 41, 61, 73):
            for m in admissible_m(p):
                members = residue_set(p, m).members
                numeric._coset_sums.cache_clear()
                cosets = set()
                for a in range(1, p):
                    tan_product(p, m, a)
                    cosets.add(frozenset(a * k % p for k in members))
                assert len(numeric._coset_sums(p)) == len(cosets) == m

    def test_zero_factor_raises_on_every_call(self, monkeypatch):
        # make the factor 2 cos(pi*10/31) of residue 10 at p = 31 evaluate to
        # exactly 0; the a below all name the coset 5*R_3(31), and no sum is
        # stored for it
        p, m, a = 31, 3, 5
        residues = [a * k % p for k in residue_set(p, m).members]
        assert residues.index(10) > 0
        real_sin = math.sin
        zero_arg = math.pi * ((p - 2 * 10) / (2 * p))
        monkeypatch.setattr(math, "sin",
                            lambda x: 0.0 if x == zero_arg else real_sin(x))
        for b in (a, a, 2 * a, 4 * a):
            with pytest.raises(ValueError, match="math domain error"):
                tan_product(p, m, b)
        assert numeric._coset_sums(p) == {}
        rec = run_check(PrimeContext(p), m, a, "thm_main_numeric", 1e-6)
        assert rec.status == "error(ValueError: math domain error)"
        monkeypatch.undo()
        # the zero was never stored: with the real sin the product is exact
        assert tan_product(p, m, a) == reference_tan_product(p, m, a)


class TestCosetSlices:
    """Once the m = 1 sum holds the T terms along walk(p, 1), every coset of
    every m is the index class j0 mod m of them, and its entry is the one a
    cold sum over the coset's own pairs stores, bit for bit."""

    @pytest.fixture(autouse=True)
    def fresh_table(self):
        numeric._coset_sums.cache_clear()
        yield
        numeric._coset_sums.cache_clear()

    def test_slices_bit_identical_to_cold_sums(self):
        for p in odd_primes_up_to(399):
            ms = admissible_m(p)[1:]
            keys = {(m, a): (m, pow(a, (p - 1) // m, p))
                    for m in ms for a in range(1, p)}
            ctx = PrimeContext(p)
            cold = {}
            for (m, a), key in keys.items():
                if key not in cold:
                    numeric._coset_sums.cache_clear()
                    numeric.coset_log2(ctx, m, a)
                    assert set(numeric._coset_sums(p)) == {key}
                    cold[key] = numeric._coset_sums(p)[key]
            numeric._coset_sums.cache_clear()
            tan_product(p, 1, 1)
            sums = numeric._coset_sums(p)
            whole = sums[(1, 1)]
            for (m, a), key in keys.items():
                # only the m = 1 entry: every a goes through its own slice
                sums.clear()
                sums[(1, 1)] = whole
                got = tan_product(p, m, a)
                assert sums[key] == cold[key], (p, m, a)
                if a in a_values(p):
                    assert got == reference_tan_product(p, m, a), (p, m, a)

    @pytest.mark.parametrize("p", [1009, 5449])
    def test_numeric_checks_of_a_prime_evaluate_each_pair_once(
            self, p, monkeypatch):
        # the five checks of the numeric scan: thm_main_numeric's m = 1 sum
        # evaluates the (p - 1)/2 pairs, and every later coset of every m,
        # pmd_thm14's included, is a slice of its terms (756 tangents at
        # p = 1009 and 8172 at p = 5449 when each coset was evaluated)
        calls = []
        real_sin = math.sin
        monkeypatch.setattr(math, "sin",
                            lambda x: calls.append(x) or real_sin(x))
        config = ScanConfig(3, 3, checks=("thm_main_numeric", "pmd_thm14",
                                          "lemma21", "lemma31", "criterion"))
        records = _scan_prime(config, p)
        assert {rec.status for rec in records} <= {"pass",
                                                   "skipped(hypothesis)"}
        assert len(calls) == (p - 1) // 2 == {1009: 504, 5449: 2724}[p]

    def test_exact_and_numeric_checks_share_one_sin_per_pair(self,
                                                             monkeypatch):
        # the exact layer's float bound and the numeric products read the
        # same coset sums: the m = 1 sum evaluates the 504 pairs of 1009, and
        # every other coset of every m, exact or numeric, is a slice of it
        cyclotomic._unit_sign.cache_clear()
        calls = []
        real_sin = math.sin
        monkeypatch.setattr(math, "sin",
                            lambda x: calls.append(x) or real_sin(x))
        records = _scan_prime(ScanConfig(3, 3), 1009)
        assert {rec.status for rec in records} <= {"pass",
                                                   "skipped(hypothesis)"}
        assert len(calls) == 504

    def test_verify_both_modes_share_one_sin_per_pair(self, monkeypatch,
                                                      capsys):
        # at one (p, m) the bound sums all m = 4 cosets cold, and the
        # numeric product reads its cosets from them: (1049 - 1)/2 sins
        cyclotomic._unit_sign.cache_clear()
        residues._walks.cache_clear()
        calls = []
        real_sin = math.sin
        monkeypatch.setattr(math, "sin",
                            lambda x: calls.append(x) or real_sin(x))
        assert main(["verify", "--p", "1049", "--m", "4", "--a", "7"]) == 0
        assert "thm_main_numeric: pass" in capsys.readouterr().out
        assert len(calls) == 524

    def test_bound_slices_every_coset_through_one_index_per_m(self):
        # with the m = 1 terms built, the float bound's 126 cosets of
        # R_126(1009) are found in one {c: j0} map, not one pass over the
        # walk per coset, and the bound is the one the cold sums give
        p, m = 1009, 126
        cold = cyclotomic._log2_bound(p, m)
        numeric._coset_sums.cache_clear()
        tan_product(p, 1, 1)
        numeric._index_classes.cache_clear()
        assert cyclotomic._log2_bound(p, m) == cold
        info = numeric._index_classes.cache_info()
        assert (info.misses, info.hits) == (1, m - 1)

    def test_small_subgroup_of_a_large_prime_caches_only_its_size(self):
        # R_2570(1007441) has 392 members: no walk, term list or flag string
        # of length p or (p - 1)/2 may be built for it
        p, m = 1007441, 2570
        residues._walks.cache_clear()
        assert tan_product(p, m, 3).render() == "-2^196.000000000"
        cached = list(residues._walks(p).values())
        for entry in numeric._coset_sums(p).values():
            cached += [x for x in entry if hasattr(x, "__len__")]
        assert set(residues._walks(p)) == {m}
        assert set(numeric._coset_sums(p)) == {(m, pow(3, (p - 1) // m, p))}
        assert max(map(len, cached)) <= 392


class TestTanProductErrorModel:
    def test_pair_terms_are_the_t_form(self):
        # log2|(1 + t)(1 - t)| = T[2r] - 2*T[r] + 1 pair by pair, with 2r folded
        # below q/2, so the tangent pairs bound the T form's sums
        for q in odd_primes_up_to(199):
            for r, pair in zip(range(1, (q + 1) // 2), pair_terms(q, range(1, q))):
                r2 = min(2 * r, q - 2 * r)
                want = t_terms(q, [r2, q - r2])[0] - 2 * t_terms(q, [r, q - r])[0] + 1
                assert abs(pair - want) <= 1e-9, (q, r)

    def test_pair_terms_fold_each_image(self):
        # each image k' = a*k mod q is folded to r = min(k', q - k'): the
        # terms are T[r] bit for bit and the flags 4r > q, whether the flags
        # come from the q-byte table (m <= 4) or one comparison each
        def folded(q, a, ks):
            rs = [min(a * k % q, q - a * k % q) for k in ks]
            return t_terms(q, rs + [q - r for r in rs]), [4 * r > q for r in rs]

        for q in odd_primes_up_to(199):
            ctx = PrimeContext(q)
            for m in admissible_m(q):
                ks = residues.walk(ctx, m)[:(q - 1) // (2 * m)]
                for a in {1, 2, q - 1}:
                    terms, flags = numeric._pair_terms(q, a, ks)
                    assert (list(terms), list(map(bool, flags))) == \
                        folded(q, a, ks), (q, m, a)
        q = 2147483647
        ks = [1, 5, q // 4, q // 4 + 1, q // 2, q - 3]
        terms, flags = numeric._pair_terms(q, 3, ks)
        assert (list(terms), list(map(bool, flags))) == folded(q, 3, ks)

    def test_log2_within_error_model(self):
        # |L - log2|prod|| <= 1e-9 for every record at p < 200: the 9-decimal
        # rendering adds at most 5e-10, the float factors and their fsum far
        # less.  A hypothesis skip of thm_main_numeric is checked through
        # tan_product, so every admissible m is covered.
        for p in odd_primes_up_to(199):
            with mpmath.workdps(50):
                factors = [None] + [1 + mpmath.tan(mpmath.pi * r / p)
                                    for r in range(1, p)]
            ctx = PrimeContext(p)
            cases = []
            for m in admissible_m(p):
                for a in a_values(p) + [3, 4, 5]:
                    if a >= p:
                        continue
                    rec = run_check(ctx, m, a, "thm_main_numeric", 1e-6)
                    actual = rec.actual if rec.status != "skipped(hypothesis)" \
                        else tan_product(p, m, a).render()
                    cases.append((m, a, actual, coset_residues(p, m, a)))
            if p % 8 == 1:
                for a in a_values(p) + [3, 4, 5]:
                    actual = run_check(ctx, 1, a, "pmd_thm14", 1e-6).actual
                    cases.append((2, a, actual, coset_residues(p, 2, a)))
            for m, a, actual, residues in cases:
                with mpmath.workdps(50):
                    prod = mpmath.fprod(factors[r] for r in residues)
                    want = mpmath.log(abs(prod), 2)
                assert actual[0] == ("+" if prod > 0 else "-"), (p, m, a)
                assert abs(float(actual[3:]) - want) <= 1e-9, (p, m, a, actual)

    def test_coset_sums_within_1e12_of_mpmath(self):
        # every coset sum for p < 400, every m with 2m | p - 1 and a = 1..7,
        # against 40-digit mpmath; the pair form's worst is about 2.6e-13
        worst = 0.0
        for p in odd_primes_up_to(399):
            with mpmath.workdps(40):
                logs = [None] + [
                    mpmath.log(abs(1 + mpmath.tan(mpmath.pi * r / p)), 2)
                    for r in range(1, p)]
            for m in admissible_m(p):
                for a in range(1, min(p, 8)):
                    with mpmath.workdps(40):
                        want = mpmath.fsum(logs[r]
                                           for r in coset_residues(p, m, a))
                    err = abs(tan_product(p, m, a).log2_mag - float(want))
                    worst = max(worst, err)
        assert worst <= 1e-12

    def test_large_prime_reads_the_proven_exponent(self):
        # a pair's partner no longer rounds fl((p - r)/p): at p = 1000003 the
        # sum rounds to the proven 500001, where the per-factor form read
        # 500000.999999999
        rec = verify_theorem_main_numeric(1000003, 1, 2)
        assert rec.status == "pass"
        assert rec.actual == "-2^500001.000000000"

    @pytest.mark.parametrize("a", [1, 3])
    @pytest.mark.parametrize("p, m, shown", [
        (54410972897, 485812258, "-2^56.000000000"),
        (2 ** 61 - 1, 18900352534538475, "+2^61.000000000"),
        (2 ** 31 - 1, 34636833, "+2^31.000000000")])
    def test_small_subgroup_of_a_large_prime_reads_the_proven_exponent(
            self, p, m, shown, a):
        # the tangent pairs, whose angle rounded r/p, read -2^55.999998431 at
        # the first and +2^55.37 at the second; the T table's angles are
        # ratios of integers, rounded once at any p
        rec = verify_theorem_main_numeric(p, m, a)
        assert (rec.status, rec.actual) == ("pass", shown)
        with mpmath.workdps(50):
            want = mpmath.fsum(
                mpmath.log(abs(1 + mpmath.tan(mpmath.pi * (a * k % p) / p)), 2)
                for k in residues.walk(p, m))
        assert abs(tan_product(p, m, a).log2_mag - float(want)) <= 1e-12
