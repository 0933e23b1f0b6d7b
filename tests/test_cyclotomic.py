import cmath
import decimal
import math
import random
import tracemalloc

import pytest

from conftest import admissible_m, odd_primes_up_to
from reference_ring import (RingMismatch, binomial_product, cyclotomic_poly,
                            get_ring)
from resitan import (HypothesisViolation, SignSymbol, cyclotomic,
                     is_mth_residue, jacobi, residue_set, symbol_sign, verify_gi,
                     verify_gi_plus, verify_tan_cross)
from resitan.arith import PrimeContext, is_prime
from resitan.checks import run_check
from resitan.records import int_str
from resitan.residues import walk


def poly_divmod(num, den):
    """Plain long division over the integers; oracle for divisibility checks."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for j in range(len(num) - 1, len(den) - 2, -1):
        c = num[j]
        if c:
            assert c % den[-1] == 0
            t = c // den[-1]
            q[j - len(den) + 1] = t
            for i, dc in enumerate(den):
                num[j - len(den) + 1 + i] -= t * dc
    return q, num[:len(den) - 1]


def random_element(ring, rng):
    return ring.element([rng.randrange(-9, 10) for _ in range(ring.n)])


class TestCyclotomicPoly:
    def test_examples(self):
        assert cyclotomic_poly(1) == [-1, 1]          # x - 1
        assert cyclotomic_poly(4) == [1, 0, 1]        # x^2 + 1
        assert cyclotomic_poly(12) == [1, 0, -1, 0, 1]  # x^4 - x^2 + 1

    def test_first_nontrivial_coefficient(self):
        # smallest n whose cyclotomic polynomial has a coefficient of size 2
        assert cyclotomic_poly(105)[7] == -2

    def test_monic_with_totient_degree(self):
        # phi by direct gcd count
        import math
        for n in [1, 2, 9, 16, 36, 124, 210]:
            poly = cyclotomic_poly(n)
            phi = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
            assert poly[-1] == 1 and len(poly) - 1 == phi

    def test_divides_x_n_minus_1(self):
        for n in list(range(1, 80)) + [105, 124, 385, 1365]:
            xn = [0] * (n + 1)
            xn[0], xn[n] = -1, 1
            _, rem = poly_divmod(xn, cyclotomic_poly(n))
            assert all(c == 0 for c in rem), n

    def test_bound(self):
        with pytest.raises(ValueError):
            cyclotomic_poly(0)


class TestReduce:
    def test_i_squared_plus_one_is_zero(self):
        p = 7
        ring = get_ring(4 * p)
        e = ring.monomial(2 * p) + ring.one()    # zeta^(2p) = -1
        assert e.reduce().is_zero()

    def test_full_turn_is_one(self):
        ring = get_ring(20)
        assert ring.element({20: 1}) == ring.one()  # exponents fold mod n

    def test_idempotent(self):
        rng = random.Random(42)
        for n in [1, 2, 12, 15, 20, 28]:
            ring = get_ring(n)
            for _ in range(10):
                e = random_element(ring, rng)
                once = e.reduce()
                twice = once.reduce()
                assert once.coeffs == twice.coeffs

    def test_embedding_consistency(self):
        rng = random.Random(9)
        for n in [2, 12, 15, 20, 28, 44]:
            ring = get_ring(n)
            for _ in range(10):
                e = random_element(ring, rng)
                mass = sum(abs(c) for c in e.coeffs)
                assert abs(e.reduce().embed() - e.embed()) < 1e-6 * (1 + mass)


class TestMul:
    def test_i_squared(self):
        p = 7
        ring = get_ring(4 * p)
        i = ring.monomial(p)
        assert i * i == ring.constant(-1)

    def test_identity(self):
        ring = get_ring(12)
        rng = random.Random(4)
        for _ in range(10):
            e = random_element(ring, rng)
            assert e * ring.one() == e

    def test_conjugate_pair_example(self):
        # (i - zeta^4)(i + zeta^4) = -1 - zeta^8 in n = 4p
        p = 7
        ring = get_ring(4 * p)
        a = ring.monomial(p) - ring.monomial(4)
        b = ring.monomial(p) + ring.monomial(4)
        want = ring.constant(-1) - ring.monomial(8)
        got = a * b
        assert got == want
        assert abs(got.embed() - want.embed()) < 1e-9

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatch):
            get_ring(12).one() * get_ring(20).one()

    def test_ring_axioms(self):
        rng = random.Random(123)
        for n in [1, 2, 12, 15, 20]:
            ring = get_ring(n)
            for _ in range(8):
                a = random_element(ring, rng)
                b = random_element(ring, rng)
                c = random_element(ring, rng)
                assert a * b == b * a
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c

    def test_scalar_and_pow(self):
        ring = get_ring(20)
        i = ring.monomial(5)
        assert i ** 4 == ring.one()
        assert (2 * i) ** 2 == ring.constant(-4)
        with pytest.raises(ValueError):
            i ** -1


class TestBinomialProduct:
    def test_empty_product(self):
        ring = get_ring(12)
        assert binomial_product(ring, []) == ring.one()

    def test_single_factor(self):
        p = 7
        ring = get_ring(4 * p)
        got = binomial_product(ring, [(1, p, -1, 4)])
        assert got == ring.monomial(p) - ring.monomial(4)

    def test_r3_31_product_is_minus_i(self):
        # brute-force the cubic residues of 31, then expand the product
        p = 31
        members = sorted({pow(k, 3, p) for k in range(1, p)})
        ring = get_ring(4 * p)
        factors = [(1, p, -1, 4 * k % (4 * p)) for k in members]
        got = binomial_product(ring, factors)
        assert got == ring.monomial(p, -1)  # -i = -zeta_124^31

    def test_validation(self):
        ring = get_ring(12)
        with pytest.raises(ValueError):
            binomial_product(ring, [(2, 0, 1, 1)])
        with pytest.raises(ValueError):
            binomial_product(ring, [(1, 12, 1, 0)])


class TestVerifyGi:
    def test_p31_m3(self):
        rec = verify_gi(31, 3, 1)
        assert rec.status == "pass"
        assert rec.expected == "-1*z^31"
        assert rec.actual == "-1*z^31"

    def test_p5_m1(self):
        # right side jacobi(-2,5) * i^2 = (-1)(-1) = 1
        rec = verify_gi(5, 1, 1)
        assert rec.status == "pass"
        assert rec.expected == "1*z^0"

    def test_right_side_independent_of_a(self):
        r1 = verify_gi(31, 3, 1)
        r2 = verify_gi(31, 3, 2)
        assert r2.status == "pass"
        assert r1.expected == r2.expected

    def test_invariant_under_residue_rescaling(self):
        # replacing a by a*r with r in R_m(p) permutes the factors
        p, m = 31, 3
        members = sorted({pow(k, m, p) for k in range(1, p)})
        base = verify_gi(p, m, 2)
        for r in random.Random(6).sample(members, 4):
            other = verify_gi(p, m, 2 * r % p)
            assert other.actual == base.actual
            assert other.status == "pass"

    def test_hypothesis_errors(self):
        with pytest.raises(HypothesisViolation):
            verify_gi(13, 5, 1)   # 10 does not divide 12
        with pytest.raises(HypothesisViolation):
            verify_gi(13, 3, 1)   # 2 is not a cube mod 13
        with pytest.raises(ValueError):
            verify_gi(31, 3, 62)  # a = 0 (mod p)


class TestVerifyGiPlus:
    def test_p31_m3(self):
        rec = verify_gi_plus(31, 3, 1)
        assert rec.status == "pass"
        assert rec.expected == "1*z^31"  # (+1) * i^5 = i

    def test_p5_m1(self):
        rec = verify_gi_plus(5, 1, 1)
        assert rec.status == "pass"
        assert rec.expected == "1*z^0"   # jacobi(2,5) * (-1) = 1

    def test_p113_m4(self):
        rec = verify_gi_plus(113, 4, 3)
        assert rec.status == "pass"


class TestVerifyTanCross:
    def test_p31_scalar_32(self):
        rec = verify_tan_cross(31, 3, 1)
        assert rec.status == "pass"
        scalar = symbol_sign(-2, 31, 3).value * (-2) ** 5
        assert scalar == 32

    def test_p5_scalar_minus_4(self):
        rec = verify_tan_cross(5, 1, 1)
        assert rec.status == "pass"
        scalar = symbol_sign(-2, 5, 1).value * (-2) ** 2
        assert scalar == -4

    def test_p13_m2_hypothesis_fails(self):
        # 2 in R_2(13) would need jacobi(2, 13) = 1, but 13 = 5 (mod 8)
        assert jacobi(2, 13) == -1
        with pytest.raises(HypothesisViolation):
            verify_tan_cross(13, 2, 1)

    def test_left_product_squares_to_sign(self):
        # the square of the verified product is (-1)^((p-1)/(2m)),
        # independently of the sign determination
        for p, m in [(31, 3), (113, 4), (13, 1), (41, 2)]:
            members = sorted({pow(k, m, p) for k in range(1, p)})
            ring = get_ring(4 * p)
            factors = [(1, p, -1, 4 * k % (4 * p)) for k in members]
            prod = binomial_product(ring, factors)
            half = (p - 1) // (2 * m)
            assert prod * prod == ring.constant((-1) ** half)


def sqrt_minus_one(l):
    """A square root of -1 modulo a prime l = 1 (mod 4): the ((l - 1)/4)-th
    power of a quadratic non-residue."""
    c = next(c for c in range(2, l) if pow(c, (l - 1) // 2, l) == l - 1)
    return pow(c, (l - 1) // 4, l)


def certified_pairs(p_limit):
    """(p, m) with p below p_limit, 2m | p-1 and 2 an m-th power residue."""
    return [(p, m) for p in odd_primes_up_to(p_limit - 1)
            for m in admissible_m(p) if is_mth_residue(2, p, m)]


EXACT_CHECKS = (verify_gi, verify_gi_plus, verify_tan_cross)


def i_product(p, m, s, a=1):
    """prod over k in R_m(p) of (i + s*zeta_p^(ak)), expanded in the reference
    ring Z[zeta_4p]."""
    ring = get_ring(4 * p)
    factors = [(1, p, s, 4 * a * k % ring.n) for k in residue_set(p, m).members]
    return binomial_product(ring, factors)


def dense_fields(fn, p, m, a):
    """(status, expected, actual) of the exact check fn with both sides
    expanded and rendered in the reference ring, as the checks rendered them
    when they computed in the ring.  The sign symbol is looked up in
    cyclotomic at call time, so a patched symbol reaches both paths."""
    ring = get_ring(4 * p)
    half = (p - 1) // (2 * m)
    s = 1 if fn is verify_gi_plus else -1
    delta = cyclotomic.symbol_sign(2 * s, p, m).value
    product = i_product(p, m, s, a)
    if fn is verify_tan_cross:
        lhs = (ring.monomial(p) - ring.one()) ** (2 * half)   # (i-1)^|R|
        expected = (product * (delta * (-2) ** half)).render()
        actual = lhs.render()
    else:
        expected = ring.monomial(p * half, delta).render()
        actual = product.render()
    return ("pass" if expected == actual else "fail"), expected, actual


def fields(rec):
    return rec.status, rec.expected, rec.actual


class TestCertificate:
    def test_records_match_dense_ring(self):
        cases = [(fn, p, m, a) for p, m in certified_pairs(200)
                 for a in (1, p - 1) for fn in EXACT_CHECKS]
        for fn, p, m, a in cases:
            got = fn(p, m, a)
            assert fields(got) == dense_fields(fn, p, m, a), (fn.__name__, p, m, a)
            assert got.status == "pass"

    def test_rejects_wrong_right_sides(self):
        # the claimed exponent is certified, and the first image of
        # P_s = (s*i)^half * Z, with I a square root of -1 mod l standing for
        # i, matches no other I^f, so every other unit +-i^q is rejected
        for p, m in certified_pairs(200):
            half = (p - 1) // (2 * m)
            sign = cyclotomic._unit_sign(p, m)
            l = cyclotomic._split_prime(4 * p)
            i_l = sqrt_minus_one(l)
            row = cyclotomic._coset_images(p, m, l)
            assert row[0] == sign % l, (p, m)
            for s in (-1, 1):
                e = (half + 1 - symbol_sign(2 * s, p, m).value) % 4
                assert ((2 - s) * half + 1 - sign) % 4 == e, (p, m, s)
                image = pow(s * i_l, half, l) * row[0] % l
                assert [pow(i_l, f, l) == image for f in range(4)] == \
                    [f == e for f in range(4)], (p, m, s)

    def test_flipped_symbol_fails_with_dense_actual(self, monkeypatch):
        cases = [(fn, p, m, a) for p, m in [(31, 3), (113, 4), (41, 2), (73, 1)]
                 for a in (1, 2) for fn in EXACT_CHECKS]
        actual = [dense_fields(fn, p, m, a)[2] for fn, p, m, a in cases]

        def flipped(a, p, m):
            sym = symbol_sign(a, p, m)
            return SignSymbol(-sym.value, sym.a, sym.p, sym.order)
        monkeypatch.setattr(cyclotomic, "symbol_sign", flipped)
        for (fn, p, m, a), want in zip(cases, actual):
            rec = fn(p, m, a)
            assert rec.status == "fail", (fn.__name__, p, m, a)
            assert rec.actual == want
            assert rec.expected != rec.actual

    def test_render_matches_ring(self):
        coefficients = [1, -1] + [sign * 2 ** j for j in (1, 7, 64, 249)
                                  for sign in (1, -1)]
        for p in odd_primes_up_to(499):
            ring = get_ring(4 * p)
            for q in range(4):
                for c in coefficients:
                    assert cyclotomic._render_i_power(p, q, c) == \
                        ring.monomial(p * q, c).render(), (p, q, c)


def flip_symbol(monkeypatch):
    """Make the exact checks use the wrong sign symbol, so every right side
    is wrong."""
    def flipped(a, p, m):
        sym = symbol_sign(a, p, m)
        return SignSymbol(-sym.value, sym.a, sym.p, sym.order)
    monkeypatch.setattr(cyclotomic, "symbol_sign", flipped)


def conjugates(elem):
    """All phi(n) complex conjugates of elem, from its canonical coefficients
    (small integers for every element here, so floats evaluate them to about
    1e-12)."""
    n = elem.ring.n
    roots = [cmath.exp(2j * cmath.pi * e / n) for e in range(n)]
    terms = [(e, c) for e, c in enumerate(elem.canonical()) if c]
    return [sum(c * roots[e * t % n] for e, c in terms)
            for t in range(1, n) if math.gcd(t, n) == 1]


def count_draws(monkeypatch):
    """Record every split prime a certificate draws, in a list returned."""
    draws = []
    real = cyclotomic._split_prime

    def counting(n, *above):
        draws.append(real(n, *above))
        return draws[-1]
    monkeypatch.setattr(cyclotomic, "_split_prime", counting)
    return draws


def least_split_primes(n, count):
    """The count least primes l = 1 (mod n), by trial division from n + 1
    up."""
    found, candidate = [], n + 1
    while len(found) < count:
        if all(candidate % d for d in range(2, math.isqrt(candidate) + 1)):
            found.append(candidate)
        candidate += n
    return found


class TestSplitPrime:
    def test_draws_step_up_through_the_primes_1_mod_n(self):
        # three successive draws are the three least primes l = 1 (mod 4p),
        # found here by trial division stepping up from 4p + 1
        for p in odd_primes_up_to(199):
            n = 4 * p
            got = [cyclotomic._split_prime(n)]
            while len(got) < 3:
                got.append(cyclotomic._split_prime(n, got[-1]))
            assert got == least_split_primes(n, 3), p

    def test_small_cases(self):
        assert cyclotomic._split_prime(12) == 13
        assert cyclotomic._split_prime(12, 13) == 37
        assert cyclotomic._split_prime(12, 97) == 109
        # the last prime 1 mod 12 below 2^62, found by stepping down: above
        # it the draw runs out at the cap
        last = 2 ** 62 - (2 ** 62 - 1) % 12
        while not is_prime(last):
            last -= 12
        assert cyclotomic._split_prime(12, last - 1) == last
        with pytest.raises(ArithmeticError,
                           match=r"^split primes 1 mod 12 ran out$"):
            cyclotomic._split_prime(12, last)


class TestCosetImages:
    def test_rows_are_index_classes_of_the_walk(self):
        # entry j0 is the coset g^j0 * R, g the primitive root of walk(p, 1):
        # checked against products of eta^x + eta^-x over one member of each
        # pair of g^j0 * R, read by x, not by walk position.  Where 2 is an
        # m-th power every entry is the same +-1, so the pairs without it are
        # the ones that tell the cosets apart
        for p, m in [(p, m) for p in odd_primes_up_to(199) for m in admissible_m(p)]:
            l = cyclotomic._split_prime(4 * p)
            eta = cyclotomic._root_of_order(p, l)
            assert eta != 1 and pow(eta, p, l) == 1
            eta_x = [pow(eta, x, l) for x in range(p)]
            g = walk(p, 1)[1]
            below_half = [k for k in residue_set(p, m).members if 2 * k < p]
            row = cyclotomic._coset_images(p, m, l)
            assert len(row) == m
            for j0 in range(m):
                c = pow(g, j0, p)
                want = 1
                for k in below_half:
                    x = c * k % p
                    want = want * (eta_x[x] + eta_x[p - x]) % l
                assert row[j0] == want, (p, m, j0)

    def test_images_of_a_unit_do_not_depend_on_the_split_prime(self):
        # Z = epsilon maps to epsilon at every split prime, so the least one
        # and the least one above 2^61 give the same all-epsilon row
        for p, m in certified_pairs(400):
            n = 4 * p
            high = 2 ** 61 - (2 ** 61 - 1) % n + n
            while not is_prime(high):
                high += n
            want = symbol_sign(2, p, m).value
            for l in (least_split_primes(n, 1)[0], high):
                row = cyclotomic._coset_images(p, m, l)
                assert set(row) == {want % l}, (p, m, l)

    @pytest.mark.parametrize("m", [1, 3])
    def test_images_fold_into_m_products(self, m):
        # one pass folds each of the (p - 1)/2 pair images into its coset's
        # product: what stays alive is the m products and the one walker,
        # not a table of images, which would take at least 4 bytes a residue
        p = 100003
        l = cyclotomic._split_prime(4 * p)
        tracemalloc.start()
        try:
            row = cyclotomic._coset_images(p, m, l)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(row) == m
        assert peak < 4096, peak


class TestFloatBound:
    def test_bound_covers_every_conjugate(self):
        # every 2m | p-1, also where 2 is not an m-th power residue and the
        # product is not a unit, so the bound is not met with equality by luck
        for p in odd_primes_up_to(99):
            ring = get_ring(4 * p)
            for m in admissible_m(p):
                b = cyclotomic._log2_bound(p, m)
                for s in (-1, 1):
                    prod = i_product(p, m, s)
                    assert max(map(abs, conjugates(prod))) <= 2 ** b, (p, m, s)
                    for c in (1, -1):
                        for q in range(4):
                            diff = prod - ring.monomial(p * q, c)
                            assert max(map(abs, conjugates(diff))) <= 2 ** b + 1

    def test_unit_products_need_few_bits(self):
        for p, m in certified_pairs(400):
            assert cyclotomic._log2_bound(p, m) <= 2, (p, m)

    def test_memory_follows_the_residue_set_not_p(self):
        # |R_2570(1007441)| = 392: the bound sums its cosets factor by factor
        # and builds no table of p entries
        p, m = 1007441, 2570
        assert len(residue_set(p, m).members) == 392
        tracemalloc.start()
        try:
            cyclotomic._log2_bound(p, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20, peak

    def test_no_split_prime_fails_before_the_bound(self, monkeypatch):
        # 4p > 2^62 leaves no split prime below 2^62; the bound would sum
        # about 1.9e16 cosets after factoring p - 1 for the walk's generator,
        # so neither may run first
        def no_cosets(p, m):
            raise AssertionError("coset work before the split primes")
        monkeypatch.setattr(cyclotomic, "_log2_bound", no_cosets)
        monkeypatch.setattr(cyclotomic, "_subgroup_generator", no_cosets)
        ctx = PrimeContext(2 ** 61 - 1)
        for check in ("gi", "gi_plus", "thm_main_exact"):
            rec = run_check(ctx, 18900352534538475, 1, check, 1e-6)
            assert rec.status == (
                "error(ArithmeticError: split primes 1 mod "
                f"{4 * ctx.p} ran out)"), rec.status

    def test_each_certificate_draws_one_prime(self, monkeypatch):
        # Z = sign(2): P_+ = i^half * Z is claimed to be sign(2) * i^half
        first = cyclotomic._split_prime
        draws = count_draws(monkeypatch)
        for p, m in certified_pairs(1100):
            want = symbol_sign(2, p, m).value
            cyclotomic._unit_sign.cache_clear()
            draws.clear()
            assert cyclotomic._unit_sign(p, m) == want, (p, m)
            # the sign is read at the first prime and certified there
            assert draws == [first(4 * p)], (p, m, draws)


class TestFailurePath:
    def test_failure_records_match_dense_ring(self, monkeypatch):
        cases = [(fn, p, m, a) for p, m in certified_pairs(200)
                 for a in (1, p - 1) for fn in EXACT_CHECKS]
        flip_symbol(monkeypatch)
        for fn, p, m, a in cases:
            got = fn(p, m, a)
            assert fields(got) == dense_fields(fn, p, m, a), (fn.__name__, p, m, a)
            assert got.status == "fail"

    def test_flipped_symbol_above_dense_bound_fails_with_true_unit(self, monkeypatch):
        ctx = PrimeContext(5009)
        checks = ("gi", "gi_plus", "thm_main_exact")
        good = {c: run_check(ctx, 1, 1, c, 1e-6) for c in checks}
        assert all(rec.status == "pass" for rec in good.values())
        flip_symbol(monkeypatch)
        for check in checks:
            rec = run_check(ctx, 1, 1, check, 1e-6)
            assert rec.status == "fail", (check, rec.status)
            assert rec.expected != rec.actual
        # gi and gi_plus: actual is the true unit, which passing records show
        for check in ("gi", "gi_plus"):
            assert run_check(ctx, 1, 1, check, 1e-6).actual == good[check].actual
        # thm_main_exact: actual is (i-1)^|R|, expected the flipped scalar
        # times the true product, which is -(i-1)^|R|
        rec = run_check(ctx, 1, 1, "thm_main_exact", 1e-6)
        assert rec.actual == good["thm_main_exact"].actual
        assert rec.expected == cyclotomic._render_i_power(5009, 2504, -(-2) ** 2504)

    def test_no_unit_fails_with_marker(self, monkeypatch):
        # a product no unit certifies is shown as not a power of i at any p;
        # no ring is built, so p = 5009 (n = 20036) fails like p = 31
        monkeypatch.setattr(cyclotomic, "_unit_sign", lambda p, m: None)
        for p, m in [(31, 3), (5009, 1)]:
            ctx = PrimeContext(p)
            for check in ("gi", "gi_plus", "thm_main_exact"):
                rec = run_check(ctx, m, 1, check, 1e-6)
                shown = rec.expected if check == "thm_main_exact" else rec.actual
                assert (rec.status, shown) == ("fail", cyclotomic.NOT_A_UNIT), \
                    (check, p, rec.status)


@pytest.fixture
def fresh_certificates():
    """Clear the certificate cache around a test that patches what the
    certificates read, so no verdict reached under the patch outlives it."""
    cyclotomic._unit_sign.cache_clear()
    yield
    cyclotomic._unit_sign.cache_clear()


def skew_second_coset(row, l):
    """row with the second coset's image times 2, a non-unit: no element of
    Z[zeta_p] has these images, so the row is no longer all one sign."""
    return row[:1] + (row[1] * 2 % l,) + row[2:]


class TestUnitSign:
    def test_picker_certifies_what_it_picks(self, monkeypatch, fresh_certificates):
        pairs = certified_pairs(200)
        for p, m in pairs:
            assert cyclotomic._unit_sign(p, m) == symbol_sign(2, p, m).value
            for fn in EXACT_CHECKS:
                assert fn(p, m, 1).status == "pass", (fn.__name__, p, m)

        # the second coset's image times 2: Z no longer is +-1, but its
        # first image, which picks the sign, still says it is
        real = cyclotomic._coset_images

        def skewed(p, m, l):
            return skew_second_coset(real(p, m, l), l)
        cyclotomic._unit_sign.cache_clear()
        monkeypatch.setattr(cyclotomic, "_coset_images", skewed)
        for p, m in pairs:
            if m == 1:
                continue   # a single coset: there is no second one to skew
            assert cyclotomic._unit_sign(p, m) is None, (p, m)
            for fn in EXACT_CHECKS:
                rec = fn(p, m, 1)
                shown = rec.expected if fn is verify_tan_cross else rec.actual
                assert (rec.status, shown) == ("fail", cyclotomic.NOT_A_UNIT), \
                    (fn.__name__, p, m)

    def test_certificate_over_many_primes(self, monkeypatch, fresh_certificates):
        # a bound of 2^130 + 1 needs the least primes 1 mod 124 until their
        # product passes it; every one of them is checked, not only the first
        monkeypatch.setattr(cyclotomic, "_log2_bound", lambda p, m: 130)
        draws = count_draws(monkeypatch)
        assert cyclotomic._unit_sign(31, 3) == 1
        assert len(set(draws)) == len(draws) > 1
        assert draws == least_split_primes(124, len(draws))
        assert math.prod(draws[:-1]) <= 2 ** 130 + 1 < math.prod(draws)
        # Z = 1 gives gi's exponent 3 and gi_plus's 1 (half = 5)
        assert verify_gi(31, 3).actual == cyclotomic._render_i_power(31, 3, 1)
        assert verify_gi_plus(31, 3).actual == cyclotomic._render_i_power(31, 1, 1)

        # one coset's image at the second prime times 2: only that prime
        # sees it, and it decides Z for both signs at once
        second = draws[1]
        real = cyclotomic._coset_images

        def skewed(p, m, l):
            row = real(p, m, l)
            return skew_second_coset(row, l) if l == second else row
        cyclotomic._unit_sign.cache_clear()
        monkeypatch.setattr(cyclotomic, "_coset_images", skewed)
        assert cyclotomic._unit_sign(31, 3) is None
        for fn in EXACT_CHECKS:
            rec = fn(31, 3, 1)
            shown = rec.expected if fn is verify_tan_cross else rec.actual
            assert (rec.status, shown) == ("fail", cyclotomic.NOT_A_UNIT), \
                fn.__name__

    def test_rejection_sums_no_bound(self, monkeypatch, fresh_certificates):
        # a first row that is not all one sign proves Z != +-1 by itself, so
        # every pair with p < 200 and 2 outside R_m(p) is rejected with the
        # float bound out of reach
        def no_bound(p, m):
            raise AssertionError(f"bound summed for ({p}, {m})")
        monkeypatch.setattr(cyclotomic, "_log2_bound", no_bound)
        certified = set(certified_pairs(200))
        rejected = [(p, m) for p in odd_primes_up_to(199)
                    for m in admissible_m(p) if (p, m) not in certified]
        assert len(rejected) == 155
        for p, m in rejected:
            assert cyclotomic._unit_sign(p, m) is None, (p, m)

    def test_rows_of_one_sign_certify_only_past_the_bound(self, monkeypatch,
                                                          fresh_certificates):
        # every row all -1: only the bound ends the prime loop, so the
        # least primes 1 mod 124 are drawn until their product passes
        # 2^130 + 1, and a first row alone certifies nothing
        monkeypatch.setattr(cyclotomic, "_coset_images",
                            lambda p, m, l: (l - 1,) * m)
        monkeypatch.setattr(cyclotomic, "_log2_bound", lambda p, m: 130)
        draws = count_draws(monkeypatch)
        assert cyclotomic._unit_sign(31, 3) == -1
        bound = 2 ** 130 + 1
        assert len(draws) > 1 and draws == least_split_primes(124, len(draws))
        assert math.prod(draws[:-1]) <= bound < math.prod(draws)

    @pytest.mark.parametrize("p, l, eta", [(3, 109, 63), (5, 241, 87),
                                            (7, 673, 229), (11, 1013, 122)])
    def test_split_prime_where_2_is_a_pth_power(self, p, l, eta, monkeypatch,
                                                fresh_certificates):
        # 2^((l-1)/p) = 1 mod l: the root of order p is a power of a larger
        # base, and the certificate drawn at l is the one drawn at the least
        # split prime
        assert l % (4 * p) == 1 and pow(2, (l - 1) // p, l) == 1
        assert cyclotomic._root_of_order(p, l) == eta
        assert eta != 1 and pow(eta, p, l) == 1
        want = cyclotomic._unit_sign(p, 1)
        real = cyclotomic._split_prime
        cyclotomic._unit_sign.cache_clear()
        monkeypatch.setattr(cyclotomic, "_split_prime",
                            lambda n, above=None: l if above is None
                            else real(n, above))
        assert want is not None and cyclotomic._unit_sign(p, 1) == want

    def test_cached_sign_is_one_immutable_value(self, fresh_certificates):
        # every record at (p, m) reads the one cached value, an int or None,
        # which no caller can change for the records after it.  The checks
        # key it by their PrimeContext, as here
        ctx = PrimeContext(31)
        sign = cyclotomic._unit_sign(ctx, 3)
        assert sign == 1
        hits = cyclotomic._unit_sign.cache_info().hits
        assert cyclotomic._unit_sign(ctx, 3) is sign
        assert verify_gi(31, 3, 5).status == "pass"
        assert cyclotomic._unit_sign.cache_info().hits == hits + 2


def pair_unit(p, m):
    """Z = prod over the pairs {x, -x} of R_m(p) of (zeta_p^x + zeta_p^-x),
    expanded in the reference ring Z[zeta_4p], where zeta_p = z^4."""
    ring = get_ring(4 * p)
    factors = [(1, 4 * k, 1, 4 * (p - k))
               for k in residue_set(p, m).members if 2 * k < p]
    return binomial_product(ring, factors)


class TestPairIdentity:
    def test_products_are_powers_of_i_times_one_real_unit(self,
                                                          fresh_certificates):
        # every 2m | p - 1 with p < 200, also where 2 is not an m-th power
        # residue: P_+ = i^half * Z and P_- = (-1)^half * P_+ always, and
        # Z = +-1 exactly where Theorem 1.2 applies; elsewhere the
        # certificate finds no sign
        certified = set(certified_pairs(200))
        for p in odd_primes_up_to(199):
            ring = get_ring(4 * p)
            for m in admissible_m(p):
                half = (p - 1) // (2 * m)
                z = pair_unit(p, m)
                plus = i_product(p, m, 1)
                assert plus == ring.monomial(p * half) * z, (p, m)
                assert i_product(p, m, -1) == plus * (-1) ** half, (p, m)
                signs = [c for c in (1, -1) if z == c]
                sign = cyclotomic._unit_sign(p, m)
                if (p, m) in certified:
                    assert signs == [sign] == [symbol_sign(2, p, m).value], \
                        (p, m)
                else:
                    assert signs == [] and sign is None, (p, m)
        # 155 of the 218 pairs have 2 outside R_m(p) and Z != +-1
        assert (len(certified), sum(len(admissible_m(p))
                                    for p in odd_primes_up_to(199))) == (63, 218)


class TestLargeIntegers:
    def test_render_beyond_int_str_limit(self):
        # (-2)^15005 has 4518 digits, past str()'s default limit of 4300
        c = (-2) ** 15005
        digits = str(decimal.Decimal(c))
        for q in range(4):
            sign = -1 if q >= 2 else 1
            want = str(decimal.Decimal(sign * c)) + f"*z^{30011 * (q % 2)}"
            assert cyclotomic._render_i_power(30011, q, c) == want
        assert len(digits) == 4518

    def test_int_str_matches_decimal(self):
        rng = random.Random(5)
        values = [0, 1, -1, 10 ** 500 - 1, 10 ** 500, -10 ** 500, 10 ** 1000,
                  2 ** 20000, -(3 ** 12000) + 1]
        values += [rng.randrange(-10 ** 3000, 10 ** 3000) for _ in range(20)]
        for c in values:
            assert int_str(c) == str(decimal.Decimal(c))
