import random

import pytest

from resitan import (BoundExceeded, HypothesisViolation, RingMismatch,
                     binomial_product, cyclotomic_poly, jacobi, symbol_sign,
                     verify_gi, verify_gi_plus, verify_tan_cross)
from resitan.cyclotomic import get_ring


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
        with pytest.raises(BoundExceeded):
            cyclotomic_poly(4 * 5000 + 1)
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
