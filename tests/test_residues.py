import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import admissible_m, odd_primes_up_to
from resitan import (HypothesisViolation, NonRealSymbol, is_mth_residue,
                     jacobi, residue_set, residue_sum_check, symbol_sign,
                     tan_product, verify_gi, verify_gi_plus, verify_tan_cross,
                     verify_theorem_main_numeric)
from resitan import residues
from resitan.arith import PrimeContext
from resitan.residues import (coset_name, require_unit, verify_residue_sum,
                              walk)


class TestIsMthResidue:
    def test_examples(self):
        assert is_mth_residue(2, 31, 3)      # 2^10 = 1024 = 1 (mod 31)
        assert is_mth_residue(1, 31, 3)
        assert not is_mth_residue(2, 13, 3)  # 2^4 = 16 = 3 (mod 13)

    def test_rejects_k_divisible_by_p(self):
        with pytest.raises(HypothesisViolation):
            is_mth_residue(26, 13, 3)

    def test_rejects_wrong_congruence(self):
        with pytest.raises(HypothesisViolation):
            is_mth_residue(2, 7, 5)  # 5 does not divide 6

    def test_matches_definition_by_enumeration(self):
        # every m <= 12 that divides p - 1, not only those with 2m | p - 1
        for p in odd_primes_up_to(199):
            for m in range(1, 13):
                if (p - 1) % m:
                    continue
                powers = {pow(k, m, p) for k in range(1, p)}
                for k in range(1, p):
                    assert is_mth_residue(k, p, m) == (k in powers), (p, m, k)


def cosets_of(p, powers):
    """The cosets a*H of the subgroup H = powers of (Z/p)*, as frozensets."""
    cosets, seen = set(), set()
    for a in range(1, p):
        if a not in seen:
            coset = frozenset(a * h % p for h in powers)
            cosets.add(coset)
            seen |= coset
    return cosets


class TestCosetName:
    def test_names_are_the_cosets_of_the_kth_powers(self):
        # a and b share a name iff a*b^-1 is a k-th power, that is iff they
        # lie in one coset of the k-th powers; k need not divide p - 1
        for p in odd_primes_up_to(199):
            ctx = PrimeContext(p)
            for k in range(1, 13):
                powers = {pow(x, k, p) for x in range(1, p)}
                classes = {}
                for a in range(1, p):
                    classes.setdefault(coset_name(ctx, k, a), set()).add(a)
                assert {frozenset(c) for c in classes.values()} == \
                    cosets_of(p, powers), (p, k)
                assert classes[1] == powers, (p, k)


class TestRequireUnit:
    @pytest.mark.parametrize("a", [0, 13, -13])
    def test_message(self, a):
        with pytest.raises(ValueError) as info:
            require_unit(PrimeContext(13), a)
        assert type(info.value) is ValueError
        assert str(info.value) == f"a={a} is divisible by p=13"


@pytest.mark.parametrize("m", [0, -2])
@pytest.mark.parametrize("check", [
    lambda m: verify_gi(13, m, 1), lambda m: verify_gi_plus(13, m, 1),
    lambda m: verify_tan_cross(13, m, 1),
    lambda m: verify_theorem_main_numeric(13, m, 1),
    lambda m: tan_product(13, m, 1), lambda m: symbol_sign(2, 13, m),
    lambda m: verify_residue_sum(13, m)],
    ids=["gi", "gi_plus", "tan_cross", "main_numeric", "tan_product",
         "symbol_sign", "residue_sum"])
def test_nonpositive_m_is_rejected_not_skipped(check, m):
    # 2m | p - 1 holds for m = 0 and every p; m <= 0 is no index at all
    with pytest.raises(ValueError, match="^m must be positive$") as info:
        check(m)
    assert type(info.value) is ValueError


class TestResidueSet:
    def test_examples(self):
        assert residue_set(13, 3).members == (1, 5, 8, 12)
        assert residue_set(7, 1).members == (1, 2, 3, 4, 5, 6)
        rs = residue_set(31, 3)
        assert sum(rs.members) == 155  # 31 * 30 / 6
        # brute-force oracle for the membership list
        assert rs.members == tuple(sorted({pow(k, 3, 31) for k in range(1, 31)}))

    def test_rejects_wrong_congruence(self):
        with pytest.raises(HypothesisViolation):
            residue_set(13, 5)

    def test_needs_only_m_dividing_p_minus_1(self):
        # 2m = 8 does not divide 12, but R_4(13) is the subgroup of order 3
        assert residue_set(13, 4).members == (1, 3, 9)
        assert residue_set(13, 12).members == (1,)
        with pytest.raises(ValueError):
            residue_set(13, 0)

    def test_agrees_with_exponent_test(self):
        # the generator fast path must match the defining exponent test
        rng = random.Random(11)
        for p in rng.sample(odd_primes_up_to(5000), 40):
            for m in admissible_m(p):
                e = (p - 1) // m
                ref = tuple(k for k in range(1, p) if pow(k, e, p) == 1)
                assert residue_set(p, m).members == ref

    # p - 1 = 2 * 1000003 * 1000121, and p - 1 = 2 * (a prime near 1e17):
    # large prime factors of p - 1 must not slow the generator search down
    @pytest.mark.parametrize("p", [2000248000727, 200000000000000363])
    def test_two_member_subgroup_of_large_p(self, p):
        assert residue_set(p, (p - 1) // 2).members == (1, p - 1)

    def test_subgroup_invariants(self):
        rng = random.Random(3)
        for p in [13, 31, 61, 113, 199]:
            for m in admissible_m(p):
                members = residue_set(p, m).members
                mset = set(members)
                assert len(members) == (p - 1) // m
                assert 1 in mset
                assert p - 1 in mset  # (-1)^((p-1)/m) = 1
                for k in members:
                    assert (p - k) in mset
                for _ in range(20):
                    u, v = rng.choice(members), rng.choice(members)
                    assert u * v % p in mset


def dividing_m(p):
    """Every m with m | p - 1."""
    return [m for m in range(1, p) if (p - 1) % m == 0]


@st.composite
def prime_and_divisor(draw):
    """An odd prime p < 2000 and an m with m | p - 1."""
    p = draw(st.sampled_from(odd_primes_up_to(1999)))
    return p, draw(st.sampled_from(dividing_m(p)))


def assert_is_a_walk(w, p, m):
    """w is h^0, h^1, ... for h = w[1], of order (p-1)/m: distinct, from 1."""
    size = (p - 1) // m
    assert len(w) == len(set(w)) == size
    assert w[0] == 1
    assert all(w[i + 1] == w[i] * w[1 % size] % p for i in range(size - 1))
    assert w[-1] * w[1 % size] % p == 1


class TestWalk:
    @pytest.fixture(autouse=True)
    def fresh_walks(self):
        residues._walks.cache_clear()
        yield
        residues._walks.cache_clear()

    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(prime_and_divisor())
    def test_direct_walk_and_slice_of_the_full_walk(self, pm):
        p, m = pm
        residues._walks.cache_clear()
        direct = walk(p, m)
        full = walk(p, 1)
        residues._walks.cache_clear()
        assert walk(p, 1) == full
        sliced = walk(p, m)
        assert sliced == full[::m]
        powers = {pow(k, m, p) for k in range(1, p)}
        for w in (direct, sliced):
            assert set(w) == powers
            assert_is_a_walk(w, p, m)
            if (p - 1) % (2 * m) == 0:
                # -1 = h^(|R|/2): the second half is the first negated
                half = len(w) // 2
                assert all(w[i + half] == p - w[i] for i in range(half))
        assert residue_set(p, m).members == tuple(sorted(powers))

    def test_direct_and_sliced_walks_may_differ_in_order(self):
        # R_2(7) = {1, 2, 4}: walked directly from its least generator 4,
        # and as every second power of the primitive root 3
        assert walk(7, 2) == (1, 4, 2)
        residues._walks.cache_clear()
        assert walk(7, 1) == (1, 3, 2, 6, 4, 5)
        assert walk(7, 2) == (1, 2, 4)

    def test_generator_is_the_least_c_to_the_m_of_full_order(self):
        # h = c^m for the least c >= 2 whose m-th power has order (p-1)/m,
        # the order found by stepping through the powers of h
        def order(h, p):
            k, x = 1, h
            while x != 1:
                k, x = k + 1, x * h % p
            return k

        for p in odd_primes_up_to(1999):
            for m in dividing_m(p):
                c = next(c for c in range(2, p)
                         if order(pow(c, m, p), p) == (p - 1) // m)
                assert residues._subgroup_generator(p, m) == pow(c, m, p), (p, m)

    def test_a_small_subgroup_is_walked_without_the_full_walk(self):
        p = 1007441
        assert len(walk(p, 2570)) == 392
        assert set(residues._walks(p)) == {2570}

    def test_rejects_m_not_dividing_p_minus_1(self):
        with pytest.raises(HypothesisViolation, match="not 1 mod m=5"):
            walk(13, 5)
        with pytest.raises(ValueError):
            walk(13, -1)


class TestResidueSumCheck:
    def test_examples(self):
        assert residue_sum_check(31, 3)
        assert residue_sum_check(13, 3)  # 1+5+8+12 = 26 = 13*12/6
        assert residue_sum_check(5, 1)   # 1+2+3+4 = 10

    def test_even_index_is_a_hypothesis_of_the_sum(self):
        # R_4(13) sums to 13, not to p(p-1)/(2m) = 19.5: the lemma needs
        # 2m | p - 1, and says so with the exact checks' reason
        with pytest.raises(HypothesisViolation,
                           match=r"^2m=8 does not divide p-1=12$"):
            verify_residue_sum(13, 4)

    def test_record(self):
        rec = verify_residue_sum(13, 3)
        assert (rec.p, rec.m, rec.a, rec.check) == (13, 3, 0, "lemma21")
        assert (rec.status, rec.expected, rec.actual) == ("pass", "26", "26")


class TestSymbolSign:
    def test_examples(self):
        assert symbol_sign(-2, 31, 3).value == -1  # (-2)^5 = -32 = -1 (mod 31)
        assert symbol_sign(2, 31, 3).value == 1    # 2^5 = 32 = 1 (mod 31)
        assert symbol_sign(-2, 113, 4).value == -1  # (-2)^14 = -1 (mod 113)

    def test_fields(self):
        sym = symbol_sign(-2, 31, 3)
        assert (sym.a, sym.p, sym.order) == (-2, 31, 6)

    def test_non_real_symbol(self):
        # 2^3 = 8 (mod 13) is neither 1 nor 12
        assert pow(2, 3, 13) == 8
        with pytest.raises(NonRealSymbol):
            symbol_sign(2, 13, 2)

    def test_rejects_a_divisible_by_p(self):
        with pytest.raises(ValueError):
            symbol_sign(31, 31, 3)

    def test_power_identity_case_split(self):
        # symbol(-2)^m equals jacobi(-2, p): equality for odd m, and
        # jacobi(-2, p) = +1 whenever the symbol exists for even m
        for p in odd_primes_up_to(500):
            for m in admissible_m(p):
                try:
                    s = symbol_sign(-2, p, m).value
                except NonRealSymbol:
                    continue
                if m % 2 == 1:
                    assert s == jacobi(-2, p), (p, m)
                else:
                    assert jacobi(-2, p) == 1, (p, m)

    def test_invariant_under_2m_th_powers(self):
        rng = random.Random(17)
        for p, m in [(31, 3), (113, 4), (151, 5), (41, 1)]:
            base = symbol_sign(-2, p, m).value
            for _ in range(25):
                b = rng.randrange(1, p)
                a = -2 * pow(b, 2 * m, p)
                assert symbol_sign(a, p, m).value == base
