import math
import random

import pytest

from conftest import odd_primes_up_to, primes_up_to
from resitan import PrimeContext, arith, is_prime, jacobi, mod_pow, sqrt_mod


def trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class TestIsPrime:
    def test_small_values(self):
        assert is_prime(2)
        assert not is_prime(0)
        assert not is_prime(1)
        assert is_prime(3)

    def test_carmichael_561(self):
        # 561 = 3 * 11 * 17 fools the Fermat test; the oracle is trial division
        assert not trial_division_prime(561)
        assert not is_prime(561)

    def test_strong_pseudoprimes(self):
        # smallest strong pseudoprime to bases 2,3,5,7 together
        assert not is_prime(3215031751)
        # smallest strong pseudoprime to the first nine prime bases
        assert not is_prime(3825123056546413051)
        # psi_12: smallest strong pseudoprime to the first twelve prime bases
        assert not is_prime(318665857834031151167461)

    # psi_k, the least strong pseudoprime to the first k prime bases
    # (OEIS A014233), with its factors; psi_7 = psi_8 and psi_9 = psi_11
    PSI = {1: (23, 89), 2: (829, 1657), 3: (2251, 11251),
           4: (151, 751, 28351), 5: (6763, 10627, 29947),
           6: (1303, 16927, 157543), 7: (10670053, 32010157),
           8: (10670053, 32010157), 9: (149491, 747451, 34233211),
           10: (149491, 747451, 34233211), 11: (149491, 747451, 34233211),
           12: (399165290221, 798330580441),
           13: (1287836182261, 2575672364521)}
    BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

    @staticmethod
    def strong_probable_prime(n, a):
        d, r = n - 1, 0
        while d % 2 == 0:
            d, r = d // 2, r + 1
        x = pow(a, d, n)
        return x in (1, n - 1) or any(pow(x, 2 ** i, n) == n - 1
                                      for i in range(1, r))

    def test_each_witness_prefix_stops_short_of_its_psi(self):
        # psi_k is composite yet passes its first k bases: from psi_k up,
        # k bases prove nothing, so is_prime tests all 13 below psi_13
        for k, factors in self.PSI.items():
            psi = math.prod(factors)
            assert all(self.strong_probable_prime(psi, a)
                       for a in self.BASES[:k]), k
            if k < 13:
                assert not is_prime(psi), k
        assert arith._MR_WITNESSES == self.BASES
        assert arith._MR_BOUND == math.prod(self.PSI[13])
        with pytest.raises(ValueError, match="beyond the proven"):
            is_prime(math.prod(self.PSI[13]))

    def test_64_bit_boundary(self):
        assert is_prime(2 ** 64 - 59)
        assert not is_prime(2 ** 64 - 1)

    def test_agrees_with_trial_division_to_1e6(self):
        limit = 10 ** 6
        sieve = bytearray([1]) * (limit + 1)
        sieve[0] = sieve[1] = 0
        for p in range(2, 1001):
            if sieve[p]:
                sieve[p * p::p] = b"\x00" * len(sieve[p * p::p])
        for n in range(limit + 1):
            assert is_prime(n) == bool(sieve[n]), n


class TestPrimeFactors:
    def test_multiplies_back_with_prime_keys(self):
        for n in range(1, 20001):
            factors = arith.prime_factors(n)
            assert math.prod(q ** e for q, e in factors.items()) == n, n
            assert list(factors) == sorted(factors), n
            assert all(trial_division_prime(q) and e > 0
                       for q, e in factors.items()), n

    def test_divisors_are_the_brute_force_list(self):
        for n in range(1, 3001):
            assert arith.divisors(n) == [d for d in range(1, n + 1)
                                         if n % d == 0], n

    def test_p_minus_1_at_the_mersenne_prime_2_61_minus_1(self):
        assert arith.prime_factors(2 ** 61 - 2) == {
            2: 1, 3: 2, 5: 2, 7: 1, 11: 1, 13: 1, 31: 1, 41: 1, 61: 1,
            151: 1, 331: 1, 1321: 1}


class TestPrimeContext:
    def test_fields(self):
        ctx = PrimeContext(31)
        assert ctx.p == 31 and ctx.p_minus_1 == 30

    # psi_13 is the first value outside the proven Miller-Rabin range
    @pytest.mark.parametrize("bad", [0, 1, 2, 4, 9, 561,
                                     3317044064679887385961981])
    def test_rejects_nonprimes_and_two(self, bad):
        with pytest.raises(ValueError):
            PrimeContext(bad)


class TestModPow:
    def test_examples(self):
        assert mod_pow(2, 5, 31) == 1
        assert mod_pow(7, 0, 13) == 1
        assert mod_pow(-2, 14, 113) == 112  # 16384 mod 113

    def test_negative_base_reduced_first(self):
        assert mod_pow(-1, 1, 7) == 6

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            mod_pow(2, 3, 1)
        with pytest.raises(ValueError):
            mod_pow(2, -1, 7)

    def test_exponent_additivity(self):
        rng = random.Random(2024)
        for _ in range(300):
            p = rng.choice([5, 13, 97, 101, 65537])
            b = rng.randrange(-50, 50)
            e1, e2 = rng.randrange(0, 60), rng.randrange(0, 60)
            assert mod_pow(b, e1 + e2, p) == mod_pow(b, e1, p) * mod_pow(b, e2, p) % p


class TestJacobi:
    def test_examples(self):
        assert jacobi(-2, 31) == -1  # (-1/31) = -1 and (2/31) = +1
        assert jacobi(1, 9) == 1
        assert jacobi(1, 1) == 1
        assert jacobi(2, 3) == -1

    def test_shared_factor_gives_zero(self):
        assert jacobi(15, 9) == 0
        assert jacobi(0, 7) == 0

    def test_rejects_even_modulus(self):
        with pytest.raises(ValueError):
            jacobi(3, 8)

    def test_multiplicative_in_numerator(self):
        rng = random.Random(7)
        for _ in range(400):
            n = rng.randrange(1, 500) * 2 + 1
            a, b = rng.randrange(-100, 100), rng.randrange(-100, 100)
            assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)

    def test_equals_euler_criterion_for_primes(self):
        for p in odd_primes_up_to(200):
            for a in range(1, p):
                euler = pow(a, (p - 1) // 2, p)
                assert jacobi(a, p) == (1 if euler == 1 else -1)


class TestSqrtMod:
    def test_examples(self):
        assert sqrt_mod(4, 31) == 2
        assert sqrt_mod(-27 % 31, 31) == 2  # -27 = 4 (mod 31)
        # oracle: squares mod 7 are {1, 2, 4}
        assert {k * k % 7 for k in range(1, 7)} == {1, 2, 4}
        assert sqrt_mod(3, 7) is None

    def test_zero(self):
        assert sqrt_mod(0, 13) == 0

    def test_consistent_with_jacobi_and_squares_back(self):
        # every a below p < 300, and 40 a at each p = 3 (mod 4) up to 3000,
        # where Tonelli-Shanks has s = 1 and no descent step
        rng = random.Random(3)
        for p in odd_primes_up_to(3000):
            if p < 300:
                az = range(1, p)
            elif p % 4 == 3:
                az = rng.sample(range(1, p), 40)
            else:
                continue
            for a in az:
                r = sqrt_mod(a, p)
                if jacobi(a, p) == 1:
                    assert r is not None and 0 < r < p
                    assert r * r % p == a
                    assert r == min(r, p - r)  # smaller root
                else:
                    assert r is None

    # 786433 = 3 * 2^18 + 1: p - 1 divisible by a large power of two
    # exercises the full descent; the others are 3 (mod 4), with none
    @pytest.mark.parametrize("p", [786433, 2 ** 31 - 1, 2 ** 61 - 1, 1000003])
    def test_large_prime(self, p):
        assert is_prime(p)
        rng = random.Random(5)
        hits = 0
        for _ in range(200):
            a = rng.randrange(1, p)
            r = sqrt_mod(a, p)
            if r is not None:
                assert r * r % p == a and 0 < r <= (p - 1) // 2
                hits += 1
            else:
                assert jacobi(a, p) == -1
        assert hits > 50


def test_primes_match_module_sieve():
    # keep the test helper itself honest
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
