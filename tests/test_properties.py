"""Property tests: the number-theory primitives against brute force on odd
primes below 2000.

Each brute-force oracle enumerates (Z/p)* directly, with no exponent
criterion or descent, so it shares no code path with the function it checks.
The examples are derandomized, so every run draws the same inputs.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import admissible_m, odd_primes_up_to
from resitan import (NonRealSymbol, cornacchia, jacobi, residue_set, sqrt_mod,
                     symbol_sign)

PRIMES = odd_primes_up_to(1999)
PROPERTY = settings(deadline=None, max_examples=150, derandomize=True)

primes = st.sampled_from(PRIMES)


@st.composite
def prime_and_index(draw):
    """An odd prime p < 2000 and an m with 2m | p - 1."""
    p = draw(primes)
    return p, draw(st.sampled_from(admissible_m(p)))


def powers(p, e):
    """{k^e mod p : 1 <= k < p}."""
    return {pow(k, e, p) for k in range(1, p)}


def squares(p):
    return {k * k % p for k in range(1, p)}


@PROPERTY
@given(prime_and_index())
def test_residue_set_is_the_set_of_mth_powers(pm):
    p, m = pm
    assert residue_set(p, m).members == tuple(sorted(powers(p, m)))


@PROPERTY
@given(prime_and_index(), st.integers(min_value=1, max_value=10 ** 6))
def test_symbol_sign_is_membership_in_the_2m_th_powers(pm, a):
    # -1 lies in R_m when 2m | p - 1, so a^((p-1)/(2m)) is +-1 exactly for
    # a in R_m, and +1 exactly for a in R_2m
    p, m = pm
    if a % p == 0:
        with pytest.raises(ValueError):
            symbol_sign(a, p, m)
    elif a % p not in powers(p, m):
        with pytest.raises(NonRealSymbol):
            symbol_sign(a, p, m)
    else:
        want = 1 if a % p in powers(p, 2 * m) else -1
        assert symbol_sign(a, p, m).value == want


@PROPERTY
@given(primes, st.integers(min_value=-10 ** 6, max_value=10 ** 6))
def test_jacobi_of_a_prime_is_the_legendre_symbol(p, a):
    if a % p == 0:
        want = 0
    else:
        want = 1 if a % p in squares(p) else -1
    assert jacobi(a, p) == want


@PROPERTY
@given(primes, primes, st.integers(min_value=-10 ** 6, max_value=10 ** 6))
def test_jacobi_is_multiplicative_in_the_modulus(p, q, a):
    assert jacobi(a, p * q) == jacobi(a, p) * jacobi(a, q)


@PROPERTY
@given(primes, st.integers(min_value=0, max_value=10 ** 6))
def test_sqrt_mod_is_the_smaller_root(p, a):
    roots = [r for r in range(p) if r * r % p == a % p]
    got = sqrt_mod(a, p)
    if not roots:
        assert got is None
    else:
        assert got == min(roots)
        assert a % p == 0 or 0 < got <= (p - 1) // 2


@PROPERTY
@given(primes, st.integers(min_value=1, max_value=60))
def test_cornacchia_finds_a_representation_iff_one_exists(p, d):
    found = {(x, y) for y in range(1, p) if d * y * y < p
             for x in range(1, math.isqrt(p) + 1) if x * x + d * y * y == p}
    rep = cornacchia(p, d)
    if not found:
        assert rep is None
    else:
        assert rep is not None and (rep.x, rep.y) in found
