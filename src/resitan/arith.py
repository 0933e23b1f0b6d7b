"""Integer and modular arithmetic primitives used by every other module."""

from __future__ import annotations

from collections import namedtuple
from itertools import compress
from math import isqrt

# Deterministic Miller-Rabin witness set: the first 13 primes.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# psi_13, the least strong pseudoprime to all 13 witnesses (Sorenson and
# Webster 2015): an odd n below it that passes them all is prime.
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 3317044064679887385961981 (~3.3e24).

    One rule: after trial division by the 13 witnesses, n is prime iff it
    is a strong probable prime to every one of them, since no composite
    below psi_13 = _MR_BOUND passes all 13.  Raises ValueError for
    n >= psi_13, where the witness set proves nothing.
    """
    if n >= _MR_BOUND:
        raise ValueError(f"{n} is beyond the proven primality range (< {_MR_BOUND})")
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_between(lo: int, hi: int) -> list[int]:
    """The primes of [lo, hi], ascending, by one sieve of that window.

    The window is sieved by the primes up to min(isqrt(hi), hi - lo + 1),
    so its memory is O(hi - lo).  When that base reaches isqrt(hi), every
    survivor is prime and is_prime is never called; when it stops short (a
    short window of large numbers), each survivor is proven by is_prime.
    """
    lo = max(lo, 2)
    if hi < lo:
        return []
    size = hi - lo + 1
    root = isqrt(hi)
    top = min(root, size)
    base = bytearray([1]) * (top + 1)
    window = bytearray([1]) * size
    for q in range(2, top + 1):
        if base[q]:
            base[q * q::q] = bytes(len(range(q * q, top + 1, q)))
            # q's multiples in the window from q*q on: below that, a
            # multiple of q also has a prime factor smaller than q, or is q
            first = max(q * q, -(-lo // q) * q) - lo
            window[first::q] = bytes(len(range(first, size, q)))
    primes = list(compress(range(lo, hi + 1), window))
    return primes if top == root else [n for n in primes if is_prime(n)]


class Validated:
    """Mixin, before the namedtuple base, of the validated types: every way
    of building one passes through its own __new__.  _make (so _replace)
    calls the constructor, and copy and unpickling call it on the fields."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return (type(self), tuple(self))


class PrimeContext(Validated, namedtuple("PrimeContext", "p p_minus_1",
                                         defaults=(0,))):
    """A verified odd prime p together with p - 1, the order of its unit group.

    A frozen tuple (p, p - 1).  Its __new__ validates p and sets p_minus_1
    from it, on every construction path (Validated).
    """

    __slots__ = ()
    p: int
    p_minus_1: int

    def __new__(cls, p, p_minus_1=0):
        if p < 3 or not is_prime(p):
            raise ValueError(f"{p} is not an odd prime")
        return tuple.__new__(cls, (p, p - 1))


def as_prime(p: int | PrimeContext) -> PrimeContext:
    """Coerce an integer to a PrimeContext, validating primality."""
    return p if isinstance(p, PrimeContext) else PrimeContext(p)


def prime_factors(n: int) -> dict[int, int]:
    """The factorization {q: e} of n >= 1 by trial division, q increasing."""
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = 1
    return factors


def divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1 in increasing order."""
    out = [1]
    for q, e in prime_factors(n).items():
        out += [d * q ** k for k in range(1, e + 1) for d in out]
    return sorted(out)


def mod_pow(b: int, e: int, p: int) -> int:
    """b**e mod p, with b reduced into [0, p) first."""
    if p < 2:
        raise ValueError("modulus must be at least 2")
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    return pow(b % p, e, p)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n; the Legendre symbol for prime n."""
    if n < 1 or n % 2 == 0:
        raise ValueError("n must be odd and positive")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def sqrt_mod(a: int, p: int | PrimeContext) -> int | None:
    """Smaller square root of a modulo an odd prime, or None for a non-residue.

    Tonelli-Shanks; for p = 3 (mod 4), s = 1 and the root is a^((p+1)/4)
    with no descent step.  For a != 0 the returned root r satisfies 0 < r <= (p-1)/2.
    """
    ctx = as_prime(p)
    q = ctx.p
    a %= q
    if a == 0:
        return 0
    if pow(a, (q - 1) // 2, q) != 1:
        return None
    # write q - 1 = d * 2^s with d odd
    d, s = q - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    z = 2
    while pow(z, (q - 1) // 2, q) != q - 1:
        z += 1
    c = pow(z, d, q)
    r = pow(a, (d + 1) // 2, q)
    t = pow(a, d, q)
    m = s
    while t != 1:
        i, u = 0, t
        while u != 1:
            u = u * u % q
            i += 1
        b = pow(c, 1 << (m - i - 1), q)
        r = r * b % q
        c = b * b % q
        t = t * c % q
        m = i
    return min(r, q - r)
