"""Integer and modular arithmetic primitives used by every other module."""

from __future__ import annotations

from collections import namedtuple

# Deterministic Miller-Rabin witness set: the first 13 primes.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# (psi_k, k): psi_k is the least strong pseudoprime to all of the first k
# prime bases (OEIS A014233; Jaeschke 1993; Sorenson and Webster 2015), so an
# odd n < psi_k that passes those k bases is prime.  Where psi_k equals
# psi_(k+1) the smaller k is kept.
_MR_PREFIXES = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),           # = psi_8
    (3825123056546413051, 9),       # = psi_10 = psi_11
    (318665857834031151167461, 12),
    (3317044064679887385961981, 13),
)
_MR_BOUND = _MR_PREFIXES[-1][0]


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 3317044064679887385961981 (~3.3e24).

    After trial division by the 13 witnesses, n is tested to the first k
    prime bases only, for the least k with n < psi_k (_MR_PREFIXES): by the
    definition of psi_k, no composite below it passes those k bases, so the
    remaining bases could not reject n.  Below 2047 that is base 2 alone.
    Raises ValueError for n >= psi_13, where the witness set proves nothing.
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
    k = next(k for psi, k in _MR_PREFIXES if n < psi)
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES[:k]:
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


def divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1 in increasing order."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


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
