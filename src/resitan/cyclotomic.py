"""The exact product-identity checks, decided modulo split primes.

The checks work in Z[zeta_n], n = 4p, for an odd prime p: zeta_n^p is a square
root of -1 and zeta_n^(4k) runs through the p-th roots of unity.  Each check
claims lhs = rhs in Z[zeta_n]; write d = lhs - rhs and R = R_m(p).

Pass/fail is decided by a multimodular certificate, not by expanding d:

- Splitting.  A prime l = 1 (mod n) splits completely in Q(zeta_n) into
  phi(n) distinct primes, one for each t in (Z/n)*, and the residue map at
  the t-th prime is zeta_n -> w^t in F_l, where w has exact order n.  So if
  d maps to 0 under all phi(n) maps, d lies in every prime above l, hence in
  their product lZ[zeta_n] (l is unramified).
- Coset reduction.  The image of i + s*zeta_p^(ak) under zeta_n -> w^t is
  I^u + s*w^(4akt) with I = w^p and u = t mod 4 in {1, 3}.  As k runs over R,
  akt runs over the coset of at in (Z/p)*/R, and t mod p runs over all of
  (Z/p)* independently of u.  So the phi(n) images of d are the 2m values
  indexed by u and by a coset of (Z/p)*/R; they do not depend on a.  The
  cosets are named as every layer names them (residues): with g the
  primitive root of residues.walk(p, 1), g^j lies in the coset g^j0 * R iff
  j = j0 (mod m).  So one table of the images of the factors at
  x = g^j, 0 <= j < p - 1, in walk order, holds each coset as the index
  class j0 mod m, and coset j0 = 0 is R itself.
  The product over a coset of -I + s*w^(4x) is the product of I - s*w^(4x),
  because |R| = (p-1)/m is even, so the images at u = 3 for one sign s are
  those at u = 1 for the other: both signs share one table per (p, m, l).
- Norm bound.  If every complex conjugate of d has modulus at most B, and d
  is divisible by L = l_1 * ... * l_r with L > B and d != 0, then
  |N(d)| >= L^phi(n) > B^phi(n) >= |N(d)|, which is impossible.  So d = 0
  once the 2m images vanish modulo split primes whose product passes B.
  Each prime costs p - 1 steps y -> y^g of the table and 2(p - 1)
  multiplications modulo l.

Float bound.  Write the claim as P = c * i^q with P the product over R of
(i + s*zeta_p^k) and c = +-1.  The complex conjugates of P are the products over a
coset cR of (i^u + s*e^(2 pi i x/p)).  Since -1 lies in R (2m divides p-1),
x -> -x maps cR onto itself, and |-i + s*e^(2 pi i x/p)| and
|i - s*e^(2 pi i x/p)| both equal |i + s*e^(-2 pi i x/p)|, so neither u nor s
changes the modulus: there are only m moduli 2^L_c, one per coset.  The
factors of x and -x multiply to |i + z|*|-i + z| = |1 + z^2| with
z = e^(2 pi i x/p), that is 2|cos(2 pi x/p)|, so L_c is the sum over the
pairs {x, p - x} of cR of T[2x], the table of numeric, with
T[r] = log2|2 cos(pi r/p)| = log2(2 sin(pi (p - 2r)/(2p))) and 2x folded
below p/2.  As x runs over one member of each pair of cR, 2x runs over one
of each pair of 2cR, so L_c = H(2c) in numeric's notation, and since
c -> 2c permutes the cosets, max_c L_c = max_c H(c).  The computed log2 of
one pair is within 2 * 2^-40 of the true value for every p < 2^62:
  - pi*(p - 2r)/(2p) carries three roundings (math.pi, the correctly
    rounded quotient of two integers, and *), a relative error of at most
    3u (u = 2^-53), which moves log sin by at most 3u because
    x*cot(x) <= 1 on (0, pi/2];
  - sin and log2 are within one ulp: 2u relative for sin, and
    2^-52 * |log2 f| for log2, where |log2 f| <= log2(p) <= 62 because
    2/p <= f = 2 sin(pi (p - 2r)/(2p)) <= 2;
  - math.fsum is correctly rounded, adding at most 2^-53 * |H|, which is
    at most 2^-53 * log2(p) per pair;
  in all under (8 + 3 * 62)u < 2 * 180u per pair, so under 180u < 2^-45
  per factor, and 2^-40 leaves a factor of 32 for libm error beyond one
  ulp.  So L_c is below the computed sum plus margin = ceil(|R| * 2^-40),
  one bit for any feasible p, and every conjugate of d = P - c * i^q is
  at most
      B = 2^(ceil(max_c H(c)) + margin) + 1.
  For the products of Theorem 1.2 each L_c is 0 up to rounding, so B <= 4 + 1
  and one prime l > 2^61 closes the certificate.  The argument covers
  every p a certificate can take, since split primes l = 1 (mod 4p) below
  2^62 need 4p < 2^62; the first is drawn before the bound is summed, so
  a larger p fails at once.  The sums are numeric.coset_log2's, so the
  exact and numeric checks of a prime evaluate one sin per pair between
  them.

Primes are found on demand: the l = 1 (mod 4p) below 2^62 are walked
downwards, proven by is_prime, and kept per 4p, so a certificate that closes
with one prime searches for no other.

One exponent per product.  Every check is a claim about
P = prod over k in R of (i + s*zeta_p^(ak)): gi and gi_plus claim
P = delta * i^half with delta = sign(2s) and half = |R|/2, and the tangent
identity (i-1)^|R| = scalar * P with s = -1 and scalar = delta * (-2)^half is
the same claim, because (i-1)^2 = -2i and Z[zeta_n] has no zero divisors.
The units c * i^q (c = +-1, q in 0..3) are only the four powers i^e, since
-1 = i^2, and their images I^e in F_l are distinct.  So the image of P at
the first split prime l, under zeta_n -> w (u = 1, the coset of 1), matches
at most one I^e; that e is certified as above, and the check passes iff e
is the claimed exponent (half + 1 - delta) mod 4.  _unit_exponents decides
both signs over the same split primes and is cached per (p, m), so gi,
gi_plus, thm_main_exact, cor11 and cor12 share it for every a.  Split primes
are kept per 4p, and _factor_images' per-factor tables and the float
bound's coset sums for the current p only; the rest is computed once per
(p, m) and prime.

A rejected certificate is a proof, not a doubt: it rejects only when an
image differs modulo a split prime, and equal elements have equal images.
So when the certificate rejects, or no I^e matches, P is no power of i and
the record fails with "not a power of i" in place of the product.  A check
whose product is i^e with e not the claimed exponent fails and renders i^e.
Either way no ring is built and no size limit applies; the dense ring of
ring.py is kept only as the tests' reference.
"""

from __future__ import annotations

import functools
import math
import time
from array import array
from types import MappingProxyType

from .arith import PrimeContext, as_prime, is_prime
from .errors import HypothesisViolation
from .numeric import coset_log2
from .records import VerificationRecord, finish, int_str
from .residues import (_subgroup_generator, is_mth_residue, require_even_index,
                       symbol_sign)


def _product_context(p, m: int, a: int) -> PrimeContext:
    """Validate the hypotheses shared by the exact checks."""
    ctx = as_prime(p)
    if a % ctx.p == 0:
        raise ValueError(f"a={a} is divisible by p={ctx.p}")
    require_even_index(ctx, m)
    if not is_mth_residue(2, ctx, m):
        raise HypothesisViolation(f"2 is not a {m}-th power residue mod {ctx.p}")
    return ctx


# Certificate primes come down from 2^62, so each passes 2^61 and a product
# of two residues stays near two machine words.
_SPLIT_TOP = 1 << 62

# The float bound (module docstring): the computed log2 of one factor is
# within _FACTOR_ERR of the true value.
_FACTOR_ERR = 2.0 ** -40


@functools.lru_cache(maxsize=64)
def _found_split_primes(n: int) -> list[int]:
    """The primes l = 1 (mod n) that _split_primes has found so far."""
    return []


def _split_primes(n: int):
    """Yield the primes l = 1 (mod n) below 2^62, largest first.

    Each is found, and proven by is_prime, the first time a certificate
    reaches it; later certificates for the same n reuse it.
    """
    found = _found_split_primes(n)
    j = 0
    while True:
        if j == len(found):
            candidate = found[-1] - n if found else (_SPLIT_TOP - 2) // n * n + 1
            while candidate > 1 and not is_prime(candidate):
                candidate -= n
            if candidate <= 1:
                raise ArithmeticError(f"split primes 1 mod {n} ran out")
            found.append(candidate)
        yield found[j]
        j += 1


def _root_of_order(n: int, l: int) -> int:
    """An element of exact order n = 4p in F_l, for a prime l = 1 (mod n)."""
    e = (l - 1) // n
    g = 2
    while True:
        w = pow(g, e, l)
        # the order divides 4p; it is 4p unless it divides 2p or 4
        if pow(w, n // 2, l) != 1 and pow(w, 4, l) != 1:
            return w
        g += 1


def _log2_bound(p: int, m: int) -> int:
    """An exponent b >= 0 with |sigma(P)| <= 2^b for every complex conjugate
    sigma(P) of P = prod over k in R_m(p) of (i +- zeta_p^k), either sign.

    The float bound of the module docstring: L_c = H(2c), and c -> 2c
    permutes the cosets, so the largest L_c is the largest H(c) that
    numeric.coset_log2 gives over the cosets g^j0 * R_m(p), j0 < m, plus a
    margin from the per-factor error bound.
    """
    ctx = PrimeContext(p)
    g = _subgroup_generator(p, 1)
    worst = max(coset_log2(ctx, m, pow(g, j0, p))[0] for j0 in range(m))
    margin = math.ceil((p - 1) // m * _FACTOR_ERR)
    return max(0, math.ceil(worst) + margin)


@functools.lru_cache(maxsize=1)
def _factor_images(p: int, l: int) -> tuple[int, array, array]:
    """I, the image of i in F_l, and the images I + eta^x and I - eta^x of
    i +- zeta_p^x at x = g^j for 0 <= j < p - 1, in the order of
    residues.walk(p, 1), the walk of the primitive root g.  eta = w^4 and
    I = w^p, where w has exact order 4p; eta has order p, so each eta^x is
    the last one raised to g.  Every image is below l < 2^62, so the tables
    are packed 64-bit integers."""
    w = _root_of_order(4 * p, l)
    g = _subgroup_generator(p, 1)
    i_l = pow(w, p, l)
    plus = array("q", [0]) * (p - 1)
    minus = array("q", [0]) * (p - 1)
    y = pow(w, 4, l)
    for j in range(p - 1):
        plus[j] = (i_l + y) % l
        minus[j] = (i_l - y) % l
        y = pow(y, g, l)
    return i_l, plus, minus


def _coset_images(p: int, m: int, l: int) -> tuple[int, tuple, tuple]:
    """I and the products over each coset g^j0 * R of R = R_m(p), j0 < m, of
    the images I + eta^x and of I - eta^x in F_l: entry j0 of a row is the
    product of the index class terms[j0::m] of _factor_images' tables, and
    entry 0 is the product over R itself."""
    i_l, plus, minus = _factor_images(p, l)
    rows = []
    for terms in (plus, minus):
        row = []
        for j0 in range(m):
            acc = 1
            for y in terms[j0::m]:
                acc = acc * y % l
            row.append(acc)
        rows.append(tuple(row))
    return i_l, rows[0], rows[1]


@functools.lru_cache(maxsize=4096)
def _unit_exponents(p: int, m: int) -> MappingProxyType[int, int | None]:
    """{s: e} for s = -1 and 1, with prod over k in R_m(p) of (i + s*zeta_p^k)
    = i^e certified, or e = None if that product is no power of i.  Every
    caller shares the cached mapping, so it is read-only.

    The image at the first split prime (coset 1, u = 1) picks the only e;
    then at each prime all 2m images must be I^e (u = 1) and (-I)^e (u = 3),
    until the primes' product passes the float bound B = 2^b + 1.
    """
    primes = _split_primes(4 * p)
    # the first prime comes before the bound, so where there is none (4p >
    # 2^62, as at p = 2^61 - 1) the certificate fails before any coset work
    l = next(primes)
    bound = 2 ** _log2_bound(p, m) + 1
    exponents = {}
    modulus = 1
    while True:
        i_l, plus, minus = _coset_images(p, m, l)
        powers = [pow(i_l, e, l) for e in range(4)]   # I^e, and (-I)^e = I^-e
        for s, row, other in ((-1, minus, plus), (1, plus, minus)):
            if s not in exponents:
                exponents[s] = powers.index(row[0]) if row[0] in powers else None
            e = exponents[s]
            # the image of P at i -> -I is the one of the other sign at i -> I
            if e is not None and (set(row) != {powers[e]}
                                  or set(other) != {powers[-e]}):
                exponents[s] = None
        modulus *= l
        if modulus > bound or all(e is None for e in exponents.values()):
            return MappingProxyType(exponents)
        l = next(primes)


def _render_i_power(p: int, q: int, c: int) -> str:
    """ring.CycloElement.render() of c * i^q in Z[zeta_4p], i = z^p, built
    without the ring.

    z^(2p) = -1 folds i^2 to -1 and i^3 to -z^p, and z^0, z^p are already
    canonical because p < phi(4p) = 2p - 2.
    """
    if q % 4 >= 2:
        c = -c
    return f"{int_str(c)}*z^{p * (q % 2)}"


NOT_A_UNIT = "not a power of i"


def _verify_i_product(p, m: int, a: int, s: int, check: str) -> VerificationRecord:
    """scale * prod over k in R_m(p) of (i + s*zeta_p^(ak)) = scale * sign(2s) *
    i^half with half = (p-1)/(2m); scale is 1, or for thm_main_exact the scalar
    sign(-2) * (-2)^half, which makes the right side (i-1)^|R|.

    thm_main_exact puts the scaled product in expected and (i-1)^|R| in
    actual; gi and gi_plus put the claim in expected and the product in actual.
    """
    t0 = time.perf_counter()
    ctx = _product_context(p, m, a)
    half = ctx.p_minus_1 // (2 * m)
    delta = symbol_sign(2 * s, ctx, m).value
    tangent = check == "thm_main_exact"
    scale = delta * (-2) ** half if tangent else 1
    e = _unit_exponents(ctx.p, m)[s]
    claim = _render_i_power(ctx.p, half, scale * delta)
    product = NOT_A_UNIT if e is None else _render_i_power(ctx.p, e, scale)
    expected, actual = (product, claim) if tangent else (claim, product)
    return finish(ctx.p, m, a, check, e == (half + 1 - delta) % 4,
                  expected, actual, t0)


def verify_gi(p, m: int, a: int = 1) -> VerificationRecord:
    """Exact check: prod over k in R_m(p) of (i - zeta_p^(ak)) equals
    sign(-2) * i^((p-1)/(2m)), in the ring Z[zeta_4p]."""
    return _verify_i_product(p, m, a, -1, "gi")


def verify_gi_plus(p, m: int, a: int = 1) -> VerificationRecord:
    """Exact check of the companion product over (i + zeta_p^(ak)), whose sign
    is the symbol of +2 instead of -2."""
    return _verify_i_product(p, m, a, 1, "gi_plus")


def verify_tan_cross(p, m: int, a: int = 1) -> VerificationRecord:
    """Exact cross-multiplied form of the tangent-product value.

    Checks (i-1)^|R_m(p)| = [sign(-2) * (-2)^((p-1)/(2m))] * prod(i - zeta_p^(ak)),
    which is the tangent identity with the transcendental division cleared.
    When it holds, both sides equal (i-1)^|R| = (-2)^(|R|/2) * i^(|R|/2).
    """
    return _verify_i_product(p, m, a, -1, "thm_main_exact")
