"""Floating checks of the tangent-product identities in sign/log2-magnitude form.

True product values grow like 2^((p-1)/2), which overflows doubles near
p = 2100, so products are accumulated as a sign and a base-2 logarithm.
Every tangent argument is reduced modulo 1 into (-1/2, 1/2] before the call
to tan.  For the full-residue-system identity the reduction is exact in
plain integers: a finite float x is N/D with D = 2^k (x.as_integer_ratio()),
so (x + r)/n modulo 1 is num/(n*D) with num = (N + r*D) mod n*D.  Python's
int true division rounds correctly, so num / (n*D) is the nearest float to
the exact angle, and a zero of 1 + tan(pi*t) is recognized as
4*num == 3*n*D instead of drowning in rounding noise.

The products over power residues of a prime q all go through tan_product:
verify_theorem_main_numeric (and so the corollary cor11) and
pmd_theorem14_numeric, whose {a*k^2 : 1 <= k <= (q-1)/2} is exactly
a*R_2(q).  Its magnitude, and the exact layer's float bound
(cyclotomic._log2_bound), are sums of one table per prime, read by
coset_log2.

The table.  For 0 < r < q/2 let T[r] = log2|2 cos(pi*r/q)|
= log2(2 sin(pi*(q - 2r)/(2q))), one entry per pair {r, q - r}.  A pair of
tangent factors is (1 + t)(1 - t) = 1 - t^2 = cos(2x)/cos(x)^2 with
t = tan(x), x = pi*r/q, so its log2 is T[r'] - 2*T[r] + 1, where r' is 2r
mod q folded to min(2r, q - 2r) mod q: |cos(2x)| = |cos(pi*r'/q)|.

Cosets.  tan_product requires 2m | q - 1, so -1 = g^((q-1)/2) is an m-th
power and every coset a*R_m(q) is closed under r -> q - r: it is (q-1)/(2m)
pairs, one member of each below q/2.  k -> a*k maps the pair {k, q - k} of
R_m(q) onto a pair of the coset, so the first half of the walk of R_m(q)
(residues.walk, whose second half is the first negated) names every pair of
the coset once.  coset_log2 returns H(a), the math.fsum of T over the pairs
of a*R_m(q), and the number of them with 4r > q.  r -> 2r maps the pairs of
a*R_m(q) one to one onto those of 2a*R_m(q), so the product over a*R_m(q)
has log2 magnitude H(2a) - 2*H(a) + (q-1)/(2m).  1 + t > 1, and 1 - t < 0 iff
x > pi/4, that is iff 4r > q: the sign is the parity of that count.  2a
lies in the coset of a only when 2 is in R_m(q), the theorem's hypothesis,
which tan_product does not assume.

A sum over R_m(q) depends on a only through the coset a*R_m(q), named by
c = a^((q-1)/m) mod q (residues.coset_name): a and b give the same c iff
a*R_m(q) = b*R_m(q).  One sum is stored per (m, c), for the current prime
only.  This is exact, not an approximation: math.fsum returns the correctly
rounded value of the exact sum of its inputs, whatever their order, so
every representative of the coset gives the same float bit for bit.
Unlike sum() of floats, which is compensated from Python 3.12 on, it gives
the same float on every Python version.

Every coset is a slice of the m = 1 terms.  The m = 1 sum evaluates T for
the whole group in index order, term j for the pair of g^j,
0 <= j < (q-1)/2, over the walk of a primitive root g, and keeps the terms
with one flag per pair (4r > q, as bytes).  g^j lies in
a*R_m(q) = g^j0*<g^m> iff j = j0 (mod m), and j0 < m solves
(g^((q-1)/m))^j0 = c: x -> x^((q-1)/m) maps g^j to (g^((q-1)/m))^j, of
order m.  The pair of g^j is that of g^(j + (q-1)/2) = -g^j, and
m | (q-1)/2 puts both indices in the class of j0, so the class j0 mod m of
[0, (q-1)/2) names each pair of the coset once.  Its sum is
fsum(terms[j0::m]): the same floats as a cold sum over the coset's own
pairs, bit for bit, so the same sum.  A coset met before the m = 1 sum
exists is summed cold, over a times the first half of its own walk, so a
small R_m(q) of a large prime costs O(|R_m(q)|).  Either way each prime
evaluates at most one sin per pair once its m = 1 sum exists, and the
numeric and exact checks of a prime share the sums.

Error model.  The angle pi*(q - 2r)/(2q) lies in (0, pi/2) and is the
float product of math.pi and the correctly rounded quotient of two
integers: three roundings, a relative 3u (u = 2^-53), at any q.  Since
x*cot(x) <= 1 on (0, pi/2], that moves log sin by at most 3u, and sin and
log2 add an ulp each, so every T[r] is within (8 + 2*log2(q))*u of
log2|2 cos(pi*r/q)|: 2 sin lies in [2/q, 2], so |T[r]| <= log2(q), and no
term amplifies its angle's error, since the form has no pole and no zero.
Each fsum rounds once, adding at most u*log2(q) per term.  So H is within
(|R|/2)*(8 + 3*log2(q))*u of its true value, and the magnitude
H(2a) - 2*H(a) + |R|/2 within three times that plus one rounding: 2e-12 at
|R| = 112 and q near 2^36.  An angle taken as pi*(r/q) instead would carry
the rounding of r/q, amplified about q-fold next to the pole of t at
r/q = 1/2 and the zero of 1 - t at 1/4: tangent pairs evaluated that way
read -2^55.999998431 at q = 54410972897, m = 485812258, where the table
reads -2^56.000000000.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections import namedtuple
from operator import itemgetter

from .arith import PrimeContext, as_prime, jacobi
from .errors import BranchViolation, PoleProximity
from .records import VerificationRecord, finish
from .residues import (_product_context, coset_name, require_even_index,
                       require_unit, symbol_sign, walk)

POLE_EPS = 1e-9
ZERO_CROSS = 1e-9


class SignedMagnitude(namedtuple("SignedMagnitude", "sign log2_mag",
                                 defaults=(0.0,))):
    """sign * 2^log2_mag; sign 0 encodes an exact zero."""

    __slots__ = ()
    sign: int
    log2_mag: float

    def value(self) -> float:
        if self.sign == 0:
            return 0.0
        try:
            return self.sign * 2.0 ** self.log2_mag
        except OverflowError:
            return self.sign * math.inf

    def render(self) -> str:
        if self.sign == 0:
            return "0"
        return f"{'+' if self.sign > 0 else '-'}2^{self.log2_mag:.9f}"


def check_tolerance(rel_tol: float) -> float:
    """rel_tol itself, if it is a finite relative tolerance >= 0."""
    if not (math.isfinite(rel_tol) and rel_tol >= 0.0):
        raise ValueError(f"tolerance must be finite and >= 0, not {rel_tol!r}")
    return rel_tol


def _log_tolerance(rel_tol: float) -> float:
    return math.log2(1.0 + check_tolerance(rel_tol))


@functools.lru_cache(maxsize=1)
def _coset_sums(q: int) -> dict[tuple[int, int], tuple]:
    """The coset sums of prime q computed so far, keyed by (m, a^((q-1)/m)
    mod q): H, the fsum of T over the pairs of a*R_m(q), and the count of
    those pairs with 4r > q.  The entry of m = 1 also keeps its terms and
    flags, indexed along walk(q, 1), which every later coset is sliced from.
    Only the current prime's are kept."""
    return {}


def _pair_terms(q: int, a: int, ks) -> tuple[array, bytes]:
    """T[r] = log2(2 sin(pi*(q - 2r)/(2q))) and the flags 4r > q of the pairs
    named by a*k mod q for k in ks, in order, r = min(k', q - k') < q/2 for
    the image k'.  q - 2r is |q - 2k'|, so the angle's quotient is of two
    integers, and 4r > q iff q/4 < k' < 3q/4.  The terms are packed doubles:
    the m = 1 entry keeps (q-1)/2 of them."""
    if a != 1:
        ks = [a * k % q for k in ks]
    two_q = 2 * q
    sin, log2, pi = math.sin, math.log2, math.pi
    terms = array("d", [log2(2.0 * sin(pi * (abs(q - 2 * k) / two_q)))
                        for k in ks])
    lo, hi = q // 4 + 1, (3 * q - 1) // 4 + 1
    if 1 < len(ks) and q <= 8 * len(ks):
        # a q-byte table of the flags, built only where it is no larger
        # than the terms (m < 4): at a large q and m it would not fit.  A
        # single k would make itemgetter return a scalar
        band = bytes(lo) + b"\x01" * (hi - lo) + bytes(q - hi)
        return terms, bytes(itemgetter(*ks)(band))
    return terms, bytes([lo <= k < hi for k in ks])


@functools.lru_cache(maxsize=1)
def _index_classes(ctx: PrimeContext, m: int) -> dict[int, int]:
    """{c: j0} over the cosets of R_m(p): the coset keyed c is the index
    class j0 mod m of walk(p, 1), since zeta^j0 = c for zeta = g^((p-1)/m),
    the (p-1)/m-th step of the full walk.  Built once per m, so a bound
    that reads all m cosets costs O(m), not O(m) per coset."""
    return {c: j for j, c in enumerate(walk(ctx, 1)[::ctx.p_minus_1 // m])}


def coset_log2(ctx: PrimeContext, m: int, a: int) -> tuple[float, int]:
    """(H, negatives) of the coset a*R_m(p), 2m | p - 1 (module docstring):
    H is the fsum of T[r] over its pairs, r < p/2, and negatives the number
    of them with 4r > p.  Stored per coset; sliced from the m = 1 terms once
    they exist, else summed over a times the first half of walk(p, m)."""
    q = ctx.p
    sums = _coset_sums(q)
    c = coset_name(ctx, m, a)
    entry = sums.get((m, c))
    if entry is None:
        whole = sums.get((1, 1))
        if whole is None:
            # the first half of a walk holds one k of each pair; m = 1 takes
            # a = 1, so that term j is the pair of g^j along walk(q, 1)
            ks = walk(ctx, m)
            terms, flags = _pair_terms(q, a if m > 1 else 1, ks[:len(ks) // 2])
        else:
            j0 = _index_classes(ctx, m)[c]
            terms, flags = whole[2][j0::m], whole[3][j0::m]
        entry = (math.fsum(terms), flags.count(1))
        if m == 1:
            entry += (terms, flags)
        sums[(m, c)] = entry
    return entry[:2]


def tan_product(p, m: int, a: int = 1) -> SignedMagnitude:
    """Product of (1 + tan(pi*a*k/p)) over k in R_m(p), in sign/log2 form.

    The factors pair up as {r, p - r}, r < p/2, into (1 + t)(1 - t) with
    t = tan(pi*r/p), whose log2 is T[2r] - 2*T[r] + 1 (module docstring).
    Summed over the pairs of the coset a*R_m(p), that is
    H(2a) - 2*H(a) + (p-1)/(2m), with H from coset_log2, so no tangent is
    evaluated and every term's angle is a ratio of integers.  1 + t > 1
    always, and 1 - t < 0 iff 4r > p, so the sign is an integer count.
    """
    ctx = as_prime(p)
    require_unit(ctx, a)
    require_even_index(ctx, m)
    h, negatives = coset_log2(ctx, m, a)
    h2 = coset_log2(ctx, m, 2 * a)[0]
    return SignedMagnitude(-1 if negatives % 2 else 1,
                           math.fsum((h2, -2.0 * h, ctx.p_minus_1 // (2 * m))))


def _power_record(p: int, m: int, a: int, check: str, got: SignedMagnitude,
                  want_sign: int, k: int, rel_tol: float) -> VerificationRecord:
    """The record of the claim got = want_sign * 2^k: the sign must match
    exactly, and the magnitude within rel_tol, in the log2 domain."""
    ok = got.sign == want_sign and abs(got.log2_mag - k) <= _log_tolerance(rel_tol)
    expected = f"{'+' if want_sign > 0 else '-'}2^{k} (rel_tol={rel_tol:g})"
    return finish(p, m, a, check, ok, expected, got.render())


def verify_theorem_main_numeric(p, m: int, a: int = 1,
                                rel_tol: float = 1e-6) -> VerificationRecord:
    """Compare tan_product against the predicted sign * 2^((p-1)/(2m)).

    The predicted value is sign(-2) * (-2)^((p-1)/(2m)); the magnitude is
    compared in the log2 domain within rel_tol, the sign must match exactly.
    """
    ctx = _product_context(p, m, a)
    half = ctx.p_minus_1 // (2 * m)
    delta = symbol_sign(-2, ctx, m).value
    want_sign = delta * (-1 if half % 2 else 1)
    return _power_record(ctx.p, m, a, "thm_main_numeric",
                         tan_product(ctx, m, a), want_sign, half, rel_tol)


def _factor_product(N: int, D: int, n: int, s: int) -> SignedMagnitude:
    """prod over r = 0..n-1 of (1 + s*tan(pi*(x+r)/n)), x = N/D and s = +-1.

    One pass over r that holds nothing growing with n and feeds each
    log2|factor| straight into one math.fsum, which rounds the exact sum
    once, whatever the order of its inputs.  The angle of r is num/(nD),
    num = (N + r*D) mod nD in integers; it raises PoleProximity at the
    first pole, even one after a zero factor, and a factor is exactly zero
    at 4*num = (2 + s)*nD: tan = -s only at 3/4 (s = 1) and 1/4 (s = -1).
    """
    nD = n * D
    zero_num = (2 + s) * nD
    tan, log2, pi = math.tan, math.log2, math.pi
    sign = 1

    def logs():
        nonlocal sign
        num = N % nD  # stepped by D <= n*D
        for r in range(n):
            t = num / nD
            if abs(t - 0.5) < POLE_EPS:
                raise PoleProximity(f"argument {(N + r * D) / nD!r} is within "
                                    f"{POLE_EPS:g} of a tangent pole")
            f = 0.0 if 4 * num == zero_num \
                else 1.0 + s * tan(pi * (t - 1.0 if t > 0.5 else t))
            sign *= (f > 0.0) - (f < 0.0)
            if f:
                yield log2(abs(f))
            num += D
            if num >= nD:
                num -= nD

    log2_mag = math.fsum(logs())
    return SignedMagnitude(sign, log2_mag if sign else 0.0)


def pmd_lemma_identity(n: int, x: float,
                       rel_tol: float = 1e-9) -> VerificationRecord:
    """Full residue-system tangent product for odd n against its closed form.

    Left side: prod over r = 0..n-1 of (1 + tan(pi*(x+r)/n)).
    Right side: (2/n) * 2^((n-1)/2) * (1 + (-1/n)*tan(pi*x)), Jacobi symbols.
    Both sides may be zero; when the right side is exactly zero (or smaller
    than 1e-9 in magnitude) the comparison is absolute rather than relative.

    Both sides are _factor_product: the left at n with s = 1, the factor of
    the right at n = 1 with s = (-1/n).  The right side needs no pole test
    of its own: the left runs first, and its argument at the r with
    (x - x mod 1 + r) = (n-1)/2 (mod n) lies n times closer to 1/2 than
    x mod 1 does.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError("n must be odd and positive")
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    N, D = x.as_integer_ratio()
    lhs = _factor_product(N, D, n, 1)
    base = _factor_product(N, D, 1, jacobi(-1, n))
    rhs = SignedMagnitude(jacobi(2, n) * base.sign,
                          (n - 1) / 2 + base.log2_mag if base.sign else 0.0)

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


def pmd_theorem14_numeric(p, a: int = 1,
                          rel_tol: float = 1e-6) -> VerificationRecord:
    """Quadratic-residue tangent product for p = 1 (mod 8).

    prod over k = 1..(p-1)/2 of (1 + tan(pi*a*k^2/p)) is compared against
    sign (-1)^#{1 <= k < p/4 : (k/p) = 1} and magnitude 2^((p-1)/4).
    The k^2 run over R_2(p) once each (k and p - k have the same square),
    so the left side is tan_product(p, 2, a), and the residues k below p/4
    are the members of R_2(p) up to (p-1)/4, counted along its walk.
    """
    ctx = as_prime(p)
    if ctx.p % 8 != 1:
        raise BranchViolation(
            f"p={ctx.p} is not 1 mod 8; only that branch is supported")
    require_unit(ctx, a)
    got = tan_product(ctx, 2, a)
    quarter = ctx.p_minus_1 // 4
    low = len([k for k in walk(ctx, 2) if k <= quarter])
    return _power_record(ctx.p, 1, a, "pmd_thm14", got, -1 if low % 2 else 1,
                         quarter, rel_tol)
