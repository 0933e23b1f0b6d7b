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
a*R_2(q).

A product over R_m(q) depends on a only through the coset a*R_m(q):
k -> a*k is a bijection of R_m(q) onto that coset, so the multiset of
factors is the coset itself.  The first product that meets a coset
evaluates its factors, a pair at a time (below), or slices them from the
m = 1 terms (below), and stores one log2 sum per (m, coset), which serves
every a in the coset; only the current prime's sums are kept, and only the
m = 1 sum keeps its terms.  This is exact, not an approximation: math.fsum
returns the correctly rounded value of the exact sum of its inputs,
whatever their order, so every representative of the coset gives the same
float bit for bit.  Unlike sum() of floats, which is compensated from
Python 3.12 on, it gives the same float on every Python version.

One tangent serves each pair of factors.  tan_product requires 2m | q - 1,
so -1 = g^((q-1)/2) is an m-th power and every coset a*R_m(q) is closed
under r -> q - r: it is (q-1)/(2m) pairs {r, q - r}, one member of each
below q/2.  k -> a*k maps the pair {k, q - k} of R_m(q) onto a pair of the
coset, so the first half of the walk of R_m(q) (residues.walk, whose second
half is the first negated) names every pair of the coset once.  With
t = tan(pi*r/q), r < q/2, the partner's factor 1 + tan(pi - pi*r/q) is
1 - t, so the pair contributes one term log2|(1 + t)(1 - t)| to the fsum.
The angle pi*r/q lies in (0, pi/2), so 1 + t > 1, and 1 - t < 0 iff
pi*r/q > pi/4, that is iff 4r > q: the sign is a count of integers.

Every coset is a slice of the m = 1 terms.  The m = 1 sum evaluates the
pair terms of the whole group in index order, term j for the pair of g^j,
0 <= j < (q-1)/2, over the walk of a primitive root g, and keeps them with
one negative flag per pair (4r > q, as bytes).  g^j lies in
a*R_m(q) = g^j0*<g^m> iff j = j0 (mod m), and j0 < m solves
(g^((q-1)/m))^j0 = a^((q-1)/m), the coset's key: x -> x^((q-1)/m) maps
g^j to (g^((q-1)/m))^j, of order m.  The pair of g^j is that of
g^(j + (q-1)/2) = -g^j, and m | (q-1)/2 puts both indices in the class of
j0, so the class j0 mod m of [0, (q-1)/2) names each pair of the coset once.
Its sum is fsum(terms[j0::m]) and its negative count flags[j0::m].count(1):
the same floats as a cold sum over the coset's own pairs, bit for bit, so
the same sum.  A coset met before the m = 1 sum exists is summed cold, over
a times the first half of its own walk, by the same pair-term helper.

Error model of the pair form.  t is the float the per-factor evaluation
gives for r, bit for bit.  Evaluated on its own, the partner's factor is
1 + tan(pi*(fl((q - r)/q) - 1)), whose angle carries the rounding of
fl((q - r)/q), up to 2^-54; 1 - t carries that of fl(r/q), at most 2^-55
where it matters, near r/q = 1/4, where 1 - t is near zero and the angle's
error is amplified by about q.  The product (1 + t)(1 - t) rounds once, a
relative 2^-53, or 1.6e-16 in log2.  Against 40-digit mpmath, over every m
with 2m | p - 1 and a = 1..7, the worst coset-sum error is 2.6e-13 for
p < 400 (4.0e-13 for the per-factor form) and 4.5e-13 with p = 1009 and
5009 added (1.8e-12); at p = 1000003, m = 1, the sum reads 500001.000000000
to nine decimals, where the per-factor form read 500000.999999999.
"""

from __future__ import annotations

import functools
import math
import time
import warnings
from collections import namedtuple

from .arith import as_prime, jacobi
from .errors import BranchViolation, HypothesisViolation, PoleProximity
from .records import VerificationRecord, finish
from .residues import is_mth_residue, require_even_index, symbol_sign, walk

TINY_FACTOR = 1e-12   # |1 + tan| below this degrades float precision
POLE_EPS = 1e-9
ZERO_CROSS = 1e-9


class SignedMagnitude(namedtuple("SignedMagnitude", "sign log2_mag",
                                 defaults=(0.0,))):
    """sign * 2^log2_mag; sign 0 encodes an exact zero."""

    __slots__ = ()
    sign: int
    log2_mag: float

    def __mul__(self, other: "SignedMagnitude") -> "SignedMagnitude":
        if self.sign == 0 or other.sign == 0:
            return SignedMagnitude(0)
        return SignedMagnitude(self.sign * other.sign,
                               self.log2_mag + other.log2_mag)

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
    mod q): the log2 sum, the count of negative factors and the tiny
    residues of the coset a*R_m(q).  The entry of m = 1 also keeps its pair
    terms and negative flags, indexed along walk(q, 1), which every later
    coset is sliced from.  Only the current prime's are kept."""
    return {}


def _tiny_residues(q: int, folded: list[int],
                   tans: list[float]) -> tuple[int, ...]:
    """The residues whose factor is below TINY_FACTOR in magnitude: r for
    1 + t and q - r for 1 - t, over the pairs (r, t = tan(pi*r/q)).  A factor
    that is exactly 0 raises instead."""
    tiny = []
    for r, t in zip(folded, tans):
        for f, s in ((1.0 + t, r), (1.0 - t, q - r)):
            if f == 0.0:
                raise ArithmeticError(f"1 + tan(pi*{s}/{q}) evaluated to 0")
            if abs(f) < TINY_FACTOR:
                tiny.append(s)
    return tuple(tiny)


def _pair_terms(q: int, a: int, ks) -> tuple[list[float], bytes, tuple]:
    """The pair terms log2|(1 + t)(1 - t)|, the negative flags 4r > q and
    the tiny residues of the pairs named by a*k mod q for k in ks, in order.
    Each image is folded to r = min(r, q - r) < q/2 and t = tan(pi*r/q)."""
    below = q // 2
    folded = [r if (r := a * k % q) <= below else q - r for k in ks]
    tans = [math.tan(math.pi * (r / q)) for r in folded]
    pairs = [(1.0 + t) * (1.0 - t) for t in tans]
    tiny = ()
    if min(map(abs, pairs)) < 3.0 * TINY_FACTOR:
        tiny = _tiny_residues(q, folded, tans)
    return (list(map(math.log2, map(abs, pairs))),
            bytes([4 * r > q for r in folded]), tiny)


def tan_product(p, m: int, a: int = 1) -> SignedMagnitude:
    """Product of (1 + tan(pi*a*k/p)) over k in R_m(p), in sign/log2 form.

    The factors are taken in pairs {r, p - r} of the coset a*R_m(p) (see the
    module docstring): one tangent t = tan(pi*r/p) per pair, at the residue
    r < p/2, gives both factors, 1 + t and 1 - t.  Arguments a*k are reduced
    modulo p exactly before the division by p, so the only float error per
    pair is the tangent evaluation itself.  1 + t > 1 always, and 1 - t < 0
    iff t > 1, that is iff 4r > p, so the sign is an integer count.  No
    factor can be exactly zero: 1 + tan(pi*a*k/p) = 0 would need ak/p = 3/4
    modulo 1, impossible for odd prime p; a factor that evaluates to 0
    raises, naming r for 1 + t and p - r for 1 - t, and nothing is stored
    for its coset.

    The log2 magnitude is the math.fsum of the pairs' log2|(1 + t)(1 - t)|,
    evaluated once per coset a*R_m(p), or sliced from the terms of the m = 1
    sum once that exists (module docstring), and stored.  The coset is named
    by c = a^((p-1)/m) mod p: x -> x^((p-1)/m) is a homomorphism of the
    cyclic group (Z/p)* whose kernel is exactly R_m(p), so a and b give the
    same c iff a/b lies in R_m(p), that is iff a*R_m(p) = b*R_m(p).  A
    factor below TINY_FACTOR warns on every call, whether the sum is new or
    stored.  Such a factor is 1 - t with t near 1, whose pair has
    |(1 + t)(1 - t)| below 3*TINY_FACTOR, so one min over the pairs rules
    every factor out at once.
    """
    ctx = as_prime(p)
    q = ctx.p
    if a % q == 0:
        raise ValueError(f"a={a} is divisible by p={q}")
    require_even_index(ctx, m)
    sums = _coset_sums(q)
    e = (q - 1) // m
    c = pow(a, e, q)
    entry = sums.get((m, c))
    if entry is None:
        whole = sums.get((1, 1))
        if whole is None:
            # the first half of a walk holds one k of each pair; m = 1 takes
            # a = 1, so that term j is the pair of g^j along walk(q, 1)
            ks = walk(ctx, m)
            terms, flags, tiny = _pair_terms(q, a if m > 1 else 1,
                                             ks[:len(ks) // 2])
        else:
            # the index class j0 mod m, with zeta^j0 = c for
            # zeta = g^((q-1)/m), the (q-1)/m-th step of the full walk
            j0 = walk(ctx, 1)[::e].index(c)
            terms, flags = whole[3][j0::m], whole[4][j0::m]
            tiny = tuple(s for s in whole[2] if pow(s, e, q) == c)
        entry = (math.fsum(terms), flags.count(1), tiny)
        if m == 1:
            entry += (terms, flags)
        sums[(m, c)] = entry
    log2, negatives, tiny = entry[:3]
    for r in tiny:
        warnings.warn(f"near-zero factor at residue {r} (p={q}); "
                      "precision degraded", RuntimeWarning, stacklevel=2)
    return SignedMagnitude(-1 if negatives % 2 else 1, log2)


def verify_theorem_main_numeric(p, m: int, a: int = 1,
                                rel_tol: float = 1e-6) -> VerificationRecord:
    """Compare tan_product against the predicted sign * 2^((p-1)/(2m)).

    The predicted value is sign(-2) * (-2)^((p-1)/(2m)); the magnitude is
    compared in the log2 domain within rel_tol, the sign must match exactly.
    """
    t0 = time.perf_counter()
    ctx = as_prime(p)
    if a % ctx.p == 0:
        raise ValueError(f"a={a} is divisible by p={ctx.p}")
    require_even_index(ctx, m)
    if not is_mth_residue(2, ctx, m):
        raise HypothesisViolation(f"2 is not a {m}-th power residue mod {ctx.p}")
    half = ctx.p_minus_1 // (2 * m)
    delta = symbol_sign(-2, ctx, m).value
    want_sign = delta * (-1 if half % 2 else 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = tan_product(ctx, m, a)
    ok = got.sign == want_sign and abs(got.log2_mag - half) <= _log_tolerance(rel_tol)
    expected = f"{'+' if want_sign > 0 else '-'}2^{half} (rel_tol={rel_tol:g})"
    actual = got.render() + (" [precision warning]" if caught else "")
    return finish(ctx.p, m, a, "thm_main_numeric", ok, expected, actual, t0)


def pmd_lemma_identity(n: int, x: float,
                       rel_tol: float = 1e-9) -> VerificationRecord:
    """Full residue-system tangent product for odd n against its closed form.

    Left side: prod over r = 0..n-1 of (1 + tan(pi*(x+r)/n)).
    Right side: (2/n) * 2^((n-1)/2) * (1 + (-1/n)*tan(pi*x)), Jacobi symbols.
    Both sides may be zero; when the right side is exactly zero (or smaller
    than 1e-9 in magnitude) the comparison is absolute rather than relative.
    """
    t0 = time.perf_counter()
    if n < 1 or n % 2 == 0:
        raise ValueError("n must be odd and positive")
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    N, D = x.as_integer_ratio()
    nD = n * D
    sign, log2 = 1, 0.0
    for r in range(n):
        num = (N + r * D) % nD
        t = num / nD
        if abs(t - 0.5) < POLE_EPS:
            raise PoleProximity(f"argument {(N + r * D) / nD!r} is within "
                                f"{POLE_EPS:g} of a tangent pole")
        if sign == 0:  # a zero factor: later factors still check for poles
            continue
        if 4 * num == 3 * nD:  # 3/4, the only zero of 1 + tan(pi*t) mod 1
            f = 0.0
        else:
            f = 1.0 + math.tan(math.pi * (t - 1.0 if t > 0.5 else t))
        if f == 0.0:
            sign, log2 = 0, 0.0
        else:
            sign = -sign if f < 0.0 else sign
            log2 += math.log2(abs(f))
    lhs = SignedMagnitude(sign, log2)

    s2 = jacobi(2, n)
    s1 = jacobi(-1, n)
    qn = N % D  # x mod 1 = qn/D
    t = qn / D
    if abs(t - 0.5) < POLE_EPS:
        raise PoleProximity(f"x={x!r} is within {POLE_EPS:g} of a tangent pole")
    if (s1 == 1 and 4 * qn == 3 * D) or (s1 == -1 and 4 * qn == D):
        rhs = SignedMagnitude(0)
    else:
        base = 1.0 + s1 * math.tan(math.pi * (t - 1.0 if t > 0.5 else t))
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
    expected = f"x={x:g}: {rhs.render()} (rel_tol={rel_tol:g})"
    actual = f"x={x:g}: {lhs.render()}"
    return finish(n, 1, 0, "pmd_lemma", ok, expected, actual, t0)


def pmd_theorem14_numeric(p, a: int = 1,
                          rel_tol: float = 1e-6) -> VerificationRecord:
    """Quadratic-residue tangent product for p = 1 (mod 8).

    prod over k = 1..(p-1)/2 of (1 + tan(pi*a*k^2/p)) is compared against
    sign (-1)^#{1 <= k < p/4 : (k/p) = 1} and magnitude 2^((p-1)/4).
    The k^2 run over R_2(p) once each (k and p - k have the same square),
    so the left side is tan_product(p, 2, a), and the residues k below p/4
    are the members of R_2(p) up to (p-1)/4, counted along its walk.
    """
    t0 = time.perf_counter()
    ctx = as_prime(p)
    if ctx.p % 8 != 1:
        raise BranchViolation(
            f"p={ctx.p} is not 1 mod 8; only that branch is supported")
    if a % ctx.p == 0:
        raise ValueError(f"a={a} is divisible by p={ctx.p}")
    got = tan_product(ctx, 2, a)
    quarter = ctx.p_minus_1 // 4
    low = len([k for k in walk(ctx, 2) if k <= quarter])
    want_sign = -1 if low % 2 else 1
    ok = got.sign == want_sign and \
        abs(got.log2_mag - quarter) <= _log_tolerance(rel_tol)
    expected = f"{'+' if want_sign > 0 else '-'}2^{quarter} (rel_tol={rel_tol:g})"
    return finish(ctx.p, 1, a, "pmd_thm14", ok, expected, got.render(), t0)
