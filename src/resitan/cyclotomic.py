"""The exact product-identity checks, decided modulo split primes.

One real unit per (p, m).  Every check is a claim about
P_s = prod over k in R of (i + s*zeta_p^k), R = R_m(p), s = +-1, in
Z[zeta_4p].  Since 2m divides p - 1, -1 lies in R, so R is a union of pairs
{x, -x}, and with y = zeta_p^x

    (i + s*y)(i + s/y) = i^2 + i*s*(y + 1/y) + s^2 = i*s*(y + 1/y).

So P_s = (s*i)^half * Z with half = |R|/2, that is P_+ = i^half * Z and
P_- = (-1)^half * P_+ exactly, where

    Z = prod over the pairs {x, -x} of R of (zeta_p^x + zeta_p^-x)

is a real element of Z[zeta_p].  Z[zeta_p] holds no square root of -1, so
P_s is a power of i iff Z = +-1: the whole of Theorem 1.2 at (p, m) is the
one claim Z = epsilon with epsilon in {1, -1}, and then P_s = i^e with
e = (2 - s)*half + 1 - epsilon (mod 4), because (s*i)^half = i^((2-s)*half)
and epsilon = i^(1 - epsilon).  The product of a coprime a is the image of
P_s under the automorphism zeta_p -> zeta_p^a that fixes i, which fixes
epsilon and maps a Z other than +-1 to another, so one verdict per (p, m)
serves both signs and every a.  Z is decided by a multimodular certificate,
not by expanding it:

- Conjugates.  The phi(p) embeddings zeta_p -> zeta_p^t, t in (Z/p)*, map Z
  to the product over the pairs of tR, so Z has at most m conjugates, one
  per coset of (Z/p)*/R.  The cosets are named as every layer names them
  (residues): with g the primitive root of residues.walk(p, 1), g^j lies in
  the coset g^j0 * R iff j = j0 (mod m), and coset j0 = 0 is R itself.
  Since g^(j + (p-1)/2) = -g^j and m divides (p-1)/2, the x = g^j with
  0 <= j < (p-1)/2 hold one member of each pair, and the pairs of coset j0
  are the index class j0 mod m of that half of the walk.
- Splitting.  A prime l = 1 (mod p) splits completely in Q(zeta_p) into
  phi(p) distinct primes, one for each t, and the residue map at the t-th
  prime is zeta_p -> eta^t in F_l, where eta has order p.  So every
  conjugate's image is the product of the pair images eta^x + eta^-x at
  x = g^j over an index class, and one pass over j < (p-1)/2 folds each
  pair image into the product of its class (_coset_images).  If
  d = Z - epsilon maps to 0 under all phi(p) maps, d lies in every prime
  above l, hence in their product lZ[zeta_p] (l is unramified).
- Norm bound.  If every complex conjugate of d has modulus at most B, and d
  is divisible by L = l_1 * ... * l_r with L > B and d != 0, then
  |N(d)| >= L^phi(p) > B^phi(p) >= |N(d)|, which is impossible.  So d = 0
  once the m images are epsilon modulo split primes whose product passes
  B.  Each prime costs (p - 1)/2 steps z -> z^g of one walker,
  z = eta^2x, and (p - 1)/2 multiplications modulo l.
- Split primes are the primes l = 1 (mod 4p) below 2^62, so each is at
  least 4p + 1 and also 1 (mod p), as the splitting needs.  The modulus 4p
  keeps the range 4p < 2^62: for every p > 2^60 no such l lies below
  2^62, and the first draw fails at once with "split primes 1 mod 4p ran
  out".  A modulus 2p would find l = 2p + 1 for a Sophie Germain prime p
  in (2^60, 2^61) and start O(p) work that cannot finish.

Float bound.  The conjugate of Z at the coset cR has modulus 2^L_c, where
L_c sums log2|zeta^x + zeta^-x| = log2(2|cos(2 pi x/p)|) over one member x
of each pair of cR, so L_c is the sum over those pairs of T[2x], the table
of numeric, with T[r] = log2|2 cos(pi r/p)| = log2(2 sin(pi (p - 2r)/(2p)))
and 2x folded below p/2.  As x runs over one member of each pair of cR, 2x
runs over one of each pair of 2cR, so L_c = H(2c) in numeric's notation, and
since c -> 2c permutes the cosets, max_c L_c = max_c H(c).  The computed
log2 of one pair is within 2 * 2^-40 of the true value for every p < 2^62:
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
  per member of R, and 2^-40 leaves a factor of 32 for libm error beyond
  one ulp.  So L_c is below the computed sum plus margin =
  ceil(|R| * 2^-40), one bit for any feasible p, and every conjugate of
  d = Z - epsilon is at most
      B = 2^(ceil(max_c H(c)) + margin) + 1.
  Where Z = +-1 each L_c is 0 up to rounding, so B <= 4 + 1, and one prime
  closes the certificate, since every split prime is at least
  4p + 1 >= 13.  The argument covers every p a certificate can take, since
  split primes l = 1 (mod 4p) below 2^62 need 4p < 2^62; the first is
  drawn before the bound is summed, so a larger p fails at once.  The sums
  are numeric.coset_log2's: at m = 1 one sum in natural order, which walks
  nothing; at m > 1 slices of the m = 1 terms once those exist, else each
  coset summed cold.  Only the m = 1 sum is kept.

Primes are found on demand: _split_prime walks the l = 1 (mod 4p) up from
a floor and proves the first by is_prime.  A certificate draws the least
split prime first and each further one above the last, so a certificate
that closes with one prime searches for no other.  The norm argument holds
for any split primes, so the choice moves no verdict; the least ones are
found soonest, and near 4p they keep the residues of the image pass small.
_unit_sign is cached per (p, m), so gi, gi_plus, thm_main_exact, cor11 and
cor12 share it for every a.  The checks key it by their PrimeContext, which
it hands on to the float bound, so no certificate proves p prime again.
The float bound keeps no sum per coset, and no pair image outlives the
pass that folds it.

A rejected certificate is a proof, not a doubt: it rejects only when an
image differs modulo a split prime, and equal elements have equal images.
So when the certificate rejects, or the first image is not +-1, Z is not
+-1, P_s is no power of i, and the record fails with "not a power of i" in
place of the product.  A check whose product is i^e with e not the claimed
exponent fails and renders i^e.  Either way no ring is built.  A rejection
needs no bound, so _unit_sign reads the first prime's images before it sums
the float bound, and only a certificate that may pass pays for the bound.

Each split prime drawn costs O(p) time and holds m products modulo l, and
the float bound O(p) sines, whatever the size of R_m(p); the numeric checks
walk R_m(p) alone, so they are the ones to run at a large p with a small
R_m(p).
"""

from __future__ import annotations

import functools
import math
from itertools import cycle, islice

from .arith import as_prime, is_prime
from .numeric import coset_log2
from .records import VerificationRecord, finish, int_str
from .residues import _product_context, _subgroup_generator, symbol_sign


# Certificate primes lie below 2^62, so a residue fits one machine word and a
# product of two fits two.  A p with 4p + 1 >= 2^62 has no split prime.
_SPLIT_TOP = 1 << 62

# The float bound (module docstring): the computed log2 of one factor is
# within _FACTOR_ERR of the true value.
_FACTOR_ERR = 2.0 ** -40


def _split_prime(n: int, above: int = 0) -> int:
    """The least prime l = 1 (mod n) with above < l < 2^62, proven by
    is_prime."""
    for l in range(above - (above - 1) % n + n, _SPLIT_TOP, n):
        if is_prime(l):
            return l
    raise ArithmeticError(f"split primes 1 mod {n} ran out")


def _root_of_order(p: int, l: int) -> int:
    """An element of order p in F_l, for primes p and l = 1 (mod p): any
    (l-1)/p-th power other than 1, since p is prime."""
    g = 2
    while (eta := pow(g, (l - 1) // p, l)) == 1:
        g += 1
    return eta


def _log2_bound(p, m: int) -> int:
    """An exponent b >= 0 with |sigma(Z)| <= 2^b for every complex conjugate
    sigma(Z) of Z = prod over the pairs {x, -x} of R_m(p) of
    (zeta_p^x + zeta_p^-x).

    The float bound of the module docstring: L_c = H(2c), and c -> 2c
    permutes the cosets, so the largest L_c is the largest H(c) that
    numeric.coset_log2 gives over the cosets g^j0 * R_m(p), j0 < m, plus a
    margin from the per-factor error bound.  p is a PrimeContext or an int.
    """
    ctx = as_prime(p)
    g = _subgroup_generator(ctx.p, 1)
    worst = max(coset_log2(ctx, m, pow(g, j0, ctx.p))[0] for j0 in range(m))
    margin = math.ceil(ctx.p_minus_1 // m * _FACTOR_ERR)
    return max(0, math.ceil(worst) + margin)


def _coset_images(p: int, m: int, l: int) -> tuple:
    """The images in F_l of the conjugates of Z over the cosets g^j0 * R of
    R = R_m(p), j0 < m, in one pass over x = g^j for 0 <= j < (p - 1)/2, in
    the order of residues.walk(p, 1), the walk of the primitive root g: one
    member x of each pair {x, -x}.  Entry j0 is the product over the index
    class j0 mod m, and entry 0 is Z's own image.

    eta has order p, and each pair image is eta^x + eta^-x =
    (eta^2x + 1) * eta^-x.  One walker z = eta^2x, raised to g at each step,
    gives the factors eta^2x + 1; entry j0 starts at eta^-S, S the sum of
    the class's x, taken mod p: with h = g^m and K = (p - 1)/(2m) members,
    S = g^j0 * (h^K - 1)/(h - 1) = 2 * g^j0/(1 - h), as
    h^K = g^((p-1)/2) = -1 and h != 1 (0 < m < p - 1)."""
    g = _subgroup_generator(p, 1)
    eta = _root_of_order(p, l)
    c = 2 * pow(pow(g, m, p) - 1, -1, p)   # -S = c * g^j0 (mod p)
    row = [pow(eta, c * pow(g, j0, p) % p, l) for j0 in range(m)]
    z = eta * eta % l
    for j0 in islice(cycle(range(m)), (p - 1) // 2):
        row[j0] = row[j0] * (z + 1) % l
        z = pow(z, g, l)
    return tuple(row)


@functools.lru_cache(maxsize=4096)
def _unit_sign(p, m: int) -> int | None:
    """epsilon in {1, -1} with Z = epsilon certified, Z the product over the
    pairs {x, -x} of R_m(p) of (zeta_p^x + zeta_p^-x), or None if Z is not
    +-1.

    The image of Z at the least split prime picks epsilon; then at each
    prime, drawn upward from there, all m images must be epsilon, until the
    primes' product passes the float bound B = 2^b + 1.  p is a
    PrimeContext, as the checks pass it, or an int; the bound reads the
    same context.
    """
    ctx = as_prime(p)
    # the first prime comes before any coset work, so where there is none
    # (4p > 2^62, as at p = 2^61 - 1) the certificate fails at once
    l = _split_prime(4 * ctx.p)
    row = _coset_images(ctx.p, m, l)
    # an image that is neither 1 nor -1 is not -1 either, and fails below
    sign = -1 if row[0] == l - 1 else 1
    # Equal elements have equal images: Z = +-1 maps to itself at every
    # coset, and row[0] leaves sign as its one candidate.  So a row that is
    # not all sign proves Z != +-1 with no bound, and only a first row that
    # is all sign pays for summing the bound
    if set(row) != {sign % l}:
        return None
    bound = 2 ** _log2_bound(ctx, m) + 1
    modulus = l
    while modulus <= bound:
        l = _split_prime(4 * ctx.p, l)
        if set(_coset_images(ctx.p, m, l)) != {sign % l}:
            return None
        modulus *= l
    return sign


def _render_i_power(p: int, q: int, c: int) -> str:
    """c * i^q in Z[zeta_4p], i = z^p, rendered as 'c*z^e' from its
    coefficients in the canonical basis z^0, ..., z^(phi(4p) - 1).

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
    ctx = _product_context(p, m, a)
    half = ctx.p_minus_1 // (2 * m)
    delta = symbol_sign(2 * s, ctx, m).value
    tangent = check == "thm_main_exact"
    scale = delta * (-2) ** half if tangent else 1
    sign = _unit_sign(ctx, m)
    # P_s = (s*i)^half * Z, and (s*i)^half = i^((2 - s) * half)
    e = None if sign is None else ((2 - s) * half + 1 - sign) % 4
    claim = _render_i_power(ctx.p, half, scale * delta)
    product = NOT_A_UNIT if e is None else _render_i_power(ctx.p, e, scale)
    expected, actual = (product, claim) if tangent else (claim, product)
    return finish(ctx.p, m, a, check, e == (half + 1 - delta) % 4,
                  expected, actual)


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
