"""Exact arithmetic in Z[zeta_n] and the exact product-identity checks.

An element is a dense vector of arbitrary-precision integer coefficients over
the exponent basis zeta_n^0, ..., zeta_n^(n-1).  Products fold exponents
modulo n (zeta_n^n = 1), so intermediates never leave the vector; the
canonical form, i.e. the remainder modulo the n-th cyclotomic polynomial with
degree below phi(n), is computed only for equality tests and rendering.
Coefficients of a product of j two-term factors can reach 2^j, far past any
machine word, which is why everything stays in Python integers.

The identity checks work in n = 4p for an odd prime p: zeta_n^p is a square
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
  indexed by u and by a coset representative c of (Z/p)*/R; they do not
  depend on a.  The representatives are the first c whose powers
  c^((p-1)/m) mod p are distinct, since that power is the coset's label.
  The product over a coset of -I + s*w^(4x) is the product of I - s*w^(4x),
  because |R| = (p-1)/m is even, so the images at u = 3 for one sign s are
  those at u = 1 for the other: both signs share one table per (p, m, l).
- Norm bound.  If every complex conjugate of d has modulus at most B, and d
  is divisible by L = l_1 * ... * l_r with L > B and d != 0, then
  |N(d)| >= L^phi(n) > B^phi(n) >= |N(d)|, which is impossible.  So d = 0
  once the 2m images vanish modulo split primes whose product passes B.
  Each prime costs about 3p multiplications modulo l.

Float bound.  Write the claim as P = c * i^q with P the product over R of
(i + s*zeta_p^k) and c = +-1.  The complex conjugates of P are the products over a
coset cR of (i^u + s*e^(2 pi i x/p)).  Since -1 lies in R (2m divides p-1),
x -> -x maps cR onto itself, and |-i + s*e^(2 pi i x/p)| and
|i - s*e^(2 pi i x/p)| both equal |i + s*e^(-2 pi i x/p)|, so neither u nor s
changes the modulus: there are only m moduli 2^L_c, one per coset.  Each
factor has the closed form |i + e^(2 pi i x/p)| = 2 sin(pi y/(4p)) with
y = (4x + p) mod 4p folded to min(y, 4p - y), an odd integer below 2p, so
the angle is reduced exactly in integers and lies in (0, pi/2].  The
computed log2 of one factor is within 2^-40 of the true value when p < 2^40:
  - pi*y/(4p) carries three roundings (math.pi, *, /), a relative error of
    at most 3u (u = 2^-53), which moves log sin by at most 3u because
    x*cot(x) <= 1 on (0, pi/2];
  - sin and log2 are within one ulp: 2u relative for sin, and
    2^-52 * |log2 f| for log2, where |log2 f| <= log2(p) because
    1/p <= f = 2 sin(pi y/(4p)) <= 2;
  - math.fsum is correctly rounded, adding at most 2^-53 * |L_c|, which is
    at most 2^-53 * log2(p) per factor;
  in all under 180u < 2^-45 per factor for p < 2^40, so 2^-40 leaves a
  factor of 32 for libm error beyond one ulp.  So L_c is below the
  computed sum plus margin = ceil(|R| * 2^-40), one bit for any feasible p,
  and every conjugate of d = P - c * i^q is at most
      B = 2^(ceil(max_c L_c) + margin) + 1.
  For the products of Theorem 1.2 each L_c is 0 up to rounding, so B <= 4 + 1
  and one prime l > 2^61 closes the certificate.  From p = 2^40 on, the crude
  bound of one bit per factor (|i + s*zeta| <= 2) is used instead.

Primes are found on demand: the l = 1 (mod 4p) below 2^62 are walked
downwards, proven by is_prime, and kept per 4p, so a certificate that closes
with one prime searches for no other.

Sharing.  The tangent identity (i-1)^|R| = scalar * P with s = -1 carries
the scalar eps * (-2)^half, half = |R|/2, when it holds.  Since
(i-1)^2 = -2i, (i-1)^|R| = (-2)^half * i^half, and Z[zeta_n] has no zero
divisors, so for scalar = eps * (-2)^half (eps = +-1) the identity is
exactly P = eps * i^(half mod 4), the claim of gi.  That certificate is
cached per (p, m) and right side, so gi, thm_main_exact, cor11 and cor12
share one certificate for every a.  For any other scalar the certificate
does not close, and the check takes the failure path below.

A check that passes renders both sides as the certified monomial c * i^q
without building the ring.  A check whose certificate does not close first
looks for the unit c * i^q (c = +-1, q in 0..3) that the product does equal,
with the same cached images, and renders it; only if no unit certifies is
the check recomputed in the dense ring, which renders the two sides that
differ and keeps its size bound.
"""

from __future__ import annotations

import cmath
import functools
import math
import time

from .arith import PrimeContext, as_prime, divisors, is_prime
from .errors import BoundExceeded, HypothesisViolation, RingMismatch
from .records import VerificationRecord, finish, int_str
from .residues import is_mth_residue, require_even_index, residue_set, symbol_sign

DEFAULT_MAX_N = 4 * 5000


def _mobius(n: int) -> int:
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def _mul_binomial(poly: list[int], k: int) -> list[int]:
    # multiply by x^k - 1
    out = [-c for c in poly] + [0] * k
    for i, c in enumerate(poly):
        out[i + k] += c
    return out


def _div_binomial(poly: list[int], k: int) -> list[int]:
    # exact division by x^k - 1; quotient satisfies q[j-k] = poly[j] + q[j]
    deg = len(poly) - 1
    q = [0] * (deg - k + 1)
    for j in range(deg, k - 1, -1):
        upper = q[j] if j <= deg - k else 0
        q[j - k] = poly[j] + upper
    for j in range(k):
        upper = q[j] if j <= deg - k else 0
        if poly[j] + upper != 0:
            raise ArithmeticError(f"division by x^{k} - 1 left a remainder")
    return q


def cyclotomic_poly(n: int, max_n: int = DEFAULT_MAX_N) -> list[int]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first.

    Moebius product formula: multiply out (x^(n/d) - 1) over the squarefree
    divisors d of n with mu(d) = +1, then divide the mu(d) = -1 factors back
    out with exact integer polynomial division.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > max_n:
        raise BoundExceeded(f"n={n} exceeds the configured bound {max_n}")
    return list(_cyclotomic_cached(n))


@functools.lru_cache(maxsize=None)
def _cyclotomic_cached(n: int) -> tuple[int, ...]:
    poly = [1]
    to_divide = []
    for d in divisors(n):
        mu = _mobius(d)
        if mu == 1:
            poly = _mul_binomial(poly, n // d)
        elif mu == -1:
            to_divide.append(n // d)
    for k in to_divide:
        poly = _div_binomial(poly, k)
    return tuple(poly)


@functools.lru_cache(maxsize=None)
def get_ring(n: int) -> "CycloRing":
    """Shared, cached ring descriptor for Z[zeta_n]."""
    return CycloRing(n)


class CycloRing:
    """Ring descriptor for fixed n: the value n, phi(n), and Phi_n itself."""

    __slots__ = ("n", "phi_n", "cyclo_poly")

    def __init__(self, n: int, max_n: int = DEFAULT_MAX_N):
        coeffs = cyclotomic_poly(n, max_n)
        self.n = n
        self.cyclo_poly = tuple(coeffs)
        self.phi_n = len(coeffs) - 1

    def __eq__(self, other):
        return isinstance(other, CycloRing) and other.n == self.n

    def __hash__(self):
        return hash((CycloRing, self.n))

    def __repr__(self):
        return f"CycloRing(n={self.n}, phi={self.phi_n})"

    def element(self, data) -> "CycloElement":
        """Element from a coefficient sequence or an {exponent: coefficient} map."""
        v = [0] * self.n
        items = data.items() if isinstance(data, dict) else enumerate(data)
        for e, c in items:
            v[e % self.n] += c
        return CycloElement(self, tuple(v))

    def one(self) -> "CycloElement":
        return self.element({0: 1})

    def constant(self, c: int) -> "CycloElement":
        return self.element({0: c})

    def monomial(self, e: int, c: int = 1) -> "CycloElement":
        return self.element({e: c})


def _canonical(ring: CycloRing, coeffs) -> tuple[int, ...]:
    v = list(coeffs)
    n = ring.n
    if n % 2 == 0:
        half = n // 2
        v = [v[j] - v[j + half] for j in range(half)]  # zeta^(n/2) = -1
    phi = ring.phi_n
    poly = ring.cyclo_poly
    for j in range(len(v) - 1, phi - 1, -1):
        c = v[j]
        if c:
            v[j] = 0
            base = j - phi
            for t in range(phi):
                v[base + t] -= c * poly[t]
    return tuple(v[:phi])


class CycloElement:
    """Immutable element of Z[zeta_n] over the exponent basis of zeta_n."""

    __slots__ = ("ring", "coeffs", "_canon")

    def __init__(self, ring: CycloRing, coeffs: tuple[int, ...]):
        if len(coeffs) != ring.n:
            raise ValueError("coefficient vector must have length n")
        self.ring = ring
        self.coeffs = coeffs
        self._canon = None

    def canonical(self) -> tuple[int, ...]:
        """Coefficients of the canonical form (degree below phi(n))."""
        if self._canon is None:
            self._canon = _canonical(self.ring, self.coeffs)
        return self._canon

    def reduce(self) -> "CycloElement":
        """The canonical representative of this element."""
        can = self.canonical()
        return CycloElement(self.ring, can + (0,) * (self.ring.n - len(can)))

    def is_zero(self) -> bool:
        return not any(self.canonical())

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, CycloElement):
            return NotImplemented
        return other.ring == self.ring and other.canonical() == self.canonical()

    __hash__ = None

    def __add__(self, other: "CycloElement") -> "CycloElement":
        self._check_ring(other)
        return CycloElement(self.ring,
                            tuple(u + v for u, v in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycloElement") -> "CycloElement":
        self._check_ring(other)
        return CycloElement(self.ring,
                            tuple(u - v for u, v in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycloElement":
        return CycloElement(self.ring, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycloElement(self.ring, tuple(c * other for c in self.coeffs))
        if not isinstance(other, CycloElement):
            return NotImplemented
        self._check_ring(other)
        n = self.ring.n
        terms_a = [(i, c) for i, c in enumerate(self.coeffs) if c]
        terms_b = [(j, d) for j, d in enumerate(other.coeffs) if d]
        if len(terms_b) < len(terms_a):
            terms_a, terms_b = terms_b, terms_a
        out = [0] * n
        for i, c in terms_a:
            for j, d in terms_b:
                k = i + j
                if k >= n:
                    k -= n
                out[k] += c * d
        return CycloElement(self.ring, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "CycloElement":
        if k < 0:
            raise ValueError("negative powers are not defined in Z[zeta_n]")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def _check_ring(self, other: "CycloElement") -> None:
        if other.ring != self.ring:
            raise RingMismatch(
                f"elements of n={self.ring.n} and n={other.ring.n} cannot be combined")

    def embed(self) -> complex:
        """Numeric embedding: evaluate at zeta_n = exp(2*pi*i/n) in floats."""
        n = self.ring.n
        return sum((c * cmath.exp(2j * cmath.pi * e / n)
                    for e, c in enumerate(self.coeffs) if c), complex(0))

    def render(self) -> str:
        """Sparse 'c*z^e' rendering of the canonical form, decreasing exponents."""
        terms = [(e, c) for e, c in enumerate(self.canonical()) if c]
        if not terms:
            return "0"
        return " + ".join(f"{c}*z^{e}" for e, c in reversed(terms))

    def __repr__(self):
        return f"<CycloElement n={self.ring.n}: {self.render()}>"


def binomial_product(ring: CycloRing, factors) -> CycloElement:
    """Left-to-right product of two-term factors s1*x^e1 + s2*x^e2.

    Exponents are folded modulo x^n - 1 after every step, so each step is a
    pair of cyclic shifts plus one vector add; the result is not canonicalized
    here (equality tests canonicalize lazily).
    """
    n = ring.n
    acc = [0] * n
    acc[0] = 1
    for s1, e1, s2, e2 in factors:
        if s1 not in (1, -1) or s2 not in (1, -1):
            raise ValueError("factor signs must be +1 or -1")
        if not (0 <= e1 < n and 0 <= e2 < n):
            raise ValueError("factor exponents must lie in [0, n)")
        r1 = acc[n - e1:] + acc[:n - e1]
        r2 = acc[n - e2:] + acc[:n - e2]
        if s1 == 1:
            if s2 == 1:
                acc = [u + v for u, v in zip(r1, r2)]
            else:
                acc = [u - v for u, v in zip(r1, r2)]
        elif s2 == 1:
            acc = [v - u for u, v in zip(r1, r2)]
        else:
            acc = [-u - v for u, v in zip(r1, r2)]
    return CycloElement(ring, tuple(acc))


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

# The float bound (module docstring): below _FLOAT_P_LIMIT the computed log2
# of one factor is within _FACTOR_ERR of the true value.
_FACTOR_ERR = 2.0 ** -40
_FLOAT_P_LIMIT = 1 << 40


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


@functools.lru_cache(maxsize=4096)
def _coset_reps(p: int, m: int) -> tuple[int, ...]:
    """One representative c of each coset of R_m(p) in (Z/p)*."""
    size = (p - 1) // m
    reps = {}   # coset label c^|R| mod p -> first c with that label
    c = 1
    while len(reps) < m:
        reps.setdefault(pow(c, size, p), c)
        c += 1
    return tuple(reps.values())


@functools.lru_cache(maxsize=1)
def _factor_log2(p: int) -> list[float]:
    """log2 |i + zeta_p^x| for 0 <= x < p, by the closed form 2 sin(pi y/(4p))
    with y = (4x + p) mod 4p folded into (0, 2p)."""
    n = 4 * p
    out = []
    for x in range(p):
        y = (4 * x + p) % n
        if y > 2 * p:
            y = n - y
        out.append(math.log2(2.0 * math.sin(math.pi * y / n)))
    return out


@functools.lru_cache(maxsize=4096)
def _log2_bound(p: int, m: int) -> int:
    """An exponent b >= 0 with |sigma(P)| <= 2^b for every complex conjugate
    sigma(P) of P = prod over k in R_m(p) of (i +- zeta_p^k), either sign.

    The float bound of the module docstring: one log2 sum per coset, plus a
    margin from the per-factor error bound.
    """
    members = residue_set(p, m).members
    if p >= _FLOAT_P_LIMIT:
        return len(members)
    logs = _factor_log2(p)
    worst = max(math.fsum(logs[c * k % p] for k in members)
                for c in _coset_reps(p, m))
    margin = math.ceil(len(members) * _FACTOR_ERR)
    return max(0, math.ceil(worst) + margin)


@functools.lru_cache(maxsize=1)
def _factor_images(p: int, l: int) -> tuple[int, list[int], list[int]]:
    """I, the image of i in F_l, and the images I + eta^x and I - eta^x of
    i +- zeta_p^x for 0 <= x < p, where eta = w^4, I = w^p and w has exact
    order 4p."""
    w = _root_of_order(4 * p, l)
    eta = pow(w, 4, l)
    i_l = pow(w, p, l)
    plus = [0] * p
    minus = [0] * p
    x = 1
    for j in range(p):
        plus[j] = (i_l + x) % l
        minus[j] = (i_l - x) % l
        x = x * eta % l
    return i_l, plus, minus


@functools.lru_cache(maxsize=4096)
def _coset_images(p: int, m: int, l: int) -> tuple[int, tuple, tuple]:
    """I and the products over each coset cR of R = R_m(p) of the images
    I + eta^x and of I - eta^x in F_l, one entry per coset."""
    i_l, plus, minus = _factor_images(p, l)
    members = residue_set(p, m).members
    rows = []
    for terms in (plus, minus):
        row = []
        for c in _coset_reps(p, m):
            acc = 1
            for k in members:
                acc = acc * terms[c * k % p] % l
            row.append(acc)
        rows.append(tuple(row))
    return i_l, rows[0], rows[1]


@functools.lru_cache(maxsize=4096)
def _certify_i_product(p: int, m: int, s: int, delta: int,
                       quarter_turns: int) -> bool:
    """Certificate for prod over k in R_m(p) of (i + s*zeta_p^(ak)) = delta * i^q,
    for every a prime to p at once.

    The argument is in the module docstring: the 2m images of the difference
    must vanish modulo split primes whose product passes the float bound
    B = 2^b + 1.
    """
    bound = 2 ** _log2_bound(p, m) + 1
    modulus = 1
    for l in _split_primes(4 * p):
        i_l, plus, minus = _coset_images(p, m, l)
        # the image of P at i -> -I is the one of the other sign at i -> I
        rows = (plus, minus) if s == 1 else (minus, plus)
        for iu, row in zip((i_l, l - i_l), rows):
            want = delta * pow(iu, quarter_turns, l) % l
            if any(x != want for x in row):
                return False
        modulus *= l
        if modulus > bound:
            return True


def _certify_tan_cross(p: int, m: int, scalar: int) -> bool:
    """Certificate for (i-1)^|R| = scalar * prod over k in R_m(p) of
    (i - zeta_p^(ak)), for every a prime to p at once.

    (i-1)^|R| = (-2)^half * i^half, so for scalar = +-(-2)^half this is the
    gi claim; no other scalar is certified.
    """
    half = (p - 1) // (2 * m)
    power = (-2) ** half
    return scalar in (power, -power) and \
        _certify_i_product(p, m, -1, scalar // power, half % 4)


def _certified_unit(p: int, m: int, s: int) -> tuple[int, int] | None:
    """The (c, q) with prod over k in R_m(p) of (i + s*zeta_p^k) = c * i^q,
    c = +-1 and q in 0..3, if a certificate closes for one of them."""
    for c in (1, -1):
        for q in range(4):
            if _certify_i_product(p, m, s, c, q):
                return c, q
    return None


def _render_i_power(p: int, q: int, c: int) -> str:
    """CycloElement.render() of c * i^q in Z[zeta_4p], i = z^p, without a ring.

    z^(2p) = -1 folds i^2 to -1 and i^3 to -z^p, and z^0, z^p are already
    canonical because p < phi(4p) = 2p - 2.
    """
    if q % 4 >= 2:
        c = -c
    return f"{int_str(c)}*z^{p * (q % 2)}"


def _i_product(ctx: PrimeContext, m: int, a: int, s: int) -> CycloElement:
    """The dense product over k in R_m(p) of (i + s*zeta_p^(ak)) in Z[zeta_4p]."""
    ring = get_ring(4 * ctx.p)
    factors = [(1, ctx.p, s, 4 * a * k % ring.n)
               for k in residue_set(ctx, m).members]
    return binomial_product(ring, factors)


def _exact_record(ctx: PrimeContext, m: int, a: int, check: str,
                  actual_elem: CycloElement, expected_elem: CycloElement,
                  t0: float) -> VerificationRecord:
    expected = expected_elem.render()
    actual = actual_elem.render()
    return finish(ctx.p, m, a, check, expected == actual, expected, actual, t0)


def _verify_i_product(p, m: int, a: int, s: int, check: str) -> VerificationRecord:
    """prod over k in R_m(p) of (i + s*zeta_p^(ak)) = sign(2s) * i^((p-1)/(2m))."""
    t0 = time.perf_counter()
    ctx = _product_context(p, m, a)
    delta = symbol_sign(2 * s, ctx, m).value
    quarter_turns = (ctx.p_minus_1 // (2 * m)) % 4
    if _certify_i_product(ctx.p, m, s, delta, quarter_turns):
        both = _render_i_power(ctx.p, quarter_turns, delta)
        return finish(ctx.p, m, a, check, True, both, both, t0)
    unit = _certified_unit(ctx.p, m, s)
    if unit is not None:
        c, q = unit
        return finish(ctx.p, m, a, check, False,
                      _render_i_power(ctx.p, quarter_turns, delta),
                      _render_i_power(ctx.p, q, c), t0)
    lhs = _i_product(ctx, m, a, s)
    rhs = lhs.ring.monomial(ctx.p * quarter_turns, delta)
    return _exact_record(ctx, m, a, check, lhs, rhs, t0)


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
    t0 = time.perf_counter()
    ctx = _product_context(p, m, a)
    half = ctx.p_minus_1 // (2 * m)
    delta = symbol_sign(-2, ctx, m).value
    power = (-2) ** half
    scalar = delta * power
    lhs_text = _render_i_power(ctx.p, half, power)   # (i-1)^|R|
    if _certify_tan_cross(ctx.p, m, scalar):
        return finish(ctx.p, m, a, "thm_main_exact", True, lhs_text, lhs_text, t0)
    unit = _certified_unit(ctx.p, m, -1)
    if unit is not None:
        c, q = unit
        return finish(ctx.p, m, a, "thm_main_exact", False,
                      _render_i_power(ctx.p, q, scalar * c), lhs_text, t0)
    rhs = _i_product(ctx, m, a, -1) * scalar
    ring = rhs.ring
    lhs = (ring.monomial(ctx.p) - ring.one()) ** (2 * half)
    return _exact_record(ctx, m, a, "thm_main_exact", lhs, rhs, t0)
