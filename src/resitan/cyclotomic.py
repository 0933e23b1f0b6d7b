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
- Norm bound.  Each complex embedding of a factor i +- zeta has modulus at
  most 2, so every conjugate of d is bounded by B = 2^|R| + 1 for the
  products of Theorem 1.2 and by B = 2^(|R|/2) + 2^(3|R|/2) for the
  cross-multiplied tangent identity, whose right side carries the scalar
  +-2^(|R|/2).  If d is divisible by L = l_1 * ... * l_r with L > B and
  d != 0, then |N(d)| >= L^phi(n) > B^phi(n) >= |N(d)|, which is impossible.

So d = 0 once the 2m images vanish modulo enough split primes for their
product to pass B; that costs about 3p multiplications modulo each l.  One
certificate per (p, m) and right side covers every a.  A check that passes
renders both sides as the certified monomial c * i^q without building the
ring; a check whose certificate does not close is recomputed in the dense
ring, which renders the two sides that differ and keeps its size bound.
"""

from __future__ import annotations

import cmath
import functools
import time

from .arith import PrimeContext, as_prime, divisors, is_prime
from .errors import BoundExceeded, HypothesisViolation, RingMismatch
from .records import VerificationRecord, finish
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


# Certificate primes come down from 2^62, so each adds more than 61 bits to
# the modulus and a product of two residues stays near two machine words.
_SPLIT_TOP = 1 << 62
_SPLIT_BITS = 61


@functools.lru_cache(maxsize=64)
def _split_primes(n: int) -> tuple[int, ...]:
    """The largest primes l = 1 (mod n) below 2^62, proven by is_prime.

    n = 4p, and there are enough of them for their product to pass the
    largest bound any exact check has at p, 2^((p-1)/2) + 2^(3(p-1)/2), so
    one list serves every m and every check.
    """
    p = n // 4
    count = (3 * (p - 1) // 2 + 1) // _SPLIT_BITS + 1
    out = []
    candidate = (_SPLIT_TOP - 2) // n * n + 1
    while len(out) < count and candidate > 1:
        if is_prime(candidate):
            out.append(candidate)
        candidate -= n
    return tuple(out)


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


def _orbit_certificate(p: int, m: int, s: int, scalar: int, target,
                       bound: int) -> bool:
    """Whether scalar * prod over k in R_m(p) of (i + s*zeta_p^k) = target(i)
    holds in Z[zeta_4p], given that every conjugate of the difference of the
    two sides is at most `bound` in modulus.

    target(l, iu) is the right side under the embedding that sends i to iu in
    F_l.  The argument is in the module docstring: the 2m images of the
    difference, one per image of i and coset of R_m(p), must vanish modulo
    split primes whose product passes `bound`.
    """
    members = residue_set(p, m).members
    reps = {}   # coset label c^|R| mod p -> first c with that label
    c = 1
    while len(reps) < m:
        reps.setdefault(pow(c, len(members), p), c)
        c += 1
    cosets = [[c * k % p for k in members] for c in reps.values()]
    n = 4 * p
    modulus = 1
    for l in _split_primes(n):
        w = _root_of_order(n, l)
        eta = pow(w, 4, l)
        powers = [1] * p
        for j in range(1, p):
            powers[j] = powers[j - 1] * eta % l
        i_l = pow(w, p, l)
        for iu in (i_l, l - i_l):   # t = 1 and t = 3 (mod 4)
            want = target(l, iu) % l
            terms = [(iu + s * x) % l for x in powers]
            for exponents in cosets:
                acc = scalar % l
                for e in exponents:
                    acc = acc * terms[e] % l
                if acc != want:
                    return False
        modulus *= l
        if modulus > bound:
            return True
    raise ArithmeticError(f"split primes 1 mod {n} ran out below the bound")


@functools.lru_cache(maxsize=4096)
def _certify_i_product(p: int, m: int, s: int, delta: int,
                       quarter_turns: int) -> bool:
    """Certificate for prod over k in R_m(p) of (i + s*zeta_p^(ak)) = delta * i^q,
    for every a prime to p at once."""
    size = (p - 1) // m
    return _orbit_certificate(p, m, s, 1,
                              lambda l, iu: delta * pow(iu, quarter_turns, l),
                              2 ** size + 1)


@functools.lru_cache(maxsize=4096)
def _certify_tan_cross(p: int, m: int, scalar: int) -> bool:
    """Certificate for (i-1)^|R| = scalar * prod over k in R_m(p) of
    (i - zeta_p^(ak)), for every a prime to p at once."""
    size = (p - 1) // m
    return _orbit_certificate(p, m, -1, scalar,
                              lambda l, iu: pow(iu - 1, size, l),
                              2 ** (size // 2) + 2 ** (3 * size // 2))


def _render_i_power(p: int, q: int, c: int) -> str:
    """CycloElement.render() of c * i^q in Z[zeta_4p], i = z^p, without a ring.

    z^(2p) = -1 folds i^2 to -1 and i^3 to -z^p, and z^0, z^p are already
    canonical because p < phi(4p) = 2p - 2.
    """
    if q % 4 >= 2:
        c = -c
    return f"{c}*z^{p * (q % 2)}"


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
    scalar = delta * (-2) ** half
    if _certify_tan_cross(ctx.p, m, scalar):
        both = _render_i_power(ctx.p, half, (-2) ** half)
        return finish(ctx.p, m, a, "thm_main_exact", True, both, both, t0)
    rhs = _i_product(ctx, m, a, -1) * scalar
    ring = rhs.ring
    lhs = (ring.monomial(ctx.p) - ring.one()) ** (2 * half)
    return _exact_record(ctx, m, a, "thm_main_exact", lhs, rhs, t0)
