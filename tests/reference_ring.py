"""Reference arithmetic in Z[zeta_n]: the dense cyclotomic ring.

An element is a dense vector of arbitrary-precision integer coefficients over
the exponent basis zeta_n^0, ..., zeta_n^(n-1).  Products fold exponents
modulo n (zeta_n^n = 1), so intermediates never leave the vector; the
canonical form, i.e. the remainder modulo the n-th cyclotomic polynomial with
degree below phi(n), is computed only for equality tests and rendering.
Coefficients of a product of j two-term factors can reach 2^j, far past any
machine word, which is why everything stays in Python integers.

The package does not use this module: its exact checks are decided by
modular certificates and never expand a product.  The ring is the tests'
independent reference, which they expand products in to compare records
against.  A product over R_m(p) in n = 4p costs about n * |R| coefficient
operations, so it is meant for small p.
"""

from __future__ import annotations

import cmath
import functools

from resitan.arith import divisors


class RingMismatch(ValueError):
    """Elements of two different cyclotomic rings were combined."""


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


def cyclotomic_poly(n: int) -> list[int]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first.

    Moebius product formula: multiply out (x^(n/d) - 1) over the squarefree
    divisors d of n with mu(d) = +1, then divide the mu(d) = -1 factors back
    out with exact integer polynomial division.
    """
    if n < 1:
        raise ValueError("n must be positive")
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

    def __init__(self, n: int):
        coeffs = cyclotomic_poly(n)
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
