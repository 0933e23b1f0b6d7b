"""Representations p = x^2 + d*y^2 and the residue criteria built on them."""

from __future__ import annotations

import math
from collections import namedtuple

from .arith import Validated, as_prime, jacobi, sqrt_mod
from .errors import HypothesisViolation, NotRepresentable
from .records import VerificationRecord, finish
from .residues import is_mth_residue


class Representation(Validated, namedtuple("Representation", "p d x y")):
    """p = x^2 + d*y^2 with x, y positive integers.

    A frozen tuple (p, d, x, y), validated by __new__ on every construction
    path (arith.Validated).
    """

    __slots__ = ()
    p: int
    d: int
    x: int
    y: int

    def __new__(cls, p, d, x, y):
        if x <= 0 or y <= 0:
            raise ValueError("x and y must be positive")
        if x * x + d * y * y != p:
            raise ValueError("x^2 + d*y^2 != p")
        if d == 27 and (x - y) % 2 == 0:
            raise ValueError("x and y must have opposite parity when d = 27")
        return tuple.__new__(cls, (p, d, x, y))


def cornacchia(p, d: int) -> Representation | None:
    """Solve p = x^2 + d*y^2 in positive integers, or return None.

    The Euclidean descent is seeded with the square root r of -d modulo p
    satisfying sqrt(p) < r < p (replacing r by p - r if needed); the first
    remainder at or below sqrt(p) is the candidate x, and y is recovered as
    the exact integer square root of (p - x^2)/d.  Any non-integer step means
    there is no representation.
    """
    ctx = as_prime(p)
    q = ctx.p
    if d < 1:
        raise ValueError("d must be positive")
    if d >= q:
        return None  # x, y >= 1 forces x^2 + d*y^2 > p
    r = sqrt_mod(-d % q, ctx)
    if r is None:
        return None
    lim = math.isqrt(q)
    if r <= lim:
        r = q - r
    a, b = q, r
    while b > lim:
        a, b = b, a % b
    x = b
    rest = q - x * x
    if rest % d != 0:
        return None
    y2 = rest // d
    y = math.isqrt(y2)
    if y == 0 or y * y != y2:
        return None
    return Representation(q, d, x, y)


def check_lemma31(p) -> VerificationRecord:
    """Sign law for p = x^2 + 27*y^2: jacobi(-2, p) = (-1)^(xy/2), together
    with its congruence form 4 | xy iff p = 1, 3 (mod 8)."""
    ctx = as_prime(p)
    rep = cornacchia(ctx, 27)
    if rep is None:
        raise NotRepresentable(f"p={ctx.p} has no representation x^2 + 27*y^2")
    xy = rep.x * rep.y
    sign = -1 if (xy // 2) % 2 else 1
    jac = jacobi(-2, ctx.p)
    equiv = (xy % 4 == 0) == (ctx.p % 8 in (1, 3))
    expected = f"jacobi(-2,p)={sign:+d}; 4|xy<=>p%8in{{1,3}}=True"
    actual = f"jacobi(-2,p)={jac:+d}; 4|xy<=>p%8in{{1,3}}={equiv}"
    return finish(ctx.p, 3, 0, "lemma31", jac == sign and equiv,
                  expected, actual)


def two_residue_criterion(p, m: int) -> VerificationRecord:
    """2 is an m-th power residue mod p iff p = x^2 + m*(m*y)^2, for m in {3, 4}.

    The form is x^2 + 27*y^2 for m = 3 and x^2 + 64*y^2 for m = 4.
    """
    ctx = as_prime(p)
    if m not in (3, 4):
        raise ValueError("the criterion applies to m = 3 or m = 4 only")
    if ctx.p % m != 1:
        raise HypothesisViolation(f"p={ctx.p} is not 1 mod {m}")
    d = 27 if m == 3 else 64
    residue = is_mth_residue(2, ctx, m)
    representable = cornacchia(ctx, d) is not None
    expected = f"2 in R_{m}(p): {representable}"
    actual = f"2 in R_{m}(p): {residue}"
    return finish(ctx.p, m, 0, "criterion", residue == representable,
                  expected, actual)
