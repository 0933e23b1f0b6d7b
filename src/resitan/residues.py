"""Power residue sets R_m(p) and the sign-valued 2m-th power residue symbol.

R_m(p) is the set of m-th power residues in [1, p-1], a multiplicative
subgroup of index m when p = 1 (mod m).  The symbol implemented here is the
restriction of the 2m-th power residue symbol to arguments whose value
a^((p-1)/(2m)) mod p is +-1; anything else raises NonRealSymbol, since a
faithful complex-valued symbol would need an embedding choice this library
deliberately does not make.
"""

from __future__ import annotations

import functools
import time
from collections import namedtuple

from .arith import PrimeContext, as_prime
from .errors import HypothesisViolation, NonRealSymbol
from .records import PASS, VerificationRecord, finish


class ResidueSet(namedtuple("ResidueSet", "p m members")):
    """The sorted m-th power residues in [1, p-1]."""

    __slots__ = ()
    p: int
    m: int
    members: tuple[int, ...]


class SignSymbol(namedtuple("SignSymbol", "value a p order")):
    """A 2m-th power residue symbol restricted to the real case {+1, -1}."""

    __slots__ = ()
    value: int
    a: int
    p: int
    order: int


def require_even_index(ctx: PrimeContext, m: int) -> None:
    """Raise unless m is positive and 2m divides p - 1."""
    if m < 1:
        raise ValueError("m must be positive")
    if ctx.p_minus_1 % (2 * m) != 0:
        raise HypothesisViolation(
            f"2m={2 * m} does not divide p-1={ctx.p_minus_1}")


def is_mth_residue(k: int, p: int | PrimeContext, m: int) -> bool:
    """Whether k is an m-th power modulo p, by the exponent criterion."""
    ctx = as_prime(p)
    if m < 1:
        raise ValueError("m must be positive")
    if ctx.p_minus_1 % m != 0:
        raise HypothesisViolation(f"p={ctx.p} is not 1 mod m={m}")
    if k % ctx.p == 0:
        raise HypothesisViolation(f"k={k} is divisible by p={ctx.p}")
    return pow(k % ctx.p, ctx.p_minus_1 // m, ctx.p) == 1


@functools.lru_cache(maxsize=65536)
def _subgroup_generator(p: int, m: int) -> int:
    """A generator of R_m(p), the subgroup of order (p-1)/m of (Z/p)*.

    Only the order is factored, so this costs less than listing the subgroup;
    c^m lies in the subgroup and generates it when c is a primitive root.
    """
    order = (p - 1) // m
    distinct = []
    n = order
    d = 2
    while d * d <= n:
        if n % d == 0:
            distinct.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        distinct.append(n)
    c = 2
    while True:
        h = pow(c, m, p)
        if all(pow(h, order // q, p) != 1 for q in distinct):
            return h
        c += 1


def residue_set(p: int | PrimeContext, m: int) -> ResidueSet:
    """All m-th power residues in [1, p-1].

    Membership is defined by the exponent test k^((p-1)/m) = 1 (mod p).  The
    set itself is built by walking the powers of a generator of the subgroup,
    which produces the same set in O(p/m) multiplications.  Sets are kept for
    the most recent prime only, so every check and every a at that prime
    shares one build per m.
    """
    ctx = as_prime(p)
    require_even_index(ctx, m)
    sets = _residue_sets(ctx.p)
    rs = sets.get(m)
    if rs is None:
        rs = sets[m] = _build_residue_set(ctx.p, m)
    return rs


@functools.lru_cache(maxsize=1)
def _residue_sets(p: int) -> dict[int, ResidueSet]:
    """The R_m(p) built so far for prime p, keyed by m."""
    return {}


def _build_residue_set(q: int, m: int) -> ResidueSet:
    count = (q - 1) // m
    if m == 1:
        return ResidueSet(q, 1, tuple(range(1, q)))
    step = _subgroup_generator(q, m)
    out = []
    cur = 1
    for _ in range(count):
        out.append(cur)
        cur = cur * step % q
    if cur != 1:
        raise ArithmeticError(
            f"the walk of R_{m}({q}) did not close after {count} steps")
    return ResidueSet(q, m, tuple(sorted(out)))


def verify_residue_sum(p: int | PrimeContext, m: int) -> VerificationRecord:
    """Lemma 2.1 as a lemma21 record: the members of R_m(p) sum to
    p(p-1)/(2m)."""
    t0 = time.perf_counter()
    ctx = as_prime(p)
    target = ctx.p * ctx.p_minus_1 // (2 * m)
    total = sum(residue_set(ctx, m).members)
    return finish(ctx.p, m, 0, "lemma21", total == target,
                  str(target), str(total), t0)


def residue_sum_check(p: int | PrimeContext, m: int) -> bool:
    """Whether the members of R_m(p) sum to p(p-1)/(2m)."""
    return verify_residue_sum(p, m).status == PASS


def symbol_sign(a: int, p: int | PrimeContext, m: int) -> SignSymbol:
    """The sign d in {+1, -1} with a^((p-1)/(2m)) = d (mod p).

    Defined whenever that power is congruent to +-1, which is guaranteed when
    a is plus or minus an m-th power residue.
    """
    ctx = as_prime(p)
    require_even_index(ctx, m)
    if a % ctx.p == 0:
        raise ValueError(f"a={a} is divisible by p={ctx.p}")
    t = pow(a % ctx.p, ctx.p_minus_1 // (2 * m), ctx.p)
    if t == 1:
        value = 1
    elif t == ctx.p - 1:
        value = -1
    else:
        raise NonRealSymbol(
            f"a^((p-1)/(2m)) = {t} (mod {ctx.p}) is not +-1, the symbol is not real")
    return SignSymbol(value, a, ctx.p, 2 * m)
