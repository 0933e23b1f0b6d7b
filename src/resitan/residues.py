"""Power residue sets R_m(p) and the sign-valued 2m-th power residue symbol.

R_m(p) is the set of m-th power residues in [1, p-1], a multiplicative
subgroup of index m when p = 1 (mod m).  The symbol implemented here is the
restriction of the 2m-th power residue symbol to arguments whose value
a^((p-1)/(2m)) mod p is +-1; anything else raises NonRealSymbol, since a
faithful complex-valued symbol would need an embedding choice this library
deliberately does not make.

Every layer reads R_m(p) as a walk, the powers h^0, h^1, ... of a generator
h of the cyclic group R_m(p), unsorted: Lemma 2.1 is a sum, the exact
layer's images a product mod l and an fsum, and the numeric layer indexes
its pair terms by position.  Only residue_set, the public sorted view, sorts.

One walk per prime.  If g is the generator of the full walk of (Z/p)*,
R_m(p) = <g^m>, so walk(p, m) is walk(p, 1)[::m], a slice, whenever the
full walk of p has been built; otherwise it is walked from a generator of
R_m(p) alone, which costs O(|R|) and factors only |R|, not p - 1.  Residue
g^j lies in the coset g^j0 * R_m(p) iff j = j0 (mod m), so every coset of
every m is an index class of the one walk; numeric.tan_product sums its
cosets as slices of the m = 1 pair terms, and cyclotomic._coset_images folds
the image of each pair of the walk's first half into its index class's
product, in one pass that keeps no table of images.  When 2m | p - 1,
h^(|R|/2) is the element of order 2, -1, so walk[i + |R|/2] = p - walk[i]:
the first half of a walk holds one member of each pair {k, p - k}.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

from .arith import PrimeContext, as_prime, prime_factors
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


def _require_index(ctx: PrimeContext, m: int) -> None:
    """Raise unless m is positive and divides p - 1."""
    if m < 1:
        raise ValueError("m must be positive")
    if ctx.p_minus_1 % m != 0:
        raise HypothesisViolation(f"p={ctx.p} is not 1 mod m={m}")


def require_unit(ctx: PrimeContext, a: int) -> None:
    """Raise unless a is a unit mod p, that is not divisible by p."""
    if a % ctx.p == 0:
        raise ValueError(f"a={a} is divisible by p={ctx.p}")


def coset_name(ctx: PrimeContext, k: int, a: int) -> int:
    """The name of the coset a*R_k(p), a a unit mod p: R_k(p), the k-th
    powers, has index d = gcd(k, p - 1) and is the kernel of
    x -> x^((p-1)/d), so a and b have the same image iff
    a*R_k(p) = b*R_k(p).  R_k(p) itself is named 1."""
    return pow(a, ctx.p_minus_1 // math.gcd(k, ctx.p_minus_1), ctx.p)


def is_mth_residue(k: int, p: int | PrimeContext, m: int) -> bool:
    """Whether k is an m-th power modulo p, by the exponent criterion."""
    ctx = as_prime(p)
    _require_index(ctx, m)
    if k % ctx.p == 0:
        raise HypothesisViolation(f"k={k} is divisible by p={ctx.p}")
    return coset_name(ctx, m, k) == 1


def _product_context(p, m: int, a: int) -> PrimeContext:
    """Validate the hypotheses of Theorem 1.2, shared by its exact and
    numeric checks: p prime, a not 0 mod p, 2m | p - 1, 2 in R_m(p)."""
    ctx = as_prime(p)
    require_unit(ctx, a)
    require_even_index(ctx, m)
    if not is_mth_residue(2, ctx, m):
        raise HypothesisViolation(f"2 is not a {m}-th power residue mod {ctx.p}")
    return ctx


def _subgroup_generator(p: int, m: int) -> int:
    """A generator of R_m(p), the subgroup of order (p-1)/m of (Z/p)*.

    Only the order is factored, so this costs less than listing the subgroup;
    c^m lies in the subgroup and generates it when c is a primitive root.
    """
    order = (p - 1) // m
    distinct = prime_factors(order)
    c = 2
    while True:
        h = pow(c, m, p)
        if all(pow(h, order // q, p) != 1 for q in distinct):
            return h
        c += 1


def walk(p: int | PrimeContext, m: int) -> tuple[int, ...]:
    """R_m(p) as the powers h^i, 0 <= i < (p-1)/m, of a generator h, unsorted.

    m must divide p - 1.  The walk is walk(p, 1)[::m] when the full walk of
    p is already built, and is walked from a generator of R_m(p) otherwise
    (see the module docstring).  The two may start from different
    generators, so the order of walk(p, m), m > 1, depends on which came
    first; walk(p, 1) is always the walk of the same primitive root.  When
    2m | p - 1, walk[i + |R|/2] = p - walk[i].  Walks are kept for the most
    recent prime only, so every check and every a at that prime shares one
    walk per m.
    """
    ctx = as_prime(p)
    _require_index(ctx, m)
    walks = _walks(ctx.p)
    w = walks.get(m)
    if w is None:
        full = walks.get(1)
        w = walks[m] = full[::m] if full is not None else _walk(ctx.p, m)
    return w


@functools.lru_cache(maxsize=1)
def _walks(p: int) -> dict[int, tuple[int, ...]]:
    """The walks built so far for prime p, keyed by m."""
    return {}


def _walk(q: int, m: int) -> tuple[int, ...]:
    """The powers of _subgroup_generator(q, m), in order, by doubling: with
    h^0..h^(n-1) known, h^n times each gives h^n..h^(2n-1).

    An even order holds -1 = h^(count/2), so only the first half is doubled
    and the second is q - x of it, a subtraction per member instead of a
    product and a reduction.  An odd order is doubled to its end."""
    count = (q - 1) // m
    doubled = count // 2 if count % 2 == 0 else count
    h = _subgroup_generator(q, m)
    out = [1]
    while len(out) < doubled:
        step = pow(h, len(out), q)
        out += [x * step % q for x in out[:doubled - len(out)]]
    if doubled < count:
        out += [q - x for x in out]
    return tuple(out)


def residue_set(p: int | PrimeContext, m: int) -> ResidueSet:
    """All m-th power residues in [1, p-1], sorted; m must divide p - 1.

    Membership is defined by the exponent test k^((p-1)/m) = 1 (mod p).  The
    set itself is the walk of a generator of the subgroup, which produces
    the same set in O(p/m) multiplications, sorted.
    """
    ctx = as_prime(p)
    return ResidueSet(ctx.p, m, tuple(sorted(walk(ctx, m))))


def verify_residue_sum(p: int | PrimeContext, m: int) -> VerificationRecord:
    """Lemma 2.1 as a lemma21 record: the members of R_m(p) sum to
    p(p-1)/(2m)."""
    ctx = as_prime(p)
    require_even_index(ctx, m)
    target = ctx.p * ctx.p_minus_1 // (2 * m)
    total = sum(walk(ctx, m))
    return finish(ctx.p, m, 0, "lemma21", total == target,
                  str(target), str(total))


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
    require_unit(ctx, a)
    t = pow(a % ctx.p, ctx.p_minus_1 // (2 * m), ctx.p)
    if t == 1:
        value = 1
    elif t == ctx.p - 1:
        value = -1
    else:
        raise NonRealSymbol(
            f"a^((p-1)/(2m)) = {t} (mod {ctx.p}) is not +-1, the symbol is not real")
    return SignSymbol(value, a, ctx.p, 2 * m)
