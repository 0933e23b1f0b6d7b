#!/usr/bin/env python3
"""Exact product identities in the cyclotomic ring Z[zeta_4p].

Write z = zeta_4p, so that z^p is i and z^4 is zeta_p.  For 2m | p - 1 with
2 an m-th power residue mod p, the product of (i - zeta_p^(ak)) over R_m(p)
is sign(-2) * i^((p-1)/(2m)), where sign(-2) is the m-th power residue
symbol of -2.  A record renders each side in the canonical basis of
Z[zeta_4p], as 'c*z^e' with e in {0, p}, so string equality is ring
equality.

No product is expanded.  The checks certify that one real unit of
Z[zeta_p] is +-1 by its images modulo split primes l = 1 (mod 4p), and that
verdict serves both signs and every a.
"""

from resitan import (HypothesisViolation, symbol_sign, verify_gi,
                     verify_gi_plus, verify_tan_cross)

p, m = 31, 3
half = (p - 1) // (2 * m)
delta = symbol_sign(-2, p, m).value
print(f"p={p}, m={m}: i = z^{p}, |R_{m}({p})|/2 = {half}, sign(-2) = {delta:+d}")
print(f"claim: prod over R_{m}({p}) of (i - z^(4ak)) = {delta:+d} * i^{half}")
for a in (1, 2, 3, 30):
    rec = verify_gi(p, m, a)
    print(f"  a={a:2d}: {rec.status}  expected {rec.expected}  actual {rec.actual}")

print()
print("the residue symbol picks the sign; the power of i is (p-1)/(2m):")
for args in [(31, 3, 1), (5, 1, 1), (113, 4, 3), (73, 4, 5)]:
    p_, m_, a_ = args
    sym = symbol_sign(-2, p_, m_).value
    rec = verify_gi(*args)
    print(f"  gi{args!r:>12}: sign(-2) = {sym:+d}, i^{(p_ - 1) // (2 * m_)}"
          f"  -> {rec.status}  both sides {rec.actual}")

print()
print("the companion product over (i + z^(4ak)) takes the symbol of +2:")
for args in [(31, 3, 1), (5, 1, 1), (113, 4, 3)]:
    p_, m_, a_ = args
    sym = symbol_sign(2, p_, m_).value
    rec = verify_gi_plus(*args)
    print(f"  gi_plus{args!r:>12}: sign(2) = {sym:+d}  -> {rec.status}"
          f"  both sides {rec.actual}")

print()
print("cross-multiplied tangent identity, no floats involved:")
for args in [(31, 3, 1), (5, 1, 1), (113, 4, 1)]:
    p_, m_, a_ = args
    rec = verify_tan_cross(*args)
    scalar = symbol_sign(-2, p_, m_).value * (-2) ** ((p_ - 1) // (2 * m_))
    print(f"  (i-1)^|R| = {scalar} * prod(i - z^(4ak)) for (p,m,a)={args}: {rec.status}")
    print(f"    both sides {rec.actual}; the tangent product over R_{m_}({p_}) "
          f"is exactly {scalar}")

print()
print("outside the hypothesis there is no claim to check:")
try:
    verify_gi(13, 2)
except HypothesisViolation as exc:
    print(f"  gi(13, 2, 1): HypothesisViolation: {exc}")
    print("  (a scan records it as skipped(hypothesis))")
