#!/usr/bin/env python3
"""Exact product identities in the cyclotomic ring Z[zeta_4p].

Everything here is integer arithmetic: zeta_4p^p acts as i, zeta_4p^(4k)
realizes e^(2*pi*i*k/p), and products of the sparse binomials (i - zeta^(4ak))
collapse to a single signed power of i once reduced modulo Phi_4p.  The
renders below are canonical forms, so string equality is ring equality.

The first product is expanded in the reference ring of resitan.ring; the
checks after it are decided by certificates modulo split primes and never
expand a product.
"""

from resitan import symbol_sign, verify_gi, verify_gi_plus, verify_tan_cross
from resitan.residues import residue_set
from resitan.ring import binomial_product, get_ring

p, m, a = 31, 3, 1
ring = get_ring(4 * p)
print(f"ring: {ring!r}, i = z^{p}, Phi_{4 * p} has degree {ring.phi_n}")

members = residue_set(p, m).members
factors = [(1, p, -1, 4 * a * k % (4 * p)) for k in members]
product = binomial_product(ring, factors)
print(f"prod over R_{m}({p}) of (i - z^(4k)) = {product.render()}   (that is -i)")
print()

for args in [(31, 3, 1), (31, 3, 2), (5, 1, 1), (113, 4, 3)]:
    rec = verify_gi(*args)
    print(f"gi{args!r:>12}: {rec.status}  both sides {rec.actual}")

print()
for args in [(31, 3, 1), (5, 1, 1)]:
    rec = verify_gi_plus(*args)
    print(f"gi_plus{args!r:>12}: {rec.status}  both sides {rec.actual}")

print()
print("cross-multiplied tangent identity, no floats involved:")
for args in [(31, 3, 1), (5, 1, 1), (113, 4, 1)]:
    p_, m_, a_ = args
    rec = verify_tan_cross(*args)
    scalar = symbol_sign(-2, p_, m_).value * (-2) ** ((p_ - 1) // (2 * m_))
    print(f"  (i-1)^|R| = {scalar} * prod(i - z^(4ak)) for (p,m,a)={args}: {rec.status}")
    print(f"    tangent product over R_{m_}({p_}) is exactly {scalar}")
