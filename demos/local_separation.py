"""Separating squareclass candidates with finitely many local bits.

Squareclasses of field elements form an F2 vector space, and the Legendre
symbol of the residue at a split place (the Hilbert symbol against the
uniformizer t) is a linear functional on it. Scanning split primes yields
enough functionals to certify an affine coset bit by bit, or to tell apart
any finite family of candidates.
"""

from unitcert import (
    OcticField,
    TestFunctional,
    certify_affine,
    fundamental_pell,
    separate_candidates,
    theta,
)

O = OcticField(7, 19, 3)
th = theta(7, 19, 3)
e2 = O.from_quad_unit(fundamental_pell(2))
e_pq = O.from_quad_unit(fundamental_pell(133))

print("Legendre bits at the first valid place over t = 41:")
from unitcert import delta

place = delta(7, 19, 3, with_fsu=False).place
for name, x in [("Theta", th), ("eps_pq", e_pq), ("1", O.one())]:
    print(f"  h({name}) = {TestFunctional(place).evaluate(x)}")

print("\nOne functional resolves the pair {Theta, eps_pq * Theta}:")
cert = certify_affine(th, [e_pq])
f = cert.functionals[0]
print(f"  functional: place above t = {f.place.t}, signs {f.place.signs}")
print(f"  bit of Theta = {cert.base_bits[0]}  (0 means Theta is the square)")

print("\nTwo functionals decode the four-element coset Theta * <eps_2, eps_pq>:")
cert2 = certify_affine(th, [e2, e_pq])
for a in (0, 1):
    for b in (0, 1):
        u = th
        if a:
            u = u * e2
        if b:
            u = u * e_pq
        bits = tuple(fn.evaluate(u) for fn in cert2.functionals)
        print(f"  exponents ({a}, {b}) <-> bits {bits} -> decoded {cert2.decode(bits)}")

print("\nSeparating a four-candidate family by pairwise distinct rows:")
family = [O.one(), e2, e_pq, e2 * e_pq]
sep = separate_candidates(family)
for row, cand in zip(sep.table, ["1", "eps_2", "eps_pq", "eps_2*eps_pq"]):
    print(f"  {row}  <- {cand}")
print(f"  ({len(sep.functionals)} functionals at "
      f"t in {sorted({fn.place.t for fn in sep.functionals})})")
