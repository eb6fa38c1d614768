"""Walk through one full residual-bit decision, printing every intermediate.

The unit group of K = Q(sqrt2, sqrt pq, sqrt ps) has rank 7. Six generators
are classical; the last one is sqrt(mu * Theta) where Theta is a product of
two biquadratic square roots and mu is either 1 or eps_pq. Which one it is
cannot be read off the usual congruence data: it takes one Legendre symbol at
a well-chosen auxiliary prime. This script resolves it for (p, q, s) = (7, 19, 3).
"""

import math

from unitcert import (
    delta,
    fundamental_pell,
    jacobi,
    residue_at,
    sqrt_octic,
    theta,
    theta_factors,
)

p, q, s = 7, 19, 3
print(f"triple (p, q, s) = ({p}, {q}, {s}),  pq = {p*q}, ps = {p*s}")

print("\nStep 1: the four quadratic Pell units entering Theta")
for d in (p * q, 2 * p * q, p * s, 2 * p * s):
    print(f"  eps_{d} = {fundamental_pell(d)}")

print("\nStep 2: each product eps_d * eps_2d is a square in Q(sqrt2, sqrt d);")
print("take the root that is positive in the all-positive real embedding:")
f_pq, f_ps = theta_factors(p, q, s)
print(f"  sqrt(eps_{p*q} eps_{2*p*q}) = {f_pq.to_text()}")
print(f"  sqrt(eps_{p*s} eps_{2*p*s}) = {f_ps.to_text()}")

th = theta(p, q, s)
print(f"\nStep 3: Theta = product of both roots, as an octic element:")
print(f"  Theta = {th.to_text()}")
value = sum(float(c) * math.sqrt(m) for c, m in zip(th.coords, th.tower.radicands))
print(f"  numerically {value:.6f} at the distinguished embedding")

print("\nStep 4: pick a split prime with a valid place and read one Legendre bit:")
cert = delta(p, q, s, oracle=True)
place = cert.place
print(f"  t = {place.t}, canonical roots r2 = {place.r2}, "
      f"rpq = {place.rpq}, rps = {place.rps}")
print(f"  factor residues: {residue_at(f_pq, place)} and {residue_at(f_ps, place)}")
print(f"  eps_pq residue {cert.eps_pq_residue}: "
      f"jacobi = {jacobi(cert.eps_pq_residue, place.t)} (must be -1: valid place)")
print(f"  Theta residue {cert.theta_residue}: jacobi = {cert.legendre_theta}")
print(f"  => delta = {cert.delta}, mu = {cert.mu}")

print("\nStep 5: the exact oracle confirms the local decision globally:")
xi = sqrt_octic(th)
print(f"  sqrt(Theta) = {xi.to_text()}")
print(f"  check: root squared equals Theta -> {xi * xi == th}")
e_pq = th.tower.from_quad_unit(fundamental_pell(p * q))
print(f"  sqrt(eps_pq * Theta) exists -> {sqrt_octic(e_pq * th) is not None}")

print("\nThe complete seven-generator unit system:")
for g in cert.fsu:
    tag = f"  [mu = {g.mu}]" if g.mu else ""
    print(f"  {g.name}{tag} = {g.element.to_text()}")
