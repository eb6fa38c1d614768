"""Pell units and the single square test of real biquadratic fields.

The smallest unit above 1 of Z[sqrt d] comes out of the continued fraction of
sqrt d; its norm records whether x^2 - d y^2 = -1 is solvable. In a real
biquadratic field the three quadratic subfield units generate everything up
to index at most 2, and the index-2 case is witnessed by one square root.
"""

import math

from unitcert import biquad_unit_index, fundamental_pell, sqrt_exact
from unitcert.fields import BiquadField

print("Pell units by continued fractions:")
for d in (2, 21, 42, 61, 109, 133, 826):
    print(f"  eps_{d} = {fundamental_pell(d)}")

print("\nNegative norm happens exactly when the negative Pell equation is")
print("solvable; 61 and 109 are the classical small-x examples above.")

print("\nUnit index of Q(sqrt2, sqrt21) over its quadratic-subfield units:")
index, exps = biquad_unit_index(2, 21)
print(f"  index = {index}, exponent vector over (eps_2, eps_21, eps_42) = {exps}")

B = BiquadField(2, 21)
prod = B.from_quad_unit(fundamental_pell(21)) * B.from_quad_unit(fundamental_pell(42))
root = sqrt_exact(prod)
print(f"  witness: sqrt(eps_21 * eps_42) = {root.to_text()}")
print(f"  exact: root^2 == eps_21 * eps_42 -> {root * root == prod}")
value = sum(float(c) * math.sqrt(m) for c, m in zip(root.coords, B.radicands))
print(f"  value {value:.6f} > 0 at the distinguished embedding")

print("\nThe same test can fail: eps_65 and eps_130 have norm -1, so their")
print("product is negative somewhere and has no square root in the field:")
B65 = BiquadField(2, 65)
prod65 = B65.from_quad_unit(fundamental_pell(65)) * B65.from_quad_unit(fundamental_pell(130))
print(f"  sqrt(eps_65 * eps_130) -> {sqrt_exact(prod65)}")
