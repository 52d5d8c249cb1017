"""
Admissible weights at fractional level
======================================

Enumerate the finitely many irreducible highest weights that survive at
level ell = -2 + p/q, compute their conformal weights, and exhibit the
vacuum polynomial whose roots they are.
"""

from __future__ import annotations

from fractions import Fraction

from admissible_sl2 import (
    InputError,
    Level,
    conformal_weight,
    enumerate_admissible,
    kac_kazhdan_witness,
    vacuum_polynomial,
    virasoro_data,
    weight_from_j,
)

# the running example: p = 3, q = 2, so ell = -1/2 and t = ell + 2 = 3/2
level = Level(3, 2)
print(f"level: ell = {level.ell}, t = {level.t}  (p = {level.p}, q = {level.q})")

# a level checks itself: p >= 2, q >= 1 and gcd(p, q) = 1, or no level at all
try:
    Level(4, 2)
except InputError as exc:
    print(f"Level(4, 2) is refused: {exc}")

# central charge of the associated Virasoro structure
vd = virasoro_data(level, Fraction(1, 2))
print(f"central charge c = {vd.c_ell}")

# the admissible weights are j = n - k t with 0 <= n <= p-2, 0 <= k <= q-1:
# exactly (p-1) q of them
weights = enumerate_admissible(level)
print(f"\n{len(weights)} admissible weights:")
for w in weights:
    print(f"  j = {str(w.j):>5}   (n = {w.n}, k = {w.k})   Delta = {conformal_weight(level, w.j)}")

# each weight is a root of the vacuum polynomial, the single relation that
# cuts the vacuum Zhu algebra down to dimension (p-1) q
poly = vacuum_polynomial(level)
print(f"\nvacuum polynomial: {poly}")
for w in weights:
    assert poly(w.j) == 0
print("all admissible weights are roots: confirmed")

# weights can also be addressed by their rational label
w = weight_from_j(level, Fraction(-3, 2))
print(f"\nweight_from_j(-3/2) -> n = {w.n}, k = {w.k}")

# admissibility is detected by a Kac-Kazhdan witness equation; a generic
# rational weight has none
print(f"witness for j = -3/2: {kac_kazhdan_witness(level, Fraction(-3, 2))}")
print(f"witness for j = 1/5:  {kac_kazhdan_witness(level, Fraction(1, 5))}")
