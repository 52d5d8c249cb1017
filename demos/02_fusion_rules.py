"""
Fusion rules by three independent routes
========================================

Compute fusion products of admissible modules three ways — the closed-form
rule, a Frenkel-Zhu bimodule contraction, and a singular-vector-driven
oracle — and check they agree.  Then build the whole fusion ring and verify
its axioms, and watch the rule collapse to classical su(2) fusion at
integer level.
"""

from __future__ import annotations

from fractions import Fraction

from admissible_sl2 import (
    FusionRing,
    Level,
    classical_su2_fusion,
    enumerate_admissible,
    vacuum_polynomial,
    weight_from_j,
)
from admissible_sl2.fusion import fusion

level = Level(3, 2)

# the vacuum Zhu algebra is C[x] modulo the vacuum polynomial, whose roots
# are exactly the admissible weights
relation = vacuum_polynomial(level)
print(f"Zhu algebra: dim = {relation.degree}, relation = {relation}")

# one fusion product, all three routes at once (`oracle="all"` cross-checks);
# the weights carry their level
w1 = weight_from_j(level, Fraction(1))
w2 = weight_from_j(level, Fraction(-3, 2))
rec = fusion(w1, w2, oracle="all")
print(f"\nL({w1.j}) x L({w2.j}) = {{{', '.join(f'L({w.j}): {m}' for w, m in rec.outputs)}}}")
print(f"three routes agree: {rec.oracles_agree}")

# some products vanish outright: the gate k1' + k2' <= q + 1 fails
w3 = weight_from_j(level, Fraction(-1, 2))
rec0 = fusion(w3, w3)
print(f"L({w3.j}) x L({w3.j}) = {dict(rec0.outputs) or '0'}  (gate closed)")

# the full ring, with unit / commutativity / associativity checked on its
# sparse table of nonzero structure constants
ring = FusionRing.build(level)
print(f"\nfusion ring axioms: {ring.axioms()}")
print("full table:")
for w1 in enumerate_admissible(level):
    for w2 in enumerate_admissible(level):
        outs = {str(w.j): m for w, m in fusion(w1, w2).outputs}
        print(f"  L({str(w1.j):>4}) x L({str(w2.j):>4}) = {outs or '0'}")

# at q = 1 and integer level the rule is the classical truncated
# Clebsch-Gordan product
ell = 2
lvl = Level(ell + 2, 1)
w1, w2 = enumerate_admissible(lvl)[1], enumerate_admissible(lvl)[2]
closed = {str(w.j): m for w, m in fusion(w1, w2).outputs}
classical = classical_su2_fusion(ell, w1.n, w2.n)
print(f"\nlevel {ell}: closed form {closed}")
print(f"level {ell}: classical  {({str(j): m for j, m in classical.items()})}")
