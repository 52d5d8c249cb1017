"""
Normal ordering and quadratic-factor calculus
=============================================

Multiply universal-enveloping-algebra elements into PBW normal form, move
quadratic factors H_a = fe - a h - a(a+1) through powers of e and f with
the shift identities, and verify the identity families that drive the
singular-vector computations.
"""

from __future__ import annotations

from fractions import Fraction

from admissible_sl2 import (
    SL2,
    Level,
    PBWElement,
    c2_heisenberg_reduction,
    factor_product,
    hw_annihilation_polynomial,
    sigma_antihom,
    verify_operator_identities,
)

# PBW normal form orders monomials as f^a h^b e^c; products reorder
# automatically via the commutation relations [h,f] = -2f, [e,f] = h
e = PBWElement.generator(SL2, "e")
f = PBWElement.generator(SL2, "f")
h = PBWElement.generator(SL2, "h")
print(f"e * f         = {e * f}")
print(f"e * e * f * f = {e * e * f * f}")

# the antihomomorphism sigma negates generators and reverses products
x = e * f * h
print(f"\nsigma(e f h)  = {sigma_antihom(x)}")

# quadratic factors: fe = H_0, and e H_a = H_(a-1) e lets a whole product
# of factors slide through powers of e
prod = factor_product(SL2, [0, 1])
print(f"\nH_0 H_1       = {prod}")
print(f"f^2 e^2       = {f * f * e * e}")
assert prod == f * f * e * e

# the identity families behind the singular-vector calculus, checked at
# 7 rational parameter samples each, exactly
report = verify_operator_identities(m_max=3)
print(f"\nidentities to m_max=3: {len(report.checks)} checks, "
      f"all pass = {report.all_pass}")

# what the calculus buys: the polynomial by which the singular vector acts
# on a highest-weight vector, and the leading term of its C2 symbol
level = Level(3, 2)
const, labels = hw_annihilation_polynomial(level)
roots = ", ".join(str(Fraction(J, level.q)) for J in labels)  # root labels are q * r
print(f"\nannihilation polynomial at (p,q)=(3,2): {const} * prod (x - r), r in {roots}")
coeff, exponent = c2_heisenberg_reduction(level)
print(f"C2 symbol: coefficient {coeff} on power {exponent} "
      f"(dimension bound (p-1)q = {(level.p - 1) * level.q})")
