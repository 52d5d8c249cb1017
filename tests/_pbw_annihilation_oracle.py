"""Independent annihilation polynomial: the vacuum operator normal-ordered in PBW.

This is ``mff.hw_annihilation_polynomial`` computed the direct way.  It
multiplies the (p-1)(q-1) quadratic factors H_a and the tail
e^{p-1} f^{p-1} out in U(sl2) and reads the pure h-power terms, which are
the only monomials that act on a highest-weight vector.
``hw_annihilation_polynomial`` reads the same polynomial off the
Harish-Chandra images of the factors, and returns it as its constant c and
its root labels q*r.  ``tests/test_mff.py`` and ``tests/test_acceptance.py``
expand c prod (x - r) over those labels and require the ``(constant,
polynomial)`` returned here, over a box of levels.

The weight-zero ``InvariantError`` below is the premise of the closed form:
every PBW monomial of the operator has equal f- and e-powers.  Here it is
checked, not assumed.
"""

from __future__ import annotations

from fractions import Fraction

from admissible_sl2.errors import InvariantError
from admissible_sl2.exact import UniPoly
from admissible_sl2.pbw import SL2, PBWElement, factor_product
from admissible_sl2.weights import Level, vacuum_polynomial


def pbw_annihilation_polynomial(level: Level) -> tuple[Fraction, UniPoly]:
    """Pure h-power part of (prod H_{-p+r+st}) e^{p-1} f^{p-1}, normal-ordered."""
    p, q, t = level.p, level.q, level.t
    alphas = [
        -p + r + s * t for r in range(1, p) for s in range(1, q)
    ]
    e = PBWElement.generator(SL2, SL2.raising)
    f = PBWElement.generator(SL2, SL2.lowering)
    tail = (e ** (p - 1)) * (f ** (p - 1))
    x = factor_product(SL2, alphas) * tail
    coeffs: dict[int, Fraction] = {}
    for (a, b, c), coeff in x.terms.items():
        if a != c:
            raise InvariantError(
                f"weight-zero operator has monomial f^{a} h^{b} e^{c}"
            )
        if a == 0:
            coeffs[b] = coeff
    poly = UniPoly(coeffs)
    vac = vacuum_polynomial(level)
    c = poly.leading_coefficient()
    if not c or poly != vac.scale(c):
        raise InvariantError(
            f"eigenvalue polynomial {poly!r} is not a scalar multiple of {vac!r}"
        )
    return c, poly
