"""Annihilation polynomial, C2 reduction, and bimodule dimensions.

Hand-checked fixtures pin the small levels; sweeps compare the derived
quantities against independent closed forms (the vacuum polynomial for the
annihilation operator, the factorial product for the C2 constant, and the
n'(p-n')(q-k'+1) count for bimodule dimensions).  The annihilation polynomial
and the bimodule oracle, both read off the Harish-Chandra projection as
products of linear factors held as root labels, must equal, once expanded,
the PBW normal-ordering references of ``_pbw_annihilation_oracle`` and
``_pbw_bimodule_oracle``.  The check that compares root labels with the
vacuum's gives the verdict of the expanded-polynomial comparison, on every
level of the (12,8) box.  The C2 reduction,
which drops the left multiples of eb after every product, must equal the
remainder of the whole product it replaces.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

import admissible_sl2.pbw
from admissible_sl2.exact import UniPoly, poly_from_linear_factors
from admissible_sl2.fusion import bimodule_presentation
from admissible_sl2.mff import (
    bimodule_from_mff,
    c2_heisenberg_reduction,
    fuchs_projection,
    hw_annihilation_polynomial,
)
from admissible_sl2.pbw import HEIS, PBWElement
from admissible_sl2.verify import annihilation_proportional, level_oracles, three_routes_agree
from admissible_sl2.weights import (
    AdmissibleWeight,
    Level,
    enumerate_admissible,
    vacuum_polynomial,
)
from _pbw_annihilation_oracle import pbw_annihilation_polynomial
from _pbw_bimodule_oracle import pbw_bimodule_oracle

SWEEP = [(p, q) for p in range(2, 5) for q in range(1, 4) if math.gcd(p, q) == 1]
BOX_6_4 = [(p, q) for p in range(2, 7) for q in range(1, 5) if math.gcd(p, q) == 1]
BOX_8_6 = [(p, q) for p in range(2, 9) for q in range(1, 7) if math.gcd(p, q) == 1]
BOX_12_8 = [(p, q) for p in range(2, 13) for q in range(1, 9) if math.gcd(p, q) == 1]


def _c2_constant_closed_form(p: int, q: int) -> Fraction:
    """(-1)^(p-1) (p-1)! prod_{r=0}^{p-2} prod_{s=1}^{q-1} (s p/q - r)."""
    t = Fraction(p, q)
    c = Fraction(math.factorial(p - 1))
    if (p - 1) % 2:
        c = -c
    for r in range(p - 1):
        for s in range(1, q):
            c *= s * t - r
    return c


def _expanded(const: Fraction, labels, level) -> UniPoly:
    """const prod (x - J/q) over the root labels J."""
    return poly_from_linear_factors(Fraction(J, level.q) for J in labels).scale(const)


def _annihilation_polynomial(level) -> tuple[Fraction, UniPoly]:
    const, labels = hw_annihilation_polynomial(level)
    return const, _expanded(const, labels, level)


def test_annihilation_fixture_2_1():
    const, poly = _annihilation_polynomial(Level(2, 1))
    assert const == 1
    assert poly == UniPoly({1: 1})  # x


def test_annihilation_fixture_3_1():
    const, poly = _annihilation_polynomial(Level(3, 1))
    assert const == 2
    assert poly == UniPoly({2: 2, 1: -2})  # 2 (x^2 - x)
    assert poly == vacuum_polynomial(Level(3, 1)).scale(2)


@pytest.mark.parametrize("p,q", SWEEP)
def test_annihilation_proportional_to_vacuum(p, q):
    level = Level(p, q)
    const, poly = _annihilation_polynomial(level)
    assert const != 0
    assert poly == vacuum_polynomial(level).scale(const)


@pytest.mark.parametrize("p,q", BOX_6_4)
def test_annihilation_matches_pbw_reduction(p, q):
    level = Level(p, q)
    assert _annihilation_polynomial(level) == pbw_annihilation_polynomial(level)


def _moved(labels, by: int) -> tuple[int, ...]:
    """The labels with the last one moved by ``by``."""
    return tuple(sorted((*labels[:-1], labels[-1] + by)))


def test_label_verdict_equals_the_polynomial_comparison():
    # the polynomial form stays the referee: const != 0 and the expanded
    # product equal to const times the vacuum polynomial
    for p, q in BOX_12_8:
        level = Level(p, q)
        const, labels = hw_annihilation_polynomial(level)
        vacuum = vacuum_polynomial(level)
        for c, roots in ((const, labels), (0, labels), (const, _moved(labels, q))):
            expected = c != 0 and _expanded(c, roots, level) == vacuum.scale(c)
            assert annihilation_proportional(level, c, roots) == expected
        assert annihilation_proportional(level, const, labels)


def test_c2_fixtures():
    assert c2_heisenberg_reduction(Level(2, 1)) == (Fraction(-1), 1)
    assert c2_heisenberg_reduction(Level(3, 1)) == (Fraction(2), 2)
    assert c2_heisenberg_reduction(Level(3, 2)) == (Fraction(3, 2), 4)


@pytest.mark.parametrize("p,q", SWEEP)
def test_c2_exponent_and_constant(p, q):
    level = Level(p, q)
    coeff, exponent = c2_heisenberg_reduction(level)
    assert exponent == (p - 1) * q
    assert coeff == _c2_constant_closed_form(p, q)
    assert coeff != 0


def _c2_full_product(level) -> tuple[Fraction, int]:
    """The C2 remainder read off the whole product fb^{p-1} P2(F2(1,1))."""
    fb = PBWElement.generator(HEIS, HEIS.lowering)
    y = (fb ** (level.p - 1)) * fuchs_projection(AdmissibleWeight(level, 0, 0), "F2", "P2")
    remainder = PBWElement(HEIS, {m: c for m, c in y.terms.items() if m[0] == 0 and m[2] == 0})
    mono, coeff = remainder.single_monomial()
    return coeff, mono[1]


@pytest.mark.parametrize("p,q", BOX_8_6)
def test_pruned_c2_reduction_matches_the_full_product(p, q):
    level = Level(p, q)
    assert c2_heisenberg_reduction(level) == _c2_full_product(level)


def test_c2_reductions_stay_in_the_eb_free_part(monkeypatch):
    # the full products of the (12,8) box leave 198 778 memoized rewritings
    monkeypatch.setattr(admissible_sl2.pbw, "_GEN_CACHE", {})
    for p, q in BOX_12_8:
        assert c2_heisenberg_reduction(Level(p, q))[1] == (p - 1) * q
    assert len(admissible_sl2.pbw._GEN_CACHE) < 10_000


@pytest.mark.parametrize("p,q", SWEEP)
def test_bimodule_oracle_matches_presentation(p, q):
    level = Level(p, q)
    for w in enumerate_admissible(level):
        oracle = bimodule_from_mff(w)
        pres = bimodule_presentation(w)
        assert oracle.dimension == pres.dimension
        assert oracle.dimension == w.n_primed * (p - w.n_primed) * (q - w.k_primed + 1)
        assert oracle.tail_unit
        assert len(oracle.dims) == w.n_primed
        # per-degree contributions are positive below the truncation degree
        assert all(d >= 1 for d in oracle.dims)


@pytest.mark.parametrize("p,q", BOX_6_4)
def test_bimodule_oracle_matches_pbw_reduction(p, q):
    level = Level(p, q)
    for w in enumerate_admissible(level):
        oracle = bimodule_from_mff(w)
        reference = pbw_bimodule_oracle(w)
        assert [
            poly_from_linear_factors(Fraction(r, q) for r in g) for g in oracle.gcds
        ] == reference.gcds
        assert oracle.dims == reference.dims
        assert oracle.d_max == reference.d_max
        assert oracle.tail_window == reference.tail_window
        assert oracle.tail_unit == reference.tail_unit


def test_bimodule_oracle_multiplies_no_pbw_elements(monkeypatch):
    def refuse(left, right):
        raise AssertionError("pbw_product called")

    monkeypatch.setattr(admissible_sl2.pbw, "pbw_product", refuse)
    level = Level(5, 3)
    for w in enumerate_admissible(level):
        assert bimodule_from_mff(w).tail_unit
    assert hw_annihilation_polynomial(level)[0] != 0
    assert three_routes_agree(level_oracles(level))
    with pytest.raises(AssertionError, match="pbw_product called"):
        pbw_bimodule_oracle(AdmissibleWeight(level, 0, 0))
    with pytest.raises(AssertionError, match="pbw_product called"):
        pbw_annihilation_polynomial(level)


def test_bimodule_vacuum_is_zhu_relation_sized():
    # the vacuum weight's bimodule is the Zhu algebra itself: dim (p-1) q
    for p, q in SWEEP:
        level = Level(p, q)
        oracle = bimodule_from_mff(AdmissibleWeight(level, 0, 0))
        assert oracle.dimension == (p - 1) * q


def test_fuchs_projection_weight_zero_structure():
    # the two projection families used by the reduction exist and live in the
    # expected algebras; smoke the vacuum case used everywhere downstream
    level = Level(3, 2)
    pf2 = fuchs_projection(AdmissibleWeight(level, 0, 0), "F2", "P2")
    assert pf2.algebra is HEIS
    assert pf2.terms
