"""Annihilation polynomial, C2 reduction, and bimodule dimensions.

Hand-checked fixtures pin the small levels; sweeps compare the PBW-derived
quantities against independent closed forms (the vacuum polynomial for the
annihilation operator, the factorial product for the C2 constant, and the
n'(p-n')(q-k'+1) count for bimodule dimensions).  The bimodule oracle, read
off the Harish-Chandra projection as products of linear factors, must equal
the PBW reduction of ``_pbw_bimodule_oracle`` field by field.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

import admissible_sl2.pbw
from admissible_sl2.exact import UniPoly
from admissible_sl2.fusion import bimodule_presentation
from admissible_sl2.mff import (
    bimodule_from_mff,
    c2_heisenberg_reduction,
    fuchs_projection,
    hw_annihilation_polynomial,
)
from admissible_sl2.weights import enumerate_admissible, level_from_pq, vacuum_polynomial
from _pbw_bimodule_oracle import pbw_bimodule_oracle

SWEEP = [(p, q) for p in range(2, 5) for q in range(1, 4) if math.gcd(p, q) == 1]
BOX_6_4 = [(p, q) for p in range(2, 7) for q in range(1, 5) if math.gcd(p, q) == 1]


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


def test_annihilation_fixture_2_1():
    const, poly = hw_annihilation_polynomial(level_from_pq(2, 1))
    assert const == 1
    assert poly == UniPoly({1: 1})  # x


def test_annihilation_fixture_3_1():
    const, poly = hw_annihilation_polynomial(level_from_pq(3, 1))
    assert const == 2
    assert poly == UniPoly({2: 2, 1: -2})  # 2 (x^2 - x)
    assert poly == vacuum_polynomial(level_from_pq(3, 1)).scale(2)


@pytest.mark.parametrize("p,q", SWEEP)
def test_annihilation_proportional_to_vacuum(p, q):
    level = level_from_pq(p, q)
    const, poly = hw_annihilation_polynomial(level)
    assert const != 0
    assert poly == vacuum_polynomial(level).scale(const)


def test_c2_fixtures():
    assert c2_heisenberg_reduction(level_from_pq(2, 1)) == (Fraction(-1), 1)
    assert c2_heisenberg_reduction(level_from_pq(3, 1)) == (Fraction(2), 2)
    assert c2_heisenberg_reduction(level_from_pq(3, 2)) == (Fraction(3, 2), 4)


@pytest.mark.parametrize("p,q", SWEEP)
def test_c2_exponent_and_constant(p, q):
    level = level_from_pq(p, q)
    coeff, exponent = c2_heisenberg_reduction(level)
    assert exponent == (p - 1) * q
    assert coeff == _c2_constant_closed_form(p, q)
    assert coeff != 0


@pytest.mark.parametrize("p,q", SWEEP)
def test_bimodule_oracle_matches_presentation(p, q):
    level = level_from_pq(p, q)
    for w in enumerate_admissible(level):
        oracle = bimodule_from_mff(level, w.n_primed, w.k_primed)
        pres = bimodule_presentation(level, w)
        assert oracle.dimension == pres.dimension
        assert oracle.dimension == w.n_primed * (p - w.n_primed) * (q - w.k_primed + 1)
        assert oracle.tail_unit
        assert len(oracle.dims) == w.n_primed
        # per-degree contributions are positive below the truncation degree
        assert all(d >= 1 for d in oracle.dims)


@pytest.mark.parametrize("p,q", BOX_6_4)
def test_bimodule_oracle_matches_pbw_reduction(p, q):
    level = level_from_pq(p, q)
    for w in enumerate_admissible(level):
        oracle = bimodule_from_mff(level, w.n_primed, w.k_primed)
        reference = pbw_bimodule_oracle(level, w.n_primed, w.k_primed)
        assert oracle.gcds == reference.gcds
        assert oracle.dims == reference.dims
        assert oracle.d_max == reference.d_max
        assert oracle.tail_window == reference.tail_window
        assert oracle.tail_unit == reference.tail_unit


def test_bimodule_oracle_multiplies_no_pbw_elements(monkeypatch):
    def refuse(left, right):
        raise AssertionError("pbw_product called")

    monkeypatch.setattr(admissible_sl2.pbw, "pbw_product", refuse)
    level = level_from_pq(5, 3)
    for w in enumerate_admissible(level):
        assert bimodule_from_mff(level, w.n_primed, w.k_primed).tail_unit
    with pytest.raises(AssertionError, match="pbw_product called"):
        pbw_bimodule_oracle(level, 1, 1)


def test_bimodule_vacuum_is_zhu_relation_sized():
    # the vacuum weight's bimodule is the Zhu algebra itself: dim (p-1) q
    for p, q in SWEEP:
        level = level_from_pq(p, q)
        oracle = bimodule_from_mff(level, 1, 1)
        assert oracle.dimension == (p - 1) * q


def test_fuchs_projection_weight_zero_structure():
    # the two projection families used by the reduction exist and live in the
    # expected algebras; smoke the vacuum case used everywhere downstream
    level = level_from_pq(3, 2)
    pf2 = fuchs_projection(level, "F2", 1, 1, "P2")
    assert pf2.algebra.name == "heis"
    assert not pf2.is_zero()
