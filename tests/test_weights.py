"""Admissible weights, vacuum polynomial, conformal data."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from admissible_sl2.errors import InputError
from admissible_sl2.weights import (
    AdmissibleWeight,
    Level,
    conformal_weight,
    enumerate_admissible,
    kac_kazhdan_witness,
    vacuum_polynomial,
    virasoro_data,
    weight_from_j,
)

LEVELS = [(2, 1), (3, 1), (3, 2), (4, 3), (5, 3), (6, 5), (7, 2)]


def test_level_validation():
    with pytest.raises(InputError, match="not coprime"):
        Level(4, 2)
    with pytest.raises(InputError, match="p=1 must be >= 2"):
        Level(1, 1)
    with pytest.raises(InputError, match="q=0 must be >= 1"):
        Level(3, 0)
    lvl = Level(3, 2)
    assert lvl.t == Fraction(3, 2) and lvl.ell == Fraction(-1, 2)


@pytest.mark.parametrize(
    "p, q, message",
    [(4, 2, "p=4 and q=2 are not coprime"), (1, 3, "p=1 must be >= 2"), (3, 0, "q=0 must be >= 1")],
)
def test_level_checks_itself(p, q, message):
    # the constructor is the one check: no level outside the admissible range exists
    with pytest.raises(InputError) as info:
        Level(p, q)
    assert str(info.value) == message


def test_weight_box_validation():
    lvl = Level(3, 2)
    with pytest.raises(InputError, match=r"n=2 outside 0\.\.1"):
        AdmissibleWeight(lvl, 2, 0)  # n must stay <= p-2
    with pytest.raises(InputError, match=r"k=2 outside 0\.\.1"):
        AdmissibleWeight(lvl, 0, 2)  # k must stay <= q-1


@pytest.mark.parametrize("p,q", LEVELS)
def test_enumeration_count_and_distinctness(p, q):
    lvl = Level(p, q)
    ws = enumerate_admissible(lvl)
    assert len(ws) == (p - 1) * q == lvl.n_weights
    js = [w.j for w in ws]
    assert len(set(js)) == len(js)
    for w in ws:
        assert w.j == w.n - w.k * lvl.t


@pytest.mark.parametrize("p,q", LEVELS)
def test_weight_from_j_inverts_enumeration(p, q):
    lvl = Level(p, q)
    for w in enumerate_admissible(lvl):
        assert weight_from_j(lvl, w.j) == w
    # a rational that is not of the form n - k t is rejected
    probe = Fraction(1, 7 * p * q)
    assert weight_from_j(lvl, probe) is None
    assert weight_from_j(lvl, Fraction(p)) is None  # n = p is out of the box


def test_fixture_weights_3_2():
    lvl = Level(3, 2)
    assert [w.j for w in enumerate_admissible(lvl)] == [
        Fraction(0),
        Fraction(-3, 2),
        Fraction(1),
        Fraction(-1, 2),
    ]


def test_conformal_weight_formula():
    lvl = Level(3, 2)
    # Delta_j = j (j+2) / (4 t) with t = 3/2
    assert conformal_weight(lvl, Fraction(0)) == 0
    assert conformal_weight(lvl, Fraction(1)) == Fraction(1 * 3, 6)
    assert conformal_weight(lvl, Fraction(-1, 2)) == Fraction(-1, 8)
    assert conformal_weight(lvl, Fraction(-3, 2)) == Fraction(-1, 8)


@pytest.mark.parametrize("p,q", LEVELS)
def test_vacuum_polynomial_roots_are_the_weights(p, q):
    lvl = Level(p, q)
    vac = vacuum_polynomial(lvl)
    assert vac.degree == (p - 1) * q
    assert vac.leading_coefficient() == 1
    for w in enumerate_admissible(lvl):
        assert vac(w.j) == 0
    # squarefree: the roots are exactly the (p-1) q distinct weights
    from admissible_sl2.exact import poly_gcd

    assert poly_gcd(vac, vac.derivative()).degree == 0


def test_virasoro_data_fixtures():
    # central charge c = 3 ell / (ell + 2)
    vd = virasoro_data(Level(3, 2), Fraction(1, 2))
    assert vd.c_ell == Fraction(-1)
    assert vd.c_ell_z == Fraction(-1) - 6 * Fraction(-1, 2) * Fraction(1, 4)
    assert vd.lam == Fraction(-1, 2) * Fraction(1, 4) / 2
    # the anomaly ell z^2 / 4 is the one exponent both are written from
    assert Level(3, 2).anomaly("1/2") == Fraction(-1, 2) * Fraction(1, 4) / 4
    vd21 = virasoro_data(Level(2, 1), Fraction(1, 3))
    assert vd21.c_ell == 0 and vd21.lam == 0
    with pytest.raises(InputError, match=r"z=1 outside \(0, 1\)"):
        virasoro_data(Level(3, 2), Fraction(1))


@pytest.mark.parametrize("p,q", LEVELS)
def test_kac_kazhdan_witness_on_admissible_weights(p, q):
    lvl = Level(p, q)
    t = lvl.t
    for w in enumerate_admissible(lvl):
        case, n, k = kac_kazhdan_witness(lvl, w.j)
        assert case == "I"
        assert n >= 1 and k >= 1
        assert w.j == n - 1 - (k - 1) * t


def test_kac_kazhdan_witness_none_for_generic_weight():
    lvl = Level(3, 2)
    assert kac_kazhdan_witness(lvl, Fraction(1, 5)) is None


def test_coprimality_guard_matches_gcd():
    for p in range(2, 9):
        for q in range(1, 7):
            if math.gcd(p, q) == 1:
                Level(p, q)
            else:
                with pytest.raises(InputError, match="not coprime"):
                    Level(p, q)
