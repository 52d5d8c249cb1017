"""Characters: theta-quotient route against the Verma-resolution oracle.

``tests/_resolution_oracle.py`` rebuilds each character from reflection
ladders and the PBW denominator without ever referencing the theta support
indices, so agreement here adjudicates the b-index formulas; the remaining
tests pin lowest terms, positivity, the chi/chibar shift, and the theta-ratio
rewriting used by the one-variable specialization.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from admissible_sl2 import characters
from admissible_sl2.characters import (
    CharacterSpec,
    character_qseries,
    chibar_lowest_exponent,
    theta_ratio_identity_check,
)
from admissible_sl2.errors import InputError, InvariantError
from admissible_sl2.weights import (
    AdmissibleWeight,
    Level,
    conformal_weight,
    enumerate_admissible,
    virasoro_data,
)

from _resolution_oracle import resolution_chibar

FIXTURE_LEVELS = [(2, 1), (3, 1), (3, 2), (5, 3)]
FIXTURE_ZS = [Fraction(1, 3), Fraction(1, 2)]


def test_support_indices_fixture_3_2():
    level = Level(3, 2)
    expected = {
        (0, 0): (2, -2),
        (0, 1): (5, 1),
        (1, 0): (4, -4),
        (1, 1): (7, -1),
    }
    for w in enumerate_admissible(level):
        assert (w.b_plus, w.b_minus) == expected[(w.n, w.k)]
        # the two indices are distinct mod 2a, so the numerator never cancels
        a = level.p * level.q
        assert (w.b_plus - w.b_minus) % (2 * a) != 0


def test_character_spec_validates_z():
    w = AdmissibleWeight(Level(3, 2), 1, 0)
    with pytest.raises(InputError, match="0 < z < 1"):
        CharacterSpec(w, Fraction(0))
    with pytest.raises(InputError, match="0 < z < 1"):
        CharacterSpec(w, Fraction(3, 2))
    spec = CharacterSpec(w, "1/2")
    assert spec.z == Fraction(1, 2)


def test_kind_validation():
    spec = CharacterSpec(AdmissibleWeight(Level(3, 2), 1, 0), Fraction(1, 2))
    with pytest.raises(InputError, match="kind must be"):
        character_qseries(spec, 5, kind="x")


def test_lowest_exponent_fixture_3_2():
    # worked fixture: p=3, q=2, j=1, z=1/2
    spec = CharacterSpec(AdmissibleWeight(Level(3, 2), 1, 0), Fraction(1, 2))
    assert chibar_lowest_exponent(spec) == Fraction(7, 24)
    assert chibar_lowest_exponent(spec) + spec.anomaly == Fraction(25, 96)
    series = character_qseries(spec, Fraction(3), kind="chibar")
    assert series.lowest() == (Fraction(7, 24), Fraction(1))
    series_chi = character_qseries(spec, Fraction(3), kind="chi")
    assert series_chi.lowest() == (Fraction(25, 96), Fraction(1))


def test_vacuum_character_2_1_is_one():
    # at (p, q) = (2, 1) the vacuum module is the trivial theory: chibar = 1
    spec = CharacterSpec(AdmissibleWeight(Level(2, 1), 0, 0), Fraction(1, 2))
    series = character_qseries(spec, Fraction(20), kind="chibar")
    assert series.prefix() == [(Fraction(0), Fraction(1))]


def test_chi_is_a_shift_of_chibar():
    for p, q in ((3, 2), (5, 3)):
        level = Level(p, q)
        for w in enumerate_admissible(level)[:3]:
            spec = CharacterSpec(w, Fraction(1, 3))
            shift = level.ell * Fraction(1, 3) ** 2 / 4
            chibar = character_qseries(spec, Fraction(8), kind="chibar")
            chi = character_qseries(spec, Fraction(8) + shift, kind="chi")
            assert chi == chibar.shift_exponents(shift)


@pytest.mark.parametrize("p,q", FIXTURE_LEVELS)
@pytest.mark.parametrize("z", FIXTURE_ZS)
def test_chibar_matches_resolution_oracle(p, q, z):
    level = Level(p, q)
    depth = Fraction(6)
    for w in enumerate_admissible(level):
        spec = CharacterSpec(w, z)
        oracle = resolution_chibar(level, w, z, depth)
        ours = character_qseries(spec, oracle.order, kind="chibar")
        order = min(ours.order, oracle.order)
        assert ours.truncate(order) == oracle.truncate(order), (w.n, w.k)


@pytest.mark.parametrize("p,q", FIXTURE_LEVELS)
@pytest.mark.parametrize("z", FIXTURE_ZS)
def test_chibar_coefficients_nonnegative_integers(p, q, z):
    level = Level(p, q)
    for w in enumerate_admissible(level):
        spec = CharacterSpec(w, z)
        series = character_qseries(spec, Fraction(30), kind="chibar")
        low = series.lowest()
        assert low is not None
        assert low[0] == chibar_lowest_exponent(spec)
        assert low[1] == 1
        assert all(type(c) is int and c >= 0 for c in series.terms.values())


def test_chibar_lowest_uses_sugawara_weight():
    # Delta enters the lowest exponent through the conformal weight formula
    for p, q in FIXTURE_LEVELS:
        level = Level(p, q)
        for w in enumerate_admissible(level):
            spec = CharacterSpec(w, Fraction(1, 2))
            vd = virasoro_data(level, Fraction(1, 2))
            assert (
                chibar_lowest_exponent(spec)
                == conformal_weight(level, w.j) - Fraction(1, 2) * w.j / 2 - vd.c_ell / 24
            )


@pytest.mark.parametrize("p,q", FIXTURE_LEVELS)
@pytest.mark.parametrize("z", FIXTURE_ZS)
def test_theta_ratio_identity(p, q, z):
    level = Level(p, q)
    order = Fraction(20)
    for w in enumerate_admissible(level):
        spec = CharacterSpec(w, z)
        chi = character_qseries(spec, order)
        report = theta_ratio_identity_check(spec, chi)
        assert report.agree, (w.n, w.k)
        assert report.first_mismatch is None
        assert report.prefactor_zero
        assert chi == report.rhs


def test_support_indices_reduce_to_classical_at_q_1():
    # q = 1: b+- = +-(n+1), the classical positions
    for p in (2, 3, 5, 7):
        level = Level(p, 1)
        for w in enumerate_admissible(level):
            assert w.b_plus == w.n + 1
            assert w.b_minus == -(w.n + 1)


def test_character_orders_are_honest():
    # requesting a deeper truncation extends, never changes, the prefix
    spec = CharacterSpec(AdmissibleWeight(Level(3, 2), 0, 1), Fraction(1, 2))
    short = character_qseries(spec, Fraction(6), kind="chibar")
    long = character_qseries(spec, Fraction(12), kind="chibar")
    assert long.truncate(short.order) == short
    assert math.isfinite(float(short.order))


def test_quotient_short_of_the_order_raises(monkeypatch):
    # one division at margin 1 is enough for every admissible denominator; a
    # quotient that still falls short cannot be returned as exact
    real = characters.qseries_div
    monkeypatch.setattr(
        characters, "qseries_div", lambda num, den: real(num, den).truncate(Fraction(3))
    )
    spec = CharacterSpec(AdmissibleWeight(Level(3, 2), 0, 1), Fraction(1, 2))
    with pytest.raises(InvariantError, match="quotient falls short of order 6"):
        character_qseries(spec, Fraction(6), kind="chibar")
