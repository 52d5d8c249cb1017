"""Integer labels J = q*j against the ``Fraction`` routes they replaced.

``tests/_fraction_roots_oracle.py`` keeps the rational versions of route 2's
roots, route 3's alphas and gcds, the resolver and the Kac-Kazhdan witness.
Each integer label here, divided by q, must equal the oracle's root, degree
by degree and route by route; the comparison is per weight, so the whole
(12,8) box is covered without the n^2 pair loop.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import _fraction_roots_oracle as oracle
from admissible_sl2.fusion import bimodule_presentation
from admissible_sl2.mff import _family_alphas, bimodule_from_mff
from admissible_sl2.weights import (
    Level,
    enumerate_admissible,
    kac_kazhdan_witness,
    weight_from_j,
    weight_from_label,
)

BOX_12_8 = [(p, q) for p in range(2, 13) for q in range(1, 9) if math.gcd(p, q) == 1]
GRID_LEVELS = [(p, q) for p in range(2, 17) for q in range(1, 12) if math.gcd(p, q) == 1]


def _scaled(labels, q):
    return tuple(Fraction(a, q) for a in labels)


def test_labels_equal_fraction_roots_on_12_8_box():
    weights = 0
    for p, q in BOX_12_8:
        level = Level(p, q)
        for w in enumerate_admissible(level):
            weights += 1
            assert w.J == q * w.j
            assert weight_from_j(level, w.j) == w
            # route 2: the presentation's own root formula
            generators = bimodule_presentation(w).generators
            expected = oracle.presentation_roots(level, w)
            assert tuple(_scaled(g, q) for g in generators) == expected
            # route 3: the projections' alphas, then the per-degree gcds
            for family in ("F1", "F2"):
                alphas = _family_alphas(w, family)
                assert list(_scaled(alphas, q)) == oracle.family_alphas(w, family)
            got, ref = bimodule_from_mff(w), oracle.bimodule_from_mff(w)
            assert [_scaled(g, q) for g in got.gcds] == ref.gcds
            assert (got.d_max, got.dims, got.tail_window, got.tail_unit) == (
                ref.d_max,
                ref.dims,
                ref.tail_window,
                ref.tail_unit,
            )
    assert weights == sum((p - 1) * q for p, q in BOX_12_8)


@st.composite
def _level_and_j(draw):
    p, q = draw(st.sampled_from(GRID_LEVELS))
    b = draw(st.sampled_from((1, 2, 3, 7, q, 2 * q, q * q)))
    return Level(p, q), Fraction(draw(st.integers(-150, 149)), b)


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(_level_and_j())
def test_resolver_and_witness_equal_the_k_search(case):
    level, j = case
    assert weight_from_j(level, j) == oracle.weight_from_j(level, j)
    if (level.q * j).denominator == 1:
        assert weight_from_label(level, int(level.q * j)) == oracle.weight_from_j(level, j)
    assert kac_kazhdan_witness(level, j) == oracle.kac_kazhdan_witness(level, j)
