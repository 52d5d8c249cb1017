"""Fusion rules along three routes, ring axioms, Zhu algebra."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from admissible_sl2.fusion import (
    FusionRing,
    bimodule_presentation,
    classical_su2_fusion,
    fusion,
    fusion_closed_form,
    fusion_via_bimodule,
    fusion_via_mff,
    zhu_algebra,
    zhu_multiply,
)
from admissible_sl2.mff import bimodule_from_mff
from admissible_sl2.weights import (
    AdmissibleWeight,
    enumerate_admissible,
    level_from_pq,
    vacuum_polynomial,
)

SWEEP = [(p, q) for p in range(2, 6) for q in range(1, 4) if math.gcd(p, q) == 1]


def _as_dict(outputs):
    return {w.j: m for w, m in outputs}


def test_fixture_table_3_2():
    level = level_from_pq(3, 2)
    w = {x.j: x for x in enumerate_admissible(level)}
    one = w[Fraction(1)]
    mhalf = w[Fraction(-1, 2)]
    m3half = w[Fraction(-3, 2)]
    assert _as_dict(fusion_closed_form(level, one, one)[1]) == {Fraction(0): 1}
    assert _as_dict(fusion_closed_form(level, mhalf, mhalf)[1]) == {}
    assert _as_dict(fusion_closed_form(level, m3half, one)[1]) == {Fraction(-1, 2): 1}


def test_gate_condition_3_2():
    # outputs are empty exactly when k1' + k2' > q + 1
    level = level_from_pq(3, 2)
    for w1 in enumerate_admissible(level):
        for w2 in enumerate_admissible(level):
            gate, outs = fusion_closed_form(level, w1, w2)
            assert gate == (w1.k_primed + w2.k_primed <= level.q + 1)
            if not gate:
                assert outs == []


def test_vacuum_is_unit():
    for p, q in SWEEP:
        level = level_from_pq(p, q)
        vac = AdmissibleWeight(level, 0, 0)
        for w in enumerate_admissible(level):
            assert _as_dict(fusion_closed_form(level, vac, w)[1]) == {w.j: 1}
            assert _as_dict(fusion_closed_form(level, w, vac)[1]) == {w.j: 1}


@pytest.mark.parametrize("p,q", SWEEP)
def test_three_routes_agree(p, q):
    level = level_from_pq(p, q)
    weights = enumerate_admissible(level)
    for w1 in weights:
        oracle = bimodule_from_mff(level, w1.n_primed, w1.k_primed)
        for w2 in weights:
            closed = fusion_closed_form(level, w1, w2)[1]
            via_bim = fusion_via_bimodule(level, w1, w2)
            via_mff = fusion_via_mff(level, w1, w2, oracle)
            assert _as_dict(closed) == _as_dict(via_bim) == _as_dict(via_mff)


def test_fusion_record_all():
    level = level_from_pq(3, 2)
    w1 = AdmissibleWeight(level, 1, 0)
    w2 = AdmissibleWeight(level, 1, 1)
    rec = fusion(level, w1, w2, oracle="all")
    assert rec.oracles_agree is True
    assert _as_dict(rec.outputs) == {Fraction(-3, 2): 1}
    rec_closed = fusion(level, w1, w2)
    assert rec_closed.oracle == "closed" and rec_closed.oracles_agree is None


def test_classical_limit_matches_clebsch_gordan_truncation():
    # q = 1: outputs run from |j1-j2| to min(j1+j2, 2 ell - j1 - j2) in steps
    # of 2, each with multiplicity one
    for ell in range(0, 7):
        level = level_from_pq(ell + 2, 1)
        for w1 in enumerate_admissible(level):
            for w2 in enumerate_admissible(level):
                expected = {}
                j1, j2 = w1.n, w2.n
                top = min(j1 + j2, 2 * ell - j1 - j2)
                for j in range(abs(j1 - j2), top + 1, 2):
                    expected[j] = 1
                assert classical_su2_fusion(ell, j1, j2) == expected
                closed = _as_dict(fusion_closed_form(level, w1, w2)[1])
                assert closed == {Fraction(j): m for j, m in expected.items()}


def test_su2_level_one_is_group_ring_of_z2():
    assert classical_su2_fusion(1, 1, 1) == {0: 1}
    assert classical_su2_fusion(1, 0, 1) == {1: 1}


@pytest.mark.parametrize("p,q", SWEEP)
def test_ring_axioms(p, q):
    ring = FusionRing.build(level_from_pq(p, q))
    axioms = ring.axioms()
    assert axioms == {"unit": True, "commutativity": True, "associativity": True}


def test_ring_tensor_is_zero_one():
    # multiplicities in the admissible range are all 0 or 1
    for p, q in SWEEP:
        ring = FusionRing.build(level_from_pq(p, q))
        assert set(ring.tensor.ravel().tolist()) <= {0, 1}


@pytest.mark.parametrize("p,q", SWEEP)
def test_zhu_algebra_structure(p, q):
    level = level_from_pq(p, q)
    algebra = zhu_algebra(level)
    assert algebra.dimension == (p - 1) * q
    assert algebra.relation == vacuum_polynomial(level)
    rng = random.Random(4242 + p * 10 + q)
    from admissible_sl2.exact import UniPoly

    def rand_poly():
        return UniPoly(
            {d: Fraction(rng.randint(-5, 5)) for d in range(algebra.dimension)}
        )

    one = UniPoly.constant(1)
    for _ in range(5):
        g1, g2, g3 = rand_poly(), rand_poly(), rand_poly()
        assert zhu_multiply(algebra, one, g1) == g1 % algebra.relation
        assert zhu_multiply(algebra, g1, g2) == zhu_multiply(algebra, g2, g1)
        assert zhu_multiply(algebra, zhu_multiply(algebra, g1, g2), g3) == zhu_multiply(
            algebra, g1, zhu_multiply(algebra, g2, g3)
        )


def test_bimodule_presentation_dimensions():
    level = level_from_pq(3, 2)
    for w in enumerate_admissible(level):
        pres = bimodule_presentation(level, w)
        assert pres.dimension == w.n_primed * (3 - w.n_primed) * (2 - w.k_primed + 1)
        assert len(pres.generators) == w.n_primed
        assert pres.y_truncation == w.n_primed
        # generator y^i g_i(x): g_i is monic of degree (p-n')(q-k'+1), root r=s=0 at x=i
        for idx, (i, g) in enumerate(pres.generators):
            assert i == idx
            assert g.degree == (3 - w.n_primed) * (2 - w.k_primed + 1)
            assert g.leading_coefficient() == 1 and g(i) == 0
