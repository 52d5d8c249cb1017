"""Fusion rules along three routes, ring axioms, bimodule presentations."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admissible_sl2 import fusion as fusion_module
from admissible_sl2.errors import InputError, InvariantError
from admissible_sl2.exact import UniPoly
from admissible_sl2.fusion import (
    FusionRing,
    bimodule_presentation,
    classical_su2_fusion,
    fusion,
    fusion_degrees,
    fusion_outputs,
    surviving_degrees,
)
from admissible_sl2.mff import bimodule_from_mff
from admissible_sl2.verify import _classical_limit, level_oracles, three_routes_agree
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
    assert _as_dict(fusion(one, one).outputs) == {Fraction(0): 1}
    assert _as_dict(fusion(mhalf, mhalf).outputs) == {}
    assert _as_dict(fusion(m3half, one).outputs) == {Fraction(-1, 2): 1}


def test_gate_condition_3_2():
    # outputs are empty exactly when k1' + k2' > q + 1
    level = level_from_pq(3, 2)
    for w1 in enumerate_admissible(level):
        for w2 in enumerate_admissible(level):
            rec = fusion(w1, w2)
            gate, outs = rec.gate_passed, rec.outputs
            assert gate == (w1.k_primed + w2.k_primed <= level.q + 1)
            if not gate:
                assert outs == []


def test_vacuum_is_unit():
    for p, q in SWEEP:
        level = level_from_pq(p, q)
        vac = AdmissibleWeight(level, 0, 0)
        for w in enumerate_admissible(level):
            assert _as_dict(fusion(vac, w).outputs) == {w.j: 1}
            assert _as_dict(fusion(w, vac).outputs) == {w.j: 1}


@pytest.mark.parametrize("p,q", SWEEP)
def test_three_routes_agree(p, q):
    level = level_from_pq(p, q)
    weights = enumerate_admissible(level)
    for w1 in weights:
        generators = bimodule_presentation(w1).generators
        oracle = bimodule_from_mff(w1)
        for w2 in weights:
            closed = fusion_degrees(w1, w2)
            via_bim = surviving_degrees(w2.J, generators)
            via_mff = surviving_degrees(w2.J, oracle.gcds)
            assert closed == via_bim == via_mff


_coprime_levels = st.tuples(st.integers(2, 9), st.integers(1, 6)).filter(
    lambda pq: math.gcd(*pq) == 1
)


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(_coprime_levels)
def test_routes_and_axioms_beyond_fixtures(pq):
    level = level_from_pq(*pq)
    assert three_routes_agree(level_oracles(level))
    assert all(FusionRing.build(level).axioms().values())


def test_fusion_routes_build_no_polynomials(monkeypatch):
    # generators and gcds stay root lists: the oracle, the presentation and
    # both root-membership routes never construct a UniPoly; and the routes
    # are compared as degree lists, so no output is resolved to a weight
    def refuse(self, coeffs=None):
        raise AssertionError("UniPoly built")

    def unresolved(level, label):
        raise AssertionError("weight resolved")

    monkeypatch.setattr(UniPoly, "__init__", refuse)
    monkeypatch.setattr(fusion_module, "weight_from_label", unresolved)
    level = level_from_pq(5, 3)
    assert three_routes_agree(level_oracles(level))
    with pytest.raises(AssertionError, match="UniPoly built"):
        vacuum_polynomial(level)


def test_ring_build_and_classical_limit_resolve_no_weight(monkeypatch):
    # both index the output label J1 + J2 - 2qi straight into the basis: the
    # ring builds no weight beyond the basis that enumerate_admissible makes
    def unresolved(level, label):
        raise AssertionError("weight resolved")

    real, built = AdmissibleWeight.__post_init__, []

    def counted(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(fusion_module, "weight_from_label", unresolved)
    monkeypatch.setattr(AdmissibleWeight, "__post_init__", counted)
    level = level_from_pq(5, 3)
    assert all(FusionRing.build(level).axioms().values())
    assert len(built) == level.n_weights
    assert _classical_limit(6) == (True, "49 pairs")


def test_ring_and_resolver_run_on_labels_alone(monkeypatch):
    # the ring is built, indexed and checked, and outputs are resolved, from
    # the integer labels J = q*j: no rational j is ever formed
    def rational(self):
        raise AssertionError("rational j formed")

    monkeypatch.setattr(AdmissibleWeight, "j", property(rational))
    level = level_from_pq(5, 3)
    ring = FusionRing.build(level)
    assert ring.axioms() == {"unit": True, "commutativity": True, "associativity": True}
    w1, w2 = AdmissibleWeight(level, 2, 1), AdmissibleWeight(level, 1, 0)
    outputs = fusion_outputs(w1, w2, fusion_degrees(w1, w2))
    assert [(w.n, w.k, m) for w, m in outputs] == [(3, 1, 1), (1, 1, 1)]


def test_non_admissible_output_raises():
    level = level_from_pq(3, 2)
    w = AdmissibleWeight(level, 1, 0)
    with pytest.raises(InvariantError, match="fusion output j=-4 is not admissible"):
        fusion_outputs(w, w, [3])


def test_weights_of_two_levels_raise_naming_both():
    # the (3,2) pair (1,1), (0,1) has its gate closed; beside a (5,3) weight
    # every entry point refuses rather than answering for one of the levels
    level = level_from_pq(3, 2)
    w, w_other = AdmissibleWeight(level, 1, 1), AdmissibleWeight(level, 0, 1)
    foreign = AdmissibleWeight(level_from_pq(5, 3), 1, 1)
    for pair in ((foreign, w_other), (w, foreign)):
        for call in (
            lambda: fusion(*pair),
            lambda: fusion(*pair, oracle="all"),
            lambda: fusion_degrees(*pair),
            lambda: fusion_outputs(*pair, []),
        ):
            with pytest.raises(InputError) as info:
                call()
            assert "p=5, q=3" in str(info.value) and "p=3, q=2" in str(info.value)


def test_weights_from_two_equal_levels_fuse():
    # equality, not identity: two level_from_pq(3, 2) calls give one level
    w1 = AdmissibleWeight(level_from_pq(3, 2), 1, 1)
    w2 = AdmissibleWeight(level_from_pq(3, 2), 0, 1)
    assert w1.level is not w2.level
    rec = fusion(w1, w2, oracle="all")
    assert (rec.gate_passed, rec.outputs, rec.oracles_agree) == (False, [], True)
    assert fusion_degrees(w1, w2) == [] and fusion_outputs(w1, w2, []) == []


def test_fusion_record_all():
    level = level_from_pq(3, 2)
    w1 = AdmissibleWeight(level, 1, 0)
    w2 = AdmissibleWeight(level, 1, 1)
    rec = fusion(w1, w2, oracle="all")
    assert rec.oracles_agree is True
    assert _as_dict(rec.outputs) == {Fraction(-3, 2): 1}
    rec_closed = fusion(w1, w2)
    assert rec_closed.oracles_agree is None
    with pytest.raises(InputError, match="unknown oracle 'bogus'"):
        fusion(w1, w2, oracle="bogus")


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
                closed = _as_dict(fusion(w1, w2).outputs)
                assert closed == {Fraction(j): m for j, m in expected.items()}


def test_su2_level_one_is_group_ring_of_z2():
    assert classical_su2_fusion(1, 1, 1) == {0: 1}
    assert classical_su2_fusion(1, 0, 1) == {1: 1}


@pytest.mark.parametrize("p,q", SWEEP)
def test_ring_axioms(p, q):
    ring = FusionRing.build(level_from_pq(p, q))
    axioms = ring.axioms()
    assert axioms == {"unit": True, "commutativity": True, "associativity": True}


def _copy_table(ring: FusionRing) -> list[list[dict[int, int]]]:
    return [[dict(cell) for cell in row] for row in ring.table]


def test_ring_axioms_can_fail():
    # at (3,2) the ring is Z[g, x]/(g^2 - 1, x^2) on the basis (1, x, g, xg)
    ring = FusionRing.build(level_from_pq(3, 2))
    # labels J = 2n - 3k: x = (0,1), g = (1,0), xg = (1,1) and the vacuum (0,0)
    x, g, xg = (ring.index[J] for J in (-3, 2, -1))
    # every coefficient doubled: the vacuum acts as 2, still commutative and associative
    doubled = [[{c: 2 * n for c, n in cell.items()} for cell in row] for row in ring.table]
    # g x = -x g: a skew ring, associative but not commutative
    skew = _copy_table(ring)
    skew[g][x][xg] = skew[g][xg][x] = -1
    # x^2 = 1 while x (x g) = 0 stays: commutative but not associative
    nilpotent_lost = _copy_table(ring)
    nilpotent_lost[x][x][ring.index[0]] = 1
    assert [replace(ring, table=t).axioms() for t in (doubled, skew, nilpotent_lost)] == [
        {"unit": False, "commutativity": True, "associativity": True},
        {"unit": True, "commutativity": False, "associativity": True},
        {"unit": True, "commutativity": True, "associativity": False},
    ]


def test_associativity_halves_the_triples_only_when_commutative(monkeypatch):
    # a commutative table is checked on b <= c, n^2 (n+1) / 2 triples; any
    # other on all n^3, two products per triple.  A ring that is the product
    # of its slices A (k = 0) and B (n = 0) is checked on the two factors:
    # (p-1) and q basis elements instead of (p-1) q
    real, calls = fusion_module._combine, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fusion_module, "_combine", counted)
    ring = FusionRing.build(level_from_pq(3, 2))
    x, g, xg = (ring.index[J] for J in (-3, 2, -1))
    skew = _copy_table(ring)
    skew[g][x][xg] = skew[g][xg][x] = -1
    for table_ring, triples in (
        (ring, 2 * 2 * 3 // 2 + 2 * 2 * 3 // 2),
        (replace(ring, table=skew), 4**3),
        (FusionRing.build(level_from_pq(8, 5)), 7 * 7 * 8 // 2 + 5 * 5 * 6 // 2),
    ):
        calls.clear()
        assert table_ring.axioms()["associativity"]
        assert len(calls) == 2 * triples


def test_ring_table_is_zero_one():
    # multiplicities in the admissible range are all 0 or 1, and the table
    # stores only the nonzero ones
    for p, q in SWEEP:
        ring = FusionRing.build(level_from_pq(p, q))
        assert {n for row in ring.table for cell in row for n in cell.values()} == {1}


def test_ring_build_counts_a_repeated_output_twice(monkeypatch):
    # a closed form that lists every degree, so every output, twice must show up as N = 2
    real = fusion_module.fusion_degrees
    monkeypatch.setattr(fusion_module, "fusion_degrees", lambda *args: real(*args) * 2)
    ring = FusionRing.build(level_from_pq(3, 2))
    assert {n for row in ring.table for cell in row for n in cell.values()} == {2}
    assert not ring.axioms()["unit"]


def _dense_axioms(table: list[list[dict[int, int]]], v: int) -> dict[str, bool]:
    """The ring axioms as sums over every index of the dense tensor N[a][b][c]."""
    span = range(len(table))
    N = [[[cell.get(c, 0) for c in span] for cell in row] for row in table]
    return {
        "unit": all(
            N[v][b][c] == N[b][v][c] == (b == c) for b in span for c in span
        ),
        "commutativity": all(N[a][b] == N[b][a] for a in span for b in span),
        "associativity": all(
            sum(N[a][b][m] * N[m][c][d] for m in span)
            == sum(N[b][c][m] * N[a][m][d] for m in span)
            for a in span for b in span for c in span for d in span
        ),
    }


_small_levels = st.sampled_from(
    [(p, q) for p in range(2, 14) for q in range(1, 13)
     if math.gcd(p, q) == 1 and (p - 1) * q <= 12]
)


def _sheared(
    table: list[list[dict[int, int]]], i: int, j: int, s: int
) -> list[list[dict[int, int]]]:
    """The same ring on the basis e_i + s e_j and e_k (k != i), with i != j.

    An isomorphic ring keeps every law but the unit when i is the vacuum,
    while its products now cancel: e_i = e'_i - s e'_j.
    """
    def element(a: int) -> dict[int, int]:
        return {a: 1, j: s} if a == i else {a: 1}

    def product(x: dict[int, int], y: dict[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        for k, xk in x.items():
            for l, yl in y.items():
                for m, n in table[k][l].items():
                    out[m] = out.get(m, 0) + xk * yl * n
        out[j] = out.get(j, 0) - s * out.get(i, 0)
        return {m: c for m, c in out.items() if c}

    span = range(len(table))
    return [[product(element(a), element(b)) for b in span] for a in span]


@st.composite
def _edited_rings(draw) -> tuple[FusionRing, list[list[dict[int, int]]]]:
    ring = FusionRing.build(level_from_pq(*draw(_small_levels)))
    table, cells = _copy_table(ring), st.integers(0, len(ring.basis) - 1)
    if len(table) > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(len(table))))[:2]
        table = _sheared(table, i, j, draw(st.sampled_from([1, -1])))
    for _ in range(draw(st.integers(0 if table != ring.table else 1, 3))):
        a, b, c, n = draw(cells), draw(cells), draw(cells), draw(st.integers(-2, 2))
        # mirrored edits keep commutativity and probe associativity alone
        for x, y in {(a, b), (b, a)} if draw(st.booleans()) else {(a, b)}:
            if n:
                table[x][y][c] = n
            else:
                table[x][y].pop(c, None)
    return ring, table


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_edited_rings())
def test_sparse_axioms_equal_dense_sums(case):
    # dropping zero coefficients and zero sums hides no failure, and keeping a
    # zero sum would fail a sheared ring whose products cancel: the sparse
    # verdicts equal sums over every index, whichever laws the edits break
    ring, table = case
    assert replace(ring, table=table).axioms() == _dense_axioms(table, ring.index[0])


def test_fusion_table_loads_no_numpy():
    code = (
        "import sys, admissible_sl2\n"
        "from admissible_sl2 import cli\n"
        "assert cli.main(['fusion-table', '--p', '5', '--q', '3', '--format', 'json']) == 0\n"
        "print('numpy' in sys.modules, file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stderr == "False\n"


@pytest.mark.parametrize("p,q", SWEEP)
def test_zhu_algebra_structure(p, q):
    # Zhu's algebra of L(k,0) is C[x] modulo the vacuum polynomial: its degree
    # is the number of admissible weights, each weight is a root, and the
    # quotient product is unital, commutative and associative.
    level = level_from_pq(p, q)
    relation = vacuum_polynomial(level)
    weights = enumerate_admissible(level)
    assert relation.degree == (p - 1) * q == len(weights)
    assert all(relation(w.j) == 0 for w in weights)
    rng = random.Random(4242 + p * 10 + q)

    def rand_poly():
        return UniPoly({d: Fraction(rng.randint(-5, 5)) for d in range(relation.degree)})

    def mul(a, b):
        return (a * b) % relation

    one = UniPoly.constant(1)
    for _ in range(5):
        g1, g2, g3 = rand_poly(), rand_poly(), rand_poly()
        assert mul(one, g1) == g1 % relation
        assert mul(g1, g2) == mul(g2, g1)
        assert mul(mul(g1, g2), g3) == mul(g1, mul(g2, g3))


def test_bimodule_presentation_dimensions():
    level = level_from_pq(3, 2)
    for w in enumerate_admissible(level):
        pres = bimodule_presentation(w)
        assert pres.dimension == w.n_primed * (3 - w.n_primed) * (2 - w.k_primed + 1)
        assert len(pres.generators) == w.n_primed
        assert pres.y_truncation == w.n_primed
        # generator y^i g_i(x): g_i has (p-n')(q-k'+1) roots, root r=s=0 at
        # x=i, held as its label q*i
        for i, roots in enumerate(pres.generators):
            assert len(roots) == (3 - w.n_primed) * (2 - w.k_primed + 1)
            assert level.q * i in roots
