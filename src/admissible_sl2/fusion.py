"""Zhu algebra, Frenkel-Zhu bimodules and fusion rules at an admissible level.

Fusion multiplicities are computed along three independent routes:

  * a closed form: the gate k1' + k2' <= q + 1 and the window
    max(0, n1'+n2'-p) <= i <= min(n1'-1, n2'-1), output j1 + j2 - 2i;
  * the bimodule presentation: generator f_{j1,i} survives at j2 iff
    f_{j1,i}(j2, 1) = 0;
  * the bimodule oracle of bimodule_from_mff, which reads per-degree gcds
    off the singular-vector projections: gcd_i(j2) = 0.

All three must agree; the table they induce is a commutative, associative
unital ring on the admissible weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InputError, InvariantError
from .exact import UniPoly, poly_from_linear_factors, rat_str
from .mff import BimoduleOracle, bimodule_from_mff
from .weights import (
    AdmissibleWeight,
    Level,
    enumerate_admissible,
    vacuum_polynomial,
    weight_from_j,
)


@dataclass(frozen=True)
class ZhuAlgebra:
    """The commutative quotient C[x] / (vacuum polynomial)."""

    level: Level
    relation: UniPoly

    @property
    def dimension(self) -> int:
        return self.relation.degree


def zhu_algebra(level: Level) -> ZhuAlgebra:
    return ZhuAlgebra(level=level, relation=vacuum_polynomial(level))


def zhu_multiply(algebra: ZhuAlgebra, g1: UniPoly, g2: UniPoly) -> UniPoly:
    """Product in the Zhu algebra: polynomial product reduced mod the relation."""
    return (g1 * g2) % algebra.relation


@dataclass(frozen=True)
class BimodulePresentation:
    """Frenkel-Zhu bimodule of L(ell, j) as a C[x]-C[y] quotient.

    generators[i] = (i, g_i) stands for the generator y^i g_i(x), with
    g_i = prod_{r=0}^{p-n'-1} prod_{s=0}^{q-k'} (x - r - i + st)
    for i = 0..n'-1; together with y^{n'} they present a quotient of
    dimension n' (p-n') (q-k'+1).
    """

    weight: AdmissibleWeight
    generators: tuple[tuple[int, UniPoly], ...]
    y_truncation: int
    dimension: int


def bimodule_presentation(level: Level, weight: AdmissibleWeight) -> BimodulePresentation:
    p, q, t = level.p, level.q, level.t
    np_, kp = weight.n_primed, weight.k_primed
    gens = []
    for i in range(np_):
        roots = [Fraction(r + i) - s * t for r in range(p - np_) for s in range(q - kp + 1)]
        gens.append((i, poly_from_linear_factors(roots)))
    return BimodulePresentation(
        weight=weight,
        generators=tuple(gens),
        y_truncation=np_,
        dimension=np_ * (p - np_) * (q - kp + 1),
    )


def _resolve_output(level: Level, j: Fraction) -> AdmissibleWeight:
    w = weight_from_j(level, j)
    if w is None:
        raise InvariantError(f"fusion output j={rat_str(j)} is not admissible")
    return w


def fusion_closed_form(
    level: Level, w1: AdmissibleWeight, w2: AdmissibleWeight
) -> tuple[bool, list[tuple[AdmissibleWeight, int]]]:
    """Gate and output list from the closed form; multiplicities are all 1."""
    p, q = level.p, level.q
    gate = w1.k_primed + w2.k_primed <= q + 1
    if not gate:
        return False, []
    lo = max(0, w1.n_primed + w2.n_primed - p)
    hi = min(w1.n_primed - 1, w2.n_primed - 1)
    outputs = [
        (_resolve_output(level, w1.j + w2.j - 2 * i), 1)
        for i in range(lo, hi + 1)
    ]
    return True, outputs


def surviving_outputs(
    level: Level, w1: AdmissibleWeight, w2: AdmissibleWeight, polys
) -> list[tuple[AdmissibleWeight, int]]:
    """Output j1 + j2 - 2i, multiplicity 1, for each (i, poly) with poly(j2) = 0."""
    return [
        (_resolve_output(level, w1.j + w2.j - 2 * i), 1)
        for i, poly in polys
        if poly(w2.j) == 0
    ]


def fusion_via_bimodule(
    level: Level, w1: AdmissibleWeight, w2: AdmissibleWeight
) -> list[tuple[AdmissibleWeight, int]]:
    """Outputs from the bimodule presentation: i survives iff f_{j1,i}(j2,1) = 0.

    f_{j1,i} = y^i g_i(x), so f_{j1,i}(j2, 1) = g_i(j2).
    """
    return surviving_outputs(level, w1, w2, bimodule_presentation(level, w1).generators)


def fusion_via_mff(
    level: Level, w1: AdmissibleWeight, w2: AdmissibleWeight, oracle: BimoduleOracle
) -> list[tuple[AdmissibleWeight, int]]:
    """Outputs from w1's bimodule oracle: i survives iff gcd_i(j2) = 0."""
    return surviving_outputs(level, w1, w2, enumerate(oracle.gcds))


@dataclass
class FusionRecord:
    level: Level
    w1: AdmissibleWeight
    w2: AdmissibleWeight
    gate_passed: bool
    outputs: list[tuple[AdmissibleWeight, int]]
    oracle: str
    oracles_agree: bool | None = None


def fusion(
    level: Level,
    w1: AdmissibleWeight,
    w2: AdmissibleWeight,
    oracle: str = "closed",
) -> FusionRecord:
    """Fusion rule for L(ell,j1) x L(ell,j2) along the requested oracle.

    oracle = "all" runs the closed form, the bimodule evaluation and w1's
    bimodule oracle and records whether the three output lists agree.
    """
    gate, closed = fusion_closed_form(level, w1, w2)
    if oracle == "closed":
        return FusionRecord(level, w1, w2, gate, closed, oracle)
    if oracle == "bimodule":
        outs = fusion_via_bimodule(level, w1, w2)
        return FusionRecord(level, w1, w2, gate, outs, oracle)
    if oracle == "mff":
        built = bimodule_from_mff(level, w1.n_primed, w1.k_primed)
        outs = fusion_via_mff(level, w1, w2, built)
        return FusionRecord(level, w1, w2, gate, outs, oracle)
    if oracle == "all":
        bim = fusion_via_bimodule(level, w1, w2)
        built = bimodule_from_mff(level, w1.n_primed, w1.k_primed)
        mff_outs = fusion_via_mff(level, w1, w2, built)
        agree = closed == bim == mff_outs
        return FusionRecord(level, w1, w2, gate, closed, oracle, oracles_agree=agree)
    raise InputError(f"unknown oracle {oracle!r}")


@dataclass
class FusionRing:
    """Fusion coefficients N[a][b][c] over the admissible-weight basis."""

    level: Level
    basis: list[AdmissibleWeight]
    tensor: np.ndarray  # shape (d, d, d), dtype int64
    index: dict[tuple[int, int], int] = field(default_factory=dict)

    @classmethod
    def build(cls, level: Level) -> FusionRing:
        basis = enumerate_admissible(level)
        index = {(w.n, w.k): i for i, w in enumerate(basis)}
        d = len(basis)
        tensor = np.zeros((d, d, d), dtype=np.int64)
        for a, w1 in enumerate(basis):
            for b, w2 in enumerate(basis):
                _, outs = fusion_closed_form(level, w1, w2)
                for w3, mult in outs:
                    tensor[a, b, index[(w3.n, w3.k)]] += mult
        return cls(level=level, basis=basis, tensor=tensor, index=index)

    def axioms(self) -> dict[str, bool]:
        """The ring axioms.

        unit: the vacuum weight (n,k) = (0,0) is a two-sided identity;
        associativity: sum_m N[a,b,m] N[m,c,d] == sum_m N[b,c,m] N[a,m,d].
        """
        t = self.tensor
        v = self.index[(0, 0)]
        eye = np.eye(len(self.basis), dtype=np.int64)
        return {
            "unit": bool(np.array_equal(t[v, :, :], eye) and np.array_equal(t[:, v, :], eye)),
            "commutativity": bool(np.array_equal(t, t.transpose(1, 0, 2))),
            "associativity": bool(
                np.array_equal(
                    np.einsum("abm,mcd->abcd", t, t), np.einsum("bcm,amd->abcd", t, t)
                )
            ),
        }


def classical_su2_fusion(ell: int, j1: int, j2: int) -> dict[int, int]:
    """Level-ell su(2) fusion for integer weights (the q = 1 specialization).

    Outputs j = |j1-j2|, |j1-j2|+2, ..., min(j1+j2, 2*ell-j1-j2), each with
    multiplicity 1.
    """
    if ell < 0:
        raise InputError(f"ell={ell} must be >= 0")
    for j in (j1, j2):
        if not 0 <= j <= ell:
            raise InputError(f"j={j} outside 0..{ell}")
    top = min(j1 + j2, 2 * ell - j1 - j2)
    return {j: 1 for j in range(abs(j1 - j2), top + 1, 2)}
