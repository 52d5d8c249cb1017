"""Exact invariants of admissible-level sl2 vacuum vertex algebras.

The package computes, with exact rational arithmetic throughout:

- admissible weights and Virasoro data at level ell = -2 + p/q
  (:mod:`~admissible_sl2.weights`);
- the operator calculus of quadratic raising/lowering factors in PBW order
  (:mod:`~admissible_sl2.pbw`) and the three-dimensional projections used to
  extract annihilation polynomials, the C2 quotient, and bimodule dimensions
  (:mod:`~admissible_sl2.mff`);
- Frenkel-Zhu bimodule presentations with fusion rules along
  three independent routes (:mod:`~admissible_sl2.fusion`);
- exact theta q-series and characters (:mod:`~admissible_sl2.qseries`,
  :mod:`~admissible_sl2.characters`) with certified numeric evaluation and
  S-transformation reports (:mod:`~admissible_sl2.numeric`).
"""

from .characters import (
    CharacterSpec,
    character_qseries,
    chibar_lowest_exponent,
    chibar_thetas,
    theta_ratio_identity_check,
)
from .errors import AdmissibleError, InputError, InvariantError
from .exact import UniPoly, poly_gcd, rat, rat_str
from .fusion import (
    FusionRecord,
    FusionRing,
    classical_su2_fusion,
    fusion_degrees,
    surviving_degrees,
)
from .mff import (
    bimodule_from_mff,
    c2_heisenberg_reduction,
    fuchs_projection,
    hw_annihilation_polynomial,
)
from .numeric import (
    ComplexVal,
    character_eval_numeric,
    qseries_eval_numeric,
    s_transform_residual,
    theta_eval_numeric,
)
from .pbw import (
    HEIS,
    L0,
    SL2,
    LieAlgebra,
    PBWElement,
    factor_product,
    pbw_product,
    quadratic_factor,
    sigma_antihom,
    verify_operator_identities,
)
from .qseries import QSeries, ThetaSpec, qseries_div, theta_qseries
from .weights import (
    AdmissibleWeight,
    Level,
    VirasoroData,
    conformal_weight,
    enumerate_admissible,
    kac_kazhdan_witness,
    vacuum_polynomial,
    virasoro_data,
    weight_from_j,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibleError",
    "AdmissibleWeight",
    "CharacterSpec",
    "ComplexVal",
    "FusionRecord",
    "FusionRing",
    "HEIS",
    "InputError",
    "InvariantError",
    "L0",
    "Level",
    "LieAlgebra",
    "PBWElement",
    "QSeries",
    "SL2",
    "ThetaSpec",
    "UniPoly",
    "VirasoroData",
    "bimodule_from_mff",
    "c2_heisenberg_reduction",
    "character_eval_numeric",
    "character_qseries",
    "chibar_lowest_exponent",
    "chibar_thetas",
    "classical_su2_fusion",
    "conformal_weight",
    "enumerate_admissible",
    "factor_product",
    "fuchs_projection",
    "fusion_degrees",
    "hw_annihilation_polynomial",
    "kac_kazhdan_witness",
    "pbw_product",
    "poly_gcd",
    "qseries_div",
    "qseries_eval_numeric",
    "quadratic_factor",
    "rat",
    "rat_str",
    "s_transform_residual",
    "sigma_antihom",
    "surviving_degrees",
    "theta_eval_numeric",
    "theta_qseries",
    "theta_ratio_identity_check",
    "vacuum_polynomial",
    "verify_operator_identities",
    "virasoro_data",
    "weight_from_j",
]
