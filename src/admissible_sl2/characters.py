"""Characters of admissible-level modules as exact theta-quotient q-series.

For an admissible weight j = n - k t at level l = -2 + p/q, with a = p q
(:attr:`~admissible_sl2.weights.Level.a`) and the weight's integer indices
b± = ±q(n+1) + k p (``AdmissibleWeight.b_plus``, ``b_minus``), the
normalized character is the ratio

    chibar_j = [theta_{b+,a}(tau, z/q) - theta_{b-,a}(tau, z/q)]
             / [theta_{1,2}(tau, z) - theta_{-1,2}(tau, z)],

and chi_j = q^(l z^2 / 4) * chibar_j absorbs the modular anomaly: its lowest
exponent is Delta_j - z j/2 - c_{l,z}/24 with the anomalous central charge
c_{l,z} = c_l - 6 l z^2, while chibar's uses the plain c_l.

Each fact is written once: :func:`chibar_thetas` gives the four thetas of the
quotient (``z`` may be complex, so the certified evaluator in ``numeric`` takes
its thetas from here too), and :attr:`CharacterSpec.anomaly` is the exponent
l z^2 / 4 (:meth:`~admissible_sl2.weights.Level.anomaly`), which
:meth:`CharacterSpec.shift` adds for chi and not for chibar.

The one-variable form rewrites chi_j as a ratio of Theta series at rescaled
arguments; `theta_ratio_identity_check` judges a chi series it is given
against that rewriting coefficient by coefficient, up to the series' order,
together with the exponent cancellation l + 2 - a/q^2 = 0 that makes the
rewriting exact.  It divides only the right-hand side, so a caller that
already holds chi (``verify`` derives it from chibar) does not divide twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InvariantError
from .exact import rat
from .qseries import QSeries, ThetaSpec, qseries_div, theta_min_exponent, theta_qseries
from .weights import AdmissibleWeight, conformal_weight

__all__ = [
    "CharacterSpec",
    "ThetaRatioReport",
    "character_qseries",
    "chibar_lowest_exponent",
    "chibar_thetas",
    "theta_ratio_identity_check",
]

ThetaPair = tuple[ThetaSpec, ThetaSpec]


@dataclass(frozen=True)
class CharacterSpec:
    """An admissible weight together with the rational flavour parameter z, 0 < z < 1."""

    weight: AdmissibleWeight
    z: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", rat(self.z))
        if not (0 < self.z < 1):
            raise InputError(f"z must satisfy 0 < z < 1, got {self.z}")

    @property
    def anomaly(self) -> Fraction:
        """The modular anomaly l z^2 / 4: chi = q^anomaly * chibar."""
        return self.weight.level.anomaly(self.z)

    def shift(self, kind: str) -> Fraction:
        """Exponent shift of ``kind`` over chibar: the anomaly for chi, 0 for chibar."""
        if kind not in ("chi", "chibar"):
            raise InputError(f"kind must be 'chi' or 'chibar', got {kind!r}")
        return self.anomaly if kind == "chi" else Fraction(0)


def chibar_thetas(weight, z) -> tuple[ThetaPair, ThetaPair]:
    """The numerator and denominator theta pairs of chibar_j(tau, z) at the weight's level.

    Numerator (theta_{b+,a}, theta_{b-,a}) at z/q, denominator
    (theta_{1,2}, theta_{-1,2}) at z; ``z`` may be complex.
    """
    a, zq = weight.level.a, z / weight.level.q
    return (
        (ThetaSpec(weight.b_plus, a, zq), ThetaSpec(weight.b_minus, a, zq)),
        (ThetaSpec(1, 2, z), ThetaSpec(-1, 2, z)),
    )


def chibar_lowest_exponent(spec: CharacterSpec) -> Fraction:
    """Predicted lowest exponent of chibar: Delta_j - z j/2 - c_l/24."""
    w = spec.weight
    return conformal_weight(w.level, w.j) - spec.z * w.j / 2 - w.level.c_ell / 24


def _theta_quotient(
    num: ThetaPair,
    den: ThetaPair,
    order: Fraction,
    w_num: Fraction = 1,
    w_den: Fraction = 1,
) -> QSeries:
    """(theta[num+] - theta[num-]) / (theta[den+] - theta[den-]) to `order`.

    Each side's exponents are multiplied by its weight w.  The margins follow
    the division order rule from the exact lowest exponents of the two sides,
    so one division at margin 1 suffices unless the denominator's lowest term
    cancels, and neither denominator's can: the two lowest exponents of
    theta_{1,2}(z) - theta_{-1,2}(z) are 1/8 + z/2 and 1/8 - z/2, distinct for
    0 < z < 1, and the lattices of Theta_{u+2v,2u} - Theta_{-u+2v,2u} are
    equally close to 0 only when v/u is an integer.
    """

    def difference(pair: ThetaPair, o: Fraction, w: Fraction) -> QSeries:
        plus, minus = pair
        inner = o / w
        diff = theta_qseries(plus, inner) - theta_qseries(minus, inner)
        return diff.scale_exponents(w)

    e_n = min(theta_min_exponent(th) for th in num) * w_num
    e_d = min(theta_min_exponent(th) for th in den) * w_den
    quotient = qseries_div(
        difference(num, order + e_d + 1, w_num),
        difference(den, order + 2 * e_d - e_n + 1, w_den),
    )
    if quotient.order < order:
        raise InvariantError(f"quotient falls short of order {order}; a lowest term cancelled")
    return quotient.truncate(order)


def character_qseries(spec: CharacterSpec, order, kind: str = "chi") -> QSeries:
    """Exact q-expansion of chi (default) or chibar, to the given order."""
    shift = spec.shift(kind)
    num, den = chibar_thetas(spec.weight, spec.z)
    ratio = _theta_quotient(num, den, rat(order) - shift)
    return ratio.shift_exponents(shift) if shift else ratio


@dataclass(frozen=True)
class ThetaRatioReport:
    """Outcome of comparing a chi series against its one-variable Theta-ratio form."""

    agree: bool
    first_mismatch: Fraction | None
    prefactor_zero: bool
    rhs: QSeries


def theta_ratio_identity_check(spec: CharacterSpec, chi: QSeries) -> ThetaRatioReport:
    """Verify that ``chi``, the character chi_j of ``spec``, equals its
    Theta-quotient rewriting term by term, up to ``chi.order``.

    The right-hand side is

        [Theta_{qub+ + av, aqu}(tau/qu) - Theta_{qub- + av, aqu}(tau/qu)]
      / [Theta_{u+2v, 2u}(tau/u) - Theta_{-u+2v, 2u}(tau/u)],

    with z = v/u; a Theta at argument tau/w contributes exponents divided
    by w.  Also checks the exponent identity l + 2 - a/q^2 = 0 that the
    rewriting relies on.  ``chi`` is taken as given, for instance from
    :func:`character_qseries`.
    """
    w, lvl = spec.weight, spec.weight.level
    a, u, v, q = lvl.a, spec.z.denominator, spec.z.numerator, lvl.q
    rhs = _theta_quotient(
        (
            ThetaSpec(q * u * w.b_plus + a * v, a * q * u),
            ThetaSpec(q * u * w.b_minus + a * v, a * q * u),
        ),
        (ThetaSpec(u + 2 * v, 2 * u), ThetaSpec(-u + 2 * v, 2 * u)),
        chi.order,
        w_num=Fraction(1, q * u),
        w_den=Fraction(1, u),
    )

    prefactor_zero = lvl.ell + 2 - Fraction(a, q * q) == 0
    # both sides are exact below chi.order, and a series stores no zero term
    low = (chi - rhs).lowest()
    mismatch = None if low is None else low[0]
    agree = mismatch is None and prefactor_zero
    return ThetaRatioReport(agree, mismatch, prefactor_zero, rhs)
