"""Admissible levels and weights for affine sl2.

A level is ell = -2 + p/q with p >= 2, q >= 1 and gcd(p, q) = 1; we write
t = p/q = ell + 2.  The admissible highest weights at that level are
j = n - k*t for 0 <= n <= p-2, 0 <= k <= q-1, so there are (p-1)*q of them.
The primed parametrization n' = n+1, k' = k+1 (so j = n'-1-(k'-1)t) is the
one the operator calculus uses.
Each weight has the integer label J = q*j = n q - k p, which splits back into
(n, k) with 0 <= k < q by one modular inverse: k = -J p^{-1} mod q.  That one
split resolves weights (:func:`weight_from_label`, with :func:`weight_from_j`
as its rational front end) and Kac-Kazhdan witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InputError
from .exact import RatLike, UniPoly, poly_from_linear_factors, rat, rat_str


@dataclass(frozen=True)
class Level:
    """Admissible level ell = -2 + p/q."""

    p: int
    q: int

    @property
    def t(self) -> Fraction:
        return Fraction(self.p, self.q)

    @property
    def ell(self) -> Fraction:
        return self.t - 2

    @property
    def a(self) -> int:
        """The theta modulus a = p q of the characters' numerators."""
        return self.p * self.q

    @property
    def n_weights(self) -> int:
        return (self.p - 1) * self.q

    @property
    def c_ell(self) -> Fraction:
        """The Sugawara central charge 3 ell / (ell + 2)."""
        return 3 * self.ell / (self.ell + 2)

    def anomaly(self, z: RatLike) -> Fraction:
        """The modular anomaly exponent ell z^2 / 4 at flavour z."""
        zf = rat(z)
        return self.ell * zf * zf / 4

    def __repr__(self) -> str:
        return f"Level(p={self.p}, q={self.q}, ell={rat_str(self.ell)})"


@dataclass(frozen=True)
class AdmissibleWeight:
    """Admissible weight j = n - k*t in the (n, k) box of a level."""

    level: Level
    n: int
    k: int

    def __post_init__(self) -> None:
        if not 0 <= self.n <= self.level.p - 2:
            raise InputError(f"n={self.n} outside 0..{self.level.p - 2}")
        if not 0 <= self.k <= self.level.q - 1:
            raise InputError(f"k={self.k} outside 0..{self.level.q - 1}")

    @property
    def j(self) -> Fraction:
        return self.n - self.k * self.level.t

    @property
    def J(self) -> int:
        """The integer label q*j = n q - k p."""
        return self.n * self.level.q - self.k * self.level.p

    @property
    def b_plus(self) -> int:
        """The character's theta index b+ = q(n+1) + k p."""
        return self.level.q * (self.n + 1) + self.k * self.level.p

    @property
    def b_minus(self) -> int:
        """The character's theta index b- = -q(n+1) + k p."""
        return -self.level.q * (self.n + 1) + self.k * self.level.p

    @property
    def n_primed(self) -> int:
        return self.n + 1

    @property
    def k_primed(self) -> int:
        return self.k + 1

    def __repr__(self) -> str:
        return f"AdmissibleWeight(n={self.n}, k={self.k}, j={rat_str(self.j)})"


def level_from_pq(p: int, q: int) -> Level:
    """Validate (p, q) and build the level ell = -2 + p/q."""
    if p < 2:
        raise InputError(f"p={p} must be >= 2")
    if q < 1:
        raise InputError(f"q={q} must be >= 1")
    if gcd(p, q) != 1:
        raise InputError(f"p={p} and q={q} are not coprime")
    return Level(p, q)


def enumerate_admissible(level: Level) -> list[AdmissibleWeight]:
    """All admissible weights, ordered by (n, k); there are (p-1)*q of them."""
    return [
        AdmissibleWeight(level, n, k)
        for n in range(level.p - 1)
        for k in range(level.q)
    ]


def _split_label(level: Level, label: int) -> tuple[int, int]:
    """The (n, k) with label = n q - k p and 0 <= k < q: k = -label p^{-1} mod q."""
    k = -label * pow(level.p, -1, level.q) % level.q
    return (label + k * level.p) // level.q, k


def weight_from_label(level: Level, label: int) -> AdmissibleWeight | None:
    """The weight whose label J is ``label``, or None if its n is outside 0..p-2."""
    n, k = _split_label(level, label)
    return AdmissibleWeight(level, n, k) if 0 <= n <= level.p - 2 else None


def weight_from_j(level: Level, j: RatLike) -> AdmissibleWeight | None:
    """The rational front end of :func:`weight_from_label`: None unless q*j is an integer."""
    label = rat(j) * level.q
    return weight_from_label(level, label.numerator) if label.denominator == 1 else None


def vacuum_labels(level: Level) -> tuple[int, ...]:
    """The vacuum roots r - s*t (0 <= r <= p-2, 0 <= s < q) as sorted labels q r - s p."""
    p, q = level.p, level.q
    return tuple(sorted(q * r - s * p for r in range(p - 1) for s in range(q)))


def vacuum_polynomial(level: Level) -> UniPoly:
    """Monic polynomial whose roots are exactly the admissible weights.

    f(x) = prod (x - J/q) over the :func:`vacuum_labels` J; it is squarefree
    of degree (p-1)*q.
    """
    return poly_from_linear_factors(Fraction(J, level.q) for J in vacuum_labels(level))


def kac_kazhdan_witness(
    level: Level, j: RatLike
) -> tuple[str, int, int] | None:
    """Reducibility witness for the Verma module of highest weight j.

    Case I asks for positive integers (n, k) with q*j = (n-1) q - (k-1) p: the
    split of q*j gives k in 1..q, and q-shifts of k (each raising n by p) make
    n >= 1.  Case II, j = -n + k*t, needs q*j integral too, so it never answers
    first.  None means q*j is not an integer: the Verma module is irreducible.
    """
    if (label := rat(j) * level.q).denominator != 1:
        return None
    n, k = _split_label(level, label.numerator)
    shifts = max(0, -(n // level.p))  # ceil(-n/p) q-shifts make n + 1 >= 1
    return "I", n + 1 + shifts * level.p, k + 1 + shifts * level.q


@dataclass(frozen=True)
class VirasoroData:
    """Central charges and ground-state shift for the z-twisted grading."""

    c_ell: Fraction
    c_ell_z: Fraction
    lam: Fraction


def virasoro_data(level: Level, z: RatLike) -> VirasoroData:
    """c_ell = :attr:`Level.c_ell`, c_{ell,z} = c_ell - 24*anomaly, lam = 2*anomaly.

    The anomaly is :meth:`Level.anomaly`, ell z^2 / 4.
    """
    zf = rat(z)
    if not 0 < zf < 1:
        raise InputError(f"z={rat_str(zf)} outside (0, 1)")
    c_ell, anomaly = level.c_ell, level.anomaly(zf)
    return VirasoroData(c_ell=c_ell, c_ell_z=c_ell - 24 * anomaly, lam=2 * anomaly)


def conformal_weight(level: Level, j: RatLike) -> Fraction:
    """Sugawara conformal weight Delta_j = j(j+2) / (4t)."""
    jf = rat(j)
    return jf * (jf + 2) / (4 * level.t)
