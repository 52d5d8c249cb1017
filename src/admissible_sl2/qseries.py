"""Exact q-series with rational exponents on a common integer lattice.

A :class:`QSeries` stores finitely many terms ``c * q^(m/D)`` together with a
rational truncation order: the series is exact for all exponents strictly
below the order, and silent about everything above it.  All arithmetic tracks
truncation orders pessimistically so a reported coefficient is never
contaminated by an unseen tail term.

Exponents are compared on the lattice itself: an order O on the lattice
(1/D)Z becomes the integer key cap ceil(O D), and a term m/D is kept exactly
when m < cap, so no per-term ``Fraction`` is built to decide truncation.

The module also provides the theta-function expansions

    theta_{n,m}(tau, z) = sum over j in Z + n/2m of q^(m(j^2 + j z)),

with ``q = e^(2 pi i tau)``; at ``z = 0`` this is the one-variable series
``Theta_{n,m}``.  Division of series (needed for characters written as theta
ratios) eliminates leading terms on the integer lattice, with the
remainder's keys in a heap and integral coefficients held as Python ints.
The characters' denominator theta_{1,2} - theta_{-1,2} (the affine A1
Weyl-Kac denominator) has leading coefficient +-1 and integral numerators
over it, so their division runs on ints alone.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import InputError
from .exact import rat

__all__ = [
    "QSeries",
    "ThetaSpec",
    "qseries_div",
    "theta_min_exponent",
    "theta_qseries",
]


def _key_cap(order: Fraction, denom: int) -> int:
    """The least integer key at or above ``order * denom``.

    A lattice key m lies below the order, m / denom < order, exactly when
    m < _key_cap(order, denom).
    """
    return -(-order.numerator * denom // order.denominator)


class QSeries:
    """Truncated series ``sum c_m q^(m/denom)`` exact below ``order``.

    ``terms`` maps integer numerators ``m`` to nonzero exact coefficients,
    each an ``int`` or a ``Fraction``, stored as given; the represented
    exponent is ``m / denom``.  ``order`` is the truncation order:
    constructing the series drops any term with exponent >= order, and the
    lattice denominator is reduced to the smallest one that carries all
    remaining exponents.
    """

    __slots__ = ("denom", "terms", "order")

    def __init__(self, denom: int, terms: dict[int, int | Fraction], order) -> None:
        if denom < 1:
            raise InputError(f"lattice denominator must be >= 1, got {denom}")
        order = rat(order)
        cap = _key_cap(order, denom)
        kept = {m: c for m, c in terms.items() if c and m < cap}
        if kept:
            g = denom
            for m in kept:
                g = math.gcd(g, m)
            if g > 1:
                kept = {m // g: c for m, c in kept.items()}
                denom //= g
        else:
            denom = 1
        object.__setattr__(self, "denom", denom)
        object.__setattr__(self, "terms", kept)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("QSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order) -> "QSeries":
        return cls(1, {}, order)

    @classmethod
    def from_terms(cls, pairs: Iterable[tuple[Fraction, Fraction]], order) -> "QSeries":
        """Build from (exponent, coefficient) pairs; exponents may repeat."""
        pairs = [(rat(e), rat(c)) for e, c in pairs]
        denom = 1
        for e, _ in pairs:
            denom = denom * e.denominator // math.gcd(denom, e.denominator)
        terms: dict[int, Fraction] = {}
        for e, c in pairs:
            m = e.numerator * (denom // e.denominator)
            terms[m] = terms.get(m, Fraction(0)) + c
        return cls(denom, terms, order)

    # -- inspection --------------------------------------------------------

    def lowest(self) -> tuple[Fraction, Fraction] | None:
        """(exponent, coefficient) of the lowest stored term, or None."""
        if not self.terms:
            return None
        m = min(self.terms)
        return Fraction(m, self.denom), self.terms[m]

    def coefficient(self, exponent) -> Fraction:
        exponent = rat(exponent)
        if exponent >= self.order:
            raise InputError(
                f"exponent {exponent} is not resolved below truncation order {self.order}"
            )
        if self.denom % exponent.denominator:
            return Fraction(0)
        m = exponent.numerator * (self.denom // exponent.denominator)
        return self.terms.get(m, Fraction(0))

    def prefix(self, order=None) -> list[tuple[Fraction, Fraction]]:
        """Sorted (exponent, coefficient) pairs with exponent < order."""
        cap = self.order if order is None else min(self.order, rat(order))
        cap = _key_cap(cap, self.denom)
        return [
            (Fraction(m, self.denom), self.terms[m])
            for m in sorted(self.terms)
            if m < cap
        ]

    def is_zero(self) -> bool:
        return not self.terms

    # -- arithmetic --------------------------------------------------------

    def _aligned(self, other: "QSeries") -> tuple[int, dict[int, Fraction], dict[int, Fraction]]:
        denom = self.denom * other.denom // math.gcd(self.denom, other.denom)
        sa, sb = denom // self.denom, denom // other.denom
        return (
            denom,
            {m * sa: c for m, c in self.terms.items()},
            {m * sb: c for m, c in other.terms.items()},
        )

    def __add__(self, other: "QSeries") -> "QSeries":
        denom, a, b = self._aligned(other)
        for m, c in b.items():
            a[m] = a.get(m, Fraction(0)) + c
        return QSeries(denom, a, min(self.order, other.order))

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def __neg__(self) -> "QSeries":
        return QSeries(self.denom, {m: -c for m, c in self.terms.items()}, self.order)

    def scale(self, factor) -> "QSeries":
        factor = rat(factor)
        return QSeries(
            self.denom, {m: factor * c for m, c in self.terms.items()}, self.order
        )

    def __mul__(self, other: "QSeries") -> "QSeries":
        low_a = self.lowest()
        low_b = other.lowest()
        ea = low_a[0] if low_a else self.order
        eb = low_b[0] if low_b else other.order
        order = min(self.order + eb, other.order + ea)
        denom, a, b = self._aligned(other)
        cap = _key_cap(order, denom)
        out: dict[int, Fraction] = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = ma + mb
                if m < cap:
                    out[m] = out.get(m, Fraction(0)) + ca * cb
        return QSeries(denom, out, order)

    def shift_exponents(self, delta) -> "QSeries":
        """Multiply by q^delta: exponents and order all shift by delta."""
        delta = rat(delta)
        denom = self.denom * delta.denominator // math.gcd(self.denom, delta.denominator)
        s = denom // self.denom
        d = delta.numerator * (denom // delta.denominator)
        return QSeries(
            denom, {m * s + d: c for m, c in self.terms.items()}, self.order + delta
        )

    def scale_exponents(self, factor) -> "QSeries":
        """Substitute q -> q^factor (factor > 0): exponents and order scale."""
        factor = rat(factor)
        if factor <= 0:
            raise InputError(f"exponent scale factor must be positive, got {factor}")
        pairs = [(Fraction(m, self.denom) * factor, c) for m, c in self.terms.items()]
        return QSeries.from_terms(pairs, self.order * factor)

    def truncate(self, order) -> "QSeries":
        order = rat(order)
        return QSeries(self.denom, dict(self.terms), min(self.order, order))

    # -- comparison / display ---------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.denom == other.denom
            and self.terms == other.terms
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.denom, tuple(sorted(self.terms.items())), self.order))

    def __repr__(self) -> str:
        if not self.terms:
            return f"QSeries(0 + O(q^{self.order}))"
        bits = []
        for m in sorted(self.terms):
            e = Fraction(m, self.denom)
            bits.append(f"{self.terms[m]}*q^({e})")
        return f"QSeries({' + '.join(bits)} + O(q^{self.order}))"


@dataclass(frozen=True)
class ThetaSpec:
    """Indexes theta_{n,m}(tau, z) with lattice Z + n/2m; z = 0 gives Theta.

    ``z`` is normalized to a Fraction when possible; a non-rational (complex)
    ``z`` is stored as given and is accepted only by the numeric evaluator,
    not by the exact series expansion.
    """

    n: int
    m: int
    z: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if self.m < 1:
            raise InputError(f"theta index m must be a positive integer, got {self.m}")
        try:
            object.__setattr__(self, "z", rat(self.z))
        except (TypeError, ValueError):
            pass

    @property
    def has_rational_z(self) -> bool:
        return isinstance(self.z, Fraction)

    @property
    def offset(self) -> Fraction:
        return Fraction(self.n, 2 * self.m)

    def exponent_at(self, j: Fraction) -> Fraction:
        return self.m * (j * j + j * self.z)


def theta_qseries(spec: ThetaSpec, order) -> QSeries:
    """Expand theta_{n,m}(tau, z) as an exact QSeries to the given order.

    Sums q^(m(j^2 + j z)) over all lattice points j in Z + n/2m whose exponent
    lies below the order; the exponent is an upward parabola in j, so the set
    is finite and is enumerated outward from the vertex j = -z/2.
    """
    if not spec.has_rational_z:
        raise InputError("exact theta expansion requires a rational z")
    order = rat(order)
    off = spec.offset
    vertex = -spec.z / 2 - off  # real minimiser in the integer coordinate i
    pairs: list[tuple[Fraction, Fraction]] = []
    i = math.ceil(vertex)
    while True:
        e = spec.exponent_at(i + off)
        if e >= order:
            break
        pairs.append((e, Fraction(1)))
        i += 1
    i = math.ceil(vertex) - 1
    while True:
        e = spec.exponent_at(i + off)
        if e >= order:
            break
        pairs.append((e, Fraction(1)))
        i -= 1
    return QSeries.from_terms(pairs, order)


def theta_min_exponent(spec: ThetaSpec) -> Fraction:
    """Exact lowest exponent of theta_{n,m}(tau, z) over its lattice."""
    if not spec.has_rational_z:
        raise InputError("exact theta expansion requires a rational z")
    off = spec.offset
    vertex = -spec.z / 2 - off
    lo = math.floor(vertex)
    return min(spec.exponent_at(i + off) for i in (lo, lo + 1))


def qseries_div(num: QSeries, den: QSeries) -> QSeries:
    """Divide truncated series by leading-term elimination on the lattice.

    With numerator order O_n, denominator order O_d and lowest exponents e_n,
    e_d, the quotient is exact below ``min(O_n, O_d + e_n - e_d) - e_d``: the
    first unseen numerator term enters at O_n - e_d, and the first unseen
    denominator term corrupts the quotient at (O_d - e_d) + (e_n - e_d).

    Both series are put on one lattice (1/D)Z whose D also carries the
    denominators of that order and of e_d, so the remainder cutoff
    ``cap = (order + e_d) D`` is an exact integer key: a remainder term at or
    above it cannot reach the quotient.  The remainder's keys sit in a heap,
    so each step takes its lowest term without a scan.  Integral input
    coefficients enter as ints, and 1/c_d is an int when the leading
    denominator coefficient c_d is +-1, so integral series over such a
    denominator divide without building a Fraction; mixed int/Fraction
    arithmetic is exact, so the same loop serves rational inputs.
    """
    low_d = den.lowest()
    if low_d is None:
        raise InputError(
            f"denominator has no terms below its truncation order {den.order}"
        )
    e_d, c_d = low_d
    low_n = num.lowest()
    e_n = low_n[0] if low_n else num.order
    order = min(num.order, den.order + e_n - e_d) - e_d
    if low_n is None:
        return QSeries.zero(order)

    denom, a, b = num._aligned(den)
    # Bring the order and e_d onto the lattice so all keys stay integral.
    denom2 = denom
    for f in (order, e_d):
        denom2 = denom2 * f.denominator // math.gcd(denom2, f.denominator)
    s = denom2 // denom
    cap = _key_cap(order + e_d, denom2)
    m_d = min(b) * s
    rem = {m * s: _exact(c) for m, c in a.items()}
    # Denominator terms after the leading one, as ascending offsets from it.
    tail = sorted((m * s - m_d, _exact(c)) for m, c in b.items() if m * s != m_d)
    inv = c_d.numerator if c_d in (1, -1) else 1 / c_d
    heap = list(rem)
    heapq.heapify(heap)
    quo: dict[int, Fraction] = {}
    while heap:
        m_r = heapq.heappop(heap)
        if m_r >= cap:
            break
        r = rem.pop(m_r, 0)
        if not r:  # stale: the key cancelled or was eliminated since its push
            continue
        c = r * inv
        quo[m_r - m_d] = c
        room = cap - m_r
        for off, c_i in tail:
            if off >= room:
                break
            m = m_r + off
            v = rem.get(m)
            if v is None:
                rem[m] = -c * c_i
                heapq.heappush(heap, m)
            else:
                v -= c * c_i
                if v:
                    rem[m] = v
                else:
                    del rem[m]
    return QSeries(denom2, quo, order)


def _exact(c: Fraction) -> int | Fraction:
    """``c`` as an int when it is integral, else unchanged."""
    return c.numerator if c.denominator == 1 else c
