"""Interval referee for ``numeric.theta_eval_numeric``: an enclosure of the exact theta.

``theta_enclosure`` encloses theta_{n,m}(tau, z) = sum over j in Z + n/2m of
e^{2 pi i m tau (j^2 + j z)} in ``mpmath.iv`` arithmetic at prec + 64 bits,
taking tau, a complex z and every lattice point exactly and a rational z as
the interval of its quotient.  It shares no code with the evaluator.

From the integer point next to the vertex -B/2A - n/2m of the modulus parabola
(A = Im tau, B = Im(tau z)) it sums outward on each side, in intervals, until
the geometric tail M(x) / (1 - e^{-s(x)}) past the next point x is below
2^-(prec + 32) times the side's first modulus, the slope s(x) = 2 pi m (A (2
d x + 1) + d B) taken by its lower endpoint, which must be positive; that tail
is added as a box [-T, T] + [-T, T] i.  Every ``theta_eval_numeric`` bound is
at least 16 eps times the first modulus of a side it sums on, or a tail at
least that modulus where it sums nothing, so the referee's own tail is far
below it.

The enclosure is returned as a center and a radius with |theta - center| <=
radius; ``tests/test_numeric.py`` requires |value - center| + radius <= err.
``quotient_enclosure`` does the same for the theta quotient of
``numeric._chibar_numeric``: it encloses its four thetas, takes each as the
box center + [-radius, radius](1 + i), and divides the boxes in ``iv`` at
prec + 64.  ``chi_enclosure`` multiplies that box by the interval of the
prefactor q^shift, from its exact exponent and tau, for the chi of
``numeric.character_eval_numeric``.  ``residual_enclosures`` encloses every
partial residual of an ``s_transform_residual`` report from those quotient
boxes, the exact S entries and the exact factor q^(l z^2 / 4), so its
``residual_errors`` can be refereed.
``iv`` has no ``expjpi``, so each term is ``iv.exp`` of 2 pi i m tau (j^2 + j
z); ``iv.exp`` of a complex interval encloses its exponential.
"""

from __future__ import annotations

import contextlib
from fractions import Fraction

import mpmath
from mpmath import iv, mp

from admissible_sl2.characters import CharacterSpec, chibar_thetas
from admissible_sl2.qseries import ThetaSpec

MAX_STEPS = 10_000


@contextlib.contextmanager
def _wide(prec: int):
    """``iv`` and ``mp`` at prec + 64 bits, so every endpoint converts to mpf exactly."""
    saved = iv.prec
    iv.prec = prec + 64
    try:
        with mp.workprec(prec + 64):
            yield
    finally:
        iv.prec = saved


def _interval(v):
    """A rational, real or complex value as an ``iv`` interval (exact unless a quotient)."""
    if isinstance(v, Fraction):
        return iv.mpf(v.numerator) / v.denominator
    v = mp.mpc(v)
    return iv.mpc(v.real, v.imag)


def theta_enclosure(spec: ThetaSpec, tau, prec: int) -> tuple[mpmath.mpc, mpmath.mpf]:
    """(center, radius) with |theta_{n,m}(tau, z) - center| <= radius; Im(tau) > 0."""
    with _wide(prec):
        t = _interval(mp.mpc(tau))
        z = _interval(spec.z)
        m = spec.m
        off = iv.mpf(spec.n) / (2 * m)
        A, B = t.imag, (t * z).imag
        two_pi_m = 2 * iv.pi * m
        arg = iv.mpc(0, 1) * two_pi_m * t
        start = int(mp.ceil(mp.mpf((-B / (2 * A) - off).mid)))
        total = iv.mpc(0)
        for direction in (+1, -1):
            i = start if direction == +1 else start - 1
            first = None
            for _ in range(MAX_STEPS):
                x = i + off
                modulus = iv.exp(-two_pi_m * (A * x * x + B * x))
                if first is None:
                    first = mp.mpf(modulus.b)
                slope = two_pi_m * (A * (2 * direction * x + 1) + direction * B)
                if slope.a > 0:
                    tail = mp.mpf((modulus / (1 - iv.exp(-slope))).b)
                    if tail < mp.ldexp(first, -prec - 32):
                        box = iv.mpf([-tail, tail])
                        total += iv.mpc(box, box)
                        break
                total += iv.exp(arg * (x * x + x * z))
                i += direction
            else:
                raise AssertionError("interval referee: tail not reached within MAX_STEPS")
        return _center_radius(total)


def _center_radius(box) -> tuple[mpmath.mpc, mpmath.mpf]:
    """The midpoint of a complex ``iv`` box and a radius about it that covers the box."""
    center = mp.mpc(mp.mpf(box.real.mid), mp.mpf(box.imag.mid))
    # |d| <= |Re d| + |Im d|, each taken by its upper endpoint
    spread = abs(iv.mpf(center.real) - box.real) + abs(iv.mpf(center.imag) - box.imag)
    return center, mp.mpf(spread.b)


def _specs(weight, zval) -> list[ThetaSpec]:
    """The four thetas of ``chibar_thetas``; a complex zval / q rounds at the current precision."""
    return [spec for pair in chibar_thetas(weight, zval) for spec in pair]


def _quotient_box(specs: list[ThetaSpec], thetas: dict):
    """The ``iv`` box of (theta_p - theta_m) / (theta_1 - theta_-1), each theta c + [-r, r](1 + i)."""
    boxes = []
    for spec in specs:
        center, radius = thetas[spec]
        r = iv.mpf([-radius, radius])
        boxes.append(iv.mpc(iv.mpf(center.real) + r, iv.mpf(center.imag) + r))
    th_p, th_m, th_1, th_m1 = boxes
    return (th_p - th_m) / (th_1 - th_m1)


def quotient_enclosure(weight, tau, zval, prec: int) -> tuple[mpmath.mpc, mpmath.mpf]:
    """(center, radius) about (theta_p - theta_m) / (theta_1 - theta_-1) of ``chibar_thetas``.

    ``zval`` is taken as ``_chibar_numeric`` takes it: a complex z is divided
    by q at ``prec`` bits.
    """
    with mp.workprec(prec):
        specs = _specs(weight, zval)
    thetas = {spec: theta_enclosure(spec, tau, prec) for spec in specs}
    with _wide(prec):
        return _center_radius(_quotient_box(specs, thetas))


def chi_enclosure(spec: CharacterSpec, tau, prec: int) -> tuple[mpmath.mpc, mpmath.mpf]:
    """(center, radius) about chi = q^shift (theta_p - theta_m) / (theta_1 - theta_-1)."""
    specs = _specs(spec.weight, spec.z)
    thetas = {s: theta_enclosure(s, tau, prec) for s in specs}
    with _wide(prec):
        arg = 2 * iv.mpc(0, 1) * iv.pi * _interval(spec.shift("chi")) * _interval(tau)
        return _center_radius(iv.exp(arg) * _quotient_box(specs, thetas))


def residual_enclosures(report) -> list[list[tuple[mpmath.mpf, mpmath.mpf]]]:
    """[lo, hi] about |chibar_i(-1/tau, tau z) - factor sum_{j <= m} S_ij chibar_j(tau, z)|.

    One interval per entry of the report's ``residual_partial_sums``.  The
    quotients are taken where ``s_transform_residual`` takes them: at the
    report's tau and z, and on the left side at -1/tau and tau z as it rounds
    them at 192 bits.  S_ij = (1/2i) sqrt(2/a) (e^{i pi b+_i b+_j/a} - e^{i pi
    b+_i b-_j/a}) and, for KW2, the factor e^{2 pi i (l z^2/4) tau} are
    enclosed from their exact arguments.  Every theta is enclosed once.
    """
    prec = 192
    weights, z = report["weights"], report["z"]
    a = report["level"].a
    with mp.workprec(prec):
        tau = report["tau"]
        tau2, z2 = -1 / tau, tau * (mp.mpf(z.numerator) / z.denominator)
        rhs_specs = [_specs(w, z) for w in weights]
        lhs_specs = [_specs(w, z2) for w in weights]
    rhs_thetas = {s: theta_enclosure(s, tau, prec) for specs in rhs_specs for s in specs}
    lhs_thetas = {s: theta_enclosure(s, tau2, prec) for specs in lhs_specs for s in specs}
    with _wide(prec):
        chibar = [_quotient_box(specs, rhs_thetas) for specs in rhs_specs]
        lhs = [_quotient_box(specs, lhs_thetas) for specs in lhs_specs]
        i_pi = iv.mpc(0, 1) * iv.pi
        if report["variant"] == "KW2":
            anomaly = CharacterSpec(weights[0], z).anomaly
            factor = iv.exp(2 * i_pi * _interval(anomaly) * _interval(tau))
        else:
            factor = iv.mpc(1)
        pref = iv.mpc(0, -1) * iv.sqrt(iv.mpf(2) / a) / 2
        phases: dict[int, object] = {}

        def phase(num: int):
            if num not in phases:
                phases[num] = iv.exp(i_pi * iv.mpf(num) / a)
            return phases[num]

        rows = []
        for wi, lhs_i in zip(weights, lhs):
            running = iv.mpc(0)
            row = []
            for wj, chibar_j in zip(weights, chibar):
                s_ij = pref * (phase(wi.b_plus * wj.b_plus) - phase(wi.b_plus * wj.b_minus))
                running += s_ij * chibar_j
                box = abs(lhs_i - factor * running)
                row.append((mp.mpf(box.a), mp.mpf(box.b)))
            rows.append(row)
        return rows
