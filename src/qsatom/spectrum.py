"""Fluorescence spectra as functions of the reduced frequency x.

The inelastic spectrum is a pair of bilinear forms in the resolvent
(Gtilde + 2ix)^{-1} of a shifted drift matrix; the elastic line is a
Lorentzian of instrumental width gammatilde carrying the elastic cross
section.  For strong drive and weak direct scattering the familiar
Mollow triplet appears; direct scattering distorts it and makes the
spectrum asymmetric in x.

Both the angle-integrated and the angle-resolved spectrum evaluate the
resolvent from the closed adjugate rows 1 and 3 (row 2 never enters a
spectrum); the generic inverse and cofactor row 2 are for verification.

Every builder takes one :class:`~qsatom.model.ReducedScalars`, which
carries the eta, s and gammatilde it was dressed with; the spectra read
those scalars, and Gtilde is built only for verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (SQRT_4PI, DriveConfig, PhaseShiftTable, ReducedScalars,
                    ScatteringScalars, delta_g, g_pm, reduced_scalars,
                    scalars_from_phase_shifts)
from .xsection import sigma_el

_DET_FLOOR = 1e-280


@dataclass(frozen=True)
class SpectralCoefficients:
    """Left/right vectors of the two resolvent bilinears.

    The left vector of the second bilinear is structurally (1, 0, 0), so
    only c' is stored; d' and d'' encode the dressed scalars.
    """

    cprime: np.ndarray
    dprime: np.ndarray
    ddoubleprime: np.ndarray

    def __post_init__(self):
        for name in ("cprime", "dprime", "ddoubleprime"):
            v = np.asarray(getattr(self, name), dtype=complex)
            if v.shape != (3,):
                raise ValueError(f"{name} must be a complex 3-vector")
            v.setflags(write=False)
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class AngularSpectralData:
    """Angle-resolved spectral ingredients at one polar angle: the
    elastic amplitude a(theta) and the bilinear vectors
    c(theta) = (dg, 0, e^{2i delta_0^-}/sqrt(4 pi)) and d(theta), both in
    the frame of Gtilde (see :func:`spectral_diff`)."""

    a_theta: complex
    c_theta: np.ndarray
    d_theta: np.ndarray


def build_spectral_drift(rs: ReducedScalars) -> np.ndarray:
    """Read-only shifted drift matrix Gtilde, whose resolvent generates
    the spectrum.  Similar to G' + gammatilde via diag(eta, 1, -eta^2),
    so its eigenvalues are those of G' shifted by gammatilde.
    """
    eta, gammatilde = rs.eta, rs.gammatilde
    eis = np.exp(1j * rs.s)
    cs = math.cos(rs.s)
    b = rs.bprime
    m = np.array([
        [2.0 + gammatilde, -1.0, eta ** 2],
        [2.0 * eta ** 2 * eis * cs, b + gammatilde, 0.0],
        [-2.0 * np.conj(eis) * cs, 0.0, np.conj(b) + gammatilde],
    ], dtype=complex)
    m.setflags(write=False)
    return m


def spectral_coefficients(rs: ReducedScalars) -> SpectralCoefficients:
    """Bilinear vectors of the inelastic spectrum."""
    eta, s = rs.eta, rs.s
    eis = np.exp(1j * s)
    sins = math.sin(s)
    k2, y = rs.kappa2, rs.y
    den = rs.den
    mprime = k2 + 1j * y + 1j * (den - eta ** 2 * k2) * eis * sins
    dprime = np.array([
        k2 * mprime,
        (k2 + 1j * y) * mprime,
        rs.norm2_dg * (y ** 2 + k2 ** 2) + k2 * y * math.sin(2.0 * s)
        + 2.0 * k2 ** 2 * math.cos(s) ** 2
        + 1j * k2 * (k2 - 1j * y) * eis * sins,
    ], dtype=complex)
    ddoubleprime = np.array([
        k2 * (den - eta ** 2 * k2),
        (k2 + 1j * y) * (den - eta ** 2 * k2),
        k2 * (k2 - 1j * y),
    ], dtype=complex)
    return SpectralCoefficients(
        cprime=np.array([1j * eis * sins, 0.0, 1.0], dtype=complex),
        dprime=dprime,
        ddoubleprime=ddoubleprime,
    )


def _det_and_rows(rs: ReducedScalars, x):
    """Determinant and adjugate rows 1 and 3 of (Gtilde + 2ix).

    Closed expressions in the scalars; vectorized over x.
    """
    x = np.asarray(x, dtype=float)
    k2, w, s, gt = rs.kappa2, rs.w, rs.s, rs.gammatilde
    eta2 = rs.eta ** 2
    cs, sins = math.cos(s), math.sin(s)
    khat = k2 + gt + 2j * x
    det = (2.0 + gt + 2j * x) * (khat ** 2 + w ** 2) \
        + 4.0 * eta2 * cs * (khat * cs - w * sins)
    kplus = k2 + gt + 1j * (2.0 * x + w)
    kminus = k2 + gt + 1j * (2.0 * x - w)
    emis = np.exp(-1j * s)
    row1 = np.stack([khat ** 2 + w ** 2,
                     kplus * np.ones_like(khat),
                     -eta2 * kminus])
    row3 = np.stack([2.0 * emis * cs * kminus,
                     2.0 * emis * cs * np.ones_like(khat),
                     (2.0 + gt + 2j * x) * kminus + 2.0 * eta2 * np.conj(emis) * cs])
    return det, row1, row3


def _row2_cofactors(rs: ReducedScalars, x: float) -> np.ndarray:
    """Adjugate row 2 of (Gtilde + 2ix) by cofactor expansion.

    Kept out of the production spectrum path; only the full-inverse
    verification needs it.
    """
    a = build_spectral_drift(rs) + 2j * x * np.eye(3)

    def minor(i, j):
        rows = [r for r in range(3) if r != i]
        cols = [c for c in range(3) if c != j]
        sub = a[np.ix_(rows, cols)]
        return sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0]

    return np.array([-minor(0, 1), minor(1, 1), -minor(2, 1)], dtype=complex)


def resolvent(rs: ReducedScalars, x: float) -> np.ndarray:
    """Full 3x3 inverse of (Gtilde + 2ix).

    Rows 1 and 3 come from the closed adjugate expressions, row 2 from
    cofactors.  Raises ArithmeticError if the determinant underflows,
    which is only possible at gammatilde = 0 on the boundary of the
    spectrum.
    """
    det, row1, row3 = _det_and_rows(rs, float(x))
    if abs(det) < _DET_FLOOR:
        raise ArithmeticError(f"resolvent singular at x = {x}")
    row2 = _row2_cofactors(rs, float(x))
    return np.stack([row1, row2, row3]) / det


def sigma_inel_x(sc: ScatteringScalars, dc: DriveConfig, x):
    """Inelastic spectral density at reduced frequency x (scalar or array).

    Sigma_inel(x) = eta^2 / (pi (z^2+zeta^2)^2) * 2 Re[ c'^dag R d'
                    + ||P_perp dg||^2 c''^dag R d'' ]  with R = (Gtilde+2ix)^{-1}.

    Real-valued; nonnegative up to rounding.  Normalized so its integral
    over the whole line equals the inelastic cross section.
    """
    rs = reduced_scalars(sc, dc)
    co = spectral_coefficients(rs)
    scalar_in = np.isscalar(x) or np.ndim(x) == 0
    det, row1, row3 = _det_and_rows(rs, x)
    if np.any(np.abs(det) < _DET_FLOOR):
        raise ArithmeticError("resolvent singular inside the requested grid")
    r1d1 = np.tensordot(co.dprime, row1, axes=(0, 0))
    r3d1 = np.tensordot(co.dprime, row3, axes=(0, 0))
    r1d2 = np.tensordot(co.ddoubleprime, row1, axes=(0, 0))
    bilinear = (np.conj(co.cprime[0]) * r1d1 + np.conj(co.cprime[2]) * r3d1
                + sc.norm2_pdg * r1d2) / det
    out = dc.eta ** 2 / (math.pi * rs.den ** 2) * 2.0 * bilinear.real
    return float(out) if scalar_in else out


def elastic_line(sc: ScatteringScalars, dc: DriveConfig) -> tuple[float, float]:
    """(weight, center) of the elastic line, for rendering the
    gammatilde -> 0 delta contribution: weight is the elastic cross
    section, the line sits at x = 0 (the drive frequency)."""
    return sigma_el(sc, dc), 0.0


def elastic_lorentzian(weight, gammatilde: float, x):
    """Lorentzian line of integral ``weight`` and full width gammatilde at x."""
    return weight * (gammatilde / (2.0 * math.pi)) / (x ** 2 + (gammatilde / 2.0) ** 2)


def sigma_tot_x(sc: ScatteringScalars, dc: DriveConfig, x):
    """Total spectral density: elastic Lorentzian of width gammatilde
    plus the inelastic density.  Refuses gammatilde = 0, where the
    elastic line is a delta; use :func:`elastic_line` there."""
    gt = dc.gammatilde
    if gt <= 0:
        raise ValueError("sigma_tot_x needs gammatilde > 0; "
                         "at zero width use elastic_line for the delta part")
    weight, _ = elastic_line(sc, dc)
    lorentz = elastic_lorentzian(weight, gt, np.asarray(x, dtype=float))
    out = lorentz + sigma_inel_x(sc, dc, x)
    return float(out) if (np.isscalar(x) or np.ndim(x) == 0) else out


def mollow_inel_x(ztilde: float, eta: float, gammatilde: float, x):
    """Closed-form inelastic spectrum of the pure absorption/emission
    model (no direct scattering), even in x and in ztilde."""
    z = 2.0 * ztilde
    gt = gammatilde
    x = np.asarray(x, dtype=float)
    x2 = x ** 2
    p = ((2.0 + gt) * ((1.0 + gt) ** 2 + 2.0 * eta ** 2 + z ** 2)
         * ((2.0 + gt) ** 2 + 2.0 * eta ** 2 + 4.0 * x2)
         + 2.0 * gt * (2.0 * (2.0 * x2 - eta ** 2) ** 2
                       + (2.0 + gt) ** 2 * (2.0 * x2 + eta ** 2)))
    q = (((2.0 + gt) * ((1.0 + gt) ** 2 + z ** 2) + 4.0 * (1.0 + gt) * eta ** 2
          - 4.0 * (4.0 + 3.0 * gt) * x2) ** 2
         + 4.0 * x2 * (3.0 * gt ** 2 + 8.0 * gt + 5.0 + z ** 2
                       + 4.0 * eta ** 2 - 4.0 * x2) ** 2)
    out = 4.0 * eta ** 2 * p / (math.pi * q * (z ** 2 + 1.0 + 2.0 * eta ** 2) ** 2)
    return float(out) if np.ndim(x) == 0 else out


def low_intensity_x(sc: ScatteringScalars, ztilde: float, gammatilde: float,
                    eta: float, x):
    """Leading small-intensity inelastic spectrum.

    Two Lorentzian pairs at x = -+ ztilde plus a product-denominator
    interference term; exact to order eta^2, asymptotic beyond.
    Invariant under x -> -x and under (s -> -s, ztilde -> -ztilde).
    """
    gt = gammatilde
    s = sc.s
    x = np.asarray(x, dtype=float)
    zt2 = ztilde ** 2 + 0.25
    wsq = (1.0 + gt) ** 2
    lor_p = 4.0 * (x + ztilde) ** 2 + wsq
    lor_m = 4.0 * (x - ztilde) ** 2 + wsq
    tilt = (2.0 * ztilde * math.sin(s) + math.cos(s)) ** 2
    pair = (eta ** 2 / (2.0 * math.pi)) \
        * (sc.norm2_pdg * (1.0 + gt) / zt2 + gt * tilt / (4.0 * zt2 ** 2)) \
        * (1.0 / lor_p + 1.0 / lor_m)
    # grouping (lor_p * lor_m) keeps the x -> -x symmetry exact in floats
    product = (2.0 * eta ** 2 * tilt * (ztilde ** 2 + wsq / 4.0)
               / (math.pi * zt2 ** 2 * (lor_p * lor_m)))
    out = pair + product
    return float(out) if np.ndim(x) == 0 else out


def _angular_data(table: PhaseShiftTable, sc: ScatteringScalars,
                  rs: ReducedScalars, theta: float) -> AngularSpectralData:
    """Angle-resolved spectral ingredients at polar angle theta, from
    scalars the caller has already reduced."""
    k2, y = rs.kappa2, rs.y
    den = rs.den
    _, gm = g_pm(table, theta)
    dg = delta_g(table, theta)
    e2 = np.exp(2j * sc.delta0_minus)
    a = gm + dg * rs.eta ** 2 * k2 / den - e2 * complex(k2, y) / (SQRT_4PI * den)
    c = np.array([dg, 0.0, e2 / SQRT_4PI], dtype=complex)
    m = dg * (1.0 - rs.eta ** 2 * k2 / den) + e2 * complex(k2, y) / (SQRT_4PI * den)
    d3 = (e2 / SQRT_4PI * (rs.norm2_dg * (y ** 2 + k2 ** 2)
                           + k2 * y * math.sin(2.0 * sc.s)
                           + 2.0 * k2 ** 2 * math.cos(sc.s) ** 2)
          + dg * k2 * complex(k2, -y)) / den ** 2
    d = np.array([k2 * m / den, m * complex(k2, y) / den, d3], dtype=complex)
    return AngularSpectralData(a_theta=complex(a), c_theta=c, d_theta=d)


def spectral_diff(table: PhaseShiftTable, dc: DriveConfig, theta: float,
                  x: float) -> tuple[float, float]:
    """Angle-resolved spectral densities (elastic, inelastic) at (theta, x).

    Elastic density: |a(theta)|^2 times the unit Lorentzian of width
    gammatilde.  Inelastic density, from the same adjugate rows as
    :func:`sigma_inel_x`: (2/pi) eta^2 Re[c(theta)^dag (Gtilde + 2ix)^{-1}
    d(theta)], whose integral over solid angle reproduces the
    angle-integrated spectrum.
    """
    if dc.gammatilde <= 0:
        raise ValueError("spectral_diff needs gammatilde > 0 for the elastic density")
    sc = scalars_from_phase_shifts(table)
    rs = reduced_scalars(sc, dc)
    ang = _angular_data(table, sc, rs, theta)
    el = elastic_lorentzian(abs(ang.a_theta) ** 2, dc.gammatilde, x)
    det, row1, row3 = _det_and_rows(rs, x)
    c, d = ang.c_theta, ang.d_theta
    bilinear = (np.conj(c[0]) * (row1 @ d) + np.conj(c[2]) * (row3 @ d)) / det
    inel = (2.0 / math.pi) * dc.eta ** 2 * float(bilinear.real)
    return el, inel


def _golden_max(f, lo: float, hi: float, xtol: float) -> float:
    """Golden-section refinement of a bracketed maximum."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def local_maxima(f, lo: float, hi: float, num: int = 2001,
                 xtol: float = 1e-6) -> list[tuple[float, float]]:
    """Local maxima of a smooth scalar function on [lo, hi].

    Coarse grid scan bracketing interior maxima, then golden-section
    refinement of each bracket to xtol.  Returns (x, f(x)) pairs sorted
    by x; endpoints are not reported.
    """
    xs = np.linspace(lo, hi, num)
    ys = np.array([f(x) for x in xs])
    peaks = []
    for i in range(1, num - 1):
        if ys[i] >= ys[i - 1] and ys[i] > ys[i + 1]:
            xstar = _golden_max(f, xs[i - 1], xs[i + 1], xtol)
            peaks.append((xstar, f(xstar)))
    return peaks
