"""Fluorescence spectra as functions of the reduced frequency x.

The inelastic spectrum is a pair of bilinear forms in the resolvent
(Gtilde + 2ix)^{-1} of a shifted drift matrix; the elastic line is a
Lorentzian of instrumental width gammatilde carrying the elastic cross
section.  For strong drive and weak direct scattering the familiar
Mollow triplet appears; direct scattering distorts it and makes the
spectrum asymmetric in x.

One builder forms the adjugate rows of the resolvent, closed in the
scalars: the spectra read rows 1 and 3, :func:`resolvent` all three.
Both spectra contract those rows by one fixed-order sum of float
products, so a value depends neither on its x grid nor on the BLAS.

Every builder takes one :class:`~qsatom.model.ReducedScalars`, which
carries the eta, s and gammatilde it was dressed with; the spectra read
those scalars and never build Gtilde.  Gtilde is the drift G' of
:func:`~qsatom.bloch.build_drift` in a rescaled basis, shifted by
gammatilde; only the oracles form it, from G' itself.
"""

from __future__ import annotations

import math

import numpy as np

from .model import (SQRT_4PI, DriveConfig, PhaseShiftTable, ReducedScalars,
                    ScatteringScalars, _any, _cos, _point, _sin, _sq, g_pm, reduced_scalars,
                    scalars_from_phase_shifts)
from .xsection import sigma_el

_DET_FLOOR = 1e-280


def spectral_coefficients(rs: ReducedScalars) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only vectors (c', d', d'') of the two resolvent bilinears of
    the inelastic spectrum, (3, n) for columns of ``rs``.  The left vector
    of the second bilinear is structurally (1, 0, 0), so only c' is
    returned; d' and d'' encode the dressed scalars."""
    eta2, s = rs.eta2, rs.s
    eis = np.exp(1j * s)
    sins = _sin(s)
    k2, y = rs.kappa2, rs.y
    den = rs.den
    mprime = k2 + 1j * y + 1j * (den - eta2 * k2) * eis * sins
    # (a + ib) w as a w + (ib) w rounds as CPython's complex product, not numpy's FMAs
    dprime = np.array([
        k2 * mprime,
        k2 * mprime + 1j * y * mprime,
        rs.norm2_dg * (_sq(y) + rs.kappa4) + k2 * y * _sin(2.0 * s)
        + 2.0 * rs.kappa4 * _sq(_cos(s))
        + (k2 * y * eis + 1j * (k2 * k2) * eis) * sins,
    ], dtype=complex)
    ddoubleprime = np.array([
        k2 * (den - eta2 * k2),
        (k2 + 1j * y) * (den - eta2 * k2),
        k2 * (k2 - 1j * y),
    ], dtype=complex)
    cprime = np.array(np.broadcast_arrays(1j * eis * sins, 0.0, 1.0), dtype=complex)
    for v in (cprime, dprime, ddoubleprime):
        v.setflags(write=False)
    return cprime, dprime, ddoubleprime


def _det_and_rows(rs: ReducedScalars, x):
    """Determinant, adjugate rows 1 and 3 and a builder of row 2 (for
    :func:`resolvent`) of A = Gtilde + 2ix, closed in the scalars, over finite
    x made 1-d, since numpy's scalar complex product rounds unlike its array
    loops; kplus * kminus stands for khat^2 + w^2, which cancels on a far-detuned
    sideband.  A23 = A32 = 0 give row 2 as (-A21 A33, A11 A33 - A13 A31, A13 A21)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.isfinite(x).all():
        raise ValueError("the resolvent needs a finite x")
    k2, w, s, gt, eta2 = rs.kappa2, rs.w, rs.s, rs.gammatilde, rs.eta2
    cs, sins = _cos(s), _sin(s)
    khat = k2 + gt + 2j * x
    kplus = k2 + gt + 1j * (2.0 * x + w)
    kminus = k2 + gt + 1j * (2.0 * x - w)
    kk = kplus * kminus
    a11 = 2.0 + gt + 2j * x
    det = a11 * kk + 4.0 * eta2 * cs * (khat * cs - w * sins)
    singular = np.abs(det) < _DET_FLOOR
    if singular.any():  # the first such x of a grid, or the one x of columns
        raise ArithmeticError(f"resolvent singular at x = {x.flat[np.argmax(singular) % x.size]}")
    emis = np.exp(-1j * s)
    a21, b31 = 2.0 * eta2 * np.conj(emis) * cs, 2.0 * emis * cs  # b31 = -A31
    row1 = np.stack([kk, kplus, -eta2 * kminus])
    row3 = np.stack([b31 * kminus, np.broadcast_to(b31, kk.shape), a11 * kminus + a21])
    return det, row1, row3, lambda: np.stack([
        -(a21 * kplus), a11 * kplus + eta2 * b31, np.broadcast_to(eta2 * a21, kk.shape)])


def _contract(d, rows):
    """sum_i d[i] rows[i] as (t0 + t1) + t2, d[i] broadcast against rows[i]
    and t_i formed on split real and imaginary parts: every product and sum
    is one float ufunc, so an x rounds alike in any grid and on any BLAS."""
    d = d[(slice(None),) + (None,) * (rows.ndim - d.ndim)]
    r0, r1, r2 = d.real * rows.real - d.imag * rows.imag
    i0, i1, i2 = d.real * rows.imag + d.imag * rows.real
    out = ((r0 + r1) + r2).astype(complex)
    out.imag = (i0 + i1) + i2
    return out


def resolvent(rs: ReducedScalars, x) -> np.ndarray:
    """Full 3x3 inverse of A = Gtilde + 2ix, the three closed adjugate rows
    of :func:`_det_and_rows` over its determinant.  Raises ValueError for a
    non-finite x, and ArithmeticError if the determinant underflows, which
    is only possible at gammatilde = 0 on the boundary of the spectrum.
    Columns of ``rs`` and x give an (n, 3, 3) stack.
    """
    det, row1, row3, row2 = _det_and_rows(rs, x)
    m = np.moveaxis(np.stack([row1, row2(), row3]) / det, (0, 1), (-2, -1))
    return _point(m, rs, x)


def sigma_inel_x(sc: ScatteringScalars, dc: DriveConfig, x):
    """Inelastic spectral density at reduced frequency x (scalar or array).

    Sigma_inel(x) = eta^2 / (pi (z^2+zeta^2)^2) * 2 Re[ c'^dag R d'
                    + ||P_perp dg||^2 c''^dag R d'' ]  with R = (Gtilde+2ix)^{-1}.

    Real-valued; nonnegative up to rounding.  Normalized so its integral
    over the whole line equals the inelastic cross section.  x must be
    finite; columns of x, ``sc`` and ``dc`` pair up, one point per element.
    """
    rs = reduced_scalars(sc, dc)
    cprime, dprime, ddoubleprime = spectral_coefficients(rs)
    det, row1, row3, _ = _det_and_rows(rs, x)
    bilinear = (np.conj(cprime[0]) * _contract(dprime, row1)
                + _contract(dprime, row3)  # c'_3 = 1
                + sc.norm2_pdg * _contract(ddoubleprime, row1)) / det
    out = rs.eta2 / (math.pi * rs.den2) * 2.0 * bilinear.real
    return _point(out, rs, x)


def elastic_lorentzian(weight, gammatilde: float, x):
    """Lorentzian line of integral ``weight`` and full width gammatilde at x,
    a float x rounding as it does in a grid."""
    x = np.asarray(x, dtype=float)
    line = weight * (gammatilde / (2.0 * math.pi)) / (x ** 2 + _sq(gammatilde / 2.0))
    return _point(line, weight, gammatilde, x)


def sigma_tot_x(sc: ScatteringScalars, dc: DriveConfig, x):
    """Total spectral density: elastic Lorentzian of width gammatilde
    plus the inelastic density.  Refuses gammatilde = 0, where the
    elastic line is a delta at x = 0 of weight :func:`~qsatom.xsection.sigma_el`,
    and a non-finite x."""
    gt = dc.gammatilde
    if _any(gt <= 0):
        raise ValueError("sigma_tot_x needs gammatilde > 0; at zero width the elastic "
                         "part is a delta at x = 0 of weight sigma_el, and sigma_inel_x "
                         "gives the rest from the closed rows of the resolvent")
    return elastic_lorentzian(sigma_el(sc, dc), gt, x) + sigma_inel_x(sc, dc, x)


def mollow_inel_x(ztilde: float, eta: float, gammatilde: float, x):
    """Closed-form inelastic spectrum of the pure absorption/emission
    model (no direct scattering), even in x and in ztilde; columns of
    ztilde, eta and gammatilde broadcast against x and round as their
    floats, and x is made 1-d, so that a float x rounds as in a grid."""
    z = 2.0 * ztilde
    gt, eta2, z2 = gammatilde, _sq(eta), _sq(z)
    x2 = np.array(x, dtype=float, ndmin=1) ** 2
    p = ((2.0 + gt) * (_sq(1.0 + gt) + 2.0 * eta2 + z2)
         * (_sq(2.0 + gt) + 2.0 * eta2 + 4.0 * x2)
         + 2.0 * gt * (2.0 * (2.0 * x2 - eta2) ** 2
                       + _sq(2.0 + gt) * (2.0 * x2 + eta2)))
    q = (((2.0 + gt) * (_sq(1.0 + gt) + z2) + 4.0 * (1.0 + gt) * eta2
          - 4.0 * (4.0 + 3.0 * gt) * x2) ** 2
         + 4.0 * x2 * (3.0 * _sq(gt) + 8.0 * gt + 5.0 + z2
                       + 4.0 * eta2 - 4.0 * x2) ** 2)
    out = 4.0 * eta2 * p / (math.pi * q * _sq(z2 + 1.0 + 2.0 * eta2))
    return _point(out, ztilde, eta, gammatilde, x)


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
    zt2 = _sq(ztilde) + 0.25
    wsq = _sq(1.0 + gt)
    lor_p = 4.0 * _sq(x + ztilde) + wsq
    lor_m = 4.0 * _sq(x - ztilde) + wsq
    tilt = _sq(2.0 * ztilde * math.sin(s) + math.cos(s))
    pair = (_sq(eta) / (2.0 * math.pi)) \
        * (sc.norm2_pdg * (1.0 + gt) / zt2 + gt * tilt / (4.0 * _sq(zt2))) \
        * (1.0 / lor_p + 1.0 / lor_m)
    # grouping (lor_p * lor_m) keeps the x -> -x symmetry exact in floats
    product = (2.0 * _sq(eta) * tilt * (_sq(ztilde) + wsq / 4.0)
               / (math.pi * _sq(zt2) * (lor_p * lor_m)))
    return _point(pair + product, sc, ztilde, gammatilde, eta, x)


def spectral_diff(table: PhaseShiftTable, dc: DriveConfig, theta: float,
                  x: float) -> tuple[float, float]:
    """Angle-resolved spectral densities (elastic, inelastic) at (theta, x).

    Elastic density: |a(theta)|^2 times the unit Lorentzian of width
    gammatilde.  Inelastic density, by the rows and contraction of
    :func:`sigma_inel_x`: (2/pi) eta^2 Re[c^dag (Gtilde + 2ix)^{-1} d] with
    c = (dg, 0, c3), dg = g+ - g- at theta, c3 = e^{2i delta_0^-}/sqrt(4 pi)
    and d = (dg d'' + c3 q) / (z^2 + zeta^2)^2, d'' that of
    :func:`spectral_coefficients` and q its s-wave part; its integral over
    solid angle reproduces the angle-integrated spectrum.  Raises
    ValueError for gammatilde <= 0 or a non-finite x.
    """
    if dc.gammatilde <= 0:
        raise ValueError("spectral_diff needs gammatilde > 0 for the elastic density")
    sc = scalars_from_phase_shifts(table)
    rs = reduced_scalars(sc, dc)
    k2, y, den, eta2 = rs.kappa2, rs.y, rs.den, rs.eta2
    gp, gm = g_pm(table, theta)
    dg = gp - gm
    e2, kc = np.exp(2j * sc.delta0_minus), complex(k2, y)
    a = gm + dg * eta2 * k2 / den - e2 * kc / (SQRT_4PI * den)
    el = elastic_lorentzian(abs(a) ** 2, dc.gammatilde, x)
    q = np.array([k2 * kc, kc * kc, rs.norm2_dg * (y ** 2 + rs.kappa4)
                  + k2 * y * math.sin(2.0 * sc.s) + 2.0 * rs.kappa4 * math.cos(sc.s) ** 2])
    c3 = e2 / SQRT_4PI
    d = (dg * spectral_coefficients(rs)[2] + c3 * q) / rs.den2
    det, row1, row3, _ = _det_and_rows(rs, x)
    bilinear = (np.conj(dg) * _contract(d, row1) + np.conj(c3) * _contract(d, row3)) / det
    inel = (2.0 / math.pi) * eta2 * bilinear.real.item()
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
