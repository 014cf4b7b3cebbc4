"""The ledger of open defects: one strict xfail per defect.

Each test asserts the right behaviour, and its reason quotes what the code
gives today and the ROADMAP item that is to fix it.  A fix turns its entry
into an unexpected pass, and the change that makes the fix removes the mark.
Never widen an assertion here to make an entry pass.
"""

import math

import mpmath
import numpy as np
import pytest

from qsatom import (BlochVector, DriveConfig, MOLLOW_SCALARS, ScatteringScalars, beam_overlaps,
                    build_drift, cross_sections, evolve, mollow_inel_x, quad_sum_rules,
                    reduced_scalars, scalars_from_phase_shifts, sigma_inel, sigma_inel_x,
                    spectrum_time_domain)
from qsatom.bloch import _drift_poles, char_poly, cubic_discriminant
from qsatom.cli import parse_config, run_verify
from qsatom.model import _legendre
from qsatom.oracle import DEFAULT_TABLE
from qsatom.spectrum import elastic_lorentzian

# FANO_BLOCK of tests/test_cli.py
FANO = ScatteringScalars(-0.03, 0.13, 0.005, 0.005, 0.02, -0.001)
FANO_ZERO = 0.5 / math.tan(0.13)  # ztilde of the Fano zero of delta0_minus = 0.13


def _defect(today, raises=AssertionError):
    return pytest.mark.xfail(strict=True, raises=raises, reason=today)


@_defect("'spectral normalization sum rules' reads 2.231e10: d' holds 1e-16 residues "
         "where it should be 0 (item 4)")
def test_fano_zero_config_passes_verify():
    cfg = parse_config({"mode": "phase_shifts",
                        "phase_shifts": {"delta_plus": [0.0], "delta_minus": [0.13]},
                        "eta2": [4.0], "ztilde": [FANO_ZERO], "gammatilde": 0.6})
    checks, code = run_verify(cfg)
    assert code == 0, [(c.name, c.residual) for c in checks if not c.passed]


@pytest.mark.parametrize("eta2, ztilde", [
    (1e8, 0.0),
    (1e10, 0.0),
    (10.0, -1e8),
    (10.0, -1e10),
    pytest.param(10.0, -1e12, marks=_defect("3.066e-5, where sigma_inel_x is within 3.5e-16 "
                                            "of tests/reference.py: the oracle is off (item 21)")),
])
def test_time_domain_spectrum_matches_resolvent_at_large_drive(eta2, ztilde):
    # the points and the residual of verify's "time-domain spectrum vs resolvent"
    dc, xs = DriveConfig(math.sqrt(eta2), ztilde, 0.6), (0.0, 1.3, -2.7)
    got = np.array([spectrum_time_domain(FANO, dc, x) for x in xs])
    ref = sigma_inel_x(FANO, dc, np.array(xs))
    assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-30)) <= 1e-6


@_defect("-2.619e-21, where sigma_inel is 8.9e-35: d' holds 1e-16 residues where it "
         "should be 0 (item 4)")
def test_inelastic_density_at_the_fano_zero_is_not_negative():
    sc, dc = ScatteringScalars(0.0, 0.13, 0.0, 0.0, 0.0, 0.0), DriveConfig(2.0, FANO_ZERO, 0.6)
    assert sigma_inel_x(sc, dc, 0.0) >= -1e-30, sigma_inel(sc, dc)


@_defect("1.11e-5 off: (gammatilde / 2)^2 is subnormal (item 4)")
def test_narrow_elastic_line_peaks_at_two_over_pi_gammatilde():
    assert elastic_lorentzian(1.0, 1e-160, 0.0) == pytest.approx(2.0 / (math.pi * 1e-160),
                                                                 rel=1e-12)


@_defect("0.84 off at x = 1e16 (1.4e-4 at 1e12); from x = 1e17 on the density is negative, "
         "x^2 Sigma_inel = -2.50e-2 at 1e17 and -68.7 at 1e20, a 1/x residue of the wrong "
         "sign (item 4)")
def test_inelastic_far_tail_falls_as_one_over_x_squared():
    dc = DriveConfig(2.0, 0.3, 0.6)
    tail = 1e6 ** 2 * sigma_inel_x(FANO, dc, 1e6)  # 1.027063e-2
    assert 1e16 ** 2 * sigma_inel_x(FANO, dc, 1e16) == pytest.approx(tail, rel=1e-6)


def test_beam_overlaps_past_l_127_match_the_closed_legendre_integral():
    # verify's overlap row: (P_{l-1}(a) - P_{l+1}(a)) / (2l + 1) over [a, 1], P_{-1} = 1,
    # 3e-16 off a 40-digit mpmath value here
    lmax, dtheta = 320, 0.8
    a, two_l1 = math.cos(dtheta), 2 * np.arange(lmax + 1) + 1
    p = _legendre(a, lmax + 1)
    pref = 2.0 * math.pi / (dtheta * math.sqrt(2.0 * math.pi * (1.0 - a)))
    exact = pref * np.sqrt(two_l1 / (4.0 * math.pi)) * (np.r_[1.0, p[:lmax]] - p[1:]) / two_l1
    err = np.abs(beam_overlaps(lmax, dtheta) - exact) / np.max(np.abs(exact))
    assert np.max(err) <= 1e-12, int(np.argmax(err))


# item 5's acceptance points: (eta2, ztilde, gammatilde)
@pytest.mark.parametrize("eta2, ztilde, gammatilde", [
    (1.0, 1e4, 0.5), (1.0, 1e5, 0.5), (1.0, -1e5, 0.5), (1.0, 1e6, 0.5), (10.0, -1e6, 0.6)])
def test_sum_rules_find_the_far_sidebands(eta2, ztilde, gammatilde):
    report = quad_sum_rules(FANO, DriveConfig(math.sqrt(eta2), ztilde, gammatilde))
    assert report.passed, (report.inel_rel_gap, report.tot_rel_gap, report.quad_converged)


# two weak drives far from resonance where the 8- and 16-node rules of the panel at the end
# of a narrow pole's stretch agree while both miss its neighbours' tails
@pytest.mark.parametrize("sc, dc", [
    pytest.param(ScatteringScalars(-0.177673, -0.156860, 0.0760691, 0.0374182, 0.0757548,
                                   0.00272603),
                 DriveConfig(math.sqrt(1.06626e-8), 35644.9, 0.00248964),
                 marks=_defect("inelastic gap 2.11e-6 with quad_converged = True (item 5)")),
    pytest.param(ScatteringScalars(-0.197161, -0.239760, 0.0991499, 0.0286595, 0.150260,
                                   0.00981268),
                 DriveConfig(0.0175834, -32515.0, 0.00876106),
                 marks=_defect("inelastic gap 2.21e-6 with quad_converged = True (item 5)")),
])
def test_sum_rules_see_the_tails_between_far_features(sc, dc):
    report = quad_sum_rules(sc, dc)
    assert report.passed, (report.inel_rel_gap, report.tot_rel_gap, report.quad_converged)


def _expm_from_ground(rs, tau):
    """(u, v) at tau from the ground state: a 60-digit ``mpmath.expm`` of
    ode_evolve's augmented generator, whose float entries it takes exactly."""
    aug = np.zeros((4, 4), dtype=complex)
    aug[0:3, 0:3] = -0.5 * build_drift(rs)
    aug[1:3, 3] = 0.5 * rs.eta
    with mpmath.workdps(60):
        column = mpmath.expm(mpmath.matrix(aug.tolist()) * tau)[:, 3]
        return float(mpmath.re(column[0])), complex(column[1])


@pytest.mark.parametrize("sc, eta, tau", [
    (FANO, 1e9, 0.5),
    (FANO, 1.5e9, 0.5),
    (MOLLOW_SCALARS, 1e17, 50.0),
])
def test_evolve_at_strong_drive_is_right_or_refuses(sc, eta, tau):
    rs = reduced_scalars(sc, DriveConfig(eta, 0.0))
    try:
        out = evolve(rs, BlochVector(0.0, 0.0), tau)
    except ValueError:
        return
    u, v = _expm_from_ground(rs, tau)
    assert abs(out.u - u) <= 1e-8 and abs(out.v - v) <= 1e-8, (out, u, v)


# the suite turns numpy's overflow warnings into errors, and they come first today
_NAN_TODAY = "NaN, after a numpy overflow warning (item 12)"


@pytest.mark.parametrize("eta2, ztilde, x", [
    pytest.param(5.6e62, 0.3, 0.5, marks=_defect(_NAN_TODAY, RuntimeWarning)),
    pytest.param(4.0, 5.6e76, 0.5, marks=_defect(_NAN_TODAY, RuntimeWarning)),
    pytest.param(4.0, 0.3, 3.2e153, marks=_defect(_NAN_TODAY, RuntimeWarning)),
])
def test_sigma_inel_x_past_overflow_is_finite_or_refuses(eta2, ztilde, x):
    try:
        value = sigma_inel_x(FANO, DriveConfig(math.sqrt(eta2), ztilde, 0.6), x)
    except ArithmeticError:
        return
    assert math.isfinite(value)


@_defect("-7.652e-69, where sigma_inel_x gives 4.9e-102: the real part lies ~50 digits below "
         "the bilinear's imaginary part, which no float64 route resolves (item 18)")
def test_time_domain_spectrum_at_far_x_refuses():
    sc = scalars_from_phase_shifts(DEFAULT_TABLE)
    try:
        value = spectrum_time_domain(sc, DriveConfig(2.0, 0.0, 0.6), 1e50)
    except ArithmeticError:
        return
    raise AssertionError(f"returned {value!r} instead of refusing")


@pytest.mark.parametrize("eta2, ztilde", [
    (1e4, 0.0), (1.0, 1e5), (1.0, -1e5), (18.0, 1e5), (18.0, -1e5), (1e8, 0.0)])
def test_cubic_discriminant_of_the_drift_at_strong_drive(eta2, ztilde):
    # a real root and a complex pair (the Mollow sidebands, or the far-detuned coherence):
    # a negative discriminant
    sc = scalars_from_phase_shifts(DEFAULT_TABLE)
    rs = reduced_scalars(sc, DriveConfig(math.sqrt(eta2), ztilde, 0.6))
    assert cubic_discriminant(char_poly(rs)) < 0.0


# the poles 1 and 1 + 4 eta^2 of MOLLOW_SCALARS at ztilde 0 nearly meet at weak drive
@pytest.mark.parametrize("eta", [
    pytest.param(1e-5, marks=_defect("1.04e-8 off, with one pole at 0.999999989563, below the "
                                     "proved Re l >= 1 (item 22)")),
    pytest.param(1e-3, marks=_defect("3.0e-11 off (item 22)")),
])
def test_drift_poles_match_a_50_digit_eigensolve(eta):
    rs = reduced_scalars(MOLLOW_SCALARS, DriveConfig(eta, 0.0))
    with mpmath.workdps(50):
        exact = mpmath.eig(mpmath.matrix(build_drift(rs).tolist()), left=False, right=False)
        exact = sorted(exact, key=lambda lam: (lam.real, lam.imag))
        got = sorted(_drift_poles(rs), key=lambda lam: (lam.real, lam.imag))
        gaps = [float(abs(p - e) / abs(e)) for p, e in zip(got, exact)]
    assert max(gaps) <= 1e-14 and min(p.real for p in got) >= 1.0, (gaps, got)


# eta^2 mollow_inel_x(0, eta, 0.6, 1.0) is 0.0388182788029013 from eta = 1e30 to 1e38;
# from 1e39 on q (z2 + 1 + 2 eta2)^2 overflows and the value reads 0.0, NaN at 1e60
@pytest.mark.parametrize("eta", [
    pytest.param(1e50, marks=_defect("0.0, after a numpy overflow warning (item 12)",
                                     RuntimeWarning)),
    pytest.param(1e60, marks=_defect("NaN, after a numpy overflow warning (item 12)",
                                     RuntimeWarning)),
])
def test_mollow_inel_x_at_strong_drive_falls_as_eta_squared_or_refuses(eta):
    try:
        value = mollow_inel_x(0.0, eta, 0.6, 1.0)
    except ArithmeticError:
        return
    assert value * eta ** 2 == pytest.approx(0.0388182788029013, rel=1e-12), value


def test_column_cross_sections_past_overflow_are_finite_or_refuse():
    try:
        t = cross_sections(FANO, DriveConfig(np.array([math.sqrt(5.6e77)]), 0.3, 0.6))
    except ArithmeticError:
        return
    assert np.isfinite([t.total, t.elastic, t.inelastic]).all()
