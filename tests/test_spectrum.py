import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import mirror, random_drive, random_scalars
from qsatom import (DriveConfig, MOLLOW_SCALARS, PhaseShiftTable, ScatteringScalars,
                    build_drift, cross_sections, local_maxima,
                    low_intensity_x, mollow_inel_x, mollow_xsections, reduced_scalars, resolvent,
                    scalars_from_phase_shifts, sigma_el, sigma_inel,
                    sigma_inel_x, sigma_tot, sigma_tot_x,
                    spectral_coefficients, spectral_diff)
from qsatom.model import SQRT_4PI
from qsatom.oracle import _shifted_drift
from qsatom.spectrum import _det_and_rows, elastic_lorentzian

MIXED_TABLE = PhaseShiftTable([-0.2, 0.15, 0.05, -0.3], [0.4, -0.1, 0.02, 0.11])


def test_resolvent_decoupled_diagonal():
    # no drive, no s-wave difference: the three modes decouple and the
    # resolvent diagonal is the reciprocal of the shifted decay rates
    sc = MOLLOW_SCALARS
    dc = DriveConfig(0.0, 0.6, 0.4)
    rs = reduced_scalars(sc, dc)
    x = 0.9
    r = resolvent(rs, x)
    gt = dc.gammatilde
    assert r[0, 0] == pytest.approx(1.0 / (2.0 + gt + 2j * x), rel=1e-14)
    assert r[1, 1] == pytest.approx(1.0 / (rs.bprime + gt + 2j * x), rel=1e-14)
    assert r[2, 2] == pytest.approx(1.0 / (np.conj(rs.bprime) + gt + 2j * x), rel=1e-14)


def test_resolvent_decays_at_large_frequency(fano_scalars):
    rs = reduced_scalars(fano_scalars, DriveConfig(2.0, 0.5, 0.3))
    for x in (1e3, -1e4):
        r = resolvent(rs, x)
        assert np.max(np.abs(r)) <= 1.0 / abs(x)


def test_resolvent_matches_generic_inverse():
    rng = np.random.default_rng(71)
    worst = 0.0
    for _ in range(100):
        sc, dc = random_scalars(rng), random_drive(rng)
        rs = reduced_scalars(sc, dc)
        x = rng.uniform(-20.0, 20.0)
        adj = resolvent(rs, x)
        gen = np.linalg.inv(_shifted_drift(rs, x))
        worst = max(worst, float(np.max(np.abs(adj - gen))))
    assert worst <= 1e-12


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


_SHIFT = st.floats(-math.pi, math.pi, exclude_min=True, exclude_max=True)
_NORM = st.just(0.0) | _log_uniform(1e-12, 10.0)


@given(_SHIFT, _SHIFT, _NORM, _NORM, st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
       st.floats(-0.1, 0.1), st.just(0.0) | _log_uniform(1e-8, 1e6),
       st.sampled_from([-1.0, 1.0]), _log_uniform(1e-8, 1e8),
       st.just(0.0) | _log_uniform(1e-10, 1e4), st.lists(st.floats(-1e8, 1e8), min_size=4,
                                                         max_size=4))
@settings(max_examples=300, deadline=None)
def test_resolvent_determinant_is_at_least_one_plus_gammatilde_cubed(
        d0p, d0m, pgp, pgm, t, eps_r, eta, sign, ztilde, gt, xs):
    # every eigenvalue of G' has real part >= 1 (the proof is in resolvent's
    # docstring), so no real x, its poles -Im lambda / 2 included, makes A singular
    a, b = math.sqrt(pgp), math.sqrt(pgm)
    pdg = (abs(a - b) + t * (a + b - abs(a - b))) ** 2  # on either triangle limit or inside
    rs = reduced_scalars(ScatteringScalars(d0p, d0m, pgp, pgm, pdg, eps_r),
                         DriveConfig(eta, sign * ztilde, gt))
    poles = -np.linalg.eigvals(build_drift(rs)).imag / 2.0
    det = _det_and_rows(rs, np.concatenate([poles, [0.0], xs]))[0]
    assert np.all(np.abs(det) >= (1.0 + gt) ** 3 * (1.0 - 1e-9)), (np.abs(det), gt)


def _mp_error(sc, dc, x) -> float:
    """Largest error of resolvent(rs, x) against a 40-digit mpmath inverse
    of the same Gtilde + 2ix, relative to its largest entry."""
    rs = reduced_scalars(sc, dc)
    with mpmath.workdps(40):
        ref = mpmath.matrix(_shifted_drift(rs, x).tolist()) ** -1
        ref = np.array(ref.tolist(), dtype=complex)
    return float(np.max(np.abs(resolvent(rs, x) - ref)) / np.max(np.abs(ref)))


def _sideband(sc, dc) -> float:
    """Generalized Rabi sideband x = hypot(eta, z/2) of the Mollow triplet."""
    return math.hypot(dc.eta, reduced_scalars(sc, dc).z / 2.0)


FANO_ZERO = 0.5 / math.tan(0.13)  # ztilde of the Fano zero of delta0_minus = 0.13


def test_resolvent_rows_match_mpmath_inverse(fano_scalars):
    # all three closed adjugate rows complete the inverse: A @ inv = identity
    rs = reduced_scalars(fano_scalars, DriveConfig(2.0, -1.0, 0.5))
    x = 1.7
    full = resolvent(rs, x)
    a = _shifted_drift(rs, x)
    assert np.max(np.abs(a @ full - np.eye(3))) < 1e-13
    # the Fano zero, strong drive with a narrow detector and far
    # detunings, with x at the Rabi sidebands +-eta and at the line centre
    worst = 0.0
    for eta2, gt in ((4.0, 0.5), (1e3, 1e-3)):
        for zt in (FANO_ZERO, 1e4, -1e4):
            dc = DriveConfig(math.sqrt(eta2), zt, gt)
            xs = [-dc.eta, 0.0, dc.eta]
            if zt == FANO_ZERO:
                xs += [-_sideband(fano_scalars, dc), _sideband(fano_scalars, dc)]
            worst = max(worst, *(_mp_error(fano_scalars, dc, x) for x in xs))
    assert worst <= 1e-14


def test_resolvent_matches_mpmath_on_far_detuned_sidebands(fano_scalars):
    # ztilde = -+1e4 puts a sideband at |x| ~ 1e4, where khat^2 + w^2 would
    # cancel from ~4e8 to O(1); the closed determinant forms kplus * kminus
    worst = 0.0
    for zt in (1e4, -1e4):
        dc = DriveConfig(2.0, zt, 0.5)
        xb = _sideband(fano_scalars, dc)
        worst = max(worst, _mp_error(fano_scalars, dc, -xb), _mp_error(fano_scalars, dc, xb))
    assert worst <= 1e-14


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_resolvent_rejects_non_finite_frequency(fano_scalars, x):
    rs = reduced_scalars(fano_scalars, DriveConfig(2.0, 1.0, 0.5))
    with pytest.raises(ValueError, match="finite x"):
        resolvent(rs, x)


@pytest.mark.parametrize("x", [math.nan, math.inf, np.array([0.0, math.nan, 1.0])],
                         ids=["nan", "inf", "array-with-nan"])
def test_spectra_reject_non_finite_frequency(fano_scalars, dwave_table, x):
    dc = DriveConfig(2.0, 1.0, 0.5)
    for f in (lambda: sigma_inel_x(fano_scalars, dc, x),
              lambda: sigma_tot_x(fano_scalars, dc, x),
              lambda: spectral_diff(dwave_table, dc, 0.4, x)):
        with pytest.raises(ValueError, match="finite x"):
            f()


def _written_out_gtilde(rs):
    """Gtilde as a hand-written matrix, similar to G' + gammatilde via
    diag(eta, 1, -eta^2): the reference for the one derived from G'."""
    eta, gt = rs.eta, rs.gammatilde
    eis, cs, b = np.exp(1j * rs.s), math.cos(rs.s), rs.bprime
    return np.array([
        [2.0 + gt, -1.0, eta ** 2],
        [2.0 * eta ** 2 * eis * cs, b + gt, 0.0],
        [-2.0 * np.conj(eis) * cs, 0.0, np.conj(b) + gt],
    ], dtype=complex)


def test_spectral_drift_eigenvalues_shift_by_width(fano_scalars):
    rng = np.random.default_rng(19)
    for _ in range(40):
        sc = random_scalars(rng)
        dc = random_drive(rng)
        if dc.eta == 0.0:
            continue
        rs = reduced_scalars(sc, dc)
        sd = _shifted_drift(rs, 0.0)
        shifted = np.linalg.eigvals(build_drift(rs)) + dc.gammatilde
        for lam in np.linalg.eigvals(sd):
            assert np.min(np.abs(shifted - lam)) < 1e-10
    # entry by entry, the structural zeros exactly, down to eta = 1e-150
    for eta in (1e-150, 1e-3, 2.0, 1e3):
        rs = reduced_scalars(fano_scalars, DriveConfig(eta, -1.3, 0.4))
        ref = _written_out_gtilde(rs) + 1.7j * np.eye(3)
        gap = np.abs(_shifted_drift(rs, 0.85) - ref)
        assert np.all(gap <= 4.0 * np.finfo(float).eps * np.abs(ref))
    with pytest.raises(ValueError, match="eta > 0"):
        _shifted_drift(reduced_scalars(fano_scalars, DriveConfig(0.0, -1.3, 0.4)), 0.85)


def test_spectral_coefficients_structure(fano_scalars):
    dc = DriveConfig(2.0, 1.0, 0.6)
    rs = reduced_scalars(fano_scalars, dc)
    cprime, dprime, ddoubleprime = spectral_coefficients(rs)
    for v in (cprime, dprime, ddoubleprime):
        assert v.shape == (3,) and v.dtype == complex and not v.flags.writeable
    assert cprime[1] == 0.0 and cprime[2] == 1.0
    # d'' encodes the dressed decay scalars directly
    den = rs.z ** 2 + rs.zeta2
    assert ddoubleprime[0] == pytest.approx(rs.kappa2 * (den - dc.eta ** 2 * rs.kappa2))
    assert ddoubleprime[2] == pytest.approx(rs.kappa2 * complex(rs.kappa2, -rs.y))


def test_inelastic_spectrum_vanishes_without_drive(fano_scalars):
    dc = DriveConfig(0.0, 1.2, 0.5)
    for x in (-3.0, 0.0, 7.7):
        assert sigma_inel_x(fano_scalars, dc, x) == 0.0


def test_inelastic_spectrum_mirror_symmetry():
    rng = np.random.default_rng(97)
    for _ in range(80):
        sc, dc = random_scalars(rng), random_drive(rng, gamma_min=0.05)
        sc2, dc2 = mirror(sc, dc)
        x = rng.uniform(-10.0, 10.0)
        a = sigma_inel_x(sc, dc, x)
        b = sigma_inel_x(sc2, dc2, -x)
        assert abs(a - b) <= 1e-12
        assert a >= -1e-12


def test_inelastic_spectrum_positive_on_dense_grid(fano_scalars):
    xs = np.linspace(-30.0, 30.0, 1501)
    for eta2, zt in ((10.0, 0.0), (28.0, 3.0), (40.0, -4.0)):
        vals = sigma_inel_x(fano_scalars, DriveConfig(math.sqrt(eta2), zt, 0.6), xs)
        assert float(np.min(vals)) >= -1e-12


def test_inelastic_spectrum_integrates_to_cross_section(fano_scalars):
    from qsatom.oracle import integrate_line
    dc = DriveConfig(math.sqrt(18.0), 0.0, 0.6)
    closed = sigma_inel(fano_scalars, dc)
    value, _, converged = integrate_line(
        lambda x: sigma_inel_x(fano_scalars, dc, x), 20.0, tol=1e-10)
    assert converged
    assert value == pytest.approx(closed, rel=1e-6)


def test_total_spectrum_composition(fano_scalars):
    dc = DriveConfig(2.0, 1.0, 0.6)
    weight = sigma_el(fano_scalars, dc)
    for x in (0.0, -2.2, 5.0):
        lor = weight * (0.6 / (2 * math.pi)) / (x ** 2 + 0.09)
        assert sigma_tot_x(fano_scalars, dc, x) == pytest.approx(
            lor + sigma_inel_x(fano_scalars, dc, x), rel=1e-14)


def test_total_spectrum_rejects_zero_width(fano_scalars):
    with pytest.raises(ValueError):
        sigma_tot_x(fano_scalars, DriveConfig(1.0, 0.0, 0.0), 0.3)


def test_total_spectrum_tail_small_positive(fano_scalars):
    dc = DriveConfig(math.sqrt(18.0), 0.0, 0.6)
    v = sigma_tot_x(fano_scalars, dc, 100.0)
    assert 0.0 < v < 1e-5


def test_mollow_spectrum_even_in_x():
    for x in (0.3, 1.7, 9.0):
        assert mollow_inel_x(0.8, 2.0, 0.6, x) == mollow_inel_x(0.8, 2.0, 0.6, -x)
        assert mollow_inel_x(-0.8, 2.0, 0.6, x) == mollow_inel_x(0.8, 2.0, 0.6, x)


def test_mollow_spectrum_matches_resolvent_route():
    xs = np.linspace(-8.0, 8.0, 41)
    worst = 0.0
    for zt in np.linspace(-3.0, 3.0, 21):
        dc = DriveConfig(2.0, float(zt), 0.6)
        got = sigma_inel_x(MOLLOW_SCALARS, dc, xs)
        ref = mollow_inel_x(float(zt), 2.0, 0.6, xs)
        worst = max(worst, float(np.max(np.abs(got - ref) / np.abs(ref))))
    assert worst <= 1e-10


def test_total_spectrum_mollow_reference():
    dc = DriveConfig(math.sqrt(10.0), 0.0, 0.6)
    el = mollow_xsections(0.0, dc.eta).elastic
    for x in (0.0, 1.1, -4.0):
        lor = el * (0.6 / (2 * math.pi)) / (x ** 2 + 0.09)
        assert sigma_tot_x(MOLLOW_SCALARS, dc, x) == pytest.approx(
            lor + mollow_inel_x(0.0, dc.eta, 0.6, x), rel=1e-10)


def test_strong_drive_triplet_positions_and_ratio():
    dc = DriveConfig(10.0, 0.0, 0.01)
    peaks = local_maxima(lambda x: sigma_inel_x(MOLLOW_SCALARS, dc, x),
                         -15.0, 15.0, num=3001)
    assert len(peaks) == 3
    xs = sorted(p[0] for p in peaks)
    assert xs[0] == pytest.approx(-10.0, abs=0.5)
    assert xs[1] == pytest.approx(0.0, abs=0.2)
    assert xs[2] == pytest.approx(10.0, abs=0.5)
    heights = {round(p[0]): p[1] for p in peaks}
    ratio = heights[0] / heights[10]
    assert ratio == pytest.approx((3.0 + 2 * 0.01) / (1.0 + 0.01), rel=0.1)


def test_low_intensity_spectrum_invariances(fano_scalars):
    args = (1.3, 0.5, 0.1)  # ztilde, gammatilde, eta
    for x in (0.2, 1.9, -3.3):
        a = low_intensity_x(fano_scalars, args[0], args[1], args[2], x)
        assert a == low_intensity_x(fano_scalars, args[0], args[1], args[2], -x)
        flipped, _ = mirror(fano_scalars, DriveConfig(args[2], 0.0))
        b = low_intensity_x(flipped, -args[0], args[1], args[2], x)
        assert a == pytest.approx(b, rel=1e-12)


def test_low_intensity_spectrum_is_weak_drive_limit(fano_scalars):
    # ratio exact/approx tends to 1 like 1 + O(eta^2); Richardson in eta^2
    zt, gt, x = 1.3, 0.5, 0.7

    def ratio(eta):
        dc = DriveConfig(eta, zt, gt)
        return sigma_inel_x(fano_scalars, dc, x) \
            / low_intensity_x(fano_scalars, zt, gt, eta, x)

    extrapolated = (4.0 * ratio(0.05) - ratio(0.1)) / 3.0
    assert abs(extrapolated - 1.0) <= 1e-4


def test_angular_elastic_weight_matches_amplitude_at_zero_drive():
    from qsatom import g_pm
    dc = DriveConfig(0.0, 0.9, 0.5)
    z = 2.0 * dc.ztilde
    d0m = MIXED_TABLE.delta_minus[0]
    for theta in (0.4, 1.3, 2.8):
        el, inel = spectral_diff(MIXED_TABLE, dc, theta, 0.8)
        _, gm = g_pm(MIXED_TABLE, theta)
        amp2 = abs(gm - 1j * np.exp(2j * d0m) / (SQRT_4PI * (z + 1j))) ** 2
        lor = (0.5 / (2 * math.pi)) / (0.8 ** 2 + 0.0625)
        assert el == pytest.approx(amp2 * lor, rel=1e-12)
        assert inel == pytest.approx(0.0, abs=1e-15)


def test_angular_elastic_weight_integrates_to_elastic_cross_section():
    # the angular elastic density is |a(theta)|^2 times a unit Lorentzian;
    # its solid-angle integral at fixed x must reproduce the elastic line
    sc = scalars_from_phase_shifts(MIXED_TABLE)
    dc = DriveConfig(2.0, 0.8, 0.6)
    x = 0.45
    nodes, weights = np.polynomial.legendre.leggauss(64)
    integral = 2.0 * math.pi * sum(
        w * spectral_diff(MIXED_TABLE, dc, math.acos(c), x)[0]
        for c, w in zip(nodes, weights))
    lorentz = (0.6 / (2.0 * math.pi)) / (x ** 2 + 0.09)
    assert integral == pytest.approx(sigma_el(sc, dc) * lorentz, rel=1e-10)


def test_angular_inelastic_density_integrates_to_spectrum():
    sc = scalars_from_phase_shifts(MIXED_TABLE)
    dc = DriveConfig(2.0, 0.8, 0.6)
    nodes, weights = np.polynomial.legendre.leggauss(64)
    rng = np.random.default_rng(3)
    for x in rng.uniform(-6.0, 6.0, 10):
        integral = 2.0 * math.pi * sum(
            w * spectral_diff(MIXED_TABLE, dc, math.acos(c), float(x))[1]
            for c, w in zip(nodes, weights))
        assert integral == pytest.approx(sigma_inel_x(sc, dc, float(x)), abs=1e-8)


def test_angular_spectral_sum_rule():
    # at fixed angle, the spectral densities integrate over frequency to
    # the differential cross section
    from qsatom import sigma_diff
    from qsatom.oracle import integrate_line
    dc = DriveConfig(2.0, 0.8, 0.6)
    for theta in (0.4, 1.2, 2.6):
        def density(xs):
            xs = np.atleast_1d(xs)
            return np.array([sum(spectral_diff(MIXED_TABLE, dc, theta, float(x)))
                             for x in xs])
        value, _, converged = integrate_line(density, 15.0, tol=1e-10)
        assert converged
        assert value == pytest.approx(sigma_diff(MIXED_TABLE, dc, theta), rel=1e-6)


def test_angular_elastic_weight_isotropic_for_pure_swave():
    table = PhaseShiftTable([0.2], [-0.1])
    dc = DriveConfig(1.5, 0.3, 0.4)
    vals = [spectral_diff(table, dc, th, 1.1)[0] for th in (0.2, 1.0, 2.0, 3.0)]
    assert max(vals) - min(vals) < 1e-15


# (theta, eta^2, ztilde, gammatilde, x, elastic, inelastic) as computed by
# np.linalg.solve on (G' + gammatilde + 2ix) before spectral_diff moved to
# the closed adjugate rows of (Gtilde + 2ix)
SPECTRAL_DIFF_GOLDEN = (
    (0.3, 0.0, 0.7, 0.6, -6.0, 9.535352058105e-06, 0.0),
    (0.3, 0.0, 0.7, 0.6, 0.8, 0.0004714121312013828, 0.0),
    (1.6, 0.0, 0.7, 0.6, -6.0, 1.0795880751964844e-05, 0.0),
    (1.6, 0.0, 0.7, 0.6, 0.8, 0.0005337305977238509, 0.0),
    (2.9, 0.0, 0.7, 0.6, -6.0, 4.6627264410188994e-05, 0.0),
    (2.9, 0.0, 0.7, 0.6, 0.8, 0.002305175304881809, 0.0),
    (0.3, 18.0, -1.5, 0.4, -6.0, 3.461555931091465e-05, 0.000503747454367951),
    (0.3, 18.0, -1.5, 0.4, 0.8, 0.001834624643478476, 0.007396923995112811),
    (1.6, 18.0, -1.5, 0.4, -6.0, 8.421320893098939e-06, 0.00010034003918269132),
    (1.6, 18.0, -1.5, 0.4, 0.8, 0.00044633000733424366, 0.0014527841318496464),
    (2.9, 18.0, -1.5, 0.4, -6.0, 1.5869372368514634e-05, 0.00025713439163827347),
    (2.9, 18.0, -1.5, 0.4, 0.8, 0.0008410767355312755, 0.0036676364422043063),
)


@pytest.mark.parametrize("theta, eta2, zt, gt, x, el_ref, inel_ref", SPECTRAL_DIFF_GOLDEN)
def test_spectral_diff_matches_recorded_values(theta, eta2, zt, gt, x, el_ref, inel_ref):
    el, inel = spectral_diff(MIXED_TABLE, DriveConfig(math.sqrt(eta2), zt, gt), theta, x)
    assert abs(el - el_ref) <= 1e-12 * el_ref
    assert abs(inel - inel_ref) <= 1e-12 * inel_ref


# (eta^2, ztilde, gammatilde, x, Sigma_inel) for the direct-scattering
# reference set, recorded before the builders took the reduced scalars
# alone; away from the Fano zero z = cot(delta_0^-)
SIGMA_INEL_X_GOLDEN = (
    (4.0, 0.0, 0.6, -6.0, 0.00047039087872403993),
    (4.0, 0.0, 0.6, 0.0, 0.02668988998315738),
    (4.0, 0.0, 0.6, 0.8, 0.01767505656948699),
    (18.0, 1.5, 0.6, -6.0, 0.00043538364319157044),
    (18.0, 1.5, 0.6, 0.0, 0.0017693133177321717),
    (18.0, 1.5, 0.6, 0.8, 0.001249941574482398),
    (40.0, -3.0, 0.3, -6.0, 0.0004856746687920587),
    (40.0, -3.0, 0.3, 0.0, 0.005606185551433333),
    (40.0, -3.0, 0.3, 0.8, 0.002896000369173023),
)


@pytest.mark.parametrize("eta2, zt, gt, x, ref", SIGMA_INEL_X_GOLDEN)
def test_sigma_inel_x_matches_recorded_values(fano_scalars, eta2, zt, gt, x, ref):
    got = sigma_inel_x(fano_scalars, DriveConfig(math.sqrt(eta2), zt, gt), x)
    assert abs(got - ref) <= 1e-12 * ref


# A spectrum value must not depend on which other x values its grid
# holds: every contiguous sub-grid of the 37 points, of each width 1..37,
# and 300 random grids of up to 512 of them (repeats allowed), against
# one float x at a time.
@pytest.mark.parametrize("form", ["sigma_inel_x", "resolvent"])
def test_one_x_rounds_as_it_does_inside_any_grid(fano_scalars, form):
    dc = DriveConfig(3.0, 0.7, 0.4)
    rs = reduced_scalars(fano_scalars, dc)
    f = {"sigma_inel_x": lambda x: sigma_inel_x(fano_scalars, dc, x),
         "resolvent": lambda x: resolvent(rs, x)}[form]
    xs = np.linspace(-9.0, 9.0, 37)
    alone = np.array([f(float(x)) for x in xs])
    rng = np.random.default_rng(11)
    grids = [np.arange(i, i + w) for w in range(1, 38) for i in range(38 - w)]
    grids += [rng.integers(0, 37, rng.integers(1, 513)) for _ in range(300)]
    moved = [len(idx) for idx in grids if not np.array_equal(f(xs[idx]), alone[idx])]
    assert moved == []


def test_spectral_diff_requires_width():
    with pytest.raises(ValueError):
        spectral_diff(MIXED_TABLE, DriveConfig(1.0, 0.0, 0.0), 1.0, 0.5)


def test_local_maxima_on_known_function():
    peaks = local_maxima(lambda x: math.cos(x), 0.5, 13.0, num=801, xtol=1e-8)
    assert [round(p[0] / math.pi) for p in peaks] == [2, 4]
    for p in peaks:
        assert p[0] == pytest.approx(round(p[0] / math.pi) * math.pi, abs=1e-6)


# The return rule of every public closed form: a float (the resolvent: one
# 3x3 matrix) where every input is 0-d; else an array whose entries are the
# per-point calls, bit for bit, whichever of the drive and x are columns.
_DRIVE_FORMS = {
    "sigma_tot": lambda sc, dc, x: sigma_tot(sc, dc),
    "sigma_el": lambda sc, dc, x: sigma_el(sc, dc),
    "sigma_inel": lambda sc, dc, x: sigma_inel(sc, dc),
    "cross_sections": lambda sc, dc, x: cross_sections(sc, dc).elastic,
    "mollow_xsections": lambda sc, dc, x: mollow_xsections(dc.ztilde, dc.eta).inelastic,
}
_X_FORMS = {
    "sigma_inel_x": sigma_inel_x,
    "sigma_tot_x": sigma_tot_x,
    "elastic_lorentzian": lambda sc, dc, x: elastic_lorentzian(sigma_el(sc, dc), dc.gammatilde, x),
    "mollow_inel_x": lambda sc, dc, x: mollow_inel_x(dc.ztilde, dc.eta, dc.gammatilde, x),
    "resolvent": lambda sc, dc, x: resolvent(reduced_scalars(sc, dc), x),
}


@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_float_inputs_give_floats_and_columns_the_per_point_floats(seed, n):
    rng = np.random.default_rng(seed)
    sc = random_scalars(rng)
    eta, zt = rng.uniform(0.0, 6.0, n), rng.uniform(-8.0, 8.0, n)
    gt, x = rng.uniform(0.05, 1.5, n), rng.uniform(-12.0, 12.0, n)
    points = [DriveConfig(*p) for p in zip(eta.tolist(), zt.tolist(), gt.tolist())]
    cols, xs = DriveConfig(eta, zt, gt), x.tolist()
    for name, form in {**_DRIVE_FORMS, **_X_FORMS}.items():
        one = form(sc, points[0], xs[0])
        assert type(one) is float or (name == "resolvent" and one.shape == (3, 3)), name
        cases = [(cols, x, zip(points, xs)), (cols, xs[0], zip(points, [xs[0]] * n))]
        if name in _X_FORMS:
            cases.append((points[0], x, zip([points[0]] * n, xs)))
        for drive, at, pairs in cases:
            want = np.array([form(sc, p, xi) for p, xi in pairs])
            got = form(sc, drive, at)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
