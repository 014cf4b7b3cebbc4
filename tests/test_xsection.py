import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import mirror, random_drive, random_scalars
from qsatom import (CrossSectionTriple, DriveConfig, MOLLOW_SCALARS,
                    PhaseShiftTable, ScatteringScalars, cross_section_grid,
                    cross_sections, g_pm,
                    low_intensity_tot, mollow_xsections, reduced_scalars,
                    scalars_from_phase_shifts, sigma_diff, sigma_el,
                    sigma_inel, sigma_tot)
from qsatom.model import SQRT_4PI

MIXED_TABLE = PhaseShiftTable([-0.2, 0.15, 0.05, -0.3], [0.4, -0.1, 0.02, 0.11])


def _gauss_sphere_integral(f, n=64):
    """Integral of f(theta) over the sphere by Gauss-Legendre in cos(theta)."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return 2.0 * math.pi * sum(w * f(math.acos(x)) for x, w in zip(nodes, weights))


def test_sigma_tot_resonant_point():
    assert sigma_tot(MOLLOW_SCALARS, DriveConfig(0.0, 0.0)) == pytest.approx(1.0, abs=1e-15)


def test_sigma_tot_mollow_saturated():
    assert sigma_tot(MOLLOW_SCALARS, DriveConfig(1.0, 0.0)) == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_sigma_tot_detuning_plateau(fano_scalars):
    plateau = fano_scalars.norm2_pg_minus + math.sin(fano_scalars.delta0_minus) ** 2
    assert plateau == pytest.approx(0.0218, abs=5e-5)
    for zt in (1e6, -1e6):
        for eta2 in (10.0, 40.0):
            v = sigma_tot(fano_scalars, DriveConfig(math.sqrt(eta2), zt))
            assert v == pytest.approx(plateau, abs=1e-6)


def test_sigma_el_detuning_plateau(fano_scalars):
    plateau = fano_scalars.norm2_pg_minus + math.sin(fano_scalars.delta0_minus) ** 2
    for zt in (1e6, -1e6):
        assert sigma_el(fano_scalars, DriveConfig(math.sqrt(18.0), zt)) \
            == pytest.approx(plateau, abs=1e-6)
        assert sigma_inel(fano_scalars, DriveConfig(math.sqrt(18.0), zt)) \
            == pytest.approx(0.0, abs=1e-6)


def test_sigma_el_mollow_values():
    assert sigma_el(MOLLOW_SCALARS, DriveConfig(1.0, 0.0)) == pytest.approx(1.0 / 9.0, rel=1e-14)
    assert sigma_el(MOLLOW_SCALARS, DriveConfig(0.0, 0.0)) == pytest.approx(1.0, abs=1e-15)


def test_sigma_inel_mollow_values():
    assert sigma_inel(MOLLOW_SCALARS, DriveConfig(1.0, 0.0)) == pytest.approx(2.0 / 9.0, rel=1e-14)
    assert sigma_inel(MOLLOW_SCALARS, DriveConfig(0.0, 1.3)) == 0.0


def test_sigma_inel_low_intensity_scaling(fano_scalars):
    # sigma_inel = eta^2 * limit + O(eta^4): halving eta shrinks the
    # error of the quadratic law by about 16
    zt = 0.8
    s = fano_scalars.s
    z = 2.0 * zt
    e0 = (z * math.sin(s) + math.cos(s)) ** 2 \
        + fano_scalars.norm2_pdg * (z ** 2 + 1.0)
    limit = 2.0 * e0 / (z ** 2 + 1.0) ** 2

    def quartic_error(eta):
        return abs(sigma_inel(fano_scalars, DriveConfig(eta, zt)) / eta ** 2 - limit)

    ratio = quartic_error(0.2) / quartic_error(0.1)
    assert ratio == pytest.approx(4.0, abs=1.5)  # eta^2 error scaling of the ratio
    assert quartic_error(0.05) < 1e-3


def test_sum_rule_and_nonnegativity_random_grid():
    rng = np.random.default_rng(101)
    for _ in range(500):
        sc, dc = random_scalars(rng), random_drive(rng)
        tot = sigma_tot(sc, dc)
        el = sigma_el(sc, dc)
        inel = sigma_inel(sc, dc)
        assert el >= 0.0 and inel >= 0.0 and tot >= 0.0
        assert el + inel == pytest.approx(tot, rel=1e-12)


def _sigma_el_transcribed(sc, dc):
    """Second, independent transcription of the elastic form: the l >= 1
    norm is assembled from explicit complex amplitudes instead of the
    polarization identity."""
    rs = reduced_scalars(sc, dc)
    e2 = dc.eta ** 2
    b = (1.0 + e2 + e2 * sc.norm2_pdg) * (1.0 + e2 * sc.norm2_pdg)
    den = rs.z ** 2 + rs.zeta2
    # realize the perp amplitudes as 2-vectors with the right norms and
    # cross term, then take the norm of the actual linear combination
    gp = np.array([math.sqrt(sc.norm2_pg_plus), 0.0])
    if sc.norm2_pg_plus > 0:
        c = sc.cross_pg / math.sqrt(sc.norm2_pg_plus)
        rest = max(sc.norm2_pg_minus - c ** 2, 0.0)
        gm = np.array([c, math.sqrt(rest)])
    else:
        gm = np.array([0.0, math.sqrt(sc.norm2_pg_minus)])
    vec = (rs.z ** 2 + b) * gm + e2 * rs.kappa2 * gp
    swave = (np.exp(-1j * sc.delta0_minus) * math.sin(sc.delta0_minus)
             + (e2 * rs.kappa2 * np.exp(1j * sc.s) * math.sin(sc.s)
                - rs.y + 1j * rs.kappa2) / den)
    return float(vec @ vec) / den ** 2 + abs(swave) ** 2


def test_sigma_el_against_independent_transcription(fano_scalars):
    dc_grid = [DriveConfig(math.sqrt(18.0), zt) for zt in np.linspace(-6.0, 6.0, 25)]
    for dc in dc_grid:
        assert sigma_el(fano_scalars, dc) == pytest.approx(
            _sigma_el_transcribed(fano_scalars, dc), rel=1e-12)


def test_cross_sections_are_python_floats(fano_scalars):
    dc = DriveConfig(math.sqrt(18.0), 0.7)
    for f in (sigma_tot, sigma_el, sigma_inel):
        assert type(f(fano_scalars, dc)) is float


def test_mirror_invariance_of_all_three():
    rng = np.random.default_rng(55)
    for _ in range(50):
        sc, dc = random_scalars(rng), random_drive(rng)
        sc2, dc2 = mirror(sc, dc)
        assert sigma_tot(sc, dc) == pytest.approx(sigma_tot(sc2, dc2), rel=1e-12)
        assert sigma_el(sc, dc) == pytest.approx(sigma_el(sc2, dc2), rel=1e-12)
        assert sigma_inel(sc, dc) == pytest.approx(sigma_inel(sc2, dc2), rel=1e-12)


def test_mollow_cross_sections_even_in_detuning():
    for zt in (0.3, 1.8, 5.0):
        for eta in (0.5, 2.0):
            a = sigma_tot(MOLLOW_SCALARS, DriveConfig(eta, zt))
            b = sigma_tot(MOLLOW_SCALARS, DriveConfig(eta, -zt))
            assert a == pytest.approx(b, rel=1e-14)


def test_sigma_diff_resonant_isotropic_point():
    table = PhaseShiftTable([0.0], [0.0])
    dc = DriveConfig(0.0, 0.0)
    for theta in (0.1, 1.2, 3.0):
        assert sigma_diff(table, dc, theta) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-14)


def test_sigma_diff_low_intensity_amplitude_form():
    # at zero intensity the angular density is a single squared amplitude
    dc = DriveConfig(0.0, 0.9)
    z = 2.0 * dc.ztilde
    d0m = MIXED_TABLE.delta_minus[0]
    for theta in (0.3, 1.1, 2.5):
        _, gm = g_pm(MIXED_TABLE, theta)
        amp = gm - 1j * np.exp(2j * d0m) / (SQRT_4PI * (z + 1j))
        assert sigma_diff(MIXED_TABLE, dc, theta) == pytest.approx(abs(amp) ** 2, rel=1e-12)


def test_sigma_diff_integrates_to_total():
    sc = scalars_from_phase_shifts(MIXED_TABLE)
    for eta2, zt in ((10.0, 0.0), (4.0, -1.5), (0.0, 2.0)):
        dc = DriveConfig(math.sqrt(eta2), zt)
        integral = _gauss_sphere_integral(lambda th: sigma_diff(MIXED_TABLE, dc, th))
        assert integral == pytest.approx(sigma_tot(sc, dc), abs=1e-8)


def test_mollow_closed_forms_match_general_path():
    for zt, eta2 in ((0.0, 0.0), (0.0, 1.0), (1.5, 10.0), (-2.0, 28.0)):
        dc = DriveConfig(math.sqrt(eta2), zt)
        triple = mollow_xsections(zt, dc.eta)
        assert sigma_tot(MOLLOW_SCALARS, dc) == pytest.approx(triple.total, abs=1e-15)
        assert sigma_el(MOLLOW_SCALARS, dc) == pytest.approx(triple.elastic, abs=1e-15)
        assert sigma_inel(MOLLOW_SCALARS, dc) == pytest.approx(triple.inelastic, abs=1e-15)


@given(st.floats(-50.0, 50.0), st.floats(0.0, 20.0))
@settings(max_examples=200, deadline=None)
def test_mollow_triple_closure_identity(ztilde, eta):
    triple = mollow_xsections(ztilde, eta)
    assert triple.elastic + triple.inelastic == pytest.approx(triple.total, rel=1e-12)


def test_low_intensity_tot_values(fano_scalars):
    assert low_intensity_tot(MOLLOW_SCALARS, 0.0) == pytest.approx(1.0, abs=1e-15)
    swave = ScatteringScalars(0.0, math.pi / 2, 0.0, 0.004, 0.004, 0.0)
    assert low_intensity_tot(swave, 1e8) == pytest.approx(0.004 + 1.0, rel=1e-9)
    # limit formula coincides with the full expression at zero intensity
    for zt in (-3.0, 0.0, 0.7):
        assert low_intensity_tot(fano_scalars, zt) == pytest.approx(
            sigma_tot(fano_scalars, DriveConfig(0.0, zt)), rel=1e-12)


def test_low_intensity_tot_accepts_table():
    zt = 0.4
    via_table = low_intensity_tot(MIXED_TABLE, zt)
    via_scalars = low_intensity_tot(scalars_from_phase_shifts(MIXED_TABLE), zt)
    assert via_table == via_scalars


def test_cross_section_triple_validation():
    with pytest.raises(ValueError):
        CrossSectionTriple(1.0, 0.4, 0.4)
    with pytest.raises(ValueError):
        CrossSectionTriple(0.2, 0.4, -0.2)
    CrossSectionTriple(0.8, 0.5, 0.3)


def test_cross_section_triple_validation_on_columns():
    # the grid's checks are the scalar checks, elementwise, same messages
    ok = np.array([0.8, 1e-30])
    CrossSectionTriple(ok, ok / 2, ok / 2)
    with pytest.raises(ValueError, match="nonnegative"):
        CrossSectionTriple(ok, np.array([0.5, -0.2]), np.array([0.3, 0.2]))
    with pytest.raises(ValueError, match=r"gap 2\.000e-01"):
        CrossSectionTriple(ok, np.array([0.4, 0.0]), np.array([0.2, 0.0]))


_NORM2 = st.floats(0.0, 0.1)


@given(st.floats(-0.4, 0.4), st.floats(-0.4, 0.4), _NORM2, _NORM2,
       st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       st.floats(-0.01, 0.01),
       st.lists(st.floats(0.0, 1e4), min_size=1, max_size=8),
       st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_cross_section_grid_is_bitwise_the_scalar_path(d0p, d0m, pgp, pgm, t, eps_r,
                                                       eta2s, zts):
    # t = 0 and t = 1 put ||P dg||^2 on the triangle bound, other t inside it
    lo = (math.sqrt(pgp) - math.sqrt(pgm)) ** 2
    hi = (math.sqrt(pgp) + math.sqrt(pgm)) ** 2
    sc = ScatteringScalars(d0p, d0m, pgp, pgm, lo + t * (hi - lo), eps_r)
    eta2 = np.repeat(eta2s, len(zts))
    ztilde = np.tile(zts, len(eta2s))
    grid = cross_section_grid(sc, eta2, ztilde)
    for name in ("total", "elastic", "inelastic"):
        want = [getattr(cross_sections(sc, DriveConfig(math.sqrt(e2), zt)), name)
                for e2, zt in zip(eta2.tolist(), ztilde.tolist())]
        assert getattr(grid, name).tobytes() == np.array(want).tobytes(), name


def test_cross_section_grid_names_the_first_overflowing_point(fano_scalars):
    # a float ** 2 raises OverflowError here; the columns carry inf/nan
    # instead, which must not pass as numbers
    with pytest.raises(ArithmeticError, match=r"\(eta2, ztilde\) = \(1e\+200, 0\.5\)"):
        cross_section_grid(fano_scalars, np.array([4.0, 1e200]), np.array([0.5, 0.5]))
