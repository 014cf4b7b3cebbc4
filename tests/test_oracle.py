import math
import random
import re
import time
from dataclasses import fields, replace
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from helpers import inelastic_poles, random_drive, random_scalars
from qsatom import (BlochVector, DriveConfig, MOLLOW_SCALARS, PhaseShiftTable,
                    ScatteringScalars, beam_overlaps, build_drift,
                    equilibrium, evolve, finite_beam_balance,
                    finite_beam_equilibrium, ode_evolve, quad_sum_rules,
                    reduced_scalars, resolvent, run_verification, scalars_from_phase_shifts,
                    sigma_inel, sigma_inel_x, sigma_tot, sigma_tot_x,
                    spectrum_time_domain)
from qsatom import model, oracle, spectrum, xsection
from qsatom.oracle import SumRuleReport, integrate_line


def test_ode_evolve_tau_zero(fano_scalars):
    rs = reduced_scalars(fano_scalars, DriveConfig(1.0, 0.0))
    x0 = BlochVector(0.4, 0.2j)
    assert ode_evolve(rs, x0, 0.0) is x0


def test_ode_evolve_reaches_equilibrium(fano_scalars):
    dc = DriveConfig(2.0, 1.0)
    rs = reduced_scalars(fano_scalars, dc)
    eq = equilibrium(rs)
    # 1e5 is 1e8 RK4 steps, affordable only as a power of the step matrix
    for tau in (200.0, 1e5):
        out = ode_evolve(rs, BlochVector(0.0, 0.0), tau)
        assert out.u == pytest.approx(eq.u, abs=1e-8)
        assert out.v == pytest.approx(eq.v, abs=1e-8)


def test_ode_evolve_agrees_with_matrix_exponential():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        sc, dc = random_scalars(rng), random_drive(rng)
        rs = reduced_scalars(sc, dc)
        u0 = rng.uniform(0.0, 1.0)
        r = rng.uniform(0.0, 0.95) * math.sqrt(max(u0 - u0 ** 2, 0.0))
        x0 = BlochVector(u0, r * np.exp(2j * math.pi * rng.uniform()))
        tau = rng.uniform(0.1, 20.0)
        a = evolve(rs, x0, tau)
        b = ode_evolve(rs, x0, tau)
        worst = max(worst, abs(a.u - b.u), abs(a.v - b.v))
    assert worst <= 1e-8


@pytest.mark.parametrize("dim", [4, 8])
def test_rk4_step_matrix_is_one_four_stage_step(dim):
    rng = np.random.default_rng(dim)
    for h in (1e-3, 0.05, 0.3):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        y = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        k1 = m @ y
        k2 = m @ (y + 0.5 * h * k1)
        k3 = m @ (y + 0.5 * h * k2)
        k4 = m @ (y + h * k3)
        stages = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        got = oracle._rk4_step(m, h) @ y
        assert np.linalg.norm(got - stages) <= 1e-14 * np.linalg.norm(stages)


@pytest.mark.parametrize("tau", [math.inf, -math.inf, math.nan])
def test_ode_evolve_rejects_non_finite_tau(fano_scalars, tau):
    rs = reduced_scalars(fano_scalars, DriveConfig(1.0, 0.0))
    with pytest.raises(ValueError, match="tau"):
        ode_evolve(rs, BlochVector(0.0, 0.0), tau)


def test_ode_evolve_names_its_largest_span():
    # past 1e305 the step count tau / 1e-3 overflows; math.ceil(inf) used
    # to raise a bare OverflowError at tau = 1e306
    rs = reduced_scalars(MOLLOW_SCALARS, DriveConfig(40.0, 0.0))
    eq = equilibrium(rs)
    out = ode_evolve(rs, BlochVector(0.0, 0.0), 1e305)
    assert abs(out.u - eq.u) <= 1e-12 and abs(out.v - eq.v) <= 1e-12
    with pytest.raises(ValueError, match=r"tau must lie in \[0, 1e\+305\]"):
        ode_evolve(rs, BlochVector(0.0, 0.0), 1e306)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_time_domain_rejects_non_finite_inputs(fano_scalars, x):
    for eta in (2.0, 0.0):
        with pytest.raises(ValueError, match="finite"):
            spectrum_time_domain(fano_scalars, DriveConfig(eta, 0.0, 0.6), x)


def test_integrate_line_gaussian():
    value, _, ok = integrate_line(lambda x: np.exp(-x ** 2), [(0.0, 1.0)], tol=1e-11)
    assert ok and value == pytest.approx(math.sqrt(math.pi), rel=1e-10)


# 1/|x| diverges and sin^2(1e6 x) cannot be resolved: both stop on the
# panel budget; the integrable log singularity fails one neighbourhood
# per halving and stops on the halving cap
@pytest.mark.parametrize("f", [
    lambda x: 1.0 / np.abs(x),
    lambda x: np.sin(1e6 * x) ** 2 / (1.0 + x ** 2),
    lambda x: -np.log(np.abs(x - 0.3)) / (1.0 + x ** 2),
], ids=["divergent", "oscillating", "log-singular"])
def test_integrate_line_reports_non_convergence_in_bounded_time(f):
    start = time.perf_counter()
    value, _, ok = integrate_line(f, [(0.0, 1.0)], tol=1e-9)
    assert not ok and math.isfinite(value)
    assert time.perf_counter() - start < 5.0


def test_integrate_line_lorentzian_mass():
    half = 0.3
    value, _, ok = integrate_line(
        lambda x: (half / math.pi) / (x ** 2 + half ** 2), [(0.0, 5.0)], tol=1e-10)
    assert ok
    assert value == pytest.approx(1.0, rel=1e-8)


def test_time_domain_zero_drive(fano_scalars):
    assert spectrum_time_domain(fano_scalars, DriveConfig(0.0, 0.0, 0.6), 1.0) == 0.0


def test_time_domain_matches_resolvent_mollow():
    dc = DriveConfig(2.0, 0.0, 0.6)
    a = spectrum_time_domain(MOLLOW_SCALARS, dc, 0.0)
    b = sigma_inel_x(MOLLOW_SCALARS, dc, 0.0)
    assert a == pytest.approx(b, rel=1e-10, abs=0.0)


def test_time_domain_matches_resolvent_reference_set(fano_scalars):
    rng = np.random.default_rng(8)
    dc = DriveConfig(math.sqrt(18.0), 0.0, 0.6)
    for x in rng.uniform(-5.0, 5.0, 4):
        a = spectrum_time_domain(fano_scalars, dc, float(x))
        b = sigma_inel_x(fano_scalars, dc, float(x))
        assert a == pytest.approx(b, rel=1e-10, abs=0.0)


# At the Fano zero the right vector d' cancels to rounding and the spectrum
# is ~1e-21; both routes are linear in that same d', so the relative gap
# still measures the propagation.
HARD_CORNERS = {
    "strong drive": (None, DriveConfig(10.0, 0.0, 0.6)),
    "far detuning": (None, DriveConfig(2.0, 30.0, 0.6)),
    "Fano zero": (ScatteringScalars(0.0, 0.13, 0.0, 0.0, 0.0, 0.0),
                  DriveConfig(2.0, 0.5 / math.tan(0.13), 0.6)),
    "narrow detector": (None, DriveConfig(2.0, 0.0, 1e-3)),
}


@pytest.mark.parametrize("x", [0.0, 1.3, -7.0, 25.0])
@pytest.mark.parametrize("corner", list(HARD_CORNERS))
def test_time_domain_matches_resolvent_hard_corners(fano_scalars, corner, x):
    sc, dc = HARD_CORNERS[corner]
    sc = fano_scalars if sc is None else sc
    a = spectrum_time_domain(sc, dc, x)
    b = sigma_inel_x(sc, dc, x)
    assert a == pytest.approx(b, rel=1e-10, abs=0.0)


# The stride doubles after every failed decay check, so a strong drive
# costs a few more checks rather than ~|A|^(5/4) times the steps.
@pytest.mark.parametrize("x", [0.0, 1.3, -2.7])
@pytest.mark.parametrize("eta2", [1e3, 1e4])
def test_time_domain_cost_is_flat_in_intensity(fano_scalars, eta2, x):
    dc = DriveConfig(math.sqrt(eta2), 0.0, 0.6)
    start = time.perf_counter()
    a = spectrum_time_domain(fano_scalars, dc, x)
    elapsed = time.perf_counter() - start
    assert a == pytest.approx(sigma_inel_x(fano_scalars, dc, x), rel=1e-8, abs=0.0)
    assert elapsed < 1.0


def test_time_domain_signals_stalled_decay(fano_scalars, monkeypatch):
    # an absurdly small horizon cannot reach the decay threshold
    monkeypatch.setattr(oracle, "_KERNEL_TAU_MAX", 0.01)
    with pytest.raises(RuntimeError, match="within tau = 0.01"):
        spectrum_time_domain(fano_scalars, DriveConfig(2.0, 0.0, 0.6), 0.5)


def test_quad_sum_rules_mollow_saturated():
    report = quad_sum_rules(MOLLOW_SCALARS, DriveConfig(1.0, 0.0, 0.3))
    assert report.quad_converged and report.passed
    assert report.inel_quadrature == pytest.approx(2.0 / 9.0, abs=1e-6)
    assert report.tot_quadrature == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_quad_sum_rules_zero_drive(fano_scalars):
    report = quad_sum_rules(fano_scalars, DriveConfig(0.0, 0.5, 0.4))
    assert report.passed
    assert report.inel_quadrature == pytest.approx(0.0, abs=1e-12)


def test_quad_sum_rules_reference_set(fano_scalars):
    dc = DriveConfig(math.sqrt(28.0), 3.0, 0.6)
    report = quad_sum_rules(fano_scalars, dc)
    assert report.quad_converged
    assert report.inel_rel_gap <= 1e-6
    assert report.tot_rel_gap <= 1e-6
    assert report.inel_closed == pytest.approx(sigma_inel(fano_scalars, dc), rel=1e-14)
    assert report.tot_closed == pytest.approx(sigma_tot(fano_scalars, dc), rel=1e-14)


@pytest.mark.parametrize("sc, eta", [
    (ScatteringScalars(-0.03, 0.13, 0.005, 0.005, 0.02, -0.001), 0.25),  # eta2 = 1/16
    (MOLLOW_SCALARS, 1e-5),
], ids=["fano-threshold", "mollow-weak"])
def test_quad_sum_rules_where_two_drift_poles_nearly_meet(sc, eta):
    # the poles near a double root come out only to sqrt(eps) (0.99999998956
    # for 1 at the Mollow point), which moves where panels start, not the
    # integral
    report = quad_sum_rules(sc, DriveConfig(eta, 0.0, 0.6))
    assert report.quad_converged
    assert report.inel_rel_gap <= 1e-14 and report.tot_rel_gap <= 1e-14


def _mp_line_integral(f, breaks) -> float:
    """Reference integral over the real line: mpmath.quad at 30 digits."""
    with mpmath.workdps(30):
        return float(mpmath.quad(lambda x: f(float(x)),
                                 [-mpmath.inf, *breaks, mpmath.inf]))


def test_integrate_line_narrow_lorentzian_matches_mpmath():
    width, centre = 1e-3, 0.37

    def lor(x):
        return (width / math.pi) / ((x - centre) ** 2 + width ** 2)

    ref = _mp_line_integral(lor, [centre - 1.0, centre, centre + 1.0])
    value, _, ok = integrate_line(lor, [(0.0, 10.0)], tol=1e-7 * ref)
    assert ok and value == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("centre", [1.3, -2.1])
def test_integrate_line_narrow_peak_on_its_own_pole_meets_a_tight_tolerance(centre):
    # on a single pole at (0, 10) the per-panel share of tol = 1e-10 falls
    # below the rounding of the panel sums and the loop runs out of panels
    width = 1e-3

    def lor(x):
        return (width / math.pi) / ((x - centre) ** 2 + width ** 2)

    value, _, ok = integrate_line(lor, [(centre, width)], tol=1e-10)
    assert ok and value == pytest.approx(1.0, abs=1e-14)


# The two drives of each verify-default benchmark seed on which the
# Simpson oracle reported a wrong integral as converged (sum-rule gaps of
# 1.04e-6 to 8.3e-6): seed: (delta_plus, delta_minus, eta2 pair, ztilde),
# at gammatilde 0.6.
FALSE_CONVERGENCE_SEEDS = {
    348: ((0.10574204338697371, -0.015986863411981432, -0.03941254386061388, 0.04746443784463644),
          (-0.09850329262822552, -0.022835016711243796, 0.024656018809977767, -0.01172439267755504),
          (4.431399173028308, 6.228011699872001), 0.42415043556830545),
    515: ((-0.12227097311521566, 0.03628833563676753, 0.004081419553577069, -0.0404108451733006),
          (-0.0078243665353451, 0.0477157202429211, -0.03131029538252851, 0.0068309179273330495),
          (3.9760089845532196, 5.731575766957928), 0.08635247317769634),
    517: ((-0.09385496840984646, 0.017668099802854303, 0.03217240727976117, -0.04986922951949818),
          (-0.07832765211569732, -0.047160945967920254, 0.040587446358519005, 0.025027023889563252),
          (4.416022039407384, 6.306398138200415), -0.0840812211026587),
    529: ((7.703034139411313e-06, -0.047051248038176854, -0.04859346901470507, 0.03570235508874352),
          (0.034389068555920166, -0.006507184730066083, -0.047360148593790445, 0.012852656954247282),
          (3.871121960027444, 6.105870717791428), 1.365691868389601),
    592: ((-0.06252342314818385, 0.00497427089537765, 0.006336019576029715, -0.03273798012041386),
          (0.13522995145977493, -0.03585509736177496, 0.04479207302662419, -0.01480723056250486),
          (4.017488182989503, 5.814577001353863), -1.4325340745247952),
    817: ((0.08557730591568696, 0.016160380133084934, 0.04218842992236421, -0.044895874208470354),
          (-0.13392009287376758, -0.005377116243281431, 0.019544475197907557, -0.032717557923995486),
          (3.930940943430156, 5.6656118060627065), 0.8435993844492886),
    993: ((-0.11033694335603414, -0.028886798697831964, 0.03157453401017428, 0.04755390556878243),
          (-0.05414799114645459, 0.01787301344047232, -0.018071633541209775, -0.04166164981986064),
          (4.093503871384783, 5.8275250729355195), 0.013902816705111398),
}


def _seed_case(seed):
    delta_plus, delta_minus, eta2s, ztilde = FALSE_CONVERGENCE_SEEDS[seed]
    sc = scalars_from_phase_shifts(PhaseShiftTable(np.array(delta_plus), np.array(delta_minus)))
    return sc, [DriveConfig(math.sqrt(e2), ztilde, 0.6) for e2 in eta2s]


@pytest.mark.parametrize("seed", sorted(FALSE_CONVERGENCE_SEEDS))
def test_quad_sum_rules_on_the_false_convergence_seeds(seed):
    sc, drives = _seed_case(seed)
    for dc in drives:
        report = quad_sum_rules(sc, dc)
        assert report.quad_converged
        assert report.inel_rel_gap <= 1e-9 and report.tot_rel_gap <= 1e-9


@pytest.mark.parametrize("density", [sigma_inel_x, sigma_tot_x])
def test_integrate_line_spectrum_matches_mpmath(density):
    # the first drive of seed 348, where the total spectrum was 5e-6 off
    sc, (dc, _) = _seed_case(348)
    ref = _mp_line_integral(lambda x: density(sc, dc, x), [-4.0, 0.0, 4.0])
    value, _, ok = integrate_line(lambda x: density(sc, dc, x), inelastic_poles(sc, dc), 1e-7 * ref)
    assert ok and value == pytest.approx(ref, rel=1e-9)


def test_quad_sum_rules_rejects_zero_width(fano_scalars):
    with pytest.raises(ValueError):
        quad_sum_rules(fano_scalars, DriveConfig(1.0, 0.0, 0.0))


def test_sum_rule_report_separates_convergence_from_violation():
    report = SumRuleReport(inel_quadrature=0.5, inel_closed=0.5,
                           tot_quadrature=1.0, tot_closed=1.0,
                           inel_error_estimate=0.0, tot_error_estimate=0.0,
                           quad_converged=False)
    assert report.inel_rel_gap == 0.0 and report.tot_rel_gap == 0.0
    assert not report.passed  # non-convergence alone must fail the report


def _reference_gauss_legendre(n):
    """50-digit n-node Gauss-Legendre nodes (ascending) and weights: eight
    Newton steps on mpmath's P_n from cos(pi (i - 1/4) / (n + 1/2)), and
    2 (1 - x^2) / (n P_{n-1})^2."""
    with mpmath.workdps(50):
        nodes = []
        for i in range(n, 0, -1):
            x = mpmath.cos(mpmath.pi * (i - 0.25) / (n + 0.5))
            for _ in range(8):
                pn, pm = mpmath.legendre(n, x), mpmath.legendre(n - 1, x)
                x -= pn * (1 - x * x) / (n * (pm - x * pn))
            nodes.append(x)
        return nodes, [2 * (1 - x * x) / (n * mpmath.legendre(n - 1, x)) ** 2 for x in nodes]


@pytest.mark.parametrize("n", [8, 16, 64])
def test_gauss_legendre_rules_match_a_50_digit_reference(n):
    # numpy's own 64-node weights are 1.3e-12 off this reference
    nodes, weights = oracle._gauss_legendre(n)
    ref_nodes, ref_weights = _reference_gauss_legendre(n)
    assert all(a < b for a, b in zip(ref_nodes, ref_nodes[1:]))
    for x, w, rx, rw in zip(nodes.tolist(), weights.tolist(), ref_nodes, ref_weights):
        assert abs(x - rx) <= np.spacing(abs(x))
        assert abs(w - rw) <= 1e-13 * rw
    assert weights.sum() == pytest.approx(2.0, abs=4 * np.finfo(float).eps)
    # x^k integrated exactly for k < 2n: 2 / (k + 1) for even k, 0 for odd
    ks = np.arange(2 * n)
    moments = weights @ nodes[:, None] ** ks
    exact = np.where(ks % 2 == 0, 2.0 / (ks + 1), 0.0)
    assert np.max(np.abs(moments - exact)) <= 4 * np.finfo(float).eps


def test_verify_draws_a_fresh_mt19937_stream_in_c_order(monkeypatch):
    # each run_verification call seeds random.Random afresh, and its first two
    # blocks read that generator's random() values in C order, one per value
    calls = []
    true_block = oracle._random_block

    def recording(rng, n, extra=(), gamma_positive=False):
        calls.append((rng.getstate(), true_block(rng, n, extra, gamma_positive)))
        return calls[-1][1]

    monkeypatch.setattr(oracle, "_random_block", recording)
    run_verification()
    run_verification()
    assert oracle.DRAW == {"seed": 20250808, "generator": "mt19937"}
    assert len(calls) == 10
    assert calls[0][0] == calls[5][0] == random.Random(20250808).getstate()
    ref = random.Random(20250808)
    for (_, (sc, dc, _, extras)), (n, extra, _) in zip(calls, _VERIFY_BLOCKS[:2]):
        u = np.array([ref.random() for _ in range(n * (9 + len(extra)))]).reshape(n, -1)
        assert 0.0 <= u.min() and u.max() < 1.0
        assert _bits(sc.delta0_plus) == _bits(-0.4 + 0.8 * u[:, 0])
        assert _bits(dc.eta) == _bits(0.0 + 6.0 * u[:, 7])
        assert _bits(dc.ztilde) == _bits(-8.0 + 16.0 * u[:, 8])
        assert [_bits(c) for c in extras] == \
            [_bits(lo + (hi - lo) * col) for (lo, hi), col in zip(extra, u[:, 9:].T)]
    assert calls[2][0] == ref.getstate()  # the third block goes on from there


def test_beam_overlaps_tend_to_collimated_limit():
    ls = np.arange(7)
    limit = 0.5 * np.sqrt(2.0 * ls + 1.0)
    coarse = np.abs(beam_overlaps(6, 2e-3) - limit)
    fine = np.abs(beam_overlaps(6, 1e-3) - limit)
    assert np.max(fine) < 1e-4
    # quadratic approach: halving the width shrinks the gap about fourfold
    assert np.all(fine[1:] < 0.3 * coarse[1:])


def test_beam_overlaps_match_analytic_legendre_integral():
    from numpy.polynomial.legendre import Legendre
    for dtheta in (0.5, 0.1, 0.02):
        lmax = 12
        ov = beam_overlaps(lmax, dtheta)
        a = math.cos(dtheta)
        pref = 2.0 * math.pi / (dtheta * math.sqrt(2.0 * math.pi * (1.0 - a)))
        pvals = [float(Legendre.basis(l)(a)) for l in range(lmax + 2)]
        for l in range(lmax + 1):
            integral = (1.0 - a) if l == 0 else (pvals[l - 1] - pvals[l + 1]) / (2 * l + 1)
            exact = pref * math.sqrt((2 * l + 1) / (4.0 * math.pi)) * integral
            assert ov[l] == pytest.approx(exact, abs=1e-12 * max(1.0, abs(exact)))


def test_beam_overlap_mass_bounded_by_profile_norm():
    for dtheta in (0.3, 0.1, 0.02):
        ov = beam_overlaps(60, dtheta)
        assert np.sum(ov ** 2) <= (1.0 + 1e-12) / dtheta ** 2


@pytest.mark.parametrize("dtheta", [math.nan, math.inf, 0.0, -0.1, 2 * math.pi, 4.0])
def test_finite_beam_rejects_bad_half_angle(dwave_table, dtheta):
    dc = DriveConfig(2.0, 0.0)
    with pytest.raises(ValueError, match="dtheta"):
        beam_overlaps(10, dtheta)
    with pytest.raises(ValueError, match="dtheta"):
        finite_beam_balance(dwave_table, dc, dtheta)
    with pytest.raises(ValueError, match="dtheta"):
        finite_beam_equilibrium(dwave_table, dc, dtheta)


def test_beam_overlaps_take_the_whole_sphere_at_pi(dwave_table):
    # the largest half angle: only the s wave overlaps the flat profile, at 1/pi
    ov = beam_overlaps(4, math.pi)
    assert ov[0] == pytest.approx(1.0 / math.pi, rel=1e-14)
    assert np.max(np.abs(ov[1:])) <= 1e-15
    assert finite_beam_balance(dwave_table, DriveConfig(2.0, 0.0), math.pi) <= 1e-8


def test_beam_overlaps_rejects_negative_lmax():
    with pytest.raises(ValueError, match="lmax"):
        beam_overlaps(-1, 0.1)


def test_finite_beam_balance_no_scattering():
    table = PhaseShiftTable([0.0], [0.0])
    dc = DriveConfig(2.0, 0.0)
    assert finite_beam_balance(table, dc, 0.1) <= 1e-8


def test_finite_beam_balance_zero_drive():
    table = PhaseShiftTable([0.1, 0.0, 0.05], [0.2, 0.0, 0.0])
    dc = DriveConfig(0.0, 0.0)
    assert finite_beam_balance(table, dc, 0.1) <= 1e-14
    rho = finite_beam_equilibrium(table, dc, 0.1)
    assert rho[0, 0].real == pytest.approx(0.0, abs=1e-14)
    assert rho[1, 1].real == pytest.approx(1.0, abs=1e-14)


def test_finite_beam_balance_dwave_table(dwave_table):
    dc = DriveConfig(math.sqrt(6.0), 1.5)
    for dtheta in (0.2, 0.1, 0.05):
        assert finite_beam_balance(dwave_table, dc, dtheta) <= 1e-8


def test_beam_liouvillian_matches_the_per_channel_kron_sum(dwave_table):
    # reference: the Lindblad dissipator summed channel by channel,
    # L(rho) = R rho R^dag - {R^dag R, rho}/2 as column-stacked krons,
    # with R_l built from the table, the drive and the beam overlaps
    dc = DriveConfig(math.sqrt(6.0), 1.5)
    dtheta, lmax = 0.05, dwave_table.lmax
    ov = beam_overlaps(lmax, dtheta)
    dp, dm = dwave_table.delta_plus, dwave_table.delta_minus
    eye = np.eye(2)
    h = np.array([[-0.5 * dc.ztilde, 0.5j * dc.eta * ov[0]],
                  [-0.5j * dc.eta * ov[0], 0.5 * dc.ztilde]])
    ref = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for l in range(lmax + 1):
        r = np.diag([dc.eta * np.exp(2j * dp[l]) * ov[l],
                     dc.eta * np.exp(2j * dm[l]) * ov[l]])
        if l == 0:
            r[1, 0] = -np.exp(2j * dwave_table.delta_minus[0])
        rdr = r.conj().T @ r
        ref += np.kron(r.conj(), r) - 0.5 * (np.kron(eye, rdr) + np.kron(rdr.T, eye))
    # the same channel terms summed in another order; they carry the table's
    # channel mass eta^2 sum_l ov_l^2 and largely cancel on the diagonal,
    # so rounding is bounded by a few ulps of that mass per term
    got = oracle._beam_liouvillian(dc, *oracle._beam_channels(dwave_table, dc, dtheta))
    assert np.max(np.abs(got - ref)) <= 64 * np.finfo(float).eps * dc.eta ** 2 * np.sum(ov ** 2)
    # the equilibrium solves all four equations, the row-0 one the solve
    # replaces by the unit trace included, and has unit trace
    rho = finite_beam_equilibrium(dwave_table, dc, dtheta)
    assert np.max(np.abs(got @ rho.reshape(-1, order="F"))) <= 1e-13 * np.linalg.norm(got, 2)
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-15)


def test_finite_beam_equilibrium_converges_to_collimated(dwave_table):
    dc = DriveConfig(math.sqrt(6.0), 1.5)
    rs = reduced_scalars(scalars_from_phase_shifts(dwave_table), dc)
    u_limit = equilibrium(rs).u
    gaps = []
    for dtheta in (0.1, 0.05, 0.01):
        rho = finite_beam_equilibrium(dwave_table, dc, dtheta)
        gaps.append(abs(rho[0, 0].real - u_limit))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] <= 1e-3


def test_beam_state_refuses_a_non_state_with_its_closed_form_eigenvalues(monkeypatch):
    # no table reaches the branch; a patched superoperator, whose rows 1-3 are
    # orthogonal to vec(rho) and whose row 0 the unit-trace row replaces,
    # makes the solve return any unit-trace Hermitian rho
    rng = np.random.default_rng(29)
    state = {}

    def liouvillian(dc, ov, r):
        v = state["rho"].reshape(-1, order="F")
        rows = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        return rows - np.outer(rows @ v, v.conj()) / np.vdot(v, v)

    monkeypatch.setattr(oracle, "_beam_liouvillian", liouvillian)
    refused = 0
    for lo in rng.uniform(-0.5, 0.5, 200).tolist() + [-2e-10, 1e-12]:
        u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        rho = u @ np.diag([lo, 1.0 - lo]) @ u.conj().T
        state["rho"] = rho = 0.5 * (rho + rho.conj().T)
        ref = np.linalg.eigvalsh(rho)
        if lo < -1e-10:
            with pytest.raises(RuntimeError, match="not a state") as info:
                oracle._beam_state(None, None, None)
            eigs = re.search(r"eigs = \((\S+), (\S+)\), trace = (\S+)", str(info.value)).groups()
            assert [float(e) for e in eigs] == pytest.approx([*ref, 1.0], abs=1e-14)
            refused += 1
        else:
            assert np.max(np.abs(oracle._beam_state(None, None, None) - rho)) <= 1e-14
    assert refused > 80


def test_finite_beam_ignores_zero_padding_of_the_table(dwave_table):
    # channels above the table have zero phase shift and cancel from the
    # master equation, so padding the table to l = 40 changes only rounding
    padded = PhaseShiftTable(*(np.pad(d, (0, 40 - dwave_table.lmax))
                               for d in (dwave_table.delta_plus, dwave_table.delta_minus)))
    assert padded.lmax == 40
    for dc in (DriveConfig(2.0, 0.0), DriveConfig(math.sqrt(6.0), 1.5)):
        for dtheta in (0.2, 0.1, 0.05):
            rho = finite_beam_equilibrium(dwave_table, dc, dtheta)
            rho_padded = finite_beam_equilibrium(padded, dc, dtheta)
            assert np.max(np.abs(rho_padded - rho)) <= 1e-13
            assert abs(finite_beam_balance(padded, dc, dtheta)
                       - finite_beam_balance(dwave_table, dc, dtheta)) <= 1e-14


def test_total_form_gap_small_at_fano_zero_and_sees_a_wrong_total(monkeypatch):
    sc = ScatteringScalars(0.0, 0.13, 0.0, 0.0, 0.0, 0.0)
    zero = DriveConfig(0.0, 0.5 / math.tan(0.13))
    assert sigma_tot(sc, zero) < 1e-20
    assert oracle._total_form_gap(sc, reduced_scalars(sc, zero)) <= 1e-12
    true_tot = oracle._total
    monkeypatch.setattr(oracle, "_total", lambda sc, rs: true_tot(sc, rs) + 1e-9)
    assert oracle._total_form_gap(sc, reduced_scalars(sc, zero)) > 1e-12


def test_run_verification_all_pass():
    checks = run_verification()
    names = [c.name for c in checks]
    assert "finite-beam photon balance" in names
    assert names.index("total cross-section forms") == names.index("cross-section sum rule") + 1
    assert all(c.passed for c in checks), \
        [f"{c.name}: {c.residual:.2e} > {c.tolerance:.2e}" for c in checks if not c.passed]
    # a column block counts its length; the Fano-zero set adds 3 x 126 forms
    assert [c.samples for c in checks] == [200, 200, 6, 100, 6, 300, 678, 2, 2,
                                           100, 100, 225, 3, 26]


def test_run_verification_fails_a_nan_residual(monkeypatch):
    # one NaN among the Mollow detunings: max(residual, nan) kept the
    # residual, so the check used to read PASS
    true_mollow = oracle.mollow_inel_x

    def flawed(*args):
        out = true_mollow(*args)
        out[2, 7] = np.nan  # one (ztilde, x) point of the column call
        return out

    monkeypatch.setattr(oracle, "mollow_inel_x", flawed)
    check = {c.name: c for c in run_verification()}["Mollow closed form vs resolvent"]
    assert math.isnan(check.residual) and not check.passed


@pytest.mark.parametrize("row, samples, oracle_name, spoil", [
    pytest.param("matrix exponential vs RK4", 6, "ode_evolve",
                 lambda b: SimpleNamespace(u=b.u, v=complex(math.nan)), id="ode_evolve"),
    pytest.param("spectral normalization sum rules", 2, "quad_sum_rules",
                 lambda report: replace(report, tot_quadrature=math.nan), id="quad_sum_rules"),
])
def test_run_verification_fails_a_nan_in_either_value_of_one_evaluation(
        monkeypatch, row, samples, oracle_name, spoil):
    # the second of the two values an evaluation gives is NaN at the second
    # evaluation: Python's max(residual, nan) keeps the residual
    true_f, calls = getattr(oracle, oracle_name), []

    def flawed(*args):
        calls.append(args)
        return spoil(true_f(*args)) if len(calls) == 2 else true_f(*args)

    monkeypatch.setattr(oracle, oracle_name, flawed)
    check = {c.name: c for c in run_verification()}[row]
    assert math.isnan(check.residual) and not check.passed and check.samples == samples


def _legacy_point(rng, gamma_positive):
    """The draws of one random verify point as the suite made them before
    they shared one generator: scalars, then gammatilde, eta, ztilde."""
    d0p, d0m = rng.uniform(-0.4, 0.4, 2)
    pgp, pgm = rng.uniform(0.0, 0.1, 2)
    lo = (math.sqrt(pgp) - math.sqrt(pgm)) ** 2
    hi = (math.sqrt(pgp) + math.sqrt(pgm)) ** 2
    sc = ScatteringScalars(d0p, d0m, pgp, pgm, rng.uniform(lo, hi),
                           rng.uniform(-0.01, 0.01))
    gt = rng.uniform(0.05, 1.5) if gamma_positive else rng.uniform(0.0, 1.5)
    return sc, DriveConfig(rng.uniform(0.0, 6.0), rng.uniform(-8.0, 8.0), gt)


# the random blocks of run_verification in its order: (n, extra draws, gamma_positive)
_VERIFY_BLOCKS = ((200, (), False),
                  (6, ((0.0, 1.0),) * 3 + ((0.5, 20.0),), False),
                  (100, ((-20.0, 20.0),), False),
                  (300, (), False),
                  (100, ((-12.0, 12.0),), True))


def _hex_fields(obj, i=None):
    return [float(getattr(obj, f.name) if i is None else getattr(obj, f.name)[i]).hex()
            for f in fields(obj)]


@pytest.mark.parametrize("gamma_positive", [False, True])
def test_random_points_keep_the_draw_order(gamma_positive):
    # every block shape verify draws with this gammatilde floor, one after the
    # other from one generator, field by field against the former per-point draws
    rng, legacy = np.random.default_rng(11), np.random.default_rng(11)
    for n, extra, _ in (b for b in _VERIFY_BLOCKS if b[2] == gamma_positive):
        sc, dc, rs, extras = oracle._random_block(rng, n, extra, gamma_positive)
        assert len(extras) == len(extra) and all(c.shape == (n,) for c in extras)
        for i in range(n):
            old_sc, old_dc = _legacy_point(legacy, gamma_positive)
            assert _hex_fields(sc, i) == _hex_fields(old_sc)
            assert _hex_fields(dc, i) == _hex_fields(old_dc)
            assert _hex_fields(rs, i) == _hex_fields(reduced_scalars(old_sc, old_dc))
            assert [float(c[i]).hex() for c in extras] == \
                [legacy.uniform(lo, hi).hex() for lo, hi in extra]
    assert rng.random() == legacy.random()


def _bits(v):
    return np.asarray(v).tobytes()


def test_column_kernels_match_their_per_point_calls():
    # each kernel called once on columns equals, bit for bit, its call on one
    # point's floats: the complex products, sines and squares round alike
    sc, dc, rs, (x,) = oracle._random_block(np.random.default_rng(5), 300,
                                            ((-20.0, 20.0),), gamma_positive=True)
    drift, eq = build_drift(rs), equilibrium(rs).vector()
    res, shifted = resolvent(rs, x), oracle._shifted_drift(rs, x)
    forms = (xsection._total(sc, rs), xsection._elastic(sc, rs), xsection._inelastic(sc, rs),
             oracle._total_form_gap(sc, rs))
    density = sigma_inel_x(sc, dc, x)
    for i in range(300):
        sc_i = ScatteringScalars(*(float(getattr(sc, f.name)[i]) for f in fields(sc)))
        dc_i = DriveConfig(*(float(getattr(dc, f.name)[i]) for f in fields(dc)))
        rs_i, x_i = reduced_scalars(sc_i, dc_i), float(x[i])
        assert _hex_fields(rs, i) == _hex_fields(rs_i)
        assert _bits(drift[i]) == _bits(build_drift(rs_i))
        assert _bits(eq[i]) == _bits(equilibrium(rs_i).vector())
        assert _bits(res[i]) == _bits(resolvent(rs_i, x_i))
        assert _bits(shifted[i]) == _bits(oracle._shifted_drift(rs_i, x_i))
        per_point = (xsection._total(sc_i, rs_i), xsection._elastic(sc_i, rs_i),
                     xsection._inelastic(sc_i, rs_i), oracle._total_form_gap(sc_i, rs_i))
        assert [_bits(c[i]) for c in forms] == [_bits(v) for v in per_point]
        assert _bits(density[i]) == _bits(sigma_inel_x(sc_i, dc_i, x_i))


def test_run_verification_dresses_in_blocks(monkeypatch):
    # a guard against per-point loops coming back, with no timing: the
    # column blocks dress about 40 times a run, the former loops 952 times
    true_dress, calls = model.reduced_scalars, []

    def counted(*args):
        calls.append(args)
        return true_dress(*args)

    bound = [m for m in (model, xsection, spectrum, oracle)
             if getattr(m, "reduced_scalars", None) is true_dress]
    assert {xsection, spectrum, oracle} <= set(bound)
    for m in bound:
        monkeypatch.setattr(m, "reduced_scalars", counted)
    run_verification()
    assert 0 < len(calls) <= 100


@pytest.mark.parametrize("d0m", [0.13, 0.3, -0.2])
def test_total_form_gap_on_fano_zero_columns_matches_per_point(d0m):
    sc = ScatteringScalars(0.0, d0m, 0.0, 0.0, 0.0, 0.0)
    eta2s = (0.0, 1e-8, 1e-4, 0.01, 1.0, 18.0)
    offs = np.linspace(-0.05, 0.05, 21)
    per_point = [oracle._total_form_gap(sc, reduced_scalars(
                     sc, DriveConfig(math.sqrt(eta2), 0.5 / math.tan(d0m) + float(off))))
                 for eta2 in eta2s for off in offs]
    rs = reduced_scalars(sc, DriveConfig(np.sqrt(np.repeat(eta2s, 21)),
                                         np.tile(0.5 / math.tan(d0m) + offs, 6)))
    columns = oracle._total_form_gap(sc, rs)
    assert columns.tolist() == per_point
    assert float(np.max(columns)).hex() == max(per_point).hex()


def test_run_verification_source_decides_the_finite_beam_checks(fano_scalars):
    beam = {"finite-beam photon balance", "beam overlap quadrature"}
    with_table = [c.name for c in run_verification(oracle.DEFAULT_TABLE)]
    scalars_only = [c.name for c in run_verification(fano_scalars)]
    assert len(with_table) == 14 and beam <= set(with_table)
    assert scalars_only == [name for name in with_table if name not in beam]
    with pytest.raises(TypeError):  # the old keywords are gone, not ignored
        run_verification(table=oracle.DEFAULT_TABLE)
