import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import NORM, SHIFT, log_uniform, random_drive, random_scalars
from qsatom import (BlochVector, DriveConfig, MOLLOW_SCALARS, ScatteringScalars,
                    build_drift, equilibrium, evolve, reduced_scalars)
from qsatom import bloch
from qsatom.bloch import _drift_poles, _propagator, char_poly, cubic_discriminant
from qsatom.oracle import ode_evolve


def _drift(sc, dc):
    rs = reduced_scalars(sc, dc)
    return rs, build_drift(rs)


def _det3(m):
    # brute-force cofactor expansion, independent of numpy's LU route
    return (m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
            - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
            + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]))


def test_build_drift_undriven():
    rs = reduced_scalars(MOLLOW_SCALARS, DriveConfig(0.0, 0.0))
    g = build_drift(rs)
    assert np.allclose(g, np.diag([2.0, 1.0, 1.0]))


def test_build_drift_mollow_entries():
    eta, ztilde = 1.7, 0.45
    rs = reduced_scalars(MOLLOW_SCALARS, DriveConfig(eta, ztilde))
    z = 2.0 * ztilde
    expected = np.array([
        [2.0, -eta, -eta],
        [2.0 * eta, 1.0 - 1j * z, 0.0],
        [2.0 * eta, 0.0, 1.0 + 1j * z],
    ])
    assert np.allclose(build_drift(rs), expected, atol=1e-15)


def test_drift_determinant_identity(fano_scalars):
    rs, g = _drift(fano_scalars, DriveConfig(math.sqrt(10.0), 0.0))
    target = 2.0 * (rs.z ** 2 + rs.zeta2)
    assert _det3(g) == pytest.approx(target, rel=1e-12)


def test_drift_determinant_identity_random_grid():
    rng = np.random.default_rng(31)
    for _ in range(100):
        sc, dc = random_scalars(rng), random_drive(rng)
        rs, g = _drift(sc, dc)
        target = 2.0 * (rs.z ** 2 + rs.zeta2)
        assert _det3(g) == pytest.approx(target, rel=1e-12)


def test_bloch_vector_columns_refuse_one_bad_state():
    u, v = np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.5j, 0.0])
    assert BlochVector(u, v).vector().shape == (3, 3)
    with pytest.raises(ValueError, match="statistical operator"):
        BlochVector(u, np.array([0.0, 0.6j, 0.0]))
    with pytest.raises(ValueError, match="population"):
        BlochVector(np.array([0.0, 1.5, 1.0]), v)
    with pytest.raises(ValueError, match="finite"):
        BlochVector(u, np.array([0.0, np.nan, 0.0]))


def test_build_drift_is_read_only_with_closure_structure():
    rng = np.random.default_rng(17)
    for _ in range(100):
        _, g = _drift(random_scalars(rng), random_drive(rng))
        assert g.shape == (3, 3) and g.dtype == complex and not g.flags.writeable
        assert g[1, 2] == 0.0 and g[2, 1] == 0.0
        assert g[2, 2] == np.conj(g[1, 1]) and g[2, 0] == np.conj(g[1, 0])
    with pytest.raises(ValueError):
        g[0, 0] = 1.0


def test_build_drift_rejects_an_overflowed_kappa2():
    # the l >= 1 norms of 1e10 at eta^2 = 1e300 overflow kappa2 to inf, and
    # ReducedScalars still builds, so build_drift must refuse the matrix
    sc = ScatteringScalars(0.0, 0.0, 1e10, 1e10, 1e10, 0.0)
    rs = reduced_scalars(sc, DriveConfig(1e150, 0.0))
    assert rs.kappa2 == math.inf
    with pytest.raises(ValueError, match="drift matrix entries must be finite"):
        build_drift(rs)


def test_spectral_abscissa_positive():
    rng = np.random.default_rng(13)
    for _ in range(100):
        _, g = _drift(random_scalars(rng), random_drive(rng))
        assert np.min(np.linalg.eigvals(g).real) > 0.0


def test_equilibrium_undriven(fano_scalars):
    rs = reduced_scalars(fano_scalars, DriveConfig(0.0, 0.3))
    eq = equilibrium(rs)
    assert eq.u == 0.0 and eq.v == 0.0


def test_equilibrium_mollow_resonant():
    rs = reduced_scalars(MOLLOW_SCALARS, DriveConfig(1.0, 0.0))
    eq = equilibrium(rs)
    assert eq.u == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert eq.v == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_equilibrium_against_linear_solve(fano_scalars):
    dc = DriveConfig(math.sqrt(28.0), 3.0)
    rs, g = _drift(fano_scalars, dc)
    eq = equilibrium(rs)
    solved = np.linalg.solve(g, np.array([0.0, dc.eta, dc.eta]))
    assert eq.u == pytest.approx(solved[0].real, rel=1e-12)
    assert eq.v == pytest.approx(solved[1], rel=1e-12)
    assert abs(solved[0].imag) < 1e-15


def test_equilibrium_stationarity_residual_grid():
    rng = np.random.default_rng(41)
    for _ in range(100):
        sc, dc = random_scalars(rng), random_drive(rng)
        rs, g = _drift(sc, dc)
        eq = equilibrium(rs)
        resid = g @ eq.vector() - np.array([0.0, dc.eta, dc.eta])
        assert np.max(np.abs(resid)) <= 1e-12 * max(1.0, dc.eta)


def test_evolve_tau_zero_is_identity(fano_scalars):
    rs = reduced_scalars(fano_scalars, DriveConfig(2.0, 1.0))
    x0 = BlochVector(0.2, 0.1 + 0.05j)
    assert evolve(rs, x0, 0.0) is x0


def test_evolve_rejects_negative_tau(fano_scalars):
    rs = reduced_scalars(fano_scalars, DriveConfig(2.0, 1.0))
    with pytest.raises(ValueError):
        evolve(rs, BlochVector(0.0, 0.0), -1e-9)


def test_evolve_reaches_equilibrium(fano_scalars):
    dc = DriveConfig(math.sqrt(18.0), -2.0)
    rs = reduced_scalars(fano_scalars, dc)
    eq = equilibrium(rs)
    out = evolve(rs, BlochVector(0.0, 0.0), 200.0)
    assert out.u == pytest.approx(eq.u, abs=1e-10)
    assert out.v == pytest.approx(eq.v, abs=1e-10)


@pytest.mark.parametrize("eta", [1e2, 1e4, 1e6, 1e8])
def test_evolve_relaxes_to_equilibrium_under_strong_drive(fano_scalars, eta):
    # v_eq ~ 1/(2 eta): a stationary point solved from G' itself loses it
    # as eta^2 times the rounding of G' (49% off at eta = 1e8)
    for sc in (MOLLOW_SCALARS, fano_scalars):
        for zt in (0.0, 3.0):
            rs = reduced_scalars(sc, DriveConfig(eta, zt))
            eq = equilibrium(rs)
            out = evolve(rs, BlochVector(0.0, 0.0), 50.0)
            assert abs(out.u - eq.u) <= 1e-8 * abs(eq.u)
            assert abs(out.v - eq.v) <= 1e-8 * abs(eq.v)


def test_equilibrium_is_fixed_point(fano_scalars):
    dc = DriveConfig(2.0, 0.7)
    rs = reduced_scalars(fano_scalars, dc)
    eq = equilibrium(rs)
    for tau in (0.3, 2.0, 17.0):
        out = evolve(rs, eq, tau)
        assert out.u == pytest.approx(eq.u, abs=1e-12)
        assert out.v == pytest.approx(eq.v, abs=1e-12)


def test_evolve_state_stays_physical():
    rng = np.random.default_rng(23)
    for _ in range(60):
        sc, dc = random_scalars(rng), random_drive(rng)
        rs = reduced_scalars(sc, dc)
        u0 = rng.uniform(0.0, 1.0)
        r = rng.uniform(0.0, 0.95) * math.sqrt(max(u0 - u0 ** 2, 0.0))
        x0 = BlochVector(u0, r * np.exp(2j * math.pi * rng.uniform()))
        out = evolve(rs, x0, rng.uniform(0.0, 30.0))
        assert -1e-12 <= out.u <= 1.0 + 1e-12
        assert out.u + 1e-9 >= out.u ** 2 + abs(out.v) ** 2


def _mollow_rs(eta2):
    return reduced_scalars(MOLLOW_SCALARS, DriveConfig(math.sqrt(eta2), 0.0))


def _mollow_drift(eta2):
    return build_drift(_mollow_rs(eta2))


def test_mollow_eigenvalues_real_below_threshold():
    lam = np.linalg.eigvals(_mollow_drift(1.0 / 16.0 - 2e-3))
    assert np.max(np.abs(lam.imag)) < 1e-12


def test_mollow_eigenvalues_complex_above_threshold():
    lam = np.linalg.eigvals(_mollow_drift(1.0 / 16.0 + 2e-3))
    assert np.max(np.abs(lam.imag)) > 1e-3


def test_char_poly_annihilates_eigenvalues():
    rng = np.random.default_rng(3)
    rs, g = _drift(random_scalars(rng), random_drive(rng))
    coeffs = char_poly(rs)
    for lam in np.linalg.eigvals(g):
        val = coeffs[0] * lam ** 3 + coeffs[1] * lam ** 2 + coeffs[2] * lam + coeffs[3]
        assert abs(val) < 1e-9


def test_cubic_discriminant_sign_tracks_root_reality():
    below = cubic_discriminant(char_poly(_mollow_rs(1.0 / 16.0 - 2e-3)))
    above = cubic_discriminant(char_poly(_mollow_rs(1.0 / 16.0 + 2e-3)))
    assert below > 0.0 > above
    assert cubic_discriminant([1.0, -6.0, 11.0, -6.0]) == 4.0  # (x - 1)(x - 2)(x - 3)


_EPS = np.finfo(float).eps


def _pole_bound(coeffs, roots, k):
    """Forward error bound of the root roots[k] of the monic cubic ``coeffs`` from a solve
    whose roots are exact for coefficients within a few eps: 4 eps times the condition
    number sum_j |a_j| |l|^(3-j) / |p'(l)|, or 8 sqrt(eps) |l| where smaller (a double root)."""
    lam = roots[k]
    cond = sum(abs(a) * abs(lam) ** (3 - j) for j, a in enumerate(coeffs))
    dp = abs(np.prod([lam - roots[j] for j in range(3) if j != k]))
    return min(4 * _EPS * cond / dp if dp else math.inf, 8 * math.sqrt(_EPS) * abs(lam))


def _assert_poles_match_mpmath(rs):
    """_drift_poles against 40-digit mpmath.polyroots of the same float cubic."""
    coeffs = char_poly(rs).tolist()
    with mpmath.workdps(40):
        want = [complex(r) for r in mpmath.polyroots(coeffs, maxsteps=200, extraprec=200)]
    got = min(itertools.permutations(_drift_poles(rs)),
              key=lambda g: max(abs(a - b) for a, b in zip(g, want)))
    for k, (a, b) in enumerate(zip(got, want)):
        assert abs(a - b) <= _pole_bound(coeffs, want, k), (k, a, b)
    return got, want


def test_drift_poles_match_mpmath_polyroots_on_random_drives():
    rng = np.random.default_rng(3700)
    for _ in range(100):
        eta, ztilde = 10.0 ** rng.uniform(-4.0, 4.0), 10.0 ** rng.uniform(-6.0, 5.0)
        _assert_poles_match_mpmath(reduced_scalars(random_scalars(rng),
                                                   DriveConfig(eta, rng.choice([-1, 1]) * ztilde)))


@pytest.mark.parametrize("sc", [MOLLOW_SCALARS, ScatteringScalars(-0.03, 0.13, 0.005, 0.005,
                                                                   0.02, -0.001)])
def test_drift_poles_undriven_are_two_and_the_coherence_pair(sc):
    # at eta = 0, G' = diag(2, kappa2 - iw, kappa2 + iw) with kappa2 = 1; ztilde = 0 makes 1 double
    for ztilde in (0.0, 1e-3, 3.0):
        rs = reduced_scalars(sc, DriveConfig(0.0, ztilde))
        got, _ = _assert_poles_match_mpmath(rs)
        exact = [2.0, complex(1.0, -rs.w), complex(1.0, rs.w)]
        got, exact = (sorted(v, key=lambda lam: (lam.imag, lam.real)) for v in (got, exact))
        assert max(abs(a - b) for a, b in zip(got, exact)) <= 8 * math.sqrt(_EPS)


@pytest.mark.parametrize("eta", [0.25, 0.25 + 1e-4, 0.25 - 1e-4, 0.25 + 1e-8, 0.25 - 1e-8])
def test_drift_poles_at_the_mollow_threshold(eta):
    # 1 and (3 +- sqrt(1 - 16 eta^2)) / 2: a double root 3/2 at eta = 1/4
    got, want = _assert_poles_match_mpmath(_mollow_rs(eta ** 2))
    if eta == 0.25:
        assert max(abs(a - b) for a, b in zip(got, want)) <= 8 * math.sqrt(_EPS) * 1.5
    else:  # off it, the conditioning bound holds without the sqrt(eps) branch
        coeffs = char_poly(_mollow_rs(eta ** 2)).tolist()
        assert all(_pole_bound(coeffs, want, k) < 1e-9 for k in range(3))


@given(SHIFT, SHIFT, NORM, NORM, st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
       st.floats(-0.1, 0.1), st.just(0.0) | log_uniform(1e-8, 1e4),
       st.sampled_from([-1.0, 1.0]), st.just(0.0) | log_uniform(1e-8, 1e5))
@settings(max_examples=300, deadline=None)
def test_drift_poles_lie_right_of_one_and_rebuild_the_cubic(d0p, d0m, pgp, pgm, t, eps_r, eta,
                                                            sign, ztilde):
    # every pole has Re >= 1 (the proof is in spectrum.resolvent's docstring), up to
    # its condition; and the poles' sum, pair sum and product give t, m and d back
    a, b = math.sqrt(pgp), math.sqrt(pgm)
    pdg = (abs(a - b) + t * (a + b - abs(a - b))) ** 2  # on either triangle limit or inside
    rs = reduced_scalars(ScatteringScalars(d0p, d0m, pgp, pgm, pdg, eps_r),
                         DriveConfig(eta, sign * ztilde))
    poles, coeffs = _drift_poles(rs), char_poly(rs).tolist()
    for k, lam in enumerate(poles):
        assert lam.real >= 1.0 - _pole_bound(coeffs, poles, k), (k, lam)
    pairs = list(itertools.combinations(poles, 2))
    mods = [abs(lam) for lam in poles]
    assert abs(sum(poles) + coeffs[1]) <= 4 * _EPS * sum(mods)
    assert abs(sum(p * q for p, q in pairs) - coeffs[2]) <= 8 * _EPS * sum(
        abs(p * q) for p, q in pairs)
    assert abs(np.prod(poles) + coeffs[3]) <= 8 * _EPS * np.prod(mods)


def test_evolve_accurate_at_defective_threshold():
    # repeated eigenvalues: G' is defective here, so no eigenvector basis
    # exists, and the propagator on the poles must still agree
    rs = reduced_scalars(MOLLOW_SCALARS, DriveConfig(0.25, 0.0))
    x0 = BlochVector(0.3, 0.1 - 0.2j)
    a = evolve(rs, x0, 8.0)
    b = ode_evolve(rs, x0, 8.0)
    assert abs(a.u - b.u) < 1e-8 and abs(a.v - b.v) < 1e-8


def _mp_propagator(g: np.ndarray, tau: float) -> np.ndarray:
    """e^{-G' tau/2} by mpmath at 40 digits."""
    with mpmath.workdps(40):
        e = mpmath.expm(mpmath.matrix(g.tolist()) * (-mpmath.mpf(tau) / 2))
        return np.array(e.tolist(), dtype=complex)


@pytest.mark.parametrize("eta", [0.25, 0.2499, 0.2501])
def test_propagator_matches_mpmath_on_the_mollow_threshold(eta):
    # at eta = 1/4 an eigenvector basis has condition number ~6e7 and an
    # eigendecomposition route lands 4.6e-10 off
    rs = reduced_scalars(MOLLOW_SCALARS, DriveConfig(eta, 0.0))
    g = build_drift(rs)
    ref = _mp_propagator(g, 3.0)
    assert np.max(np.abs(_propagator(rs, 3.0) - ref)) <= 1e-14
    x0 = BlochVector(0.3, 0.1 - 0.2j)
    ueq = np.linalg.solve(g, np.array([0.0, eta, eta], dtype=complex))
    want = ueq + ref @ (x0.vector() - ueq)
    got = evolve(rs, x0, 3.0)
    assert abs(got.u - want[0]) <= 1e-14 and abs(got.v - want[1]) <= 1e-14


def test_propagator_matches_mpmath_on_random_drifts():
    rng = np.random.default_rng(7)
    for _ in range(20):
        rs, g = _drift(random_scalars(rng), random_drive(rng))
        tau = rng.uniform(0.1, 20.0)
        assert np.max(np.abs(_propagator(rs, tau) - _mp_propagator(g, tau))) <= 1e-14


def test_propagator_matches_mpmath_under_strong_drive():
    # eta up to 60 and |ztilde| up to 50 put ||G' tau/2||_1 in the hundreds: the
    # short tau sum the Taylor series of the second divided difference, the long
    # ones take it as a quotient of first ones
    rng = np.random.default_rng(31)
    for i in range(30):
        dc = DriveConfig(rng.uniform(0.0, 60.0), rng.uniform(-50.0, 50.0))
        rs, g = _drift(random_scalars(rng), dc)
        tau = (1e-3, 0.3, rng.uniform(0.5, 40.0))[i % 3]
        assert np.max(np.abs(_propagator(rs, tau) - _mp_propagator(g, tau))) <= 3e-14


@pytest.mark.parametrize("tau", [1e-3, 0.3, 3.0, 40.0])
def test_propagator_matches_mpmath_at_a_triple_pole(tau):
    # t^2 = 3m and t^3 = 27d hold at eta^2 = 2/27, z^2 = 1/27: the three poles meet
    # at 4/3 and, from the rounded cubic, come out ~1e-5 apart, inside 1/|c| of each other
    rs = reduced_scalars(MOLLOW_SCALARS, DriveConfig(math.sqrt(2.0 / 27.0), 0.5 / math.sqrt(27.0)))
    assert max(abs(a - b) for a, b in itertools.combinations(_drift_poles(rs), 2)) <= 1e-4
    ref = _mp_propagator(build_drift(rs), tau)
    assert np.max(np.abs(_propagator(rs, tau) - ref)) <= 1e-14


@pytest.mark.parametrize("tau", [-0.1, math.inf, math.nan])
def test_propagators_reject_negative_or_non_finite_tau(tau):
    rs = reduced_scalars(MOLLOW_SCALARS, DriveConfig(1.0, 0.0))
    with pytest.raises(ValueError, match="finite and nonnegative"):
        evolve(rs, BlochVector(0.0, 0.0), tau)


def test_evolve_converges_where_the_scaled_drift_overflows():
    # -tau G'/2 overflows at tau = 1e307 (||G'||_1 ~ 80 at eta = 40), and so does
    # c l for the poles l at 80i off the real axis, had tau not been capped at 1500
    rs = reduced_scalars(MOLLOW_SCALARS, DriveConfig(40.0, 0.0))
    eq = equilibrium(rs)
    for tau in (1e307, 1.7e308):
        out = evolve(rs, BlochVector(0.0, 0.0), tau)
        assert abs(out.u - eq.u) <= 1e-12 and abs(out.v - eq.v) <= 1e-12


def _from_ground_at_60_digits(rs, tau):
    """(u, v) at tau from the ground state, ueq - e^{-G' tau/2} ueq, by 60-digit mpmath."""
    with mpmath.workdps(60):
        ueq = mpmath.matrix(equilibrium(rs).vector().tolist())
        e = mpmath.expm(mpmath.matrix(build_drift(rs).tolist()) * (-mpmath.mpf(tau) / 2))
        want = np.array((ueq - e * ueq).tolist(), dtype=complex)[:, 0]
    return want[0].real, want[1]


# The reference scalars driven on resonance: their coherence rates grow as eta^2,
# and from eta = 2e9 on the [13/13] Pade step that Putzer's formula replaced held
# the population's (0, 0) entry as exactly 1 and refused
@pytest.mark.parametrize("eta", [2e9, 3e9, 1e17])
@pytest.mark.parametrize("tau", [0.5, 50.0])
def test_evolve_at_strong_drive_matches_mpmath_at_60_digits(fano_scalars, eta, tau):
    rs = reduced_scalars(fano_scalars, DriveConfig(eta, 0.0))
    u, v = _from_ground_at_60_digits(rs, tau)
    got = evolve(rs, BlochVector(0.0, 0.0), tau)
    assert abs(got.u - u) <= 1e-15 and abs(got.v - v) <= 1e-15 * abs(v), (got, u, v)


@pytest.mark.parametrize("eta, ztilde", [(0.0, 1e18), (1.0, 1e18), (3.0, -1e20)])
def test_propagator_keeps_the_population_where_the_coherence_phase_is_lost(fano_scalars, eta,
                                                                         ztilde):
    # tau |Im l| / 2 >= 1e16 rad: no float resolves the coherence's phase, and Putzer's formula
    # rooted at a coherence pole read e^{-tau} in the (0, 0) entry O(1) off; rooted at the
    # real pole, the population's row stays exact
    rs = reduced_scalars(fano_scalars, DriveConfig(eta, ztilde))
    ref = _mp_propagator(build_drift(rs), 0.01)
    assert np.max(np.abs(_propagator(rs, 0.01)[0] - ref[0])) <= 1e-15


def test_evolve_below_the_refusal_matches_mpmath_at_60_digits(fano_scalars):
    rs = reduced_scalars(fano_scalars, DriveConfig(1e9, 0.0))
    u, v = _from_ground_at_60_digits(rs, 50.0)
    got = evolve(rs, BlochVector(0.0, 0.0), 50.0)
    assert abs(got.u - u) <= 1e-15 and abs(got.v - v) <= 1e-24


def test_expm_scales_c_alone_where_c_g_overflows():
    rs = reduced_scalars(MOLLOW_SCALARS, DriveConfig(40.0, 0.0))
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.linalg.norm(-0.85e308 * build_drift(rs), 1))
    for tau in (1e307, 1.7e308):
        p = _propagator(rs, tau)
        assert np.all(np.isfinite(p)) and np.max(np.abs(p)) <= 1e-300


def test_expm_of_a_vanishing_c_is_the_identity():
    # -tau/2 rounds to -0.0 at the smallest subnormal tau, and (e^z - 1)/z meets z = 0
    rs = reduced_scalars(MOLLOW_SCALARS, DriveConfig(40.0, 0.0))
    assert np.array_equal(_propagator(rs, 5e-324), np.eye(3))
    out = evolve(rs, BlochVector(0.3, 0.1 - 0.2j), 5e-324)
    assert abs(out.u - 0.3) <= 1e-15 and abs(out.v - (0.1 - 0.2j)) <= 1e-15


def test_bloch_vector_validation():
    with pytest.raises(ValueError):
        BlochVector(-0.1, 0.0)
    with pytest.raises(ValueError):
        BlochVector(1.2, 0.0)
    with pytest.raises(ValueError):
        BlochVector(0.1, 0.5)  # u < u^2 + |v|^2
    BlochVector(0.5, 0.5)  # pure superposition state sits on the boundary


def _mp_solve(m, b):
    """A 50-digit ``mpmath.lu_solve`` of m x = b, a column at a time, and cond_1(m)."""
    with mpmath.workdps(50):
        a = mpmath.matrix(m.tolist())
        cols = [mpmath.lu_solve(a, mpmath.matrix(c.tolist()))
                for c in np.reshape(b.T, (-1, len(m)))]
        x = np.array([[complex(v) for v in c] for c in cols]).T.reshape(b.shape)
        return x, float(mpmath.mnorm(a, 1) * mpmath.mnorm(a ** -1, 1))


def _assert_solved_as_mpmath(m, b):
    # partial pivoting's forward error: a few ulps times the condition number
    x = bloch._solve(m, b)
    assert x.shape == b.shape
    for i in np.ndindex(m.shape[:-2]):
        ref, cond = _mp_solve(m[i], b[i])
        err = np.max(np.abs(x[i] - ref)) / np.max(np.abs(ref))
        assert err <= 4 * len(ref) * np.finfo(float).eps * cond, (i, err, cond)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("rhs", [(), (2,)], ids=["vector", "matrix"])
@pytest.mark.parametrize("stack", [(), (5,)], ids=["single", "stacked"])
def test_solve_matches_mpmath_lu_solve(n, rhs, stack):
    rng = np.random.default_rng(3600 + n)
    m = rng.standard_normal(stack + (n, n)) + 1j * rng.standard_normal(stack + (n, n))
    b = rng.standard_normal(stack + (n,) + rhs) + 1j * rng.standard_normal(stack + (n,) + rhs)
    _assert_solved_as_mpmath(m, b)


def test_solve_swaps_rows_past_a_zero_leading_pivot():
    m = np.array([[0.0, 2.0, 1.0, 0.5], [3.0, 1.0, 0.0, 2.0],
                  [1.0, 0.0, 4.0, 1.0], [2.0, 1.0, 1.0, 0.0]])
    b = np.array([1.0, -2.0, 0.5, 3.0])
    _assert_solved_as_mpmath(m, b)
    _assert_solved_as_mpmath(np.stack([m, m.T]), np.stack([b, b[::-1]]))


def test_solve_at_condition_number_1e8():
    m = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0 + 3e-7]])
    b = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
    assert 1e7 <= _mp_solve(m, b)[1] <= 1e9
    _assert_solved_as_mpmath(m, b)


def test_solve_refuses_a_singular_matrix():
    with pytest.raises(ValueError, match="singular"):
        bloch._solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 0.0]))


def test_triple_product_determinant_matches_mpmath():
    rng = np.random.default_rng(3601)
    m = rng.standard_normal((20, 3, 3)) + 1j * rng.standard_normal((20, 3, 3))
    got = bloch._det3(m)
    assert got.shape == (20,)
    with mpmath.workdps(50):
        ref = np.array([complex(mpmath.det(mpmath.matrix(a.tolist()))) for a in m])
    # each error within a few ulps of the largest product the expansion sums
    scale = np.max(np.abs(m), axis=(-2, -1)) ** 3
    assert np.max(np.abs(got - ref) / scale) <= 16 * np.finfo(float).eps
