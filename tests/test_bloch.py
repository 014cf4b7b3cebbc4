import math

import mpmath
import numpy as np
import pytest

from helpers import random_drive, random_scalars
from qsatom import (BlochVector, DriveConfig, MOLLOW_SCALARS, build_drift,
                    equilibrium, evolve, propagate_deviation, reduced_scalars)
from qsatom.bloch import DriftMatrix, char_poly, cubic_discriminant


def _drift(sc, dc):
    rs = reduced_scalars(sc, dc)
    return rs, build_drift(rs)


def _det3(m):
    # brute-force cofactor expansion, independent of numpy's LU route
    return (m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
            - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
            + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]))


def _rk4_deviation(g, gammatilde, d0, tau, n=40000):
    h = tau / n
    a = -0.5 * (g.matrix + gammatilde * np.eye(3))
    d = d0.astype(complex)
    for _ in range(n):
        k1 = a @ d
        k2 = a @ (d + 0.5 * h * k1)
        k3 = a @ (d + 0.5 * h * k2)
        k4 = a @ (d + h * k3)
        d = d + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return d


def test_build_drift_undriven():
    rs = reduced_scalars(MOLLOW_SCALARS, DriveConfig(0.0, 0.0))
    g = build_drift(rs)
    assert np.allclose(g.matrix, np.diag([2.0, 1.0, 1.0]))


def test_build_drift_mollow_entries():
    eta, ztilde = 1.7, 0.45
    rs = reduced_scalars(MOLLOW_SCALARS, DriveConfig(eta, ztilde))
    z = 2.0 * ztilde
    expected = np.array([
        [2.0, -eta, -eta],
        [2.0 * eta, 1.0 - 1j * z, 0.0],
        [2.0 * eta, 0.0, 1.0 + 1j * z],
    ])
    assert np.allclose(build_drift(rs).matrix, expected, atol=1e-15)


def test_drift_determinant_identity(fano_scalars):
    rs, g = _drift(fano_scalars, DriveConfig(math.sqrt(10.0), 0.0))
    target = 2.0 * (rs.z ** 2 + rs.zeta2)
    assert _det3(g.matrix) == pytest.approx(target, rel=1e-12)


def test_drift_determinant_identity_random_grid():
    rng = np.random.default_rng(31)
    for _ in range(100):
        sc, dc = random_scalars(rng), random_drive(rng)
        rs, g = _drift(sc, dc)
        target = 2.0 * (rs.z ** 2 + rs.zeta2)
        assert _det3(g.matrix) == pytest.approx(target, rel=1e-12)


def test_drift_matrix_structure_validation():
    with pytest.raises(ValueError):
        DriftMatrix(np.ones((3, 3)) * 1j)  # coherence block not diagonal
    with pytest.raises(ValueError):
        DriftMatrix(np.eye(2))


def test_spectral_abscissa_positive():
    rng = np.random.default_rng(13)
    for _ in range(100):
        _, g = _drift(random_scalars(rng), random_drive(rng))
        assert np.min(np.linalg.eigvals(g.matrix).real) > 0.0


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
    solved = np.linalg.solve(g.matrix, np.array([0.0, dc.eta, dc.eta]))
    assert eq.u == pytest.approx(solved[0].real, rel=1e-12)
    assert eq.v == pytest.approx(solved[1], rel=1e-12)
    assert abs(solved[0].imag) < 1e-15


def test_equilibrium_stationarity_residual_grid():
    rng = np.random.default_rng(41)
    for _ in range(100):
        sc, dc = random_scalars(rng), random_drive(rng)
        rs, g = _drift(sc, dc)
        eq = equilibrium(rs)
        resid = g.matrix @ eq.vector() - np.array([0.0, dc.eta, dc.eta])
        assert np.max(np.abs(resid)) <= 1e-12 * max(1.0, dc.eta)


def test_evolve_tau_zero_is_identity(fano_scalars):
    _, g = _drift(fano_scalars, DriveConfig(2.0, 1.0))
    x0 = BlochVector(0.2, 0.1 + 0.05j)
    assert evolve(g, x0, 2.0, 0.0) is x0


def test_evolve_rejects_negative_tau(fano_scalars):
    _, g = _drift(fano_scalars, DriveConfig(2.0, 1.0))
    with pytest.raises(ValueError):
        evolve(g, BlochVector(0.0, 0.0), 2.0, -1e-9)


def test_evolve_reaches_equilibrium(fano_scalars):
    dc = DriveConfig(math.sqrt(18.0), -2.0)
    rs, g = _drift(fano_scalars, dc)
    eq = equilibrium(rs)
    out = evolve(g, BlochVector(0.0, 0.0), dc.eta, 200.0)
    assert out.u == pytest.approx(eq.u, abs=1e-10)
    assert out.v == pytest.approx(eq.v, abs=1e-10)


def test_equilibrium_is_fixed_point(fano_scalars):
    dc = DriveConfig(2.0, 0.7)
    rs, g = _drift(fano_scalars, dc)
    eq = equilibrium(rs)
    for tau in (0.3, 2.0, 17.0):
        out = evolve(g, eq, dc.eta, tau)
        assert out.u == pytest.approx(eq.u, abs=1e-12)
        assert out.v == pytest.approx(eq.v, abs=1e-12)


def test_evolve_state_stays_physical():
    rng = np.random.default_rng(23)
    for _ in range(60):
        sc, dc = random_scalars(rng), random_drive(rng)
        _, g = _drift(sc, dc)
        u0 = rng.uniform(0.0, 1.0)
        r = rng.uniform(0.0, 0.95) * math.sqrt(max(u0 - u0 ** 2, 0.0))
        x0 = BlochVector(u0, r * np.exp(2j * math.pi * rng.uniform()))
        out = evolve(g, x0, dc.eta, rng.uniform(0.0, 30.0))
        assert -1e-12 <= out.u <= 1.0 + 1e-12
        assert out.u + 1e-9 >= out.u ** 2 + abs(out.v) ** 2


def test_propagate_deviation_trivial_cases(fano_scalars):
    _, g = _drift(fano_scalars, DriveConfig(1.5, 0.2))
    zero = propagate_deviation(g, 0.3, np.zeros(3, dtype=complex), 2.0)
    assert np.all(zero == 0.0)
    d0 = np.array([0.1, -0.2 + 0.3j, 0.05j])
    assert np.array_equal(propagate_deviation(g, 0.3, d0, 0.0), d0)
    with pytest.raises(ValueError):
        propagate_deviation(g, 0.3, d0, -0.1)


def test_propagate_deviation_matches_rk4(fano_scalars):
    dc = DriveConfig(2.2, -0.8, 0.4)
    _, g = _drift(fano_scalars, dc)
    d0 = np.array([0.3 - 0.1j, 0.2 + 0.5j, -0.4 + 0.05j])
    got = propagate_deviation(g, dc.gammatilde, d0, 1.7)
    ref = _rk4_deviation(g, dc.gammatilde, d0, 1.7)
    assert np.max(np.abs(got - ref)) < 1e-8


def test_propagate_deviation_linear_in_d0(fano_scalars):
    _, g = _drift(fano_scalars, DriveConfig(1.0, 0.5, 0.2))
    d1 = np.array([0.1, 0.2j, 0.3])
    d2 = np.array([-0.4j, 0.1, 0.25 + 0.1j])
    lhs = propagate_deviation(g, 0.2, 2.0 * d1 + 3.0 * d2, 1.1)
    rhs = (2.0 * propagate_deviation(g, 0.2, d1, 1.1)
           + 3.0 * propagate_deviation(g, 0.2, d2, 1.1))
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def _mollow_drift(eta2):
    eta = math.sqrt(eta2)
    rs = reduced_scalars(MOLLOW_SCALARS, DriveConfig(eta, 0.0))
    return build_drift(rs)


def test_mollow_eigenvalues_real_below_threshold():
    lam = np.linalg.eigvals(_mollow_drift(1.0 / 16.0 - 2e-3).matrix)
    assert np.max(np.abs(lam.imag)) < 1e-12


def test_mollow_eigenvalues_complex_above_threshold():
    lam = np.linalg.eigvals(_mollow_drift(1.0 / 16.0 + 2e-3).matrix)
    assert np.max(np.abs(lam.imag)) > 1e-3


def test_char_poly_annihilates_eigenvalues():
    rng = np.random.default_rng(3)
    _, g = _drift(random_scalars(rng), random_drive(rng))
    coeffs = char_poly(g)
    for lam in np.linalg.eigvals(g.matrix):
        val = coeffs[0] * lam ** 3 + coeffs[1] * lam ** 2 + coeffs[2] * lam + coeffs[3]
        assert abs(val) < 1e-9


def test_cubic_discriminant_sign_tracks_root_reality():
    below = cubic_discriminant(char_poly(_mollow_drift(1.0 / 16.0 - 2e-3)))
    above = cubic_discriminant(char_poly(_mollow_drift(1.0 / 16.0 + 2e-3)))
    assert below > 0.0 > above


def test_evolve_accurate_at_defective_threshold():
    # repeated eigenvalues: G' is defective here, so no eigenvector basis
    # exists, and the Pade scaling-and-squaring propagator must still agree
    from qsatom.oracle import ode_evolve
    g = _mollow_drift(1.0 / 16.0)
    x0 = BlochVector(0.3, 0.1 - 0.2j)
    a = evolve(g, x0, 0.25, 8.0)
    b = ode_evolve(g, 0.25, x0, 8.0)
    assert abs(a.u - b.u) < 1e-8 and abs(a.v - b.v) < 1e-8


def _mp_propagator(g: np.ndarray, tau: float) -> np.ndarray:
    """e^{-G' tau/2} by mpmath at 40 digits."""
    with mpmath.workdps(40):
        e = mpmath.expm(mpmath.matrix(g.tolist()) * (-mpmath.mpf(tau) / 2))
        return np.array(e.tolist(), dtype=complex)


def _propagator(g: DriftMatrix, tau: float) -> np.ndarray:
    return np.column_stack([propagate_deviation(g, 0.0, e, tau) for e in np.eye(3)])


@pytest.mark.parametrize("eta", [0.25, 0.2499, 0.2501])
def test_propagator_matches_mpmath_on_the_mollow_threshold(eta):
    # at eta = 1/4 an eigenvector basis has condition number ~6e7 and an
    # eigendecomposition route lands 4.6e-10 off
    g = build_drift(reduced_scalars(MOLLOW_SCALARS, DriveConfig(eta, 0.0)))
    ref = _mp_propagator(g.matrix, 3.0)
    assert np.max(np.abs(_propagator(g, 3.0) - ref)) <= 1e-14
    x0 = BlochVector(0.3, 0.1 - 0.2j)
    ueq = np.linalg.solve(g.matrix, np.array([0.0, eta, eta], dtype=complex))
    want = ueq + ref @ (x0.vector() - ueq)
    got = evolve(g, x0, eta, 3.0)
    assert abs(got.u - want[0]) <= 1e-14 and abs(got.v - want[1]) <= 1e-14


def test_propagator_matches_mpmath_on_random_drifts():
    rng = np.random.default_rng(7)
    for _ in range(20):
        _, g = _drift(random_scalars(rng), random_drive(rng))
        tau = rng.uniform(0.1, 20.0)
        assert np.max(np.abs(_propagator(g, tau) - _mp_propagator(g.matrix, tau))) <= 1e-14


def test_propagator_matches_mpmath_under_strong_drive():
    # eta up to 60 and |ztilde| up to 50 put ||G' tau/2||_1 in the hundreds,
    # so the short tau runs the Pade approximant unscaled (k = 0) and the
    # long ones through many squarings
    rng = np.random.default_rng(31)
    for i in range(30):
        dc = DriveConfig(rng.uniform(0.0, 60.0), rng.uniform(-50.0, 50.0))
        _, g = _drift(random_scalars(rng), dc)
        tau = (1e-3, 0.3, rng.uniform(0.5, 40.0))[i % 3]
        assert np.max(np.abs(_propagator(g, tau) - _mp_propagator(g.matrix, tau))) <= 3e-14


@pytest.mark.parametrize("tau", [-0.1, math.inf, math.nan])
def test_propagators_reject_negative_or_non_finite_tau(tau):
    g = build_drift(reduced_scalars(MOLLOW_SCALARS, DriveConfig(1.0, 0.0)))
    with pytest.raises(ValueError, match="finite and nonnegative"):
        evolve(g, BlochVector(0.0, 0.0), 1.0, tau)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        propagate_deviation(g, 0.0, np.zeros(3), tau)


@pytest.mark.parametrize("gammatilde", [-1e3, math.inf, math.nan])
def test_propagate_deviation_rejects_negative_or_non_finite_width(gammatilde):
    # -1e3 at tau = 10 used to overflow in math.exp, nan gave a NaN vector
    # and inf silently gave zeros
    g = build_drift(reduced_scalars(MOLLOW_SCALARS, DriveConfig(1.0, 0.0)))
    with pytest.raises(ValueError, match="gammatilde must be finite and nonnegative"):
        propagate_deviation(g, gammatilde, np.array([0.1, 0.2j, -0.2j]), 10.0)


def test_bloch_vector_validation():
    with pytest.raises(ValueError):
        BlochVector(-0.1, 0.0)
    with pytest.raises(ValueError):
        BlochVector(1.2, 0.0)
    with pytest.raises(ValueError):
        BlochVector(0.1, 0.5)  # u < u^2 + |v|^2
    BlochVector(0.5, 0.5)  # pure superposition state sits on the boundary
