"""Independent numerical verification of every closed form.

Each closed-form result in the library is paired here with a numerical
route that shares none of its machinery: fixed-step RK4 against the
matrix exponential, a generic inverse against the adjugate resolvent,
time-domain RK4 integration of the regression kernel against the
resolvent spectrum, composite Gauss-Legendre quadrature centred on the
drift's poles against the integral cross sections, and a raw
operator-level rebuild of the finite-beam master equation against the
collimated-limit closed forms via the photon balance identity.  Both RK4
oracles take their 2^k steps as one step matrix squared k times
(:func:`_rk4_power`, in ``bloch``'s BLAS-free loops): RK4's own truncation error.

The random points come from ``random.Random`` (MT19937) seeded afresh in
each verification run, and the Gauss-Legendre rules are built by Newton's
method on the one Legendre recurrence of ``model``: no command loads
numpy's random or polynomial subpackage.

Oracles never run inside production computations, and no sweep loads
this module; they exist so a verification pass can fail loudly
when a formula and its independent counterpart drift apart.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, fields, replace

import numpy as np

from .bloch import BlochVector, _det3, _drift_poles, _mul, _solve, build_drift, equilibrium, evolve
from .model import (MOLLOW_SCALARS, DriveConfig, PhaseShiftTable, ReducedScalars,
                    ScatteringScalars, _any, _legendre, _modulus, _sin, _sq,
                    reduced_scalars, scalars_from_phase_shifts)
from .spectrum import (elastic_lorentzian, mollow_inel_x, resolvent, sigma_inel_x,
                       spectral_coefficients)
from .xsection import _elastic, _inelastic, _total, sigma_el, sigma_inel, sigma_tot

DRAW = {"seed": 20250808, "generator": "mt19937"}  # verify's draw: random.Random is MT19937


# ---------------------------------------------------------------------------
# time-domain propagation

# largest ode_evolve step: error <= 1.3e-12 vs 40-digit mpmath.expm at verify's points (tol 1e-8)
_RK4_STEP = 1e-3
# time-domain tail: the Laplace tail dropped is of this order (tolerance 1e-6)
_KERNEL_TAIL = 1e-12
_KERNEL_TAU_MAX = 500.0  # the time-domain horizon: a kernel still above the tail there raises


def _rk4_power(m: np.ndarray, h: float, k: int) -> np.ndarray:
    """2^k classic RK4 steps of y' = m y as one matrix, P^(2^k).

    For a constant-coefficient linear system the four stages collapse to
    P = I + hm + (hm)^2/2 + (hm)^3/6 + (hm)^4/24, in Horner form, squared k times.
    """
    a = h * m
    eye = np.eye(len(m))
    p = eye + _mul(a, eye + _mul(a, eye + _mul(a, eye + a / 4.0) / 3.0) / 2.0)
    for _ in range(k):
        p = _mul(p, p)
    return p


def ode_evolve(rs: ReducedScalars, x0: BlochVector, tau: float) -> BlochVector:
    """Classic fixed-step RK4 on the Bloch equation of ``rs`` (step <= 1e-3).

    The inhomogeneous term (0, eta/2, eta/2) rides as a constant fourth
    component, so n = 2^k steps (fewest with tau / n <= 1e-3, k from the
    exponents of tau and the step, as in :func:`spectrum_time_domain`) are one
    4x4 :func:`_rk4_power`; its constant row is exact, so any finite tau gives a
    state.  Comparison baseline for the matrix-exponential propagator; never
    the production path.  Raises ValueError for a negative or non-finite tau.
    """
    if not math.isfinite(tau) or tau < 0:
        raise ValueError("tau must be finite and nonnegative")
    if tau == 0:
        return x0
    (ms, es), (mt, et) = math.frexp(_RK4_STEP), math.frexp(tau)
    k = max(0, et - es + (mt > ms))  # the fewest squarings with tau / 2^k <= _RK4_STEP
    aug = np.zeros((4, 4), dtype=complex)
    aug[0:3, 0:3] = -0.5 * build_drift(rs)
    aug[1:3, 3] = 0.5 * rs.eta
    p = _rk4_power(aug, math.ldexp(tau, -k), k)
    v = _mul(p, np.append(x0.vector(), 1.0)[:, None])[:, 0]
    return BlochVector(float(v[0].real), complex(v[1]))


def _shifted_drift(rs: ReducedScalars, x) -> np.ndarray:
    """Gtilde + 2ix, taken from the drift G' of :func:`build_drift`: Gtilde is
    G' in the basis d = (1, 1/eta, -eta), entries G'_ij d_j / d_i, shifted by
    gammatilde (stacked for columns).  Dividing last keeps every exact zero of
    G' a zero for each eta with a finite reciprocal; ValueError at eta = 0."""
    if _any(rs.eta == 0.0):
        raise ValueError("Gtilde needs eta > 0")
    d = np.stack(np.broadcast_arrays(1.0, 1.0 / rs.eta, -rs.eta), axis=-1)[..., None, :]
    shift = np.multiply.outer(rs.gammatilde + 2j * x, np.eye(3))
    return build_drift(rs) * d / np.swapaxes(d, -1, -2) + shift


def spectrum_time_domain(sc: ScatteringScalars, dc: DriveConfig, x: float) -> float:
    """Inelastic spectral density by time-domain integration.

    Integrates the regression kernel: propagates the two right vectors
    under d'(tau) = -(Gtilde + 2ix) d(tau) with fixed-step RK4 and accumulates
    the Laplace integrals, from zero, as augmented components of the same RK4
    state, over the fewest 2^k steps that reach tau = _KERNEL_TAU_MAX: one
    product with the :func:`_rk4_power` P^(2^k).  The step h = 1 /
    (sqrt(||A||_1) sqrt(||A||_inf)) <= 1 / ||A||_2 (Golub & Van Loan, Matrix
    Computations, sec. 2.3; no SVD), its roots apart since their product
    overflows from |x| ~ 1e154, puts every eigenvalue of -hA in the left half
    of the unit disc, where the RK4 step contracts; k comes from the exponents
    of h and the horizon, whose ratio overflows from |x| ~ 3.6e305.  In exact
    arithmetic, N steps give the integral rows L A^-1 (I - P^N) d(0), L their
    left vectors: the step's truncation error cancels, and once P^N is below
    the tail a longer horizon gives the same value.  Raises ValueError for a
    non-finite ``x`` and RuntimeError when the kernel's column 1-norm at the
    horizon is not below _KERNEL_TAIL.
    """
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    if dc.eta == 0.0:
        return 0.0
    rs = reduced_scalars(sc, dc)
    cprime, dprime, ddoubleprime = spectral_coefficients(rs)
    a = _shifted_drift(rs, x)
    h = 1.0 / (math.sqrt(np.abs(a).sum(axis=0).max()) * math.sqrt(np.abs(a).sum(axis=1).max()))
    # one drift block, a state column per bilinear: d(q, I, J)/dtau = (-A q, c^dag q, q_0)
    big = np.zeros((5, 5), dtype=complex)
    big[0:3, 0:3] = -a
    big[3, 0:3] = np.conj(cprime)
    big[4, 0] = 1.0  # the left vector of the second bilinear is (1, 0, 0)
    (mh, eh), (mt, et) = math.frexp(h), math.frexp(_KERNEL_TAU_MAX)
    k = max(0, et - eh + (mt > mh))  # the fewest squarings with 2^k h >= _KERNEL_TAU_MAX
    y = _mul(_rk4_power(big, h, k)[:, 0:3], np.transpose([dprime, ddoubleprime]))
    if not np.abs(y[:3]).sum(axis=0).max() < _KERNEL_TAIL:
        raise RuntimeError("time-domain kernel did not decay below the "
                           f"threshold within tau = {_KERNEL_TAU_MAX}")
    bilinear = y[3, 0] + sc.norm2_pdg * y[4, 1]
    return float(rs.eta2 / (math.pi * rs.den2) * 2.0 * bilinear.real)


# ---------------------------------------------------------------------------
# quadrature

# work bounds: halvings of the 16 starting panels per pole, and live panels per pass
_MAX_HALVINGS = 30
_MAX_PANELS = 4096
# largest relative gap between a spectral integral and its closed form
_SUM_RULE_TOL = 1e-6


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-node Gauss-Legendre (nodes ascending, weights 2 / ((1 - x^2) P_n'^2)),
    built once per n as read-only arrays: Newton on P_n from -cos(pi (i - 1/4)
    / (n + 1/2)) (Hale & Townsend, SIAM J. Sci. Comput. 35, A652 (2013));
    P_n' = n (P_{n-1} - x P_n) / ((1 - x)(1 + x)) keeps each P_k, k < 2n,
    integrated within 1e-15 for n <= 500."""
    x = -np.cos(math.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for step in range(5):  # four steps reach the rounding for n <= 500
        p = _legendre(x, n)
        dp = n * (p[:, -2] - x * p[:, -1]) / ((1.0 - x) * (1.0 + x))
        if step < 4:
            x = x - p[:, -1] / dp
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def integrate_line(f, poles, tol: float):
    """Integral of a smooth f (taking a 1-d ndarray) over the real axis.

    poles holds a (centre c, half-width w) pair per feature of f.  The
    stretch of the line nearer c than any other centre is mapped by x = c +
    w tan(u), flat on that Lorentzian and bounded on 1/x^2 tails, and cut
    into 16 equal panels in u.  A panel is accepted when its 8- and 16-node
    Gauss-Legendre rules agree within tol * width / (pi * len(poles))
    (QUADPACK's panel-pair estimate without the Kronrod nodes; Piessens et
    al. 1983), and the others are halved.  Past either work bound the rest
    is banked at its 16-node value and reported as non-convergence.
    Returns (value, error_estimate, converged).
    """
    def panel_rule(nodes, weights):
        u = lefts + 0.5 * width * (1.0 + nodes)
        mapped = f((c + w * np.tan(u)).ravel()).reshape(u.shape) * w / np.cos(u) ** 2
        return 0.5 * width[:, 0] * np.einsum("pn,n->p", mapped, weights)

    c, w = np.array(sorted(poles)).T
    gaps = np.r_[np.inf, 0.5 * np.diff(c), np.inf]  # from each centre to the cuts either side
    lo, hi = -np.arctan(gaps[:-1] / w), np.arctan(gaps[1:] / w)
    lefts = np.linspace(lo, hi, 17, axis=1)[:, :-1].reshape(-1, 1)
    width, c, w = (np.repeat(a, 16)[:, None] for a in ((hi - lo) / 16, c, w))
    value, err = 0.0, 0.0
    for halvings in range(_MAX_HALVINGS + 1):
        coarse, fine = (panel_rule(*_gauss_legendre(n)) for n in (8, 16))
        gap = np.abs(fine - coarse)
        done = gap <= tol * width[:, 0] / (len(poles) * math.pi)
        if done.all() or halvings == _MAX_HALVINGS or 2 * np.count_nonzero(~done) > _MAX_PANELS:
            break
        value, err = value + fine[done].sum(), err + gap[done].sum()
        lefts, width, c, w = (a[~done] for a in (lefts, 0.5 * width, c, w))
        lefts, width, c, w = np.r_[lefts, lefts + width], *(np.r_[a, a] for a in (width, c, w))
    return float(value + fine.sum()), float(err + gap.sum()), bool(done.all())


@dataclass(frozen=True)
class SumRuleReport:
    """Quadrature values of the spectral sum rules next to their closed
    forms; non-convergence of the quadrature is reported separately from
    a genuine sum-rule violation."""

    inel_quadrature: float
    inel_closed: float
    tot_quadrature: float
    tot_closed: float
    inel_error_estimate: float
    tot_error_estimate: float
    quad_converged: bool

    @property
    def inel_rel_gap(self) -> float:
        return abs(self.inel_quadrature - self.inel_closed) / max(abs(self.inel_closed), 1e-30)

    @property
    def tot_rel_gap(self) -> float:
        return abs(self.tot_quadrature - self.tot_closed) / max(abs(self.tot_closed), 1e-30)

    @property
    def passed(self) -> bool:
        return (self.quad_converged
                and self.inel_rel_gap <= _SUM_RULE_TOL
                and self.tot_rel_gap <= _SUM_RULE_TOL)


def quad_sum_rules(sc: ScatteringScalars, dc: DriveConfig) -> SumRuleReport:
    """Check that the spectra integrate to their cross sections, each to 1e-7
    of its closed form.  The inelastic panels centre on the drift's poles l:
    det(Gtilde + 2ix) = prod (l + gammatilde + 2ix) puts a line at x = -Im l / 2
    with half-width (Re l + gammatilde) / 2 (Mollow's central line and
    sidebands).  The elastic Lorentzian has its own, (0, gammatilde / 2), so
    that no detector width is too narrow to resolve; the total is the sum of
    the two integrals.  ValueError where (gammatilde / 2)^2 underflows to 0.
    """
    if not _sq(0.5 * dc.gammatilde) > 0.0:
        raise ValueError("sum rules need (gammatilde / 2)^2 > 0 (a finite elastic line), "
                         f"got gammatilde = {dc.gammatilde:.15g}")
    inel_closed = sigma_inel(sc, dc)
    tot_closed = sigma_tot(sc, dc)
    el, gt = sigma_el(sc, dc), dc.gammatilde
    poles = [(-0.5 * p.imag, 0.5 * (p.real + gt)) for p in _drift_poles(reduced_scalars(sc, dc))]
    iv, ie, ic = integrate_line(lambda x: sigma_inel_x(sc, dc, x), poles, 1e-7 * abs(inel_closed))
    ev, ee, ec = integrate_line(lambda x: elastic_lorentzian(el, gt, x), [(0.0, 0.5 * gt)],
                                1e-7 * abs(tot_closed))
    return SumRuleReport(
        inel_quadrature=iv, inel_closed=inel_closed,
        tot_quadrature=ev + iv, tot_closed=tot_closed,
        inel_error_estimate=ie, tot_error_estimate=ee + ie,
        quad_converged=ic and ec,
    )


# ---------------------------------------------------------------------------
# finite-beam photon balance

def beam_overlaps(lmax: int, dtheta: float) -> np.ndarray:
    """Overlaps of the flat finite-width beam profile with Y_l0.

    Gauss-Legendre quadrature of P_l over [cos dtheta, 1], with
    max(64, (lmax + 2) // 2) nodes, exact (to rounding) up to degree lmax.
    As dtheta -> 0 each overlap tends to sqrt(2l+1)/2.  Raises ValueError
    unless 0 < dtheta <= pi and lmax is nonnegative.
    """
    if not 0.0 < dtheta <= math.pi:
        raise ValueError("dtheta must lie in (0, pi]")
    if lmax < 0:
        raise ValueError("lmax must be nonnegative")
    xg, wg = _gauss_legendre(max(64, (lmax + 2) // 2))
    a = math.cos(dtheta)
    xi = 0.5 * (xg + 1.0) * (1.0 - a) + a
    ww = 0.5 * (1.0 - a) * wg
    integrals = np.einsum("n,nl->l", ww, _legendre(xi, lmax))
    pref = 2.0 * math.pi / (dtheta * math.sqrt(2.0 * math.pi * (1.0 - a)))
    ls = np.arange(lmax + 1)
    return pref * np.sqrt((2.0 * ls + 1.0) / (4.0 * math.pi)) * integrals


def _beam_channels(table: PhaseShiftTable, dc: DriveConfig,
                   dtheta: float) -> tuple[np.ndarray, np.ndarray]:
    """Profile overlaps and the channel operators R_l of the table's
    channels, stacked as one (channels, 2, 2) array: the P+ and P-
    couplings on the diagonal, sigma_minus in channel 0 only.  Every
    channel above the table has zero phase shift, a pure pass-through
    whose terms cancel from the master equation."""
    deltas = np.stack([table.delta_plus, table.delta_minus])
    ov = beam_overlaps(deltas.shape[1] - 1, dtheta)
    # the profile norm is 1/dtheta, so the overlap mass is capped by it
    if np.sum(ov ** 2) > (1.0 + 1e-9) / dtheta ** 2:
        raise ValueError("overlap mass exceeds the beam norm")
    r = np.zeros((len(ov), 2, 2), dtype=complex)
    r[:, 0, 0], r[:, 1, 1] = dc.eta * np.exp(2j * deltas) * ov
    r[0, 1, 0] = np.exp(-1j * (math.pi - 2.0 * float(table.delta_minus[0])))
    return ov, r


def _beam_liouvillian(dc: DriveConfig, ov: np.ndarray, r: np.ndarray) -> np.ndarray:
    """4x4 superoperator of the rotated master equation, column-stacked;
    each sum over channels is one contraction of the channel stack."""
    rabi_half = dc.eta * ov[0]  # |<alpha|S- lambda>|
    h = np.array([[-0.5 * dc.ztilde, 0.5j * rabi_half],
                  [-0.5j * rabi_half, 0.5 * dc.ztilde]])
    eye = np.eye(2, dtype=complex)
    rdr = np.einsum('lji,ljk->ik', r.conj(), r)
    jump = np.einsum('lij,lkm->ikjm', r.conj(), r).reshape(4, 4)
    return (jump - 1j * (np.kron(eye, h) - np.kron(h.T, eye))
            - 0.5 * (np.kron(eye, rdr) + np.kron(rdr.T, eye)))


def _beam_state(dc: DriveConfig, ov: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Stationary 2x2 state of the master equation with channels (ov, r).

    Trace preservation makes row 0 of the column-stacked superoperator minus
    row 3; the unit-trace row takes its place in one square solve (ValueError
    if singular).  The eigenvalues of the Hermitian part are in closed form,
    (rho_00 + rho_11) / 2 -+ hypot((rho_00 - rho_11) / 2, |rho_01|).
    RuntimeError if rho is not a state (an assembly bug).
    """
    m = _beam_liouvillian(dc, ov, r)
    m[0] = (1.0, 0.0, 0.0, 1.0)
    rho = _solve(m, np.array([1.0, 0.0, 0.0, 0.0])).reshape(2, 2, order="F")
    rho = 0.5 * (rho + rho.conj().T)
    mid = 0.5 * float((rho[0, 0] + rho[1, 1]).real)
    half_gap = math.hypot(0.5 * (rho[0, 0] - rho[1, 1]).real, abs(rho[0, 1]))
    eigs = (mid - half_gap, mid + half_gap)
    if eigs[0] < -1e-10 or abs(2.0 * mid - 1.0) > 1e-10:
        raise RuntimeError("finite-beam equilibrium is not a state: "
                           f"eigs = {eigs}, trace = {2.0 * mid!r}")
    return rho


def finite_beam_equilibrium(table: PhaseShiftTable, dc: DriveConfig,
                            dtheta: float) -> np.ndarray:
    """Stationary 2x2 state of the finite-beam master equation."""
    return _beam_state(dc, *_beam_channels(table, dc, dtheta))


def finite_beam_balance(table: PhaseShiftTable, dc: DriveConfig,
                        dtheta: float) -> float:
    """Relative stationary photon-flux imbalance |out - in| / in.

    Ingoing flux is the beam norm eta^2/dtheta^2.  Outgoing flux sums
    Tr{R_l^dag R_l rho_eq} over the table's channels plus the exact
    pass-through eta^2 (1/dtheta^2 - sum_l ov_l^2) of every channel above
    the table (unitarity of the identity scattering there).  The identity
    holds at every dtheta, so the returned number measures numerics only.
    """
    ov, r = _beam_channels(table, dc, dtheta)
    rho = _beam_state(dc, ov, r)
    influx = dc.eta ** 2 / dtheta ** 2
    outflux = float(np.einsum('lji,ljk,ki->', r.conj(), r, rho).real)
    outflux += dc.eta ** 2 * (1.0 / dtheta ** 2 - float(np.sum(ov ** 2)))
    if influx == 0.0:
        return abs(outflux)
    return abs(outflux - influx) / influx


# ---------------------------------------------------------------------------
# the verification suite

@dataclass(frozen=True)
class VerificationCheck:
    """One verify check: its largest residual over ``samples`` evaluations."""

    name: str
    tolerance: float
    residual: float
    samples: int

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def to_dict(self) -> dict:
        return {"check": self.name, "tolerance": self.tolerance,
                "residual": self.residual, "samples": self.samples, "passed": self.passed}


def _check(name: str, tolerance: float, residuals) -> VerificationCheck:
    """A check's row: its largest residual (NaN if any is, 0.0 if none) and their count."""
    r = np.asarray(residuals, dtype=float)
    return VerificationCheck(name, tolerance, float(np.max(r, initial=0.0)), r.size)


DEFAULT_TABLE = PhaseShiftTable(delta_plus=np.array([-0.03, 0.0, 0.0633]),
                                delta_minus=np.array([0.13, 0.0, 0.0]))

DEFAULT_DRIVES = (DriveConfig(2.0, 0.0, 0.6),
                  DriveConfig(math.sqrt(18.0), 1.5, 0.6))


def _random_block(rng, n: int, extra=(), gamma_positive: bool = False):
    """``n`` random points as columns (sc, dc, rs, extras), drawn per point as
    the six scattering scalars, gammatilde, eta, ztilde and one per (lo, hi)
    of ``extra``, each lo + (hi - lo) u from the next u in [0, 1) of
    ``rng.random()``, one call per value, in that order."""
    ranges = ([(-0.4, 0.4)] * 2 + [(0.0, 0.1)] * 3 + [(-0.01, 0.01)]
              + [(0.05 if gamma_positive else 0.0, 1.5), (0.0, 6.0), (-8.0, 8.0), *extra])
    lo, hi = np.array(ranges).T
    u = np.fromiter(iter(rng.random, 2.0), float, n * len(ranges)).reshape(n, len(ranges))
    d0p, d0m, pgp, pgm, _, eps_r, gt, eta, zt, *extras = (lo + (hi - lo) * u).T
    a, b = _sq(np.sqrt(pgp) - np.sqrt(pgm)), _sq(np.sqrt(pgp) + np.sqrt(pgm))  # triangle
    sc = ScatteringScalars(d0p, d0m, pgp, pgm, a + (b - a) * u[:, 4], eps_r)
    dc = DriveConfig(eta, zt, gt)
    return sc, dc, reduced_scalars(sc, dc), extras


def _total_form_gap(sc: ScatteringScalars, rs: ReducedScalars):
    """|compact - expanded| total cross section over the largest term of the
    expanded form (|g-|^2 plus the s-wave interference terms), floats or columns."""
    terms = (sc.norm2_g_minus,
             rs.kappa2 * (1.0 + rs.eta2 * (sc.norm2_g_plus - sc.norm2_g_minus)) / rs.den,
             -rs.y * _sin(2.0 * sc.delta0_minus) / rs.den,
             -2.0 * rs.kappa2 * _sq(_sin(sc.delta0_minus)) / rs.den)
    return abs(_total(sc, rs) - sum(terms)) / functools.reduce(np.maximum, map(abs, terms))


def _at_drive(dc: DriveConfig, f, *args):
    """``f(*args)`` at ``dc``, a float overflow (CPython's or numpy's) named by the drive."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return f(*args)
    except (OverflowError, FloatingPointError) as exc:
        raise ArithmeticError("float overflow at (eta2, ztilde, gammatilde) = "
                              f"({dc.eta * dc.eta:.15g}, {dc.ztilde:.15g}, "
                              f"{dc.gammatilde:.15g})") from exc


def run_verification(source: PhaseShiftTable | ScatteringScalars = DEFAULT_TABLE,
                     drives: tuple[DriveConfig, ...] = DEFAULT_DRIVES) -> list[VerificationCheck]:
    """Run the full oracle and invariant suite; one entry per check.  A
    phase-shift table as ``source`` adds the two finite-beam checks, which
    need angular resolution; its scalar reduction alone gives twelve.  A
    float overflow at a drive raises ArithmeticError naming the drive."""
    is_table = isinstance(source, PhaseShiftTable)
    sc_ref = scalars_from_phase_shifts(source) if is_table else source
    rng = random.Random(DRAW["seed"])

    # determinant identity and equilibrium stationarity on a random grid
    _, _, rs, _ = _random_block(rng, 200)
    g = build_drift(rs)
    det_res = _modulus(_det3(g) - 2.0 * rs.den) / abs(2.0 * rs.den)
    resid = _mul(g, equilibrium(rs).vector()[..., None])[..., 0] \
        - np.stack([0.0 * rs.eta, rs.eta, rs.eta], axis=-1)
    eq_res = np.max(np.abs(resid), axis=-1) / np.maximum(1.0, rs.eta)
    checks = [_check("drift determinant identity", 1e-12, det_res),
              _check("equilibrium stationarity", 1e-12, eq_res)]

    # matrix exponential against RK4, point by point
    eo = []
    _, _, rs, extra = _random_block(rng, 6, ((0.0, 1.0),) * 3 + ((0.5, 20.0),))
    for i, (u0, r, phase, tau) in enumerate(zip(*(c.tolist() for c in extra))):
        point = ReducedScalars(*(float(getattr(rs, f.name)[i]) for f in fields(rs)))
        vmax = math.sqrt(max(u0 - u0 ** 2, 0.0))
        x0 = BlochVector(u0, complex(vmax * r * np.exp(2j * math.pi * phase)))
        a = evolve(point, x0, tau)
        b = ode_evolve(point, x0, tau)
        eo.append(np.maximum(abs(a.u - b.u), abs(a.v - b.v)))
    checks.append(_check("matrix exponential vs RK4", 1e-8, eo))

    # adjugate resolvent against the generic inverse, the largest entry per point
    _, _, rs, (x,) = _random_block(rng, 100, ((-20.0, 20.0),))
    inv = _solve(_shifted_drift(rs, x), np.broadcast_to(np.eye(3), (len(x), 3, 3)))
    ro = np.max(np.abs(resolvent(rs, x) - inv), axis=(-2, -1))
    checks.append(_check("adjugate resolvent vs generic inverse", 1e-12, ro))

    # time-domain kernel against the resolvent spectrum, on one column per drive
    xs = (0.0, 1.3, -2.7)
    pairs = [_at_drive(dc, lambda: ([spectrum_time_domain(sc_ref, dc, x) for x in xs],
                                    sigma_inel_x(sc_ref, dc, np.array(xs))))
             for dc in drives if dc.eta > 0.0 and dc.gammatilde > 0.0]
    td = [abs(a - b) / np.maximum(abs(b), 1e-30) for a, b in pairs]
    checks.append(_check("time-domain spectrum vs resolvent", 1e-6, td))

    # integral sum rule and the two total forms, on the same random points;
    # the gap comes from the three closed forms, so a violation is a FAIL row
    sc, _, rs, _ = _random_block(rng, 300)
    tot = _total(sc, rs)
    sr = abs(_elastic(sc, rs) + _inelastic(sc, rs) - tot) / np.maximum(abs(tot), 1e-30)
    checks.append(_check("cross-section sum rule", 1e-12, sr))
    forms = [_total_form_gap(sc, rs)]
    # plus a fixed set around the Fano zero z = cot(delta_0^-), where the
    # compact form vanishes and the expanded one cancels: one column each
    eta2s = np.repeat([0.0, 1e-8, 1e-4, 0.01, 1.0, 18.0], 21)
    for d0m in (0.13, 0.3, -0.2):
        sc = ScatteringScalars(0.0, d0m, 0.0, 0.0, 0.0, 0.0)
        zts = np.tile(0.5 / math.tan(d0m) + np.linspace(-0.05, 0.05, 21), 6)
        rs = reduced_scalars(sc, DriveConfig(np.sqrt(eta2s), zts))
        forms.append(_total_form_gap(sc, rs))
    checks.append(_check("total cross-section forms", 1e-12, np.concatenate(forms)))

    # spectral normalization for the configured drives
    reports = [_at_drive(dc, quad_sum_rules, sc_ref, dc) for dc in drives if dc.gammatilde > 0.0]
    checks.append(_check("spectral quadrature convergence", 0.0,
                         [0.0 if r.quad_converged else 1.0 for r in reports]))
    checks.append(_check("spectral normalization sum rules", _SUM_RULE_TOL,
                         [np.maximum(r.inel_rel_gap, r.tot_rel_gap) for r in reports]))

    # symmetry and positivity of the inelastic spectrum, under the mirror
    # s -> -s, z -> -z, x -> -x of the inputs
    sc, dc, _, (x,) = _random_block(rng, 100, ((-12.0, 12.0),), gamma_positive=True)
    flipped = replace(sc, delta0_plus=-sc.delta0_plus,
                      delta0_minus=-sc.delta0_minus, eps_r=-sc.eps_r)
    v1 = sigma_inel_x(sc, dc, x)
    sym = np.abs(v1 - sigma_inel_x(flipped, replace(dc, ztilde=-dc.ztilde), -x))
    checks.append(_check("spectral mirror symmetry", 1e-12, sym))
    neg = 0.0 - np.minimum(v1, 0.0)  # never -0.0, and a NaN shows
    checks.append(_check("spectral positivity", 1e-12, neg))

    # absorption/emission-only closed form against the resolvent route
    xs, zt = np.linspace(-9.0, 9.0, 15), np.linspace(-4.0, 4.0, 15)[:, None]
    ref = mollow_inel_x(zt, 2.0, 0.6, xs)
    got = sigma_inel_x(MOLLOW_SCALARS, DriveConfig(np.full_like(zt, 2.0), zt, 0.6), xs)
    mol = np.abs(got - ref) / np.abs(ref)
    checks.append(_check("Mollow closed form vs resolvent", 1e-10, mol))

    # finite-beam photon balance (needs angular resolution)
    if is_table:
        drive = next((d for d in drives if d.eta > 0), DEFAULT_DRIVES[0])
        bal = [_at_drive(drive, finite_beam_balance, source, drive, dth)
               for dth in (0.2, 0.1, 0.05)]
        checks.append(_check("finite-beam photon balance", 1e-8, bal))

        # beam overlaps: quadrature against the closed Legendre integral
        # over [cos dtheta, 1], (P_{l-1} - P_{l+1}) / (2l + 1) with P_{-1} = 1
        ov_res = []
        two_l1 = 2 * np.arange(13) + 1
        for dth in (0.3, 0.05):
            ov = beam_overlaps(12, dth)
            a_edge = math.cos(dth)
            p = _legendre(a_edge, 13)
            pref = 2.0 * math.pi / (dth * math.sqrt(2.0 * math.pi * (1.0 - a_edge)))
            integral = (np.r_[1.0, p[:12]] - p[1:]) / two_l1
            exact = pref * np.sqrt(two_l1 / (4.0 * math.pi)) * integral
            ov_res.append(np.abs(ov - exact) / np.maximum(np.abs(exact), 1e-30))
        checks.append(_check("beam overlap quadrature", 1e-12, ov_res))

    return checks
