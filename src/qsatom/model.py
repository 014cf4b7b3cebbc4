"""Model inputs and the scalar and angular quantities derived from them.

The system is a two-level atom driven by a collimated monochromatic
laser.  It couples to the radiation field through photon
absorption/emission and, in addition, through *direct scattering*: a
number-conserving channel in which a photon changes direction without
changing the atomic state.  For a spherically symmetric atom the direct
channel is described by two unitary scattering matrices, one per atomic
level, each reduced to a sequence of partial-wave phase shifts
``delta_l^+`` (upper level) and ``delta_l^-`` (lower level).

Everything works in reduced units: frequencies, rates and detunings are
measured in units of the natural line width, and cross sections are the
dimensionless combination (omega^2 / 6 pi c^2) * sigma.  Converting to
absolute units is a post-multiplication left to the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT_4PI = math.sqrt(4.0 * math.pi)

# The reference parameter set used by the narrative demos sits exactly on
# the triangle bound, so validation needs a little slack.
_TRIANGLE_TOL = 1e-9


def _sq(v):
    """``v ** 2`` of a float or an array, rounded alike: CPython squares a
    float through libm ``pow``, numpy's ``a ** 2`` is ``a * a`` (off by
    one bit for a few values in a thousand), ``float_power`` is ``pow``."""
    return np.float_power(v, 2.0) if isinstance(v, np.ndarray) else v ** 2


def _sin(v):  # np.sin and np.cos match math on the arguments verify draws
    return np.sin(v) if isinstance(v, np.ndarray) else math.sin(v)


def _cos(v):
    return np.cos(v) if isinstance(v, np.ndarray) else math.cos(v)


def _modulus(c):
    """|c| through libm hypot, as CPython's abs(complex) and unlike np.abs."""
    return np.hypot(c.real, c.imag) if isinstance(c, np.ndarray) else abs(c)


def _any(flags) -> bool:
    """A check's verdict on a float (a bool) or on columns (any element)."""
    return bool(flags.any()) if isinstance(flags, np.ndarray) else flags


def _point(out, *inputs):
    """The return rule of the closed forms: ``out`` as one float, or as the
    resolvent's one matrix, where every input (each field of a scalars or
    drive object too) is 0-d; else ``out`` as computed."""
    for i in inputs:
        for v in (vars(i).values() if hasattr(i, "__dict__") else (i,)):
            if not isinstance(v, float) and np.ndim(v):  # a float skips np.ndim's ~2 us
                return out
    out = np.asarray(out)
    return out.item() if out.ndim < 2 else out.reshape(out.shape[1:])


@dataclass(frozen=True)
class PhaseShiftTable:
    """Truncated partial-wave phase shifts of the direct-scattering matrices.

    ``delta_plus[l]`` and ``delta_minus[l]`` are the phase shifts in
    radians for channel l = 0..lmax in the upper and lower atomic state;
    channels above ``lmax`` are identically zero, which keeps every
    derived sum finite.
    """

    delta_plus: np.ndarray
    delta_minus: np.ndarray

    def __post_init__(self):
        dp = np.array(self.delta_plus, dtype=float, ndmin=1)  # a copy the caller cannot reach
        dm = np.array(self.delta_minus, dtype=float, ndmin=1)
        if dp.ndim != 1 or dm.ndim != 1:
            raise ValueError("phase-shift tables must be one-dimensional")
        if dp.size != dm.size or dp.size == 0:
            raise ValueError("the two tables must have the same nonzero length")
        if not (np.all(np.isfinite(dp)) and np.all(np.isfinite(dm))):
            raise ValueError("phase shifts must be finite")
        dp.setflags(write=False)
        dm.setflags(write=False)
        object.__setattr__(self, "delta_plus", dp)
        object.__setattr__(self, "delta_minus", dm)

    @property
    def lmax(self) -> int:
        return self.delta_plus.size - 1


@dataclass(frozen=True)
class ScatteringScalars:
    """The finite set of reals the integral quantities depend on.

    ``norm2_pg_plus``/``norm2_pg_minus`` are the squared norms of the
    l >= 1 parts of the forward amplitudes g+ and g-, ``norm2_pdg`` the
    squared norm of the l >= 1 part of their difference, and ``eps_r``
    the lamp-shift coefficient (resonance shift per unit intensity, in
    line-width units).  The s-wave shift difference ``s`` and the cross
    term ``cross_pg`` are derived, never supplied, so the set is always
    internally consistent.  The six may also be equal-length columns.
    """

    delta0_plus: float
    delta0_minus: float
    norm2_pg_plus: float
    norm2_pg_minus: float
    norm2_pdg: float
    eps_r: float

    def __post_init__(self):
        vals = tuple(vars(self).values())
        if not all(np.isfinite(v).all() for v in vals):
            raise ValueError("scattering scalars must be finite")
        if min(np.min(v) for v in vals[2:5]) < 0:
            raise ValueError("squared norms must be nonnegative")
        a, b, c = map(np.sqrt, vals[2:5])
        bad = (c > a + b + _TRIANGLE_TOL) | (c < abs(a - b) - _TRIANGLE_TOL)
        if _any(bad):  # quoting the first violating point of columns
            lo, c, hi = (np.broadcast_to(v, np.shape(bad)).flat[np.argmax(bad)]
                         for v in (abs(a - b), c, a + b))
            raise ValueError(
                "triangle bound violated: need |~g+ - ~g-| <= ~dg <= ~g+ + ~g- "
                f"(got {lo:.3e} <= {c:.3e} <= {hi:.3e})")

    @property
    def s(self) -> float:
        """s-wave shift difference delta_0^+ - delta_0^-."""
        return self.delta0_plus - self.delta0_minus

    @property
    def cross_pg(self) -> float:
        """Re<P_perp g+, P_perp g-> via the polarization identity."""
        return 0.5 * (self.norm2_pg_plus + self.norm2_pg_minus - self.norm2_pdg)

    @property
    def norm2_g_plus(self) -> float:
        """Full squared norm of g+, s-wave term included."""
        return _sq(_sin(self.delta0_plus)) + self.norm2_pg_plus

    @property
    def norm2_g_minus(self) -> float:
        """Full squared norm of g-, s-wave term included."""
        return _sq(_sin(self.delta0_minus)) + self.norm2_pg_minus


#: Scalars of the pure absorption/emission model (no direct scattering).
MOLLOW_SCALARS = ScatteringScalars(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class DriveConfig:
    """Laser drive in reduced units.

    ``eta`` is the dimensionless amplitude (eta^2 is the intensity, and
    eta is the Rabi frequency in line-width units), ``ztilde`` the
    reduced detuning (laser minus bare atomic frequency over the line
    width), ``gammatilde`` the reduced instrumental width of the
    spectral detector.  The three may also be equal-length columns.
    """

    eta: float
    ztilde: float
    gammatilde: float = 0.0

    def __post_init__(self):
        if not all(np.isfinite(v).all() for v in (self.eta, self.ztilde, self.gammatilde)):
            raise ValueError("drive parameters must be finite")
        if _any(self.eta < 0):
            raise ValueError("eta must be nonnegative")
        if _any(self.gammatilde < 0):
            raise ValueError("gammatilde must be nonnegative")


@dataclass(frozen=True)
class ReducedScalars:
    """Intensity-dressed scalars entering every closed form.

    ``z`` is twice the lamp-shifted detuning, ``y = z - (eta^2/2) sin 2s``,
    ``kappa2 = 1 + eta^2 ||dg||^2`` the dressed width factor, ``zeta2``
    the squared dressed resonance width, and ``w = z + (eta^2/2) sin 2s``
    the coherence rotation rate; the coherence-decay rate ``bprime =
    kappa2 - i w`` is derived from them.  ``eta``, ``s`` and ``gammatilde``
    are the drive amplitude, s-wave shift difference and detector width
    they were dressed with, so every builder downstream takes this object.
    The closed forms share ``eta2``, ``den = z^2 + zeta^2`` (never below 1),
    ``zb = z^2 + (1 + eta^2 + eta^2 ||P dg||^2)(1 + eta^2 ||P dg||^2)``,
    ``den2 = den^2`` and ``kappa4 = kappa2^2``.  On drive columns, the
    per-point fields are columns.
    """

    z: float
    y: float
    kappa2: float
    zeta2: float
    w: float
    norm2_dg: float
    eta: float
    s: float
    gammatilde: float
    eta2: float
    zb: float
    den: float
    den2: float
    kappa4: float

    def __post_init__(self):
        # the condition that must hold, negated by ^ True (~True is -2): NaN fails, inf passes
        if _any(((self.kappa2 >= 1.0 - 1e-12) & (self.zeta2 >= 1.0 - 1e-12)) ^ True):
            raise ValueError("kappa2 and zeta2 cannot drop below 1")

    @property
    def bprime(self) -> complex:
        """Complex coherence-decay rate kappa2 - i w."""
        return self.kappa2 - 1j * self.w


def scalars_from_phase_shifts(table: PhaseShiftTable) -> ScatteringScalars:
    """Collapse a phase-shift table to the scalar set.

    The l >= 1 sums are (2l+1)-weighted: sin^2 of the individual shifts
    for the norms, sin^2 of the shift difference for the norm of the
    amplitude difference, and -(1/4)(2l+1) sin 2(delta_l^+ - delta_l^-)
    for the lamp-shift coefficient.
    """
    dp, dm = table.delta_plus, table.delta_minus
    w = 2.0 * np.arange(table.lmax + 1) + 1.0
    diff = dp - dm
    return ScatteringScalars(
        delta0_plus=float(dp[0]),
        delta0_minus=float(dm[0]),
        norm2_pg_plus=float(np.sum(w[1:] * np.sin(dp[1:]) ** 2)),
        norm2_pg_minus=float(np.sum(w[1:] * np.sin(dm[1:]) ** 2)),
        norm2_pdg=float(np.sum(w[1:] * np.sin(diff[1:]) ** 2)),
        eps_r=float(-0.25 * np.sum(w[1:] * np.sin(2.0 * diff[1:]))),
    )


def _legendre(x, lmax: int) -> np.ndarray:
    """P_0 .. P_lmax at a float or array ``x``, on a new last axis: Bonnet's
    recurrence in numpy ``legvander``'s operation order, so with its bits."""
    x = np.asarray(x, dtype=float)
    p = [np.ones_like(x), x][:lmax + 1]
    for i in range(2, lmax + 1):
        p.append((p[i - 1] * x * (2 * i - 1) - p[i - 2] * (i - 1)) / i)
    return np.stack(p, axis=-1)


def g_pm(table: PhaseShiftTable, theta: float) -> tuple[complex, complex]:
    """Forward amplitudes (g+(theta), g-(theta)) of the direct channel.

    g(theta) = i sum_l (2l+1)/sqrt(4 pi) e^{i delta_l} sin(delta_l) P_l(cos theta)
    """
    if not 0.0 <= theta <= math.pi:
        raise ValueError("theta must lie in [0, pi]")
    p = _legendre(math.cos(theta), table.lmax)
    w = (2.0 * np.arange(table.lmax + 1) + 1.0) / SQRT_4PI * p
    deltas = np.stack([table.delta_plus, table.delta_minus])
    gp, gm = 1j * np.sum(w * np.exp(1j * deltas) * np.sin(deltas), axis=1)
    return complex(gp), complex(gm)


def reduced_scalars(sc: ScatteringScalars, dc: DriveConfig) -> ReducedScalars:
    """Dress the scattering scalars with the drive intensity and detuning,
    for a float drive or for columns of ``dc`` (and of ``sc``, if wanted)."""
    eta2 = _sq(dc.eta)
    s = sc.s
    norm2_dg = _sq(_sin(s)) + sc.norm2_pdg
    kappa2 = 1.0 + eta2 * norm2_dg
    zeta2 = _sq(p := 1.0 + eta2 * sc.norm2_pdg) + eta2 * (1.0 + kappa2 + eta2 * sc.norm2_pdg)
    z = 2.0 * dc.ztilde - 2.0 * eta2 * sc.eps_r
    half_sin2s = 0.5 * eta2 * _sin(2.0 * s)
    den = (z2 := _sq(z)) + zeta2
    # positional, in field order: keywords made this per-point call ~20% slower (CPython 3.11)
    return ReducedScalars(z, z - half_sin2s, kappa2, zeta2, z + half_sin2s, norm2_dg, dc.eta, s,
                          dc.gammatilde, eta2, z2 + (1.0 + eta2 + eta2 * sc.norm2_pdg) * p, den,
                          _sq(den), _sq(kappa2))
