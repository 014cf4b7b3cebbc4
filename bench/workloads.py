"""The benchmark's workloads and the seeded configs they run on.

Each workload is one CLI path of qsatom.  The seed draws a config file;
the program under test sees only that file, never the seed.  Draws are
made once and never repeated to steer around an input that fails: a
failing point is reported as a failure of the run.

Grid sizes are fixed per workload, so the work done per call does not
depend on the seed; only the values drawn do.  The stdlib generator is
used so that a seed gives the same config whatever numpy is installed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

# Sizes of the swept grids.  One call takes a few tenths of a second on a
# 2-core box, so a run of 20 s holds dozens of calls and its 90th
# percentile is set by several of them.
XSECTION_GRID = (100, 100)         # eta2 x ztilde
SPECTRUM_GRID = (12, 16, 200)      # eta2 x ztilde x x_grid


def draw_scalars(rng: random.Random) -> dict:
    """Scattering scalars inside the triangle bound.

    The same distribution as the oracle's random parameter points
    (s-wave shifts in +-0.4, squared l >= 1 norms in [0, 0.1], the norm
    of the difference between the triangle limits, a small lamp shift),
    drawn here with independent code.
    """
    d0p = rng.uniform(-0.4, 0.4)
    d0m = rng.uniform(-0.4, 0.4)
    pgp = rng.uniform(0.0, 0.1)
    pgm = rng.uniform(0.0, 0.1)
    lo = (math.sqrt(pgp) - math.sqrt(pgm)) ** 2
    hi = (math.sqrt(pgp) + math.sqrt(pgm)) ** 2
    return {"delta0_plus": d0p, "delta0_minus": d0m,
            "norm2_pg_plus": pgp, "norm2_pg_minus": pgm,
            "norm2_pdg": rng.uniform(lo, hi), "eps_r": rng.uniform(-0.01, 0.01)}


def _sorted_draws(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    return sorted(rng.uniform(lo, hi) for _ in range(n))


def xsection_config(rng: random.Random) -> dict:
    n_eta, n_z = XSECTION_GRID
    return {"mode": "scalars", "scalars": draw_scalars(rng),
            "eta2": _sorted_draws(rng, n_eta, 0.0, 40.0),
            "ztilde": _sorted_draws(rng, n_z, -8.0, 8.0),
            "gammatilde": rng.uniform(0.0, 1.5)}


def spectrum_config(rng: random.Random) -> dict:
    n_eta, n_z, n_x = SPECTRUM_GRID
    return {"mode": "scalars", "scalars": draw_scalars(rng),
            "eta2": _sorted_draws(rng, n_eta, 0.5, 40.0),
            "ztilde": _sorted_draws(rng, n_z, -8.0, 8.0),
            "x_grid": _sorted_draws(rng, n_x, -20.0, 20.0),
            "gammatilde": rng.uniform(0.05, 1.5),
            "mollow_reference": True}


def verify_config(rng: random.Random) -> dict:
    """A small phase-shift table and two drives near the built-in ones.

    The shifts are of the size of the built-in table (s-wave within
    +-0.15, l = 1..3 within +-0.05).  The two drives lie inside the
    range of the built-in ones (eta^2 <= 18, |ztilde| <= 2,
    gammatilde 0.6): one near the built-in weak drive eta^2 = 4, one at
    eta^2 near 6, sharing one detuning.  The cost of the time-domain
    oracle grows steeply with eta^2 and with the l >= 1 scattering, so
    narrow bands keep the work per call steady from seed to seed, and
    the second drive stays well below 18 so a call takes about 3 s.
    """
    lmax = 3
    delta_plus = [rng.uniform(-0.15, 0.15)] + [rng.uniform(-0.05, 0.05) for _ in range(lmax)]
    delta_minus = [rng.uniform(-0.15, 0.15)] + [rng.uniform(-0.05, 0.05) for _ in range(lmax)]
    return {"mode": "phase_shifts",
            "phase_shifts": {"delta_plus": delta_plus, "delta_minus": delta_minus},
            "eta2": [rng.uniform(3.5, 4.5), rng.uniform(5.5, 6.5)],
            "ztilde": [rng.uniform(-2.0, 2.0)],
            "gammatilde": 0.6}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str                       # qsatom subcommand
    fmt: str                           # --format
    make_config: Callable[[random.Random], dict]

    def config(self, seed: int) -> dict:
        return self.make_config(random.Random(f"{self.name}:{seed}"))

    def argv(self, config_path: str, out_path: str) -> list[str]:
        return [self.command, "--config", config_path, "--format", self.fmt,
                "--out", out_path, "--threads", "1"]

    def points(self, config: dict) -> int:
        """(eta2, ztilde) drive points the command evaluates."""
        if self.command == "verify":
            return min(2, len(config["eta2"])) * min(1, len(config["ztilde"]))
        return len(config["eta2"]) * len(config["ztilde"])

    def rows(self, config: dict) -> int:
        """Rows one sweep call writes."""
        rows = self.points(config)
        if self.command == "spectrum":
            rows *= len(config["x_grid"])
        return rows


WORKLOADS = {w.name: w for w in (
    Workload("xsection-grid",
             "per-point Python in model and xsection plus JSON formatting; "
             "no spectrum or oracle work",
             "xsection", "json", xsection_config),
    Workload("spectrum-grid",
             "vectorised sigma_inel_x, per-row tuples and CSV writing with "
             "200 x values per point; memory peaks here",
             "spectrum", "csv", spectrum_config),
    Workload("verify-default",
             "the oracle layer (time-domain RK4, ODE evolve, quadrature, "
             "finite beam), which both sweeps bypass",
             "verify", "json", verify_config),
)}


def write_config(config: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
