"""Command line: parameter sweeps to CSV/JSON and the verification gate.

Subcommands:
    qsatom xsection --config cfg.json [--format csv|json] [--out f]
    qsatom spectrum --config cfg.json [...]
    qsatom verify   [--config cfg.json] [...]

Sweeps walk the (eta2, ztilde) grid once, in sorted order, in one
thread; ``--threads N`` is still accepted, for old scripts, and ignored.

Exit codes: 0 success, 1 numerical or check failure, 2 config error.
All numbers are reduced units; CSV rows carry 17 significant digits so
output is byte-stable across runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import oracle, spectrum, xsection
from .model import DriveConfig, PhaseShiftTable, ScatteringScalars, scalars_from_phase_shifts

SCHEMA = "qsatom v1"

_SCALAR_KEYS = ("delta0_plus", "delta0_minus", "norm2_pg_plus",
                "norm2_pg_minus", "norm2_pdg", "eps_r")


class ConfigError(ValueError):
    """Invalid run configuration (maps to exit code 2)."""


@dataclass
class RunConfig:
    mode: str
    scalars: ScatteringScalars | None
    table: PhaseShiftTable | None
    eta2: list[float]
    ztilde: list[float]
    x_grid: list[float]
    gammatilde: float
    mollow_reference: bool

    def scattering_scalars(self) -> ScatteringScalars:
        if self.mode == "scalars":
            return self.scalars
        return scalars_from_phase_shifts(self.table)


def _finite_list(raw, key) -> list[float]:
    if raw is None:
        return []
    if not isinstance(raw, list) or any(isinstance(v, bool) for v in raw):
        raise ConfigError(f"'{key}' must be a list of numbers")
    try:
        vals = [float(v) for v in raw]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"'{key}' must contain only numbers") from exc
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"'{key}' must contain only finite numbers")
    return vals


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    mode = doc.get("mode")
    if mode not in ("scalars", "phase_shifts"):
        raise ConfigError("'mode' must be 'scalars' or 'phase_shifts'")
    has_scalars = "scalars" in doc
    has_table = "phase_shifts" in doc
    if has_scalars == has_table:
        raise ConfigError("exactly one of 'scalars' / 'phase_shifts' must be present")
    if (mode == "scalars") != has_scalars:
        raise ConfigError(f"mode '{mode}' does not match the supplied parameter block")

    scalars = table = None
    if has_scalars:
        block = doc["scalars"]
        missing = [k for k in _SCALAR_KEYS if k not in block]
        if missing:
            raise ConfigError(f"scalars block is missing {missing}")
        try:
            scalars = ScatteringScalars(**{k: float(block[k]) for k in _SCALAR_KEYS})
        except ValueError as exc:
            raise ConfigError(f"invalid scalars: {exc}") from exc
    else:
        block = doc["phase_shifts"]
        try:
            table = PhaseShiftTable(
                delta_plus=np.asarray(block["delta_plus"], dtype=float),
                delta_minus=np.asarray(block["delta_minus"], dtype=float))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid phase_shifts block: {exc}") from exc

    gammatilde = doc.get("gammatilde", 0.0)
    try:
        gammatilde = float(gammatilde)
    except (TypeError, ValueError) as exc:
        raise ConfigError("'gammatilde' must be a number") from exc
    if not math.isfinite(gammatilde) or gammatilde < 0:
        raise ConfigError("'gammatilde' must be finite and nonnegative")
    eta2 = _finite_list(doc.get("eta2"), "eta2")
    if any(v < 0 for v in eta2):
        raise ConfigError("'eta2' is an intensity and must be nonnegative")
    mollow_reference = doc.get("mollow_reference", False)
    if not isinstance(mollow_reference, bool):
        raise ConfigError("'mollow_reference' must be true or false")

    return RunConfig(
        mode=mode,
        scalars=scalars,
        table=table,
        eta2=eta2,
        ztilde=_finite_list(doc.get("ztilde"), "ztilde"),
        x_grid=_finite_list(doc.get("x_grid"), "x_grid"),
        gammatilde=gammatilde,
        mollow_reference=mollow_reference,
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(doc)


def _drive_grid(cfg: RunConfig) -> list[tuple[float, float]]:
    """The (eta2, ztilde) sweep points, in sorted grid order."""
    if not cfg.eta2:
        raise ConfigError("'eta2' sweep list must be non-empty")
    if not cfg.ztilde:
        raise ConfigError("'ztilde' sweep list must be non-empty")
    return [(e2, zt) for e2 in sorted(cfg.eta2) for zt in sorted(cfg.ztilde)]


def run_xsection_sweep(cfg: RunConfig):
    """Rows (eta2, ztilde, sigma_tot, sigma_el, sigma_inel), ordered."""
    points = _drive_grid(cfg)
    sc = cfg.scattering_scalars()
    rows = []
    for e2, zt in points:
        triple = xsection.cross_sections(sc, DriveConfig(math.sqrt(e2), zt, cfg.gammatilde))
        rows.append((e2, zt, triple.total, triple.elastic, triple.inelastic))
    return ["eta2", "ztilde", "sigma_tot", "sigma_el", "sigma_inel"], rows


def run_spectrum_sweep(cfg: RunConfig):
    """Rows (eta2, ztilde, x, Sigma_tot, Sigma_inel, Sigma_el_lorentzian),
    plus the no-direct-scattering reference when requested."""
    points = _drive_grid(cfg)
    if not cfg.x_grid:
        raise ConfigError("'x_grid' sweep list must be non-empty")
    if cfg.gammatilde <= 0:
        raise ConfigError("spectrum sweeps need gammatilde > 0")
    sc = cfg.scattering_scalars()
    xs = np.asarray(sorted(cfg.x_grid), dtype=float)
    gt = cfg.gammatilde
    columns = ["eta2", "ztilde", "x", "Sigma_tot", "Sigma_inel", "Sigma_el_lorentzian"]
    if cfg.mollow_reference:
        columns.append("Sigma_tot_mollow")
    rows = []
    for e2, zt in points:
        eta = math.sqrt(e2)
        dc = DriveConfig(eta, zt, gt)
        inel = spectrum.sigma_inel_x(sc, dc, xs)
        weight, _ = spectrum.elastic_line(sc, dc)
        lor = spectrum.elastic_lorentzian(weight, gt, xs)
        cols = [xs, lor + inel, inel, lor]
        if cfg.mollow_reference:
            m_inel = spectrum.mollow_inel_x(zt, eta, gt, xs)
            m_el = xsection.mollow_xsections(zt, eta).elastic
            cols.append(m_inel + spectrum.elastic_lorentzian(m_el, gt, xs))
        if not np.isfinite(cols).all():
            raise ArithmeticError(f"non-finite spectrum at (eta2, ztilde) = ({e2}, {zt})")
        rows.extend((e2, zt) + r for r in zip(*(c.tolist() for c in cols)))
    return columns, rows


def run_verify(cfg: RunConfig | None):
    """Full oracle and invariant suite; returns (checks, exit_code)."""
    table = scalars = None
    drives = None
    if cfg is not None:
        if cfg.mode == "phase_shifts":
            table = cfg.table
        else:
            scalars = cfg.scalars
        if cfg.eta2 and cfg.ztilde:
            gt = cfg.gammatilde if cfg.gammatilde > 0 else 0.6
            drives = [DriveConfig(math.sqrt(e2), zt, gt)
                      for e2 in sorted(cfg.eta2)[:2] for zt in sorted(cfg.ztilde)[:1]]
    checks = oracle.run_verification(table=table, scalars=scalars, drives=drives)
    code = 0 if all(c.passed for c in checks) else 1
    return checks, code


def format_csv(columns, rows) -> str:
    lines = [f"# {SCHEMA}, reduced units (alpha2=1), columns: " + ",".join(columns)]
    for row in rows:
        lines.append(",".join(f"{v:.16e}" for v in row))
    return "\n".join(lines) + "\n"


def format_json(columns, rows) -> str:
    doc = {"schema": SCHEMA, "units": "reduced (alpha2=1)",
           "columns": list(columns), "rows": [list(r) for r in rows]}
    return json.dumps(doc, indent=1) + "\n"


def format_verify_text(checks) -> str:
    width = max(len(c.name) for c in checks) + 2
    lines = [f"{'check'.ljust(width)} tolerance   residual    status"]
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"{c.name.ljust(width)} {c.tolerance:<11.1e} {c.residual:<11.3e} {status}")
    n_pass = sum(c.passed for c in checks)
    lines.append(f"overall: {'PASS' if n_pass == len(checks) else 'FAIL'} "
                 f"({n_pass}/{len(checks)})")
    return "\n".join(lines) + "\n"


def format_verify_json(checks) -> str:
    doc = {"schema": SCHEMA, "checks": [c.to_dict() for c in checks],
           "passed": all(c.passed for c in checks)}
    return json.dumps(doc, indent=1) + "\n"


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qsatom")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, need_cfg in (("xsection", True), ("spectrum", True), ("verify", False)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=need_cfg, help="JSON run configuration")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility and ignored; sweeps run serially")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else None
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "verify":
            checks, code = run_verify(cfg)
            text = format_verify_json(checks) if args.format == "json" \
                else format_verify_text(checks)
            _emit(text, args.out)
            return code
        if args.command == "xsection":
            columns, rows = run_xsection_sweep(cfg)
        else:
            columns, rows = run_spectrum_sweep(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1

    text = format_json(columns, rows) if args.format == "json" else format_csv(columns, rows)
    _emit(text, args.out)
    return 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
