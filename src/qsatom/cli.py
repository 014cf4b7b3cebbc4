"""Command line: parameter sweeps to CSV/JSON and the verification gate.

Subcommands:
    qsatom xsection --config cfg.json [--format csv|json] [--out f]
    qsatom spectrum --config cfg.json [...]
    qsatom verify   [--config cfg.json] [...]

Sweeps are columnar: ``run_*_sweep`` return (names, axes, columns), the
sorted sweep lists and one 1-D array per quantity over their product,
computed and checked before the output is opened (xsection in one numpy
pass, ``xsection.cross_section_grid``).  The formatters write blocks of
rows sharing all but the last axis value (one drive point of a
spectrum), spelling each axis value once.  The bytes are those of
per-point floats: the grid squares through ``float_power`` and takes
moduli through ``hypot``, which round as CPython's ``**`` and ``abs``.
``--threads N`` is accepted, for old scripts, and ignored.

Exit codes: 0 success, 1 numerical or check failure, 2 config error or
unwritable output.  All numbers are reduced units; CSV rows carry 17
significant digits so output is byte-stable across runs.
"""

from __future__ import annotations

import argparse
import itertools
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
    scalars: ScatteringScalars       # derived from the table in phase_shifts mode
    table: PhaseShiftTable | None
    eta2: list[float]
    ztilde: list[float]
    x_grid: list[float]
    gammatilde: float
    mollow_reference: bool


def _number(raw, key) -> float:
    """``float(raw)``, refusing booleans (``float(True)`` is 1.0)."""
    try:
        if not isinstance(raw, bool):
            return float(raw)
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"'{key}' must be a number, not {raw!r}")


def _finite_list(raw, key) -> list[float]:
    if raw is None:
        return []
    if not isinstance(raw, list):
        raise ConfigError(f"'{key}' must be a list of numbers")
    vals = [_number(v, key) for v in raw]
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

    table = None
    if has_scalars:
        block = doc["scalars"]
        missing = [k for k in _SCALAR_KEYS if not isinstance(block, dict) or k not in block]
        if missing:
            raise ConfigError(f"scalars block is missing {missing}")
        try:
            scalars = ScatteringScalars(**{k: _number(block[k], k) for k in _SCALAR_KEYS})
        except ValueError as exc:
            raise ConfigError(f"invalid scalars: {exc}") from exc
    else:
        block = doc["phase_shifts"]
        try:
            table = PhaseShiftTable(*(_finite_list(block[k], k)
                                      for k in ("delta_plus", "delta_minus")))
            scalars = scalars_from_phase_shifts(table)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid phase_shifts block: {exc}") from exc

    gammatilde = _number(doc.get("gammatilde", 0.0), "gammatilde")
    if not math.isfinite(gammatilde) or gammatilde < 0:
        raise ConfigError("'gammatilde' must be finite and nonnegative")
    eta2 = _finite_list(doc.get("eta2"), "eta2")
    if any(v < 0 for v in eta2):
        raise ConfigError("'eta2' is an intensity and must be nonnegative")
    mollow_reference = doc.get("mollow_reference", False)
    if not isinstance(mollow_reference, bool):
        raise ConfigError("'mollow_reference' must be true or false")

    return RunConfig(scalars, table, eta2, _finite_list(doc.get("ztilde"), "ztilde"),
                     _finite_list(doc.get("x_grid"), "x_grid"), gammatilde, mollow_reference)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(doc)


def _axes(cfg: RunConfig, *keys) -> list[list[float]]:
    """The sorted sweep lists named by ``keys``; the grid is their product."""
    for key in keys:
        if not getattr(cfg, key):
            raise ConfigError(f"'{key}' sweep list must be non-empty")
    return [sorted(getattr(cfg, key)) for key in keys]


def run_xsection_sweep(cfg: RunConfig):
    """(names, axes, columns) of sigma_tot, sigma_el, sigma_inel over the
    (eta2, ztilde) grid; see :func:`run_spectrum_sweep`."""
    axes = e2s, zts = _axes(cfg, "eta2", "ztilde")
    t = xsection.cross_section_grid(cfg.scalars, np.repeat(e2s, len(zts)),
                                    np.tile(zts, len(e2s)))
    return (["eta2", "ztilde", "sigma_tot", "sigma_el", "sigma_inel"], axes,
            [t.total, t.elastic, t.inelastic])


def run_spectrum_sweep(cfg: RunConfig):
    """(names, axes, columns) of Sigma_tot, Sigma_inel,
    Sigma_el_lorentzian (plus the no-direct-scattering reference when
    requested): the sorted eta2, ztilde and x lists, and one column per
    quantity over their product (x fastest), each checked finite."""
    axes = _axes(cfg, "eta2", "ztilde", "x_grid")
    if cfg.gammatilde <= 0:
        raise ConfigError("spectrum sweeps need gammatilde > 0")
    sc, gt, xs = cfg.scalars, cfg.gammatilde, np.array(axes[-1])
    names = ["eta2", "ztilde", "x", "Sigma_tot", "Sigma_inel", "Sigma_el_lorentzian"]
    if cfg.mollow_reference:
        names.append("Sigma_tot_mollow")
    blocks = []
    with np.errstate(all="ignore"):  # overflow shows as inf/nan, refused below
        for e2, zt in itertools.product(*axes[:2]):
            eta = math.sqrt(e2)
            dc = DriveConfig(eta, zt, gt)
            inel = spectrum.sigma_inel_x(sc, dc, xs)
            weight, _ = spectrum.elastic_line(sc, dc)
            lor = spectrum.elastic_lorentzian(weight, gt, xs)
            cols = [lor + inel, inel, lor]
            if cfg.mollow_reference:
                m_inel = spectrum.mollow_inel_x(zt, eta, gt, xs)
                m_el = xsection.mollow_xsections(zt, eta).elastic
                cols.append(m_inel + spectrum.elastic_lorentzian(m_el, gt, xs))
            if not np.isfinite(cols).all():
                raise ArithmeticError(f"non-finite spectrum at (eta2, ztilde) = ({e2}, {zt})")
            blocks.append(cols)
    return names, axes, [np.concatenate(c) for c in zip(*blocks)]


def run_verify(cfg: RunConfig | None):
    """Full oracle and invariant suite; returns (checks, exit_code)."""
    table, scalars, drives = (cfg.table, cfg.scalars, None) if cfg else (None, None, None)
    if cfg and cfg.eta2 and cfg.ztilde:
        gt = cfg.gammatilde if cfg.gammatilde > 0 else 0.6
        drives = [DriveConfig(math.sqrt(e2), zt, gt)
                  for e2 in sorted(cfg.eta2)[:2] for zt in sorted(cfg.ztilde)[:1]]
    checks = oracle.run_verification(table=table, scalars=scalars, drives=drives)
    code = 0 if all(c.passed for c in checks) else 1
    return checks, code


def _write_rows(out, axes, columns, num, sep, row_open="", row_close="", row_sep="\n"):
    """Write the rows, one block of rows sharing all but the last axis
    value at a time; ``num`` spells a float, and each axis value is
    spelled once per block or once in all, never once per row."""
    *lead, last = axes
    n = len(last)
    last = [num % v for v in last]
    for k, values in enumerate(itertools.product(*lead)):
        row = (row_open + "".join(num % v + sep for v in values) + "%s"
               + (sep + num) * len(columns) + row_close)
        block = [c[k * n:(k + 1) * n].tolist() for c in columns]
        out.write((row_sep if k else "") + row_sep.join(map(row.__mod__, zip(last, *block))))


def format_csv(out, names, axes, columns) -> None:
    out.write(f"# {SCHEMA}, reduced units (alpha2=1), columns: " + ",".join(names) + "\n")
    _write_rows(out, axes, columns, "%.16e", ",")
    out.write("\n")


def format_json(out, names, axes, columns) -> None:
    """The bytes of ``json.dumps(doc, indent=1)``, written in blocks."""
    head = json.dumps({"schema": SCHEMA, "units": "reduced (alpha2=1)",
                       "columns": list(names)}, indent=1)
    out.write(head[:-2] + ',\n "rows": [\n')
    _write_rows(out, axes, columns, "%r", ",\n   ", "  [\n   ", "\n  ]", ",\n")
    out.write("\n ]\n}\n")


def format_verify_text(out, checks) -> None:
    width = max(len(c.name) for c in checks) + 2
    lines = [f"{'check'.ljust(width)} tolerance   residual    status"]
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"{c.name.ljust(width)} {c.tolerance:<11.1e} {c.residual:<11.3e} {status}")
    n_pass = sum(c.passed for c in checks)
    lines.append(f"overall: {'PASS' if n_pass == len(checks) else 'FAIL'} "
                 f"({n_pass}/{len(checks)})")
    out.write("\n".join(lines) + "\n")


def format_verify_json(out, checks) -> None:
    doc = {"schema": SCHEMA, "checks": [c.to_dict() for c in checks],
           "passed": all(c.passed for c in checks)}
    out.write(json.dumps(doc, indent=1) + "\n")


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
        if args.command == "verify":
            checks, code = run_verify(cfg)
            result = [checks]
            fmt = format_verify_json if args.format == "json" else format_verify_text
        else:
            run = run_xsection_sweep if args.command == "xsection" else run_spectrum_sweep
            result, code = run(cfg), 0
            fmt = format_json if args.format == "json" else format_csv
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    try:  # nothing is opened before every value is computed and checked
        if args.out is None:
            fmt(sys.stdout, *result)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fmt(fh, *result)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    return code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
