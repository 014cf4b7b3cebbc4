"""Correctness gate applied to the output of every benchmark call.

A call passes when it exited with 0 and its output file is what the
config asks for: the schema header, one row per grid point in sorted
grid order, only finite values, and the cross-section sum rule on every
xsection row; for verify, every check present and PASS.  Files are read
a line at a time where the format allows, so the gate does not raise
the peak memory the benchmark reports.
"""

from __future__ import annotations

import itertools
import json
import math

SCHEMA = "qsatom v1"
XSECTION_COLUMNS = ["eta2", "ztilde", "sigma_tot", "sigma_el", "sigma_inel"]
SPECTRUM_COLUMNS = ["eta2", "ztilde", "x", "Sigma_tot", "Sigma_inel",
                    "Sigma_el_lorentzian", "Sigma_tot_mollow"]
CSV_HEADER = f"# {SCHEMA}, reduced units (alpha2=1), columns: "
SUM_RULE_RTOL = 1e-12

# Checks that verify reports on a phase-shift config.  More may be added;
# none may go missing.
VERIFY_CHECKS = frozenset({
    "drift determinant identity", "equilibrium stationarity",
    "matrix exponential vs RK4", "adjugate resolvent vs generic inverse",
    "time-domain spectrum vs resolvent", "cross-section sum rule",
    "spectral quadrature convergence", "spectral normalization sum rules",
    "spectral mirror symmetry", "spectral positivity",
    "Mollow closed form vs resolvent", "finite-beam photon balance",
    "beam overlap quadrature",
})


class GateError(Exception):
    """An output that fails the correctness gate."""


def _grid(config: dict):
    return [(e2, zt) for e2 in sorted(config["eta2"]) for zt in sorted(config["ztilde"])]


def _check_row(i: int, row, expect_prefix) -> None:
    if not all(isinstance(v, float) and math.isfinite(v) for v in row):
        raise GateError(f"row {i}: non-finite or non-float value in {row!r}")
    if tuple(row[:len(expect_prefix)]) != tuple(expect_prefix):
        raise GateError(f"row {i}: grid point {row[:len(expect_prefix)]!r}, "
                        f"expected {expect_prefix!r}")


def check_xsection_json(path: str, config: dict) -> int:
    """Gate an ``xsection --format json`` output; returns its row count."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != SCHEMA or doc.get("columns") != XSECTION_COLUMNS:
        raise GateError(f"schema/columns mismatch: {doc.get('schema')!r}, "
                        f"{doc.get('columns')!r}")
    rows = doc["rows"]
    grid = _grid(config)
    if len(rows) != len(grid):
        raise GateError(f"{len(rows)} rows, expected {len(grid)}")
    for i, (row, point) in enumerate(zip(rows, grid)):
        if len(row) != len(XSECTION_COLUMNS):
            raise GateError(f"row {i}: {len(row)} fields")
        _check_row(i, row, point)
        _, _, tot, el, inel = row
        if abs(el + inel - tot) > SUM_RULE_RTOL * abs(tot):
            raise GateError(f"row {i}: sigma_el + sigma_inel != sigma_tot "
                            f"({el!r} + {inel!r} vs {tot!r})")
    return len(rows)


def check_spectrum_csv(path: str, config: dict) -> int:
    """Gate a ``spectrum --format csv`` output with the Mollow column;
    returns its row count."""
    axes = [sorted(config[k]) for k in ("eta2", "ztilde", "x_grid")]
    expected = itertools.product(*axes)
    n_expected = math.prod(len(a) for a in axes)
    n = 0
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADER + ",".join(SPECTRUM_COLUMNS):
            raise GateError(f"schema header mismatch: {header!r}")
        for line in fh:
            point = next(expected, None)
            if point is None:
                raise GateError(f"more than {n_expected} rows")
            fields = line.rstrip("\n").split(",")
            if len(fields) != len(SPECTRUM_COLUMNS):
                raise GateError(f"row {n}: {len(fields)} fields")
            try:
                row = [float(f) for f in fields]
            except ValueError as exc:
                raise GateError(f"row {n}: {exc}") from None
            _check_row(n, row, point)
            n += 1
    if n != n_expected:
        raise GateError(f"{n} rows, expected {n_expected}")
    return n


def check_verify_json(path: str) -> int:
    """Gate a ``verify --format json`` output; returns its check count."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    checks = doc.get("checks") or []
    names = {c.get("check") for c in checks}
    missing = VERIFY_CHECKS - names
    if missing:
        raise GateError(f"verify checks missing: {sorted(missing)}")
    failed = [c.get("check") for c in checks if c.get("passed") is not True]
    if failed or doc.get("passed") is not True:
        raise GateError(f"verify checks not PASS: {failed}")
    return len(checks)


def check_call(command: str, exit_code: int, path: str, config: dict) -> int:
    """Gate one CLI call; returns the rows (or checks) it produced."""
    if exit_code != 0:
        raise GateError(f"exit code {exit_code}")
    if command == "xsection":
        return check_xsection_json(path, config)
    if command == "spectrum":
        return check_spectrum_csv(path, config)
    return check_verify_json(path)
