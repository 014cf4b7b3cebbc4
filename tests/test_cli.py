import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import qsatom
import qsatom.spectrum
from qsatom import mollow_xsections
from qsatom.cli import (ConfigError, format_csv, main, parse_config,
                        run_xsection_sweep)

FANO_BLOCK = {"delta0_plus": -0.03, "delta0_minus": 0.13,
              "norm2_pg_plus": 0.005, "norm2_pg_minus": 0.005,
              "norm2_pdg": 0.02, "eps_r": -0.001}

MOLLOW_BLOCK = {k: 0.0 for k in FANO_BLOCK}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _fano_config(**over):
    doc = {"mode": "scalars", "scalars": dict(FANO_BLOCK),
           "eta2": [10.0, 18.0], "ztilde": [-4.0, 0.0, 3.0],
           "x_grid": [-6.0, -1.0, 0.0, 1.0, 6.0], "gammatilde": 0.6}
    doc.update(over)
    return doc


def test_parse_config_requires_single_mode_block():
    with pytest.raises(ConfigError):
        parse_config(_fano_config(phase_shifts={"delta_plus": [0], "delta_minus": [0]}))
    with pytest.raises(ConfigError):
        parse_config({"mode": "scalars", "eta2": [1.0], "ztilde": [0.0]})
    with pytest.raises(ConfigError):
        parse_config(_fano_config(mode="phase_shifts"))
    with pytest.raises(ConfigError):
        parse_config(_fano_config(mode="other"))


def test_parse_config_rejects_non_finite():
    with pytest.raises(ConfigError):
        parse_config(_fano_config(ztilde=[0.0, float("inf")]))
    with pytest.raises(ConfigError):
        parse_config(_fano_config(gammatilde=-0.1))


def test_empty_sweep_list_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.json", _fano_config(ztilde=[]))
    assert main(["xsection", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


def test_missing_config_file_exits_2(capsys):
    assert main(["xsection", "--config", "/nonexistent/cfg.json"]) == 2


def test_spectrum_rejects_zero_width(tmp_path, capsys):
    cfg = _write(tmp_path, "g0.json", _fano_config(gammatilde=0.0))
    assert main(["spectrum", "--config", cfg]) == 2


def test_negative_intensity_is_a_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "neg.json", _fano_config(eta2=[4.0, -1.0]))
    for command in ("xsection", "spectrum", "verify"):
        assert main([command, "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("over", [{"mollow_reference": "no"}, {"eta2": [True]},
                                  {"x_grid": [0.0, False]}])
def test_config_types_are_strict(tmp_path, capsys, over):
    # bool("no") is True and float(True) is 1.0; neither may slip through
    cfg = _write(tmp_path, "types.json", _fano_config(**over))
    assert main(["spectrum", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("block, over", [
    ("top", {"gammatilde": True}),
    ("scalars", {"eps_r": True}),
    ("phase_shifts", {"delta_plus": [True, 0.0]}),
    ("phase_shifts", {"delta_minus": [0.13, False]}),
])
def test_config_booleans_are_never_numbers(tmp_path, capsys, block, over):
    # float(True) is 1.0: a JSON boolean must not pass for a number anywhere
    doc = _fano_config()
    if block == "phase_shifts":
        del doc["scalars"]
        doc.update(mode="phase_shifts", phase_shifts=dict(
            {"delta_plus": [-0.03, 0.0], "delta_minus": [0.13, 0.0]}, **over))
    elif block == "scalars":
        doc["scalars"].update(over)
    else:
        doc.update(over)
    cfg = _write(tmp_path, "bools.json", doc)
    assert main(["xsection", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["xsection", "spectrum", "verify"])
def test_unwritable_output_is_an_error_not_a_traceback(tmp_path, capsys, command):
    cfg = _write(tmp_path, "fano.json", _fano_config())
    out = tmp_path / "no" / "such" / "dir" / "f.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("cannot write output: ")


@pytest.mark.parametrize("command, over, point", [
    ("xsection", {"eta2": [1e200]}, "(1e+200, -4.0)"),
    ("spectrum", {"x_grid": [1e160]}, "(10.0, -4.0)"),
    ("spectrum", {"gammatilde": 1e-300}, "(10.0, -4.0)"),
])
def test_numerical_failure_is_one_stderr_line(tmp_path, command, over, point):
    # numpy overflow warnings must not reach the user ahead of the one
    # "numerical failure" line; the default warning filters are in force
    cfg = _write(tmp_path, "nonfinite.json", _fano_config(**over))
    out = tmp_path / "out.csv"
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(qsatom.__file__)))
    proc = subprocess.run([sys.executable, "-m", "qsatom.cli", command, "--config", cfg,
                           "--out", str(out)], capture_output=True, env=env)
    assert proc.returncode == 1
    err = proc.stderr.decode().splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: "), err
    assert f"(eta2, ztilde) = {point}" in err[0]
    assert not out.exists()


# Recorded before the sweeps became columnar, from the per-point path.
# The Fano zero of delta0_minus = 0.13 (ztilde = 0.5 cot 0.13 = 3.83 at
# eta2 -> 0) with ||P g-||^2 = 0 so nothing hides it, ||P dg||^2 on the
# triangle bound, eta2 from 0 to 1e3, ztilde = +-1e4, a narrow detector
# and the Mollow reference column.
HARD_CORNERS = {
    "mode": "scalars",
    "scalars": {"delta0_plus": -0.03, "delta0_minus": 0.13, "norm2_pg_plus": 0.005,
                "norm2_pg_minus": 0.0, "norm2_pdg": 0.005, "eps_r": -0.001},
    "eta2": [1e3, 0, 1e-6, 4.0], "ztilde": [3.85, 3.8, 3.83, 3.8325, -1e4, 1e4, 0.0],
    "x_grid": [-40.0, -3.0, 0.0, 0.5, 3.0, 40.0], "gammatilde": 0.001,
    "mollow_reference": True}
HARD_CORNER_SHA256 = {
    ("xsection", "csv"): "8fa3898bf2b7dc0aeb86cd8accb2215fd289c2cdaa637c5bf10204cb0614810f",
    ("xsection", "json"): "b61d8a28cdaa08559fbf032b9255c3acb78dc95337a6889478fc53d2809d0d44",
    ("spectrum", "csv"): "4a61387c1a302ac530c17e7e62f34d5f2e81b78cff3c4b4caad6239cc21aef2b",
    ("spectrum", "json"): "be829f7710721d190094f78d38bcc71e302f128ef5477f80745b0a4fcec7f813",
}


@pytest.mark.parametrize("command, fmt", sorted(HARD_CORNER_SHA256))
def test_sweep_bytes_match_the_recorded_golden_output(tmp_path, command, fmt):
    cfg = _write(tmp_path, "corners.json", HARD_CORNERS)
    out = tmp_path / f"out.{fmt}"
    assert main([command, "--config", cfg, "--format", fmt, "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == HARD_CORNER_SHA256[command, fmt]


@pytest.mark.parametrize("over", [{"x_grid": [1e160]}, {"gammatilde": 1e-300}])
def test_spectrum_refuses_non_finite_rows(tmp_path, capsys, over):
    # det overflows far out in x; the elastic Lorentzian is inf at x = 0
    # for a vanishing width.  Neither may be written as a number.
    cfg = _write(tmp_path, "nonfinite.json", _fano_config(**over))
    out = tmp_path / "out.csv"
    with np.errstate(all="ignore"):
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "numerical failure" in err and "(eta2, ztilde) = (10.0, -4.0)" in err
    assert not out.exists()


def test_xsection_sweep_rows_and_plateau(tmp_path):
    doc = _fano_config(eta2=[10.0], ztilde=[-1e4, 0.0, 1e4])
    cfg = parse_config(doc)
    names, axes, (tot, el, inel) = run_xsection_sweep(cfg)
    assert names == ["eta2", "ztilde", "sigma_tot", "sigma_el", "sigma_inel"]
    assert axes == [[10.0], [-1e4, 0.0, 1e4]]
    plateau = 0.005 + math.sin(0.13) ** 2
    assert tot[0] == pytest.approx(plateau, abs=5e-4)
    assert tot[2] == pytest.approx(plateau, abs=5e-4)
    assert el + inel == pytest.approx(tot, rel=1e-12)


def test_xsection_sweep_mollow_symmetric_lorentzian(tmp_path):
    doc = {"mode": "scalars", "scalars": dict(MOLLOW_BLOCK),
           "eta2": [4.0], "ztilde": [-2.0, -1.0, 0.0, 1.0, 2.0]}
    _, (_, zts), (tot, _, _) = run_xsection_sweep(parse_config(doc))
    for zt, t in zip(zts, tot):
        assert t == pytest.approx(mollow_xsections(zt, 2.0).total, rel=1e-14)
    by_z = dict(zip(zts, tot))
    assert by_z[2.0] == by_z[-2.0] and by_z[1.0] == by_z[-1.0]


def test_csv_header_carries_schema_and_columns():
    buf = io.StringIO()
    format_csv(buf, ["a", "b"], [[1.0]], [np.array([2.0])])
    first = buf.getvalue().splitlines()[0]
    assert first.startswith("# qsatom v1, reduced units (alpha2=1), columns: ")
    assert first.endswith("a,b")


def test_output_byte_stable_and_thread_independent(tmp_path):
    cfg = _write(tmp_path, "fano.json", _fano_config())
    out1, out2, out4 = (str(tmp_path / f"o{i}.csv") for i in (1, 2, 4))
    assert main(["spectrum", "--config", cfg, "--out", out1]) == 0
    assert main(["spectrum", "--config", cfg, "--out", out2]) == 0
    assert main(["spectrum", "--config", cfg, "--threads", "4", "--out", out4]) == 0
    b1 = open(out1, "rb").read()
    assert b1 == open(out2, "rb").read()
    assert b1 == open(out4, "rb").read()


def test_xsection_at_fano_zero_exits_0_with_and_without_optimisation(tmp_path):
    # z = cot(delta0_minus) ~ 7.66 is the Fano zero: the compact total
    # vanishes there while the expanded form cancels, so the two forms may
    # differ by far more than 1e-12 relative.  The sweep must still run,
    # identically under -O, and keep its sum rule.
    doc = {"mode": "scalars", "scalars": dict(MOLLOW_BLOCK, delta0_minus=0.13),
           "eta2": [0, 1e-6, 0.01], "ztilde": [3.8, 3.83, 3.85]}
    cfg = _write(tmp_path, "fano_zero.json", doc)
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(qsatom.__file__)))
    outs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-m", "qsatom.cli", "xsection",
                               "--config", cfg], capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    rows = [[float(v) for v in line.split(",")]
            for line in outs[0].decode().splitlines()[1:]]
    assert len(rows) == 9
    for _, _, tot, el, inel in rows:
        assert abs(el + inel - tot) <= 1e-12 * abs(tot)


def test_spectrum_json_round_trip(tmp_path, capsys):
    cfg = _write(tmp_path, "fano.json", _fano_config())
    assert main(["spectrum", "--config", cfg, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "qsatom v1"
    assert doc["columns"][:3] == ["eta2", "ztilde", "x"]
    assert len(doc["rows"]) == 2 * 3 * 5
    # Sigma_tot = Sigma_inel + elastic Lorentzian, column-wise
    for row in doc["rows"]:
        assert row[3] == pytest.approx(row[4] + row[5], rel=1e-12)
    # direct scattering makes the on-resonance spectrum asymmetric in x
    onres = {row[2]: row[4] for row in doc["rows"]
             if row[0] == 18.0 and row[1] == 0.0}
    assert abs(onres[6.0] - onres[-6.0]) > 1e-5


def test_spectrum_mollow_reference_column_even_in_x(tmp_path, capsys):
    doc = {"mode": "scalars", "scalars": dict(MOLLOW_BLOCK),
           "eta2": [10.0], "ztilde": [0.0],
           "x_grid": [-3.0, -1.0, 0.0, 1.0, 3.0], "gammatilde": 0.6,
           "mollow_reference": True}
    cfg = _write(tmp_path, "mollow.json", doc)
    assert main(["spectrum", "--config", cfg, "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["columns"][-1] == "Sigma_tot_mollow"
    rows = {row[2]: row for row in out["rows"]}
    for x in (1.0, 3.0):
        assert rows[x][3] == pytest.approx(rows[-x][3], rel=1e-12)
        assert rows[x][6] == pytest.approx(rows[-x][6], rel=1e-12)
        assert rows[x][3] == pytest.approx(rows[x][6], rel=1e-10)


def test_verify_default_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out


def test_verify_reports_finite_beam_in_phase_shift_mode(tmp_path, capsys):
    doc = {"mode": "phase_shifts",
           "phase_shifts": {"delta_plus": [-0.03, 0.0, 0.0633],
                            "delta_minus": [0.13, 0.0, 0.0]},
           "eta2": [4.0], "ztilde": [0.0], "gammatilde": 0.6}
    cfg = _write(tmp_path, "ps.json", doc)
    assert main(["verify", "--config", cfg, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    names = [c["check"] for c in doc["checks"]]
    assert "finite-beam photon balance" in names
    assert doc["passed"] is True


def test_verify_scalars_mode_skips_finite_beam(tmp_path, capsys):
    cfg = _write(tmp_path, "sc.json", _fano_config())
    assert main(["verify", "--config", cfg, "--format", "json"]) == 0
    names = [c["check"] for c in json.loads(capsys.readouterr().out)["checks"]]
    assert "finite-beam photon balance" not in names


def test_verify_detects_injected_coherence_sign_error(monkeypatch, capsys):
    # flip the sign of the coherence rotation in the scalars the spectrum
    # is built from.  The full-line integral of the resolvent is
    # drift-independent (residues), so the normalization sum rule cannot
    # see this bug; the closed-form, positivity and time-domain checks must.
    true_reduce = qsatom.spectrum.reduced_scalars

    def flawed(sc, dc):
        rs = true_reduce(sc, dc)
        return replace(rs, bprime=np.conj(rs.bprime))

    monkeypatch.setattr(qsatom.spectrum, "reduced_scalars", flawed)
    assert main(["verify", "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    failed = {c["check"] for c in doc["checks"] if not c["passed"]}
    assert "Mollow closed form vs resolvent" in failed
    assert "time-domain spectrum vs resolvent" in failed


def test_verify_detects_injected_weight_sign_error(monkeypatch, capsys):
    # a sign error in the spectral weight vectors does break the
    # normalization machinery (the broken tails may also defeat the
    # quadrature itself, which is reported as its own failure)
    true_co = qsatom.spectrum.spectral_coefficients

    def flawed(rs):
        co = true_co(rs)
        bad = co.dprime.copy()
        bad[2] = np.conj(bad[2])
        return replace(co, dprime=bad)

    monkeypatch.setattr(qsatom.spectrum, "spectral_coefficients", flawed)
    assert main(["verify", "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    failed = {c["check"] for c in doc["checks"] if not c["passed"]}
    assert failed & {"spectral normalization sum rules",
                     "spectral quadrature convergence"}
