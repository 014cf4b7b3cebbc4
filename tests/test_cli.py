import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qsatom
import qsatom.spectrum
from helpers import random_scalars
from qsatom import DriveConfig, cli, mollow_xsections
from qsatom.cli import (ConfigError, format_csv, format_json, main, parse_config,
                        run_spectrum_sweep, run_xsection_sweep)
from qsatom.spectrum import elastic_lorentzian, mollow_inel_x, sigma_inel_x
from qsatom.xsection import sigma_el

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
    with pytest.raises(ConfigError):
        parse_config([])  # a JSON document that is not an object


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
    ("spectrum", {"eta2": [1e200]}, "(1e+200, -4.0)"),
    # z^2 overflows at the last ztilde of the first eta2 block
    ("spectrum", {"ztilde": [-4.0, 0.0, 1e160]}, "(10.0, 1e+160)"),
    # the detector width squared overflows in the elastic line and the Mollow reference
    ("spectrum", {"gammatilde": 1e300, "mollow_reference": True}, "(10.0, -4.0)"),
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


@pytest.mark.parametrize("over, point", [
    ({"eta2": [1e300]}, "(1e+300, -4, 0.6)"),
    ({"ztilde": [1e300]}, "(10, 1e+300, 0.6)"),
    ({"gammatilde": 1e300}, "(10, -4, 1e+300)"),
    ({"eta2": [0.0], "ztilde": [1e300]}, "(0, 1e+300, 0.6)"),  # no time-domain check at eta 0
])
def test_verify_names_the_drive_a_float_overflows_at(tmp_path, capsys, over, point):
    # CPython's float ** raises OverflowError in the oracles' per-point path
    cfg = _write(tmp_path, "huge.json", _fano_config(**over))
    assert main(["verify", "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"numerical failure: float overflow at (eta2, ztilde, gammatilde) = {point}"]


# Config fuzz: a few fields of a valid config replaced, deleted or added.
# A value is a magnitude log-uniform from 0 (10^-330 underflows) to
# 1.7e308 of either sign, a boolean, a string, null or an empty list; a
# list field may also become a list of up to three such values.
_FUZZ_VALUES = st.one_of(
    st.builds(lambda e, sign: sign * 10.0**e, st.floats(-330.0, 308.23), st.sampled_from((1, -1))),
    st.booleans(), st.text(max_size=2), st.none(), st.just([]))
_FUZZ_BASES = (_fano_config(mollow_reference=True),
               {"mode": "phase_shifts", "eta2": [4.0], "ztilde": [0.0], "gammatilde": 0.6,
                "phase_shifts": {"delta_plus": [-0.03, 0.0633], "delta_minus": [0.13, 0.0]},
                "x_grid": [0.0, 2.0]})
_FUZZ_KEYS = ("mode", "scalars", "phase_shifts", "eta2", "ztilde", "x_grid", "gammatilde",
              "mollow_reference")


@st.composite
def _fuzzed_config(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(_FUZZ_BASES))))
    for _ in range(draw(st.integers(1, 3))):
        paths = [(k,) for k in _FUZZ_KEYS] + [
            (k, i) for k, v in doc.items() if isinstance(v, (dict, list))
            for i in (v if isinstance(v, dict) else range(len(v)))]
        *head, key = draw(st.sampled_from(paths))
        parent = doc[head[0]] if head else doc
        if draw(st.booleans()):
            parent[key] = draw(_FUZZ_VALUES | st.lists(_FUZZ_VALUES, max_size=3))
        elif isinstance(parent, list):
            del parent[key]
        else:
            parent.pop(key, None)
    return doc


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(("xsection",) * 4 + ("spectrum",) * 4 + ("verify",)),
       fmt=st.sampled_from(("csv", "json")), doc=_fuzzed_config())
# two tracebacks the fuzz found in verify: the elastic line's (gammatilde / 2)^2
# underflows to 0, and the time-domain kernel's strides overflowed at |ztilde| 1e16;
# there its horizon is now 2^64 steps of 5e-17, and the row reads 7.0e-5, a FAIL (exit 1)
@example(command="verify", fmt="csv", doc=_fano_config(gammatilde=1e-162))
@example(command="verify", fmt="json", doc=_fano_config(ztilde=[-1e16, 0.0, 3.0]))
def test_fuzzed_configs_exit_0_1_or_2_without_a_traceback(command, fmt, doc):
    # a non-zero exit is one stderr line and no output file, except that
    # verify writes its report when a check fails (exit 1, stderr empty)
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        err, std = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(std):
            code = main([command, "--config", cfg, "--format", fmt, "--out", out])
        assert code in (0, 1, 2) and std.getvalue() == ""
        if code == 0 or (command == "verify" and code == 1 and not err.getvalue()):
            assert not err.getvalue() and os.path.getsize(out) > 0
        else:
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
            assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["xsection", "verify"])
@pytest.mark.parametrize("key", ["eta2", "gammatilde"])
@pytest.mark.parametrize("digits", [401, 5001])
def test_oversized_integer_is_a_config_error(tmp_path, capsys, command, key, digits):
    # float() of a 401-digit integer overflows; json refuses a 5001-digit
    # one (CPython's 4300-digit limit) with a plain ValueError
    doc = _fano_config(**{key: ["HUGE"] if key == "eta2" else "HUGE"})
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps(doc).replace('"HUGE"', "1" + "0" * (digits - 1)))
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: "), err
    assert not out.exists()


@pytest.mark.parametrize("command", ["xsection", "verify"])
def test_deeply_nested_config_is_a_config_error(tmp_path, capsys, command):
    # json raises RecursionError past the interpreter's nesting limit,
    # which used to read as a numerical failure with exit code 1
    cfg = tmp_path / "deep.json"
    cfg.write_text("[" * 100000 + "]" * 100000)
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: config is not valid JSON: "), err


# No path of the package loads scipy.linalg: the sweeps never propagate a
# state, and the propagators and verify run on numpy's own matrix
# exponential.  Only the scipy package stub is imported, by ``cli``, for
# the benchmark worker's version record.  Module sets, not times, so the
# tests cannot flake.
_FOOTPRINT = """
import json, sys
from qsatom import MOLLOW_SCALARS, DriveConfig, bloch, cli, reduced_scalars
loaded = lambda: ["scipy" in sys.modules, "scipy.linalg" in sys.modules]
codes = [cli.main([c, "--config", sys.argv[1], "--out", sys.argv[2]])
         for c in ("xsection", "spectrum")]
after_sweeps = loaded()
rs = reduced_scalars(MOLLOW_SCALARS, DriveConfig(1.0, 0.0))
bloch.evolve(rs, bloch.BlochVector(0.0, 0.0), 0.5)
codes.append(cli.main(["verify", "--out", sys.argv[2]]))
print(json.dumps([codes, after_sweeps, loaded()]))
"""


def _run_script(tmp_path, script):
    """The JSON that ``script`` prints, run in a fresh interpreter with the
    small sweep config and an output path as its two arguments."""
    cfg = _write(tmp_path, "small.json", _fano_config())
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(qsatom.__file__)))
    proc = subprocess.run([sys.executable, "-c", script, cfg, str(tmp_path / "out")],
                          capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout)


def test_sweeps_leave_scipy_linalg_unloaded(tmp_path):
    codes, after_sweeps, after_evolve = _run_script(tmp_path, _FOOTPRINT)
    assert codes == [0, 0, 0]
    assert after_sweeps == [True, False]
    assert after_evolve == [True, False]


# Each layer loads where it is used: ``import qsatom`` loads none, the
# sweeps need model, xsection and spectrum alone, and verify brings in
# the propagator and the oracles.
_LAYER_FOOTPRINT = """
import json, sys
import numpy
subpackages = lambda: sorted(m for m in ("numpy.random", "numpy.polynomial") if m in sys.modules)
numpy_own = subpackages()
import qsatom
layers = lambda: sorted(m for m in sys.modules if m.startswith("qsatom."))
on_import = layers()
from qsatom import cli
loaded = [subpackages()]
codes = [cli.main([c, "--config", sys.argv[1], "--out", sys.argv[2]])
         for c in ("xsection", "spectrum")]
after_sweeps = layers()
loaded.append(subpackages())
codes.append(cli.main(["verify", "--out", sys.argv[2]]))
loaded.append(subpackages())
print(json.dumps([codes, on_import, after_sweeps, layers(), numpy_own, loaded]))
"""


def test_each_command_loads_only_the_layers_it_runs(tmp_path):
    codes, on_import, after_sweeps, after_verify, numpy_own, loaded = \
        _run_script(tmp_path, _LAYER_FOOTPRINT)
    assert codes == [0, 0, 0]
    assert on_import == []
    assert after_sweeps == ["qsatom.cli", "qsatom.model", "qsatom.spectrum", "qsatom.xsection"]
    assert {"qsatom.bloch", "qsatom.oracle"} <= set(after_verify)
    # numpy.random and numpy.polynomial stay unloaded after import qsatom.cli,
    # after both sweeps and after verify (numpy 1.x loads both on import numpy)
    assert loaded == [numpy_own] * 3
    assert numpy_own == [] or int(np.__version__.split(".")[0]) < 2


# Recorded before the sweeps became columnar, from the per-point path;
# the spectrum digests re-recorded once the closed resolvent determinant
# formed kplus * kminus (values moved by at most 4.4e-14 relative), and
# again once the resolvent bilinears were summed in float arithmetic
# rather than by BLAS (at most 2.2e-11 relative, on the eta2 = 1e-6
# far-detuned sidebands; 2.5e-14 elsewhere).
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
    ("spectrum", "csv"): "1cda5835e14d94b5ab8b7ef42cd51de418242e1eb6e64f7cd2fe8b6392de20df",
    ("spectrum", "json"): "16c52a595f963e2d9c8bc10f965d8c7764be51dcb0dd2e4cdd9ad55c183c94ac",
}


@pytest.mark.parametrize("command, fmt", sorted(HARD_CORNER_SHA256))
def test_sweep_bytes_match_the_recorded_golden_output(tmp_path, command, fmt):
    cfg = _write(tmp_path, "corners.json", HARD_CORNERS)
    out = tmp_path / f"out.{fmt}"
    assert main([command, "--config", cfg, "--format", fmt, "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == HARD_CORNER_SHA256[command, fmt]


# The same sweeps in two fresh interpreters: at numpy's full SIMD dispatch,
# and with every dispatched feature this host enables switched off, so
# that numpy runs only its baseline loops.  The spectrum's complex products
# and moduli round otherwise without the X86_V3 (AVX2/FMA) loops.
_SWEEP_CORNERS = """
import json, sys
from qsatom import cli
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
for command, fmt in json.loads(sys.argv[2]):
    out = f"{sys.argv[3]}.{command}.{fmt}"
    assert cli.main([command, "--config", sys.argv[1], "--format", fmt, "--out", out]) == 0
print(json.dumps([f for f in __cpu_dispatch__ if __cpu_features__.get(f)]))
"""


@pytest.fixture(scope="module")
def corner_bytes_by_simd_level(tmp_path_factory):
    """The corner sweeps' bytes by SIMD level, after the dispatched features
    that the full level enables, each run in a fresh interpreter."""
    tmp = tmp_path_factory.mktemp("simd")
    cfg, runs = _write(tmp, "corners.json", HARD_CORNERS), {}

    def sweep(label, disabled):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qsatom.__file__)),
                   NPY_DISABLE_CPU_FEATURES=" ".join(disabled))
        proc = subprocess.run([sys.executable, "-c", _SWEEP_CORNERS, cfg,
                               json.dumps(sorted(HARD_CORNER_SHA256)), str(tmp / label)],
                              capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        runs[label] = {key: (tmp / f"{label}.{key[0]}.{key[1]}").read_bytes()
                       for key in HARD_CORNER_SHA256}
        return json.loads(proc.stdout)

    if not (features := sweep("full", [])):
        pytest.skip("numpy enables nothing above its baseline on this host: no second level")
    assert sweep("baseline", features) == []
    return runs


@pytest.mark.parametrize("command, fmt", [
    pytest.param(command, fmt, marks=pytest.mark.xfail(
        command == "spectrum", strict=True,
        reason="complex multiply and abs round otherwise at numpy's baseline"))
    for command, fmt in sorted(HARD_CORNER_SHA256)])
def test_sweep_bytes_do_not_depend_on_numpy_simd_level(corner_bytes_by_simd_level, command, fmt):
    runs = corner_bytes_by_simd_level
    assert runs["full"][command, fmt] == runs["baseline"][command, fmt]


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


# The spectrum sweep runs one eta2 at a time, its ztilde list as (n, 1)
# columns against the x grid.  Its bytes must be those of one float
# drive point at a time; no digest pins that on its own, since a
# contraction that rounds otherwise moves thousands of values and would
# simply be re-recorded.

def _random_spectrum_doc(seed, n_eta=4, n_z=6, n_x=200):
    rng = np.random.default_rng(seed)
    sc = random_scalars(rng)
    return {"mode": "scalars",
            "scalars": {k: float(getattr(sc, k)) for k in FANO_BLOCK},
            "eta2": rng.uniform(0.5, 40.0, n_eta).tolist(),
            "ztilde": rng.uniform(-8.0, 8.0, n_z).tolist(),
            "x_grid": rng.uniform(-20.0, 20.0, n_x).tolist(),
            "gammatilde": float(rng.uniform(0.05, 1.5)), "mollow_reference": True}


@pytest.mark.parametrize("doc", [_random_spectrum_doc(seed) for seed in (3, 17, 29)]
                         + [HARD_CORNERS])
def test_sigma_inel_x_on_drive_columns_is_the_per_point_float_call(doc):
    cfg = parse_config(doc)
    xs, gt = np.array(cfg.x_grid), cfg.gammatilde
    pairs = [(math.sqrt(e2), zt) for e2, zt in itertools.product(doc["eta2"], doc["ztilde"])]
    eta, zt = (np.array(c)[:, None] for c in zip(*pairs))
    blocked = sigma_inel_x(cfg.scalars, DriveConfig(eta, zt, gt), xs)
    points = [sigma_inel_x(cfg.scalars, DriveConfig(e, z, gt), xs) for e, z in pairs]
    assert blocked.shape == (len(pairs), len(xs))
    assert np.array_equal(blocked, np.array(points))


# squares that round as a * a differ from pow in about one value in a
# thousand, so the Mollow forms run on 5000 distinct drive points a seed
@pytest.mark.parametrize("seed", [3, 17])
def test_mollow_forms_on_drive_columns_are_their_float_calls(seed):
    rng = np.random.default_rng(seed)
    eta, zt = np.sqrt(rng.uniform(0.0, 40.0, 5000)), rng.uniform(-8.0, 8.0, 5000)
    xs, gt = np.array([-20.0, -3.0, 0.0, 0.5, 7.0]), 0.6
    pairs = list(zip(eta.tolist(), zt.tolist()))
    assert np.array_equal(mollow_inel_x(zt[:, None], eta[:, None], gt, xs),
                          np.array([mollow_inel_x(z, e, gt, xs) for e, z in pairs]))
    blocked = mollow_xsections(zt, eta)
    for field in ("total", "elastic", "inelastic"):
        assert np.array_equal(getattr(blocked, field),
                              [getattr(mollow_xsections(z, e), field) for e, z in pairs])


def _per_point_spectrum_sweep(cfg):
    """The spectrum sweep as it ran before blocking: one float drive point
    at a time, each with its own DriveConfig, dressing and Mollow column."""
    sc, gt, xs = cfg.scalars, cfg.gammatilde, np.array(sorted(cfg.x_grid))
    blocks = []
    for e2, zt in itertools.product(sorted(cfg.eta2), sorted(cfg.ztilde)):
        eta = math.sqrt(e2)
        dc = DriveConfig(eta, zt, gt)
        inel = sigma_inel_x(sc, dc, xs)
        lor = elastic_lorentzian(sigma_el(sc, dc), gt, xs)
        cols = [lor + inel, inel, lor]
        if cfg.mollow_reference:
            m_inel = mollow_inel_x(zt, eta, gt, xs)
            cols.append(m_inel + elastic_lorentzian(mollow_xsections(zt, eta).elastic, gt, xs))
        blocks.append(cols)
    return [np.concatenate(c) for c in zip(*blocks)]


@pytest.mark.parametrize("seed", [5, 23, 61])
def test_spectrum_sweep_is_the_per_point_loop_bit_for_bit(seed):
    cfg = parse_config(_random_spectrum_doc(seed, n_eta=3, n_z=5, n_x=120))
    _, _, columns = run_spectrum_sweep(cfg)
    reference = _per_point_spectrum_sweep(cfg)
    assert len(columns) == len(reference) == 4
    for got, want in zip(columns, reference):
        assert np.array_equal(got, want)


def _peak_traced_bytes(cfg):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_spectrum_sweep(cfg)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_spectrum_sweep_temporaries_scale_with_a_block_not_the_grid():
    # four times the eta2 list may add its output columns and little more:
    # the temporaries of one block do not grow with the number of blocks
    doc = _random_spectrum_doc(7, n_eta=3, n_z=16, n_x=200)
    small = parse_config(doc)
    large = parse_config(dict(doc, eta2=np.linspace(0.5, 40.0, 12).tolist()))
    run_spectrum_sweep(small)  # warm any first-call allocations
    extra_output = 4 * (12 - 3) * 16 * 200 * 8
    grown = _peak_traced_bytes(large) - _peak_traced_bytes(small)
    assert grown <= 1.1 * extra_output, (grown, extra_output)


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


# The writers spell values through numpy record builders, with printf or
# json.dumps spelling a non-finite value and deciding where the digits may
# be wrong; their bytes must be those of one "%.16e" % v per value, as a
# plain row writer spells them, and of json.dumps(doc, indent=1), whose
# floats are repr's shortest digits.

def _naive_csv(names, axes, columns):
    rows = [",".join("%.16e" % v for v in (*point, *(c[i] for c in columns)))
            for i, point in enumerate(itertools.product(*axes))]
    return ("# qsatom v1, reduced units (alpha2=1), columns: " + ",".join(names)
            + "\n" + "\n".join(rows) + "\n")


def _naive_json(names, axes, columns):
    rows = [[*point, *(c[i] for c in columns)] for i, point in enumerate(itertools.product(*axes))]
    return json.dumps({"schema": "qsatom v1", "units": "reduced (alpha2=1)",
                       "columns": names, "rows": np.array(rows).tolist()}, indent=1) + "\n"


def _written(fmt, names, axes, columns):
    buf = io.StringIO()
    {"csv": format_csv, "json": format_json}[fmt](buf, names, axes, columns)
    return buf.getvalue()


def _csv(names, axes, columns):
    return _written("csv", names, axes, columns)


def _assert_spelled_as_printf(values):
    """``values`` as one axis and, reversed, as its column."""
    axes, columns = [list(values)], [np.array(values[::-1], float)]
    assert _csv(["a", "b"], axes, columns) == _naive_csv(["a", "b"], axes, columns)


def _assert_spelled_as_repr(values):
    """The JSON speller's records of ``values``, less their NUL bytes, as repr."""
    rec = np.full((len(values), 25), ord("\n"), np.uint8)
    cli._shortest(np.array(values, float), rec)
    assert rec.tobytes().translate(None, b"\0").decode() == "".join(f"{v!r}\n" for v in values)


_POWERS_OF_TEN = np.array([float(f"1e{p}") for p in range(-323, 309)])
_TIES = np.random.default_rng(0).integers(16_000_000_000_000, 160_000_000_000_000, 500)
_EDGES = np.array([1e-5, 1e-4, 1e15, 1e16])  # where repr turns to and from exponents
HARD_FLOATS = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, sys.float_info.max, 1e16, 1e17,
    1e-100, 1e100, 9.5e-100, 9.99999999999999999e99, 123.456e-300,
    1200.0, 1e22, 1e23, 2.0**53 - 1, 2.0**53, 2.0**53 + 2, 123456789012345680.0, 0.1, 0.3,
    *np.ldexp(1.0, np.arange(-1074, 1024)),  # a power of two: half a gap below
    *_EDGES, *np.nextafter(_EDGES, 0.0), *np.nextafter(_EDGES, np.inf),
    # powers of ten (many round up to 1.0000000000000000e+k), and their neighbours
    *_POWERS_OF_TEN, *np.nextafter(_POWERS_OF_TEN, 0.0), *np.nextafter(_POWERS_OF_TEN, np.inf),
    # exact ties at the 17th digit: m / 32 with m odd in [3.2e13, 3.2e14)
    *((2 * _TIES + 1) / 32.0), 32000000000001 / 32, 319999999999999 / 32,
]


def test_record_builder_spells_hard_floats_as_printf():
    _assert_spelled_as_printf([v for h in HARD_FLOATS for v in (h, -h)])


def test_record_builder_spells_random_bit_patterns_as_printf():
    bits = np.random.default_rng(42).integers(0, 2**64, 200_000, np.uint64, endpoint=False)
    values = bits.view(np.float64)
    _assert_spelled_as_printf(values[np.isfinite(values)].tolist())


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_record_builder_spells_any_finite_bit_pattern_as_printf(patterns):
    values = np.array(patterns, np.uint64).view(np.float64)
    _assert_spelled_as_printf(values[np.isfinite(values)].tolist() or [-0.0])


def test_exact_ties_reach_printf_and_match_it(monkeypatch):
    # only a fraction within _TIE_WINDOW of 1/2 asks printf: these are exact
    ties = [*((2 * _TIES + 1) / 32.0), 32000000000001 / 32, 319999999999999 / 32]
    asked, printf = [], cli._printf
    monkeypatch.setattr(cli, "_printf", lambda num, v: asked.extend(v.tolist()) or printf(num, v))
    _assert_spelled_as_printf(ties)
    assert sorted(asked) == sorted(ties * 2)  # each as an axis value and in the column


def test_power_table_is_exact():
    # in exact rationals: k0 = floor(log10 2^(e - 1)) and the threshold is the
    # least double at or above 10^(k0 + 1) 2^-e; T = 2^e 10^(16 - k) is hi + lo
    # to 2^-104 T, hi correctly rounded
    thr, ks, his, los = (t.tolist() for t in cli._spell_tables()[:4])
    assert (len(thr), len(his)) == (2098, 4196)
    for i, (k, hi, lo) in enumerate(zip(ks, his, los)):
        e = i // 2 - 1073
        t = Fraction(2) ** e * Fraction(10) ** (16 - k)
        assert hi == float(t)  # Fraction's float rounds correctly
        assert abs(t - Fraction(hi) - Fraction(lo)) <= t / 2**104
        if i % 2:
            assert k == ks[i - 1] + 1
            continue
        assert Fraction(10) ** k <= Fraction(2) ** (e - 1) < Fraction(10) ** (k + 1)
        bound = Fraction(10) ** (k + 1) / Fraction(2) ** e
        assert Fraction(thr[i // 2]) >= bound > Fraction(math.nextafter(thr[i // 2], 0.0))


def test_record_builder_spells_hard_floats_as_repr():
    _assert_spelled_as_repr([float(v) for h in HARD_FLOATS for v in (h, -h)])


def test_record_builder_spells_random_bit_patterns_as_repr():
    bits = np.random.default_rng(43).integers(0, 2**64, 100_000, np.uint64, endpoint=False)
    values = bits.view(np.float64)
    _assert_spelled_as_repr(values[np.isfinite(values)].tolist())


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_record_builder_spells_any_finite_bit_pattern_as_repr(patterns):
    values = np.array(patterns, np.uint64).view(np.float64)
    _assert_spelled_as_repr(values[np.isfinite(values)].tolist() or [-0.0])


_GRIDS = [
    [[2.5]],                                            # one row
    [[-0.0, 1.0], [3.0]],                               # a one-value last axis
    [[0.0, 1e-300, 4.0], [-1e4, -0.0, 1e4]],            # a 2-axis xsection grid
    [[1.0, 2.0, 3.0], [-1.0, 1.0], np.linspace(-20.0, 20.0, 171).tolist()],
]
# the last grid's 1026 rows again, with inf, -inf and nan on the first and
# last rows of blocks of 1, 7 and 1024 rows, and exact ties at the 17th digit
_ODD_GRID = [*_GRIDS[-1]]
_GRIDS.append(_ODD_GRID)
_ODD_ROWS = [0, 6, 7, 13, 14, 1023, 1024, 1025]
_ODD_TIES = (2 * _TIES[:40] + 1) / 32.0


def _random_grid(axes):
    n = math.prod(len(a) for a in axes)
    rng = np.random.default_rng(n)
    columns = [rng.standard_normal(n) * 10.0 ** rng.integers(-200, 200, n) for _ in range(3)]
    columns[1][::2] = -0.0
    columns[2][1::3] = np.round(rng.uniform(-1e4, 1e4, len(columns[2][1::3])), 3)  # short, fixed
    if axes is _ODD_GRID:
        for i, row in enumerate(_ODD_ROWS):
            columns[i % 3][row] = (np.inf, -np.inf, np.nan)[row % 3]
        columns[0][100:140] = _ODD_TIES
    return ["eta2", "ztilde", "x"][:len(axes)] + ["a", "b", "c"], axes, columns


@functools.cache
def _near_ties(values, fmt):
    """Of the finite ``values``, those within 2^-29 of a 17th-digit rounding
    decision, in exact rationals and units of that digit: for "%.16e", v
    near a tie; for repr, also v, or an end of the interval that reads back
    as v, near a multiple of that digit."""
    near, half = set(), Fraction(1, 2)
    for v in values:
        a = Fraction(abs(v))
        if not a:
            continue
        k = math.floor(math.log10(abs(v)))
        k += (a >= Fraction(10) ** (k + 1)) - (a < Fraction(10) ** k)
        ends = ((Fraction(math.nextafter(abs(v), to)) + a) / 2 for to in (math.inf, 0.0))
        points = [(a, (half,))] if fmt == "csv" else [(a, (0, half, 1)), *((p, (0, 1)) for p in ends)]
        for p, targets in points:
            f = p / Fraction(10) ** (k - 16) % 1
            if any(abs(f - t) < Fraction(1, 2**29) for t in targets):
                near.add(v)
    return near


def _written_by_one_route(monkeypatch, fmt, names, axes, columns):
    """``_written``, checking that the per-value route (``_printf``) spells
    the non-finite values and near-ties only: every one for "%.16e"."""
    asked, printf = [], cli._printf
    monkeypatch.setattr(cli, "_printf", lambda num, v: asked.extend(v.tolist()) or printf(num, v))
    text = _written(fmt, names, axes, columns)
    values, asked = np.concatenate([*axes, *columns]), np.array(asked)
    odd, finite = ~np.isfinite(values), np.isfinite(asked)
    assert sorted(map(repr, asked[~finite])) == sorted(map(repr, values[odd]))
    near = _near_ties(tuple(values[~odd].tolist()), fmt)
    assert set(asked[finite]) <= near and (fmt == "json" or set(asked[finite]) == near)
    return text


@pytest.mark.parametrize("block", [cli._BLOCK_ROWS, 7, 1])
@pytest.mark.parametrize("axes", _GRIDS)
def test_format_csv_is_a_naive_row_writer(monkeypatch, axes, block):
    monkeypatch.setattr(cli, "_BLOCK_ROWS", block)
    grid = _random_grid(axes)
    assert _written_by_one_route(monkeypatch, "csv", *grid) == _naive_csv(*grid)


@pytest.mark.parametrize("block", [cli._BLOCK_ROWS, 7, 1])
@pytest.mark.parametrize("axes", _GRIDS)
def test_format_json_is_json_dumps(monkeypatch, axes, block):
    monkeypatch.setattr(cli, "_BLOCK_ROWS", block)
    grid = _random_grid(axes)
    assert _written_by_one_route(monkeypatch, "json", *grid) == _naive_json(*grid)


def _assert_fallback_routes_write_the_record_builder_bytes(monkeypatch, command, doc, fmt):
    # the printf or json.dumps route of more values (window 1), and of a NaN
    # in the last row, which that route spells alone
    assert doc["mollow_reference"]
    run = {"spectrum": run_spectrum_sweep, "xsection": run_xsection_sweep}[command]
    names, axes, columns = run(parse_config(doc))
    records = _written(fmt, names, axes, columns)
    with monkeypatch.context() as m:
        m.setattr(cli, "_TIE_WINDOW", 1.0)
        assert _written(fmt, names, axes, columns) == records
    last = columns[-1].copy()
    spelled = "%.16e" % last[-1] if fmt == "csv" else repr(float(last[-1]))
    head, _, tail = records.rpartition(spelled)
    last[-1] = np.nan
    nan = {"csv": "nan", "json": "NaN"}[fmt]
    assert _written(fmt, names, axes, [*columns[:-1], last]) == head + nan + tail


@pytest.mark.parametrize("command", ["spectrum", "xsection"])
@pytest.mark.parametrize("doc", [_random_spectrum_doc(11), HARD_CORNERS])
def test_csv_fallback_routes_write_the_record_builder_bytes(monkeypatch, command, doc):
    _assert_fallback_routes_write_the_record_builder_bytes(monkeypatch, command, doc, "csv")


@pytest.mark.parametrize("command", ["spectrum", "xsection"])
@pytest.mark.parametrize("doc", [_random_spectrum_doc(11), HARD_CORNERS])
def test_json_fallback_routes_write_the_record_builder_bytes(monkeypatch, command, doc):
    _assert_fallback_routes_write_the_record_builder_bytes(monkeypatch, command, doc, "json")


@pytest.mark.parametrize("fmt, naive", [("csv", _naive_csv), ("json", _naive_json)])
def test_non_finite_values_are_spelled_as_the_naive_writers_do(fmt, naive):
    # json.dumps writes Infinity, -Infinity and NaN; printf inf, -inf and nan
    axes = [[-np.inf, 0.5, np.inf], [np.nan, -0.0]]
    columns = [np.array([np.inf, -np.inf, np.nan, 1e300, -2.5, 0.1]), np.arange(6.0)]
    grid = ["eta2", "ztilde", "a", "b"], axes, columns
    assert _written(fmt, *grid) == naive(*grid)


# A random sweep reaches printf or repr only at a tie as near as 2^-30,
# which no value of these grids comes within
@pytest.mark.parametrize("command, fmt, doc", [
    ("spectrum", "csv", _random_spectrum_doc(13)),
    ("xsection", "json", _random_spectrum_doc(19, n_eta=100, n_z=100)),
])
def test_random_sweeps_never_ask_printf(tmp_path, monkeypatch, command, fmt, doc):
    asked, printf = [], cli._printf
    monkeypatch.setattr(cli, "_printf", lambda num, v: asked.append(v.size) or printf(num, v))
    cfg = _write(tmp_path, "doc.json", doc)
    assert main([command, "--config", cfg, "--format", fmt, "--out", str(tmp_path / "o")]) == 0
    assert asked and sum(asked) == 0


class _KeepingStream:
    """A text stream that keeps every string written to it."""

    def __init__(self):
        self.parts = []

    def write(self, s):
        self.parts.append(s)

    def size(self):
        return sum(sys.getsizeof(s) for s in self.parts)


def _peak_traced_bytes_of(fmt, result):
    stream = _KeepingStream()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fmt(stream, *result)
        return tracemalloc.get_traced_memory()[1] - base, stream.size()
    finally:
        tracemalloc.stop()


def _assert_writer_temporaries_scale_with_a_block_not_the_grid(fmt):
    # four times the eta2 list may add its output strings and little more
    # (64 KB of allocator slack): no temporary grows with the grid
    doc = _random_spectrum_doc(7, n_eta=3, n_z=16, n_x=200)
    small = run_spectrum_sweep(parse_config(doc))
    large = run_spectrum_sweep(parse_config(dict(doc, eta2=np.linspace(0.5, 40.0, 12).tolist())))
    fmt(io.StringIO(), *small)  # build the digit, power and layout tables
    (peak_small, out_small), (peak_large, out_large) = (
        _peak_traced_bytes_of(fmt, result) for result in (small, large))
    assert peak_large - peak_small <= out_large - out_small + 64 * 1024, (
        peak_large - peak_small, out_large - out_small)


def test_csv_writer_temporaries_scale_with_a_block_not_the_grid():
    _assert_writer_temporaries_scale_with_a_block_not_the_grid(format_csv)


def test_json_writer_temporaries_scale_with_a_block_not_the_grid():
    _assert_writer_temporaries_scale_with_a_block_not_the_grid(format_json)


def _assert_stdout_is_the_file_bytes(tmp_path, capsysbinary, command, fmt):
    cfg = _write(tmp_path, "doc.json", _random_spectrum_doc(5))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--format", fmt, "--out", str(out)]) == 0
    assert main([command, "--config", cfg, "--format", fmt]) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


def test_spectrum_csv_on_stdout_is_the_file_bytes(tmp_path, capsysbinary):
    _assert_stdout_is_the_file_bytes(tmp_path, capsysbinary, "spectrum", "csv")


@pytest.mark.parametrize("command", ["spectrum", "xsection"])
def test_json_on_stdout_is_the_file_bytes(tmp_path, capsysbinary, command):
    _assert_stdout_is_the_file_bytes(tmp_path, capsysbinary, command, "json")


_TABLES = """
import json, sys
from qsatom import cli
cli.load_config(sys.argv[1])
built = lambda: [t.cache_info().currsize for t in (cli._spell_tables, cli._repr_layouts)]
before = built()
cli.main(["xsection", "--config", sys.argv[1], "--format", "json", "--out", sys.argv[2]])
print(json.dumps([before, built()]))
"""


def test_set_up_builds_no_speller_table(tmp_path):
    # the writers' tables are built on first use, not by import or load_config
    assert _run_script(tmp_path, _TABLES) == [[0, 0], [1, 1]]


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


@pytest.mark.parametrize("entries", [45, 130])
def test_verify_runs_the_finite_beam_on_tables_beyond_l40(tmp_path, capsys, entries):
    # the beam truncation covers the table, not a fixed l = 40
    tail = entries - 3
    doc = {"mode": "phase_shifts",
           "phase_shifts": {"delta_plus": [-0.03, 0.0, 0.0633] + [0.001] * tail,
                            "delta_minus": [0.13, 0.0, 0.0] + [-0.001] * tail},
           "eta2": [4.0], "ztilde": [0.0], "gammatilde": 0.6}
    cfg = _write(tmp_path, "long.json", doc)
    assert main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "finite-beam photon balance" in out
    assert "overall: PASS (14/14)" in out


def test_verify_scalars_mode_skips_finite_beam(tmp_path, capsys):
    cfg = _write(tmp_path, "sc.json", _fano_config())
    assert main(["verify", "--config", cfg, "--format", "json"]) == 0
    names = [c["check"] for c in json.loads(capsys.readouterr().out)["checks"]]
    assert "finite-beam photon balance" not in names


@pytest.mark.parametrize("gammatilde", [1e-8, 1e-12, 1e-100])
def test_verify_passes_at_a_narrow_detector_width(tmp_path, capsys, gammatilde):
    # an elastic line far narrower than the inelastic features: integrated
    # on their scale, it is missed (1e-12, 1e-100) or never converges (1e-8)
    doc = _fano_config(eta2=[1.0], ztilde=[0.0], gammatilde=gammatilde)
    cfg = _write(tmp_path, "narrow.json", doc)
    assert main(["verify", "--config", cfg, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


@pytest.mark.parametrize("doc", [
    _fano_config(eta2=[1.0], ztilde=[1e5], gammatilde=0.5),
    {**HARD_CORNERS, "eta2": [1e-6], "ztilde": [1e4], "gammatilde": 1e-3},
], ids=["fano", "hard-corners"])
def test_verify_sum_rules_find_the_far_detuned_sidebands(tmp_path, capsys, doc):
    # the sidebands sit near x = +-ztilde / 2, far out on the tails of the
    # central line; quadrature on one guessed scale missed them (gaps 0.98
    # and 0.35) while both panel rules agreed
    cfg = _write(tmp_path, "far.json", doc)
    assert main(["verify", "--config", cfg]) == 0
    assert "overall: PASS (12/12)" in capsys.readouterr().out


def test_verify_json_names_its_draw_and_versions(capsys):
    assert main(["verify", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["seed"], doc["generator"]) == (20250808, "mt19937")
    assert doc["versions"] == {"python": ".".join(map(str, sys.version_info[:3])),
                               "numpy": np.__version__}


def test_verify_json_counts_the_samples_of_each_check(tmp_path, capsys):
    # at eta2 = 0 the time-domain check has no drive to run on; it reads
    # PASS at 0, and its sample count in the JSON says that it ran on nothing
    cfg = _write(tmp_path, "dark.json", _fano_config(eta2=[0.0], ztilde=[0.0]))
    assert main(["verify", "--config", cfg, "--format", "json"]) == 0
    checks = {c["check"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["time-domain spectrum vs resolvent"]["samples"] == 0
    assert checks["time-domain spectrum vs resolvent"]["passed"] is True
    assert checks["spectral normalization sum rules"]["samples"] == 1
    assert checks["drift determinant identity"]["samples"] == 200
    assert main(["verify", "--config", cfg]) == 0
    text = capsys.readouterr().out  # the text lines carry no count
    assert text.splitlines()[0].split() == ["check", "tolerance", "residual", "status"]
    assert "samples" not in text


def test_verify_passes_at_a_subnormal_intensity(tmp_path, capsys):
    # at eta2 = 1e-320 the oracles' Gtilde, taken from G', keeps its exact
    # zeros; the basis diag(eta, 1, -eta^2) would fill them with NaN
    cfg = _write(tmp_path, "weak.json", _fano_config(eta2=[1e-320], ztilde=[0.0]))
    assert main(["verify", "--config", cfg, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_verify_detects_injected_coherence_sign_error(monkeypatch, capsys):
    # flip the sign of the coherence rotation in the scalars the spectrum
    # is built from.  The full-line integral of the resolvent is
    # drift-independent (residues), so the normalization sum rule cannot
    # see this bug; the closed-form, positivity and time-domain checks must.
    true_reduce = qsatom.spectrum.reduced_scalars

    def flawed(sc, dc):
        rs = true_reduce(sc, dc)
        return replace(rs, w=-rs.w)

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
        cprime, dprime, ddoubleprime = true_co(rs)
        bad = dprime.copy()
        bad[2] = np.conj(bad[2])
        return cprime, bad, ddoubleprime

    monkeypatch.setattr(qsatom.spectrum, "spectral_coefficients", flawed)
    assert main(["verify", "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    failed = {c["check"] for c in doc["checks"] if not c["passed"]}
    assert failed & {"spectral normalization sum rules",
                     "spectral quadrature convergence"}


def _record_of(values, q, k):
    """``cli._record``'s bytes for ``values`` with the digits ``q`` at exponent ``k``."""
    v = np.array(values, float)
    rec = np.full((len(v), 25), ord("\n"), np.uint8)
    got = cli._record(v, np.abs(v), np.array(q, np.int64), np.array(k), rec)
    return rec.tobytes().translate(None, b"\0").decode(), got


def test_record_builder_carries_a_rounded_up_decade_into_the_exponent():
    # 10^17 at exponent k is 10^16 at k + 1: 9.99...95e-3 rounded up is 1e-2
    values = [-0.01, 0.01, 1e-100, 1e22, 1e100, -1e308]
    text, k = _record_of(values, [10**17] * 6, [-3, -3, -101, 21, 99, 307])
    assert text == "".join(f"{v:.16e}\n" for v in values)
    assert k.tolist() == [-2, -2, -100, 22, 100, 308]


def test_record_builder_writes_three_digit_exponents_zeros_and_subnormals():
    exponents = (100, 101, 199, 200, 299, 307, 308)
    values = [v for e in exponents for v in (1.5 * 10.0**e, 1.5 / 10.0**e)]
    values += [-v for v in values] + [0.0, -0.0, 5e-324, -5e-324, sys.float_info.max]
    a = np.abs(np.array(values))
    _, _, _, k, q, f, *_ = cli._scaled(a)
    text, _ = _record_of(values, q + (f > 0.5), k)
    assert text == "".join(f"{v:.16e}\n" for v in values)


_EACH_COMMAND = [["xsection", "--format", "json"], ["spectrum"], ["verify", "--format", "json"],
                 ["spectrum", "--no-such-flag"]]


def _main_bytes(argv, cfg, capsys):
    """Exit code, stdout and stderr of ``main(argv)``, a parser exit included."""
    try:
        code = main(argv[:1] + ["--config", cfg] * (argv[0] != "verify") + argv[1:])
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


def test_one_process_runs_each_command_as_a_fresh_one_does(tmp_path, capsys):
    # main builds its parser once; each later call must behave as in a new process
    cfg = _write(tmp_path, "fano.json", _fano_config())
    alone = []
    for argv in _EACH_COMMAND:
        cli._build_parser.cache_clear()
        alone.append(_main_bytes(argv, cfg, capsys))
    assert [out[0] for out in alone] == [0, 0, 0, 2]
    assert [_main_bytes(argv, cfg, capsys) for argv in _EACH_COMMAND] == alone
    assert cli._build_parser.cache_info().misses == 1
