"""Self-tests of the benchmark: python -m pytest bench"""

from __future__ import annotations

import json
import os
import sys

import pytest

import gate
import run
import tracing
from workloads import WORKLOADS, write_config

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_config(tmp_path, name):
    w = WORKLOADS[name]
    paths = []
    for i, seed in enumerate((7, 7, 8)):
        paths.append(tmp_path / f"{i}.json")
        write_config(w.config(seed), str(paths[-1]))
    a, b, c = (p.read_bytes() for p in paths)
    assert a == b
    assert a != c


def _small_spectrum(tmp_path):
    from qsatom import cli

    config = {"mode": "scalars",
              "scalars": {"delta0_plus": -0.03, "delta0_minus": 0.13,
                          "norm2_pg_plus": 0.005, "norm2_pg_minus": 0.005,
                          "norm2_pdg": 0.02, "eps_r": -0.001},
              "eta2": [18.0, 4.0], "ztilde": [0.5, -1.0], "x_grid": [3.0, -2.0, 0.0],
              "gammatilde": 0.6, "mollow_reference": True}
    cfg_path, out = str(tmp_path / "cfg.json"), str(tmp_path / "out.csv")
    write_config(config, cfg_path)
    assert cli.main(["spectrum", "--config", cfg_path, "--out", out]) == 0
    return config, out


def test_gate_accepts_a_clean_csv(tmp_path):
    config, out = _small_spectrum(tmp_path)
    assert gate.check_call("spectrum", 0, out, config) == 12


@pytest.mark.parametrize("corrupt", [
    lambda f: f[:3] + ["nan"] + f[4:],                  # non-finite value
    lambda f: f[:-1],                                   # missing field
    lambda f: [f[1], f[0]] + f[2:],                     # wrong grid point
    lambda f: f[:4] + [f[4].replace("e", "x", 1)] + f[5:],  # not a number
])
def test_gate_rejects_one_corrupted_csv_row(tmp_path, corrupt):
    config, out = _small_spectrum(tmp_path)
    with open(out, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines[5] = ",".join(corrupt(lines[5].split(",")))
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(gate.GateError):
        gate.check_call("spectrum", 0, out, config)


def test_gate_rejects_missing_row_and_nonzero_exit(tmp_path):
    config, out = _small_spectrum(tmp_path)
    with pytest.raises(gate.GateError):
        gate.check_call("spectrum", 1, out, config)
    with open(out, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")
    with pytest.raises(gate.GateError):
        gate.check_call("spectrum", 0, out, config)


def test_gate_checks_the_xsection_sum_rule(tmp_path):
    config = {"eta2": [4.0], "ztilde": [0.0]}
    doc = {"schema": gate.SCHEMA, "columns": gate.XSECTION_COLUMNS,
           "rows": [[4.0, 0.0, 0.5, 0.25, 0.25]]}
    path = tmp_path / "x.json"
    path.write_text(json.dumps(doc))
    assert gate.check_xsection_json(str(path), config) == 1
    doc["rows"][0][4] = 0.25 * (1 + 1e-11)
    path.write_text(json.dumps(doc))
    with pytest.raises(gate.GateError):
        gate.check_xsection_json(str(path), config)


def _span(name, start, end, parent):
    return tracing.Span(name, start, end, parent, 1)


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),          # 0
        _span("a.f", 1.0, 4.0, 0),                 # 1
        _span("a.g", 2.0, 3.0, 1),                 # 2
        _span("a.h", 3.0, 6.0, 0),                 # 3: overlaps 1 on [3, 4]
        _span("a.f", 7.0, 9.0, 0),                 # 4
        _span("a.f", 7.5, 8.0, 4),                 # 5: nested in the same function
        _span("a.g", 9.5, 11.0, 0),                # 6: runs past its parent
    ]
    assert tracing.self_times(spans) == pytest.approx([2.5, 2.0, 1.0, 3.0, 1.5, 0.5, 1.5])
    table = tracing.by_path(spans)
    assert table[("cli.main", "a.f")] == pytest.approx([2, 5.0, 3.5])
    assert table[("cli.main", "a.f", "a.f")] == pytest.approx([1, 0.5, 0.5])
    names = tracing.by_name(table)
    assert names["a.f"] == pytest.approx({"calls": 3, "total_s": 5.0, "self_s": 4.0})
    assert names["a.g"] == pytest.approx({"calls": 2, "total_s": 2.5, "self_s": 2.5})
    assert names["cli.main"]["self_s"] == pytest.approx(2.5)


def test_tracer_wraps_functions_where_they_are_looked_up():
    import math

    from qsatom import model, xsection

    originals = (model.reduced_scalars, xsection.reduced_scalars, xsection.cross_sections)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sc = model.ScatteringScalars(-0.03, 0.13, 0.005, 0.005, 0.02, -0.001)
        xsection.cross_sections(sc, model.DriveConfig(math.sqrt(18.0), 0.0, 0.6))
    finally:
        tracer.restore()
    assert (model.reduced_scalars, xsection.reduced_scalars,
            xsection.cross_sections) == originals
    spans, _ = tracer.drain()
    names = tracing.by_name(tracing.by_path(spans))
    assert names["xsection.cross_sections"]["calls"] == 1
    assert names["model.reduced_scalars"]["calls"] == 3
    assert spans[0].name == "xsection.cross_sections" and spans[0].parent == -1
    assert all(s.parent == 0 for s in spans if s.name.endswith(("sigma_tot", "sigma_el")))


def test_tail_leaves_ten_samples_beyond_it():
    value, pct = run.tail([float(v) for v in range(20, 0, -1)])
    assert value == 10.0 and pct == 50.0
    assert run.tail([1.0] * 10) == (None, None)


def test_percentile_is_nearest_rank():
    samples = [float(v) for v in range(20, 0, -1)]
    assert run.percentile(samples, 90) == 18.0
    assert run.percentile(samples, 100) == 20.0
    assert run.percentile(samples, 0) == 1.0
    assert run.percentile([3.0], 90) == 3.0


def test_benchmark_json_lists_what_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
