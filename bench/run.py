"""The qsatom benchmark: one workload on one seed, ending in one JSON line.

    python3 bench/run.py --workload xsection-grid --seed 1 --seconds 20 --trace 0

Run it from the root of a qsatom source tree (it imports ``src/qsatom``).
It writes the workload's config, drawn from the seed, and then:

* with ``--trace 0``, starts fresh interpreters before and after the
  measured loop to time the set-up (import of ``qsatom.cli`` plus
  ``cli.load_config``), and one more that calls ``cli.main`` in a
  closed loop, one client at ``--threads 1``, for ``--seconds`` seconds
  and at least 20 calls (unless 70 s pass first).  It prints the
  end-to-end metrics.
* with ``--trace 1``, runs the loop with every second call traced
  (see ``tracing.py``) and prints the per-layer metrics, and the tracing
  overhead as traced minus untraced median wall time.

Every call's output passes the correctness gate in ``gate.py``.  A
summary, the machine record and the sha256 of each sweep output are
printed before the last line and written to ``.bench_out/``.  The last
line holds ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 with a result line, 2 when the tree holds no qsatom
source, 1 when a benchmark process fails to report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS, write_config  # noqa: E402

# Fresh set-ups timed before and after the measured loop (the loop's own
# set-up is one more sample).  The machine's speed state lasts seconds,
# so samples on both sides of the loop see more than one state.
SETUP_PROBES_EACH_SIDE = 3
TAIL_BEYOND = 10     # samples beyond the reported tail percentile
GATED_PERCENTILE = 90
# At least 20 calls, so that the 90th percentile of the slowest workload
# (verify, about 3 s a call) is its third-slowest call; its run then takes
# about a minute.  On a slow machine the loop stops short of 20 calls at
# MEASURE_LIMIT_S, so that the 70 runs of a full benchmark pass (22 per
# workload and 4 more) keep within an hour.
MIN_SAMPLES = 20
MEASURE_LIMIT_S = 70
RUN_LIMIT_S = 170    # a run must end within 180 s
TEARDOWN_S = 20      # kept free after the loop for gate, report and clean-up

# Gated end-to-end metrics.  Wall time is gated on its 90th percentile:
# on a shared 2-core virtual machine the machine's own speed switches
# between a fast and a slow state up to 2x apart, each lasting from
# seconds to minutes.  The slow state shows up in nearly every run, so a
# high percentile varies least from run to run; the median and the
# fastest call follow the share of the run spent in the fast state.  The
# tail with ten samples beyond it is as steady only with 40 or more
# calls, which verify (20 calls) does not reach, so it is reported, not
# gated.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s_p90": "s",
    "peak_rss_mb": "MB",
}
# Reported with every run, not gated, for the reason above.  rows_per_s
# is rows (verify checks for verify) over the median call; error_rate is
# also the result line's failed / attempted.
REPORTED_UNITS = {"wall_s": "s", "wall_s_tail": "s", "wall_s_min": "s",
                  "rows_per_s": "rows/s", "error_rate": "ratio"}

# The benchmark's own processes use one BLAS thread, so that a run keeps
# to one core; the variable is set for the children only.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1"}


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failing call)."""


def tail(samples: list[float]) -> tuple[float | None, float | None]:
    """(value, percentile) of the highest percentile that has at least
    ten samples beyond it: the eleventh-largest sample.  None when there
    are too few samples."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return None, None
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``pct``
    percent of the samples at or below it."""
    xs = sorted(samples)
    return xs[max(1, math.ceil(pct / 100.0 * len(xs))) - 1]


def spawn(spec: dict, work: str, tag: str, deadline: float) -> dict:
    """Run one worker to completion; its result, with the time it was started."""
    spec = dict(spec, result=os.path.join(work, f"{tag}.result.json"))
    spec_path = os.path.join(work, f"{tag}.spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    env = dict(os.environ, **CHILD_ENV)
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{tag}: worker timed out") from exc
    if proc.returncode != 0 or not os.path.exists(spec["result"]):
        raise HarnessError(f"{tag}: worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(spec["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    result["started"] = started
    return result


def machine_record() -> dict:
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "loadavg_at_start": os.getloadavg(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "child_env": CHILD_ENV}


def run(workload_name: str, seed: int, seconds: int, trace: bool, root: str) -> tuple[dict, dict]:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    workload = WORKLOADS[workload_name]
    machine = machine_record()
    out_dir = os.path.join(root, ".bench_out")
    work = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        config = workload.config(seed)
        config_path = os.path.join(work, "config.json")
        write_config(config, config_path)
        out_path = os.path.join(work, "output")
        spec = {"src": os.path.join(root, "src"), "config": config_path,
                "command": workload.command, "out": out_path,
                "argv": workload.argv(config_path, out_path),
                "points": workload.points(config), "trace": trace,
                "seconds": seconds, "min_samples": 1 if trace else MIN_SAMPLES}

        probes = 0 if trace else SETUP_PROBES_EACH_SIDE

        def time_setups(side: str) -> list[float]:
            out = []
            for i in range(probes):
                probe = spawn(dict(spec, mode="setup"), work, f"setup-{side}{i}", deadline)
                out.append(probe["ready"] - probe["started"])
            return out

        setups = time_setups("before")
        max_seconds = min(max(seconds, MEASURE_LIMIT_S),
                          deadline - TEARDOWN_S - time.monotonic())
        res = spawn(dict(spec, mode="measure", max_seconds=max_seconds), work, "measure", deadline)
        setups.append(res["ready"] - res["started"])
        setups += time_setups("after")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = res["walls"]
    record = {"workload": workload.name, "why": workload.why, "seed": seed,
              "seconds": seconds, "trace": trace, "machine": machine,
              "versions": res["versions"], "blas": res["blas"],
              "attempted": res["attempted"], "failed": res["failed"],
              "failures": res["failures"], "rows_per_call": res["rows"],
              "output_sha256": res["sha256"], "samples": len(walls),
              "run_s": time.monotonic() - start}
    if trace:
        traced, per_call = res["traced_walls"], res["per_call"]
        if not per_call:
            raise HarnessError("no traced call completed")
        metrics = {name: statistics.median(c[name] for c in per_call) for name in per_call[0]}
        metrics["trace.wall_s"] = statistics.median(traced)
        metrics["trace.untraced_wall_s"] = statistics.median(walls)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        record["traced_samples"] = len(traced)
        record["paths"] = res["paths"]
        units = PER_LAYER_UNITS
    else:
        tail_value, tail_pct = tail(walls)
        if tail_value is None:
            raise HarnessError(f"{len(walls)} calls are too few for a tail percentile")
        wall = statistics.median(walls)
        metrics = {"setup_s": statistics.median(setups),
                   "wall_s_p90": percentile(walls, GATED_PERCENTILE),
                   "peak_rss_mb": res["peak_rss_kb"] / 1024.0}
        reported = {"wall_s": wall, "wall_s_tail": tail_value, "wall_s_min": min(walls),
                    "rows_per_s": res["rows"] / wall,
                    "error_rate": res["failed"] / res["attempted"]}
        record["reported"] = {k: {"value": reported[k], "unit": u}
                              for k, u in REPORTED_UNITS.items()}
        record.update(tail_percentile=tail_pct, setup_samples=setups, walls=walls)
        units = END_TO_END_UNITS
    record["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    result = {"correct": res["failed"] == 0 and res["attempted"] > 0,
              "attempted": res["attempted"], "failed": res["failed"],
              "metrics": record["metrics"]}
    with open(os.path.join(out_dir, f"{workload.name}.seed{seed}.trace{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record, result


def summary(record: dict) -> str:
    lines = [f"workload {record['workload']} (seed {record['seed']}): {record['why']}",
             f"  calls {record['attempted']}, failed {record['failed']}, "
             f"timed samples {record['samples']}"]
    for name, m in {**record.get("reported", {}), **record["metrics"]}.items():
        note = f" (p{record['tail_percentile']:.1f})" if name == "wall_s_tail" else ""
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}{note}")
    lines += [f"  failure: {f}" for f in record["failures"]]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qsatom", "cli.py")):
        print(f"no qsatom source under {root}/src; run from the root of the tree",
              file=sys.stderr)
        return 2
    try:
        record, result = run(args.workload, args.seed, max(1, args.seconds),
                             bool(args.trace), root)
    except HarnessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(summary(record))
    print(json.dumps({k: record[k] for k in ("machine", "versions", "blas", "output_sha256")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
