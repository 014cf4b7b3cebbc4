"""One benchmark process: set up qsatom, then call ``cli.main`` in a closed loop.

    python3 bench/worker.py <spec.json>

``run.py`` starts this in a fresh interpreter for every set-up sample and
for every measured loop.  The spec names the source tree, the config,
the CLI argv and output path, how long to measure and whether to trace.
The result goes, as JSON, to the spec's ``result`` path.

Nothing heavy is imported before ``qsatom.cli`` and ``cli.load_config``
are done, because that moment ends the set-up time.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _blas_record() -> list[dict]:
    """Version, build configuration and thread count of each OpenBLAS the
    process has loaded (numpy's and scipy's may differ)."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and ".so" in line})
    except OSError:
        return []
    out = []
    for path in libs:
        lib = ctypes.CDLL(path)
        rec = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    rec["threads"] = get_threads()
                    rec["config"] = get_config().decode()
        out.append(rec)
    return out


def _sha256(path: str) -> str:
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _call(cli, argv):
    """One timed ``cli.main`` call: (seconds, exit code, error or None).
    An uncaught exception is a failed call, not the end of the run."""
    start = time.perf_counter()
    try:
        code, error = cli.main(argv), None
    except SystemExit as exc:
        code, error = exc.code, f"SystemExit: {exc.code}"
    except Exception as exc:  # the loop must go on; the failure is recorded
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        where = f"{os.path.basename(tb.tb_frame.f_code.co_filename)}:{tb.tb_lineno}"
        code, error = None, f"{type(exc).__name__} at {where}: {exc}"
    return time.perf_counter() - start, code, error


def measure(spec: dict, cli) -> dict:
    """The closed loop: one client, each call starts when the last ended."""
    import resource

    import gate
    import tracing

    with open(spec["config"], encoding="utf-8") as fh:
        config = json.load(fh)
    argv, out = spec["argv"], spec["out"]
    tracer = tracing.Tracer() if spec["trace"] else None
    walls, traced_walls, failures, digests, per_call = [], [], [], {}, []
    paths: dict = {}
    attempted = failed = rows = 0
    start = time.monotonic()
    deadline, hard_stop = start + spec["seconds"], start + spec["max_seconds"]
    last = 0.0
    while True:
        now = time.monotonic()
        enough = len(walls) >= spec["min_samples"] and (not tracer or traced_walls)
        if (now >= deadline and enough) or now + last >= hard_stop:
            break
        # in a traced run every second call is traced; the others give the
        # untraced time the tracing overhead is measured against
        traced = tracer is not None and attempted % 2 == 1
        attempted += 1
        if os.path.exists(out):
            os.remove(out)
        if traced:
            tracer.run = attempted
            tracer.install()
        try:
            last, code, error = _call(cli, argv)
        finally:
            if traced:
                tracer.restore()
        (traced_walls if traced else walls).append(last)
        try:
            if error is not None:
                raise gate.GateError(error)
            rows = gate.check_call(spec["command"], code, out, config)
            if spec["command"] != "verify":
                digest = _sha256(out)
                digests[digest] = digests.get(digest, 0) + 1
                if len(digests) > 1:
                    raise gate.GateError("output differs between calls on one config")
        except (gate.GateError, OSError, ValueError, KeyError) as exc:
            failed += 1
            if len(failures) < 5:
                failures.append(f"call {attempted}: {exc}")
        if traced:
            spans, counters = tracer.drain()
            table = tracing.by_path(spans)
            size = os.path.getsize(out) if os.path.exists(out) else 0
            per_call.append(tracing.call_metrics(table, counters, spec["points"], size))
            for path, row in table.items():
                acc = paths.setdefault(path, [0, 0.0, 0.0])
                for k in range(3):
                    acc[k] += row[k]
    result = {"walls": walls, "attempted": attempted, "failed": failed,
              "failures": failures, "rows": rows, "sha256": digests,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "versions": {m: sys.modules[m].__version__ for m in ("numpy", "scipy")},
              "blas": _blas_record()}
    if tracer is not None:
        result["traced_walls"] = traced_walls
        result["per_call"] = per_call
        result["paths"] = [{"path": " > ".join(p), "calls": c, "total_s": t, "self_s": s}
                           for p, (c, t, s) in sorted(paths.items())]
    return result


def main(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from qsatom import cli

    cli.load_config(spec["config"])
    ready = time.monotonic()
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(spec["src"]) + os.sep):
        sys.exit(f"qsatom imported from {cli.__file__}, not from {spec['src']}")
    result = {"ready": ready}
    if spec["mode"] == "measure":
        result.update(measure(spec, cli))
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
