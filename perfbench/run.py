"""Outside-in benchmark for funcon: time to solution with an accuracy gate.

Run from the repository root:

    python3 perfbench/run.py --workload tensor-poly --seed 1 --seconds 38 --trace 0

One process solves one case at a time, in a fixed order (a closed loop), and
repeats the workload's pass of cases until ``--seconds`` is used up, with at
least one pass.  BLAS threads are pinned to min(2, nproc) before numpy loads.

``--trace 0`` prints the end-to-end metrics of untraced passes.  ``--trace 1``
alternates untraced and traced passes; the traced ones wrap funcon's public
functions from outside (see ``spans.py``) and give the per-layer metrics.
Either way every case is checked against its pinned accuracy bound, results
must repeat exactly between passes, traced or not, and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The environment, the per-case results and, when
traced, the spans of one traced pass go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import spans as spanlib
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5


def pin_blas_threads():
    threads = min(2, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def import_funcon():
    """Import funcon from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "funcon" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no funcon sources under {src}")
    sys.path.insert(0, str(src))
    import funcon
    if Path(funcon.__file__).resolve().parent != (src / "funcon").resolve():
        raise SystemExit(f"perfbench: funcon imported from {funcon.__file__}")


def measure_setup(workload, seed):
    """Median seconds, over fresh processes, to import funcon and construct
    the workload's problem definitions."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def loaded_openblas():
    """Each OpenBLAS library mapped into this process, with its thread
    count as the library reports it."""
    import ctypes
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.rsplit("/", 1)[-1]})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        threads = None
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
        found.append({"library": Path(path).name, "threads": threads})
    return found


def environment(threads, seed):
    import numpy  # only now: the thread pins must precede the BLAS load
    import scipy
    blas = loaded_openblas()
    if any(b["threads"] is not None and b["threads"] > threads for b in blas):
        raise SystemExit(f"perfbench: BLAS runs more than {threads} threads")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_build": numpy.show_config(mode="dicts")["Build Dependencies"]
        ["blas"].get("openblas configuration", "unknown"),
        "blas_loaded": blas,
        "blas_threads_pinned": threads,
        "workload_seed": seed,
    }


def run_pass(cases, tracer=None):
    """Solve every case once, in order; one result row per case."""
    state, rows = {}, []
    for case in cases:
        span = None
        if tracer is not None:
            tracer.begin_case(case.case_id)
            span = tracer.open(spanlib.CASE)
        t0 = time.perf_counter()
        try:
            report = case.call(state)
        except Exception as err:  # a failed case is counted, not fatal
            report, error = None, f"{type(err).__name__}: {err}"
        seconds = time.perf_counter() - t0
        if span is not None:
            tracer.close(span)
        row = {"case": case.case_id, "seconds": seconds}
        if report is None:
            row.update(ok=False, converged=False, headroom=None, why=error)
        else:
            ok, headroom, why = workloads.check(case, report)
            row.update(ok=ok, converged=report.converged, headroom=headroom,
                       why=why, max_error=report.max_error,
                       mean_error=report.mean_error,
                       max_residual=report.max_residual,
                       iterations=report.iterations, reason=report.reason)
        rows.append(row)
    return rows


def traced_pass(cases):
    """One pass with every layer wrapped; returns (rows, spans)."""
    tracer = spanlib.Tracer()
    undo = spanlib.install(tracer)
    try:
        return run_pass(cases, tracer), tracer.spans
    finally:
        undo()


def results(rows):
    """What a pass computed, without its timings; must repeat exactly."""
    keys = ("ok", "max_error", "mean_error", "max_residual", "iterations",
            "reason")
    return [tuple(r.get(k) for k in keys) for r in rows]


def solve_seconds(passes):
    """One pass's seconds, each case at its median over the passes."""
    return sum(statistics.median(p[i]["seconds"] for p in passes)
               for i in range(len(passes[0])))


END_TO_END_UNITS = {
    "solve_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "passed_ratio": "ratio",
    "converged_ratio": "ratio",
    "err_headroom_log10": "log10",
}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    threads = pin_blas_threads()
    import_funcon()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"options: {workloads.WORKLOADS}")
    env = environment(threads, args.seed)
    print("env " + json.dumps(env), flush=True)

    setup_s = measure_setup(args.workload, args.seed)
    cases = workloads.build(args.workload, args.seed)

    kinds = ("plain", "traced") if args.trace else ("plain",)
    passes = {k: [] for k in kinds}
    pass_s = {k: [] for k in kinds}
    traced_metrics = []
    first_spans = None
    t_start = time.perf_counter()
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        t0 = time.perf_counter()
        if kind == "traced":
            rows, spans = traced_pass(cases)
        else:
            rows = run_pass(cases)
        pass_s[kind].append(time.perf_counter() - t0)
        passes[kind].append(rows)
        if kind == "traced":
            traced_metrics.append(spanlib.layer_metrics(spans))
            first_spans = first_spans or spans
        i += 1
        nxt = kinds[i % len(kinds)]
        estimate = statistics.median(pass_s[nxt] or pass_s[kind])
        elapsed = time.perf_counter() - t_start
        if all(passes.values()) and elapsed + estimate > args.seconds:
            break

    all_passes = [p for k in kinds for p in passes[k]]
    rows = [r for p in all_passes for r in p]
    attempted = len(rows)
    failed = sum(not r["ok"] for r in rows)
    problems = [f"{r['case']}: {r['why']}" for r in rows if not r["ok"]]
    if any(results(p) != results(all_passes[0]) for p in all_passes[1:]):
        problems.append("case results differ between passes")

    if args.trace:
        counts = [{k: m[k] for k in spanlib.COUNT_METRICS}
                  for m in traced_metrics]
        if any(c != counts[0] for c in counts[1:]):
            problems.append("layer counts differ between traced passes")
        values = {k: statistics.median(m[k] for m in traced_metrics)
                  for k in spanlib.LAYER_METRICS}
        values["trace.overhead_s"] = (solve_seconds(passes["traced"])
                                      - solve_seconds(passes["plain"]))
        units = spanlib.LAYER_METRICS
    else:
        headrooms = [r["headroom"] for r in all_passes[0]
                     if r["headroom"] is not None]
        values = {
            "solve_s": solve_seconds(passes["plain"]),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "passed_ratio": (attempted - failed) / attempted,
            "converged_ratio": sum(r["converged"] for r in rows) / attempted,
            "err_headroom_log10": min(headrooms) if headrooms else -1.0,
        }
        units = END_TO_END_UNITS

    for msg in problems:
        print(f"perfbench: {msg}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    record = {"args": vars(args), "env": env, "result": result,
              "bounds": {c.case_id: [asdict(b) for b in c.bounds]
                         for c in cases},
              "pass_seconds": pass_s, "cases": passes}
    if first_spans is not None:
        record["spans"] = [[s.name, s.start, s.end, s.parent, s.case, s.attrs]
                           for s in first_spans]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, separators=(",", ":")))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
