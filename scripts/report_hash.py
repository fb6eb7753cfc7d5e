"""Hash every field of every benchmark case's SolveReport, for bit-identity
checks between two trees.

    python3 scripts/report_hash.py --seed 101 [--root TREE] > hashes.json

Imports funcon from ``TREE/src`` and the case lists from
``TREE/perfbench/workloads.py`` (``TREE`` defaults to this checkout), pins
BLAS to min(2, nproc) threads as ``perfbench/run.py`` does, runs one pass of
each workload in order and prints one JSON object: per workload, per case,
the SHA-256 of the report's fields with their exact values (floats by
``repr``, arrays by dtype, shape and bytes), ``wall_seconds`` excepted.
Two trees give the same bits when their outputs are equal.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

WORKLOADS = ("tensor-poly", "elm-features", "gauss-newton")


def canonical(value):
    """Text that differs whenever two values' bits differ."""
    import numpy as np
    if isinstance(value, np.ndarray):
        return f"ndarray({value.dtype.str},{value.shape},{value.tobytes().hex()})"
    if isinstance(value, dict):
        return "{" + ",".join(f"{k!r}:{canonical(v)}"
                              for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical(v) for v in value) + "]"
    if isinstance(value, (float, np.floating)):
        return f"{type(value).__name__}({float(value).hex()})"
    return repr(value)


def report_hash(report):
    text = ";".join(f"{f.name}={canonical(getattr(report, f.name))}"
                    for f in dataclasses.fields(report)
                    if f.name != "wall_seconds")
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--root", default=str(Path(__file__).resolve().parents[1]))
    args = ap.parse_args(argv)
    threads = str(min(2, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    out = {}
    for name in WORKLOADS:
        state, out[name] = {}, {}
        for case in workloads.build(name, args.seed):
            out[name][case.case_id] = report_hash(case.call(state))
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
