"""Print the seconds this fresh process takes to import funcon and construct
one workload's problem definitions.

    python3 perfbench/setup_probe.py WORKLOAD SEED

``run.py`` starts it several times and reports the median as ``setup_s``.
"""

import sys
import time
from pathlib import Path

import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
t0 = time.perf_counter()
workloads.build(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - t0)
