"""Print the seconds a fresh interpreter takes to import dynq and set up a workload.

    python3 bench/setup_probe.py fusion3-a2

run.py starts this a few times per run and reports the median set-up time.
"""

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

t0 = perf_counter()
import workloads  # noqa: E402  (the import is part of what is timed)

workloads.WORKLOADS[sys.argv[1]]()
print(perf_counter() - t0)
