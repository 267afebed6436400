"""Set-up probe, run in a fresh interpreter by run.py: imports `diapason`
and `diapason.cli`, builds one workload's inputs, and prints the seconds
that took.  Interpreter start-up is not included.

    python3 -I diapbench/setup_child.py closure-ladder 1
"""

import time

_start = time.perf_counter()

import os  # noqa: E402  (already loaded at start-up; costs nothing)
import sys  # noqa: E402

_here = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(_here), "src"), _here]

import diapason  # noqa: E402,F401
import diapason.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
print(time.perf_counter() - _start)
