"""Set-up probe: a fresh interpreter imports mclab, makes the workload's
warm-up call and prints ``ready``.  run.py times it from launch to that line.

    python3 perfbench/setup_probe.py <workload>
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import mclab  # noqa: E402

from workloads import WORKLOADS, warm_up  # noqa: E402

warm_up(mclab, WORKLOADS[sys.argv[1]])
print("ready", flush=True)
