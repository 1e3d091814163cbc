"""Set-up probe: a fresh interpreter sets up one workload, then says so.

    python3 bench/probe.py q2_verify

run.py times it from spawn to the 'ready' line for ``setup_s``.
"""

import sys

import workloads

workloads.WORKLOADS[sys.argv[1]].setup()
print("ready", flush=True)
