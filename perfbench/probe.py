"""Set-up probe: import evostab and build one workload's inputs, then exit.

    python3 perfbench/probe.py <workload> <seed>

run.py times this script in a fresh interpreter, from launch to exit, as
the workload's set-up time: everything a user pays before the first call
into the program.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs the src path)

if __name__ == "__main__":
    workloads.WORKLOADS[sys.argv[1]].inputs(int(sys.argv[2]))
