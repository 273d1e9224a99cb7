"""Set-up probe: a fresh interpreter does everything a workload needs before
its first step (imports, config parse, grid, initial state), then prints
`ready`.  run.py times this from process start to that line.

    python3 perfbench/probe.py WORKLOAD
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports the gradabs package)

if __name__ == "__main__":
    workloads.setup(sys.argv[1])
    print("ready", flush=True)
