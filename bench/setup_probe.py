"""Set-up as a user pays it: a fresh interpreter imports simroots and
generates one workload's inputs.  bench/run.py times this script.

    python3 bench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (imports simroots)

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.generate(name, seed, workdir).close()
