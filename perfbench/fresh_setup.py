"""Set-up as a user pays it, in a fresh interpreter: import the package,
warm up the kernels (numba compiles here when present) and write the
workload's input files.  ``run.py`` times whole runs of this script as
``setup_s``.

    python3 perfbench/fresh_setup.py WORKLOAD SEED WORKDIR
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import feedback_lab  # noqa: E402
from feedback_lab import kernels  # noqa: E402

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, work = sys.argv[1:4]
    kernels.warm_up()
    workloads.WORKLOADS[name](Path(work), int(seed)).write_inputs()
