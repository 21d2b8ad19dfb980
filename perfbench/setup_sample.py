"""One set-up sample in a fresh interpreter, for run.py's ``setup_s``.

    python3 perfbench/setup_sample.py SRC WORKLOAD SEED TINY WORKDIR

Imports chiprank from SRC, makes WORKLOAD's inputs for SEED (TINY is 0 or
1, WORKDIR takes kn-cli's config files) and prints the seconds both took.
The clock starts before any import, so the sample pays for every module
chiprank pulls in, standard library included, as a workload's own process
does.  The benchmark's own workloads module is imported inside the timed
span too; its cost is the same at every commit.
"""

from time import perf_counter

T0 = perf_counter()

import random  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

src, workload, seed, tiny, workdir = sys.argv[1:6]
sys.path.insert(0, src)
import chiprank  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[workload].make(random.Random(int(seed)), tiny == "1", Path(workdir))
elapsed = perf_counter() - T0
if Path(chiprank.__file__).resolve().parent != (Path(src) / "chiprank").resolve():
    sys.exit(f"chiprank imported from {chiprank.__file__}, not from {src}")
print(repr(elapsed))
