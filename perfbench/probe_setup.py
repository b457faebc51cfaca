"""One set-up probe, run in a fresh interpreter by ``run.py``.

Times ``import repro``, the suite matrix build (``get_matrix``) and the
ABFT checksum setup (``compute_checksums``) for one workload's
matrices, and prints the three phase times as one JSON line.  The
caller times the whole process, interpreter start-up included.

Usage: ``python probe_setup.py SRC_DIR SCALE UID [UID ...]``
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import repro  # noqa: E402
from repro.abft.checksums import compute_checksums  # noqa: E402
from repro.sim.matrices import get_matrix  # noqa: E402

t1 = time.perf_counter()
scale = int(sys.argv[2])
matrices = [get_matrix(int(uid), scale) for uid in sys.argv[3:]]
t2 = time.perf_counter()
for a in matrices:
    compute_checksums(a, nchecks=2)
t3 = time.perf_counter()
print(json.dumps({
    "repro_file": repro.__file__,
    "import_s": t1 - t0,
    "matrix_build_s": t2 - t1,
    "checksum_s": t3 - t2,
}))
