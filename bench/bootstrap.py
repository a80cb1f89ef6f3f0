"""Interpreter set-up shared by the benchmark's two entry scripts.

Import this module before numpy.  OpenBLAS reads its thread count from the
environment once, when numpy loads it, so the pin has to be in place first.
The BLAS and the cross-validation fold pool are held at one thread each, so
each workload is a single closed-loop client with no extra threads.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".bench_runs")

# One thread: a run then needs a single core of the host, and numbers from
# machines of different sizes compare.  On the 2-vCPU host the benchmark was
# tuned on, the full-scale fit took 7.5-8.0 s with one BLAS thread and
# 5.6-6.2 s with two (runs interleaved), but with two its wall_s spread 15%
# between the quartiles of five seeds, against 6% of ten seeds with one.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ["STRUCTPROX_THREADS"] = "1"


def require_package() -> None:
    """Put the checkout's own package first on the path, or exit non-zero.

    The benchmark measures the source next to it and nothing installed
    elsewhere, so a checkout without ``src/structprox`` is an error.
    """
    if not os.path.isfile(os.path.join(SRC, "structprox", "__init__.py")):
        sys.exit("bench: no structprox package under %s" % SRC)
    sys.path.insert(0, SRC)
    import structprox

    if not os.path.abspath(structprox.__file__).startswith(SRC + os.sep):
        sys.exit("bench: structprox was imported from %s, not %s" % (structprox.__file__, SRC))
