"""Run a block of numpy linear algebra on one OpenBLAS thread.

numpy's bundled OpenBLAS spreads LAPACK's symmetric eigensolver over all
of its threads.  On the small matrices roadgame decomposes, the hand-offs
cost far more than the work: on a 2-vCPU Linux VM with OpenBLAS 0.3.31,
``numpy.linalg.eigh`` takes about 47 ms on two threads and 0.7 ms on one
for a 64x64 matrix, and 626 ms against 74 ms at 512x512.  The woken
thread then spins on the other core, and under CPU contention the
hand-offs slow further.  roadgame runs its parallel work in worker
processes, so ``one_thread`` pins such calls to one thread; the results
do not depend on the thread count.

Only an OpenBLAS bundled with numpy (the ``numpy.libs`` or
``numpy/.dylibs`` directory of a wheel) is found; with any other BLAS
``one_thread`` changes nothing.

Two calls stay threaded: the eigenvector's dense matvec, which gains
from a second thread at scale (2.1-2.4 s against 4.3-5.0 s at 2,048
nodes), and botgrep's P^t products in ``analysis._matrix_power``, which
``mixing_partition`` runs outside ``one_thread``.  But after each
threaded call an idle OpenBLAS helper spins for
``2**OPENBLAS_THREAD_TIMEOUT`` cycles, by default 2**28 (about
0.1 s of a core), before it sleeps; numpy's own start-up wakes it, so a
run on the default 8x8 grid spent about 30% of its CPU time there.  So
importing ``roadgame`` sets ``OPENBLAS_THREAD_TIMEOUT=24`` in
``os.environ`` when it is unset.  A helper then spins a few ms: long
enough to stay awake from one power iteration's matvec to the next, so
the matvec keeps its time, and short enough that start-up costs no
measurable CPU.  OpenBLAS's minimum, 4, put the helper to sleep between
matvecs and cost about 7% of the eigenvector's time at 2,048 nodes.  No
result depends on the timeout.

A value the user set wins.  OpenBLAS reads the variable once, as it
loads, so a process that imported numpy before roadgame keeps whatever
timeout it started with.  The variable stays in ``os.environ``: child
processes inherit it, and so does any other OpenBLAS loaded later in
the same process.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import cache
from pathlib import Path

import numpy as np


@cache
def _openblas_threads():
    """``(get, set)`` thread-count functions of numpy's bundled OpenBLAS, or None."""
    import ctypes  # loaded only by the calls that decompose a matrix
    package = Path(np.__file__).parent
    for lib_dir in (package.parent / "numpy.libs", package / ".dylibs"):
        for path in sorted(lib_dir.glob("*openblas*")):
            try:
                lib = ctypes.CDLL(str(path))   # the handle numpy already loaded
            except OSError:
                continue
            for prefix in ("scipy_openblas", "openblas"):
                for suffix in ("64_", ""):
                    get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                    put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                    if get is not None and put is not None:
                        get.argtypes, get.restype = [], ctypes.c_int
                        put.argtypes, put.restype = [ctypes.c_int], None
                        return get, put
    return None


@contextmanager
def one_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore its count."""
    found = _openblas_threads()
    if found is None:
        yield
        return
    get, put = found
    threads = get()
    put(1)
    try:
        yield
    finally:
        put(threads)
