"""A fixed pure-Python kernel that measures how fast this host runs now.

The benchmark's host is shared.  On the 2-vCPU box the benchmark was
written on, one ``flood3`` repetition took 4.4 s or 7.2 s, and one
``flood4_reduced`` repetition 0.55 s or 1.15 s, depending on what other
tenants were doing, in phases lasting seconds to minutes; this kernel's
time moved with them.  ``run.py`` times the kernel around every
repetition and scales the repetition's times by ``REFERENCE_S / kernel
time``, so they read as seconds on the reference host at full speed.  The
kernel uses no code of the program under test, so a change to the program
never moves it.
"""

import gc
import time

#: The kernel's time on an idle core of the reference host (2 vCPU Xeon,
#: Python 3.11): scaled times read as seconds on that host.
REFERENCE_S = 0.090


def kernel_seconds(entries: int = 100_000) -> float:
    """Wall time of one pass: allocate a heap of small containers, walk
    it, and run a full collection over it, like the program's state heap."""
    started = time.perf_counter()
    heap = [(i, [i], {"k": i}) for i in range(entries)]
    checksum = sum(entry[1][0] for entry in heap[::7])
    gc.collect()
    del heap
    elapsed = time.perf_counter() - started
    if checksum < 0:  # consumes the result; never true
        raise AssertionError(checksum)
    return elapsed
