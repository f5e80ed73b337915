"""Fixed malloc thresholds, so that a report's cost does not depend on the
allocation history of the process.

A report loads a trace and frees it again: on a 4 Hz trace a few MB of
arrays per report. glibc's malloc adapts two thresholds as it goes: the size
above which a block gets its own mmap, and the free space at the top of the
heap above which the heap is given back to the kernel. Where those land
depends on the exact order of earlier allocations (a path one byte longer
is enough), and they decide whether a report reuses its memory or takes
every page fresh from the kernel: on the long-series benchmark trace one
report took 1 page fault in one process and 1,340 (about 4 ms of 15) in the
next. Fixing the thresholds at glibc's own upper limits keeps arrays up to
32 MiB on the heap and the freed space for reuse, in every process.
"""

from __future__ import annotations

import ctypes
import os

#: mallopt parameters (glibc malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

#: glibc's ceiling for the adaptive mmap threshold on 64-bit systems.
MMAP_THRESHOLD = 32 * 1024 * 1024
#: Twice that, the ratio glibc itself keeps between the two.
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


def fix_malloc_thresholds() -> bool:
    """Set both thresholds on glibc, unless the environment already sets
    malloc's parameters; returns whether they were set."""
    if any(name.startswith("MALLOC_") for name in os.environ) or "glibc.malloc." in (
        os.environ.get("GLIBC_TUNABLES", "")
    ):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    done = (mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD), mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD))
    return all(done)
