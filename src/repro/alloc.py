"""Fixed glibc malloc thresholds for the whole process.

glibc serves a block of at least ``M_MMAP_THRESHOLD`` bytes with a fresh
``mmap`` and gives heap space above ``M_TRIM_THRESHOLD`` back to the kernel
on ``free``. By default both move: the mmap threshold starts at 128 KiB and
rises to the size of each larger mmapped block the process frees (up to
32 MiB), and the trim threshold follows at twice that. Engine rounds
allocate numpy temporaries of 0.1 to a few MiB, so what they cost depended
on which arrays the process happened to free before. On TT, the same SSSP
direct evaluation took 13 ms with no minor page faults, or 15-20 ms with
about 2 600 (fresh zero pages), depending only on whether some earlier,
unrelated array had been released.

:func:`pin_thresholds` sets both to the values the dynamic rule converges
to, 32 MiB and 64 MiB, so it holds from the first query on. ``import
repro`` calls it once. It does nothing off glibc, and nothing when the
environment sets either threshold itself.
"""

from __future__ import annotations

import ctypes
import os
import platform
from typing import Mapping

M_TRIM_THRESHOLD = -1   # mallopt parameter numbers from glibc's malloc.h
M_MMAP_THRESHOLD = -3

MMAP_THRESHOLD = 32 << 20            # glibc's DEFAULT_MMAP_THRESHOLD_MAX (64-bit)
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD  # the ratio the dynamic rule keeps

_ENV_NAMES = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")
_TUNABLES = ("glibc.malloc.mmap_threshold", "glibc.malloc.trim_threshold")


def pin_thresholds(environ: Mapping[str, str] = os.environ) -> bool:
    """Set the mmap and trim thresholds; True if glibc accepted both."""
    if platform.libc_ver()[0] != "glibc":
        return False
    tunables = environ.get("GLIBC_TUNABLES", "")
    if any(environ.get(name) for name in _ENV_NAMES) or any(
            name in tunables for name in _TUNABLES):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
            and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1)
