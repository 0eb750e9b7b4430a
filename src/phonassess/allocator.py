"""The command-line process keeps freed memory in its heap.

By default glibc serves every block of 128 KiB or more with its own
``mmap`` and unmaps it on ``free``, so each large numpy temporary is faulted
in page by page again on its next use. A 10-vowel ``extract`` took about
675 k minor faults that way, and 2.5 s of ``sys`` time of its 16.4 s of
CPU. ``keep_freed_memory`` raises both thresholds through ``mallopt``, so
freed blocks stay in the heap and are reused. ``cli.main`` calls it first;
``extract``'s forked workers (``phonassess.parallel``) inherit the policy.
Importing the package changes nothing.

Where the C library has no ``mallopt`` or refuses a value, the helper does
nothing: the policy changes only speed and memory reuse, never a result.
"""
from __future__ import annotations

import ctypes

# glibc's mallopt parameter numbers (malloc.h)
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

# Blocks below this come from the heap. 32 MiB is the largest value 64-bit
# glibc accepts (HEAP_MAX_SIZE / 2); it covers every per-block temporary of
# extraction.
MMAP_THRESHOLD = 32 * 1024 * 1024
# Free memory at the top of the heap goes back to the system only beyond
# this. 256 MiB is well above what extraction frees and allocates again per
# analysis block, so its loop never trims and grows the heap again.
TRIM_THRESHOLD = 256 * 1024 * 1024


def keep_freed_memory() -> bool:
    """Set glibc's mmap and trim thresholds; True if the C library took both.

    Without a ``mallopt`` it does nothing and returns False; it stops at the
    first value the library refuses.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library handle
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all(mallopt(param, value) == 1 for param, value in
               ((M_MMAP_THRESHOLD, MMAP_THRESHOLD), (M_TRIM_THRESHOLD, TRIM_THRESHOLD)))
