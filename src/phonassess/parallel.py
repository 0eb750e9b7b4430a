"""One ordered parallel map: the single home for parallelism in the toolkit.

``ordered_map(fn, items, workers)`` returns ``[fn(item) for item in items]``.
It forks no more processes than ``workers``, the items or the CPUs this
process may run on. When that is at most one, it is exactly that loop in
this process. Otherwise the forked processes take the items one at a time,
and the results come back in input order, so the first item (in input
order) whose call raises re-raises its exception here, as the loop would.

Workers are forked, not spawned: a spawned interpreter re-imports numpy and
scipy before its first item. A fork inherits only the modules already
imported, and the package imports scipy in the functions that call it, so a
caller imports the scipy modules its ``fn`` needs before calling
``ordered_map`` (``cli.cmd_extract`` does); otherwise every worker imports
them again (about 0.35 s of CPU time each for the extraction stack's
``scipy.fft``, ``scipy.linalg`` and ``scipy.special`` on a 2-vCPU Xeon).
The pool forks all of its workers before it starts its own manager thread,
and the command-line process runs no other thread, so no lock is held
across the fork. Each worker is a direct child of this process and is
joined before ``ordered_map`` returns. BLAS thread counts are pinned to one
in ``phonassess/__init__.py``, so workers do not oversubscribe the cores.
Workers inherit the caller's allocator policy by fork: under ``cli.main``
they keep freed memory in their heap (``phonassess.allocator``).
"""
from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence, TypeVar

from .errors import PhonassessError

T = TypeVar("T")
R = TypeVar("R")


def ordered_map(fn: Callable[[T], R], items: Sequence[T], workers: int) -> list[R]:
    """``[fn(item) for item in items]`` over up to ``workers`` forked processes.

    ``fn`` (a module-level function or a ``functools.partial`` of one), the
    items and the results must pickle.
    A worker process that dies raises ``PhonassessError``.
    """
    processes = min(workers, len(items), len(os.sched_getaffinity(0)))
    if processes <= 1:
        return [fn(item) for item in items]
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=processes, mp_context=context) as pool:
        try:
            return list(pool.map(fn, items, chunksize=1))
        except BrokenProcessPool as exc:
            raise PhonassessError(f"a worker process died: {exc}") from exc
