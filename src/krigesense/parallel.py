"""The one thread pool helper, for the classifier's fill and solve blocks,
the collinearity scan's row blocks and the Sobol study's response calls.
Each public call opens its own pool and shuts it down before it returns,
so no thread outlives the call.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Any, Callable, List, Optional

__all__ = ["worker_count"]


def worker_count() -> int:
    """Size of the thread pool each call opens: the cores in this
    process's CPU affinity mask, or os.cpu_count() where there is no mask."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _open_pool(most: Optional[int] = None) -> ThreadPoolExecutor:
    """A pool of worker_count() threads, or of at most `most`."""
    workers = worker_count() if most is None else min(worker_count(), most)
    return ThreadPoolExecutor(max_workers=workers,
                              thread_name_prefix="krigesense")


def _in_chunks(pool: ThreadPoolExecutor, task: Callable[[int, int], Any],
               total: int, size: int) -> List[Any]:
    """Run task(start, stop) over [0, total) in blocks of `size` on pool,
    and return the results in block order.

    Block boundaries depend only on total and size, never on the pool, so
    results do not depend on the worker count. Every block finishes
    before the first exception in block order is raised. A single block
    runs inline.
    """
    if total <= size:
        return [task(0, total)]
    futures = [pool.submit(task, start, min(start + size, total))
               for start in range(0, total, size)]
    wait(futures)
    return [future.result() for future in futures]
