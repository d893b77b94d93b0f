"""Independent pieces of one pass, run on the cores this process may use.

numpy ufuncs and ``scipy.ndimage`` filters release the GIL, so threads
share the work of one array pass; each piece writes its own part of the
output, and results do not depend on how many threads run. The pool is
made on first use, sized to the affinity mask, and forgotten in a forked
child, which inherits no worker threads.

A function run on a worker calls no public ``topostat`` function and
never calls :func:`_each` itself: workers only compute.
"""

import os

WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
_pool = None


def _forget_pool() -> None:
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _each(fn, pieces) -> None:
    """Call ``fn(piece)`` for every piece; on the worker threads when there
    are several pieces and workers, else on the calling thread."""
    global _pool
    if len(pieces) < 2 or WORKERS < 2:
        for piece in pieces:
            fn(piece)
        return
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor
        _pool = ThreadPoolExecutor(WORKERS, thread_name_prefix="topostat")
    for _ in _pool.map(fn, pieces):
        pass


def _split(n: int, parts: int) -> list[slice]:
    """``parts`` near-equal contiguous slices of range(n): at most n of them,
    and one if n is 0."""
    parts = max(1, min(parts, n))
    return [slice(i * n // parts, (i + 1) * n // parts) for i in range(parts)]
