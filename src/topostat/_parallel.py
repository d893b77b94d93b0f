"""Independent pieces of one pass, run on the cores this process may use.

File reads, numpy ufuncs, BLAS and ``scipy.ndimage`` filters on large
arrays release the GIL, so threads share the work of four passes: the files
of a dataset, the observations of a stack to smooth, the two halves of the
fit's column slabs and the vertex ranges of the smoothness pass. Each piece writes its own
part of the output and waits for no other, and results do not depend on how
many threads run. :func:`_runs` is the one rule that cuts block-sized
pieces, the fit's slabs and the smoothness pass's ranges, none a lone column
unless there is only one: numpy sums a lone column pairwise. :func:`_dots`,
the pieces' column sums of products, keeps that rule too. The pool is made
on first use, sized to the affinity mask, and forgotten in a forked child,
which inherits no worker threads.

A function run on a worker calls no public ``topostat`` function and
never calls :func:`_each` itself: workers only compute.

Philox draws never release the GIL, and small filters hold it, so
:func:`_ahead` draws Monte Carlo fields in forked processes instead, one
per worker, each taking every WORKERS-th block. Its ``fill(i, out)``
writes ``out`` and, like a worker, calls no public ``topostat`` function;
whatever else it changes is lost with the child. It uses no BLAS and no
pool, whose threads the fork leaves behind.
"""

import contextlib
import math
import os
import signal
import traceback

import numpy as np

WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
SLOTS = 5  # blocks the producers of _ahead may fill before the caller takes them
#: bytes of stack per piece of a pass: about the size of each of a piece's
#: temporaries, a few of which share a core's L2 cache; a smaller pass runs inline
BLOCK_BYTES = 1 << 20
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


def _runs(n: int, unit_bytes: int) -> list[slice]:
    """Near-equal contiguous runs of range(n), each about BLOCK_BYTES of ``unit_bytes``
    units and >= 2 unless there is one: numpy sums a lone column pairwise."""
    parts = max(1, min(-(-n * unit_bytes // BLOCK_BYTES), n // 2))
    return [slice(i * n // parts, (i + 1) * n // parts) for i in range(parts)]


def _dots(a, b, out=None):
    """Column sums of ``a * b`` for 2-D ``a`` and ``b``, equal to
    ``(a * b).sum(axis=0)`` bit for bit: ``einsum`` adds the products row by
    row as that sum does, with no product array, on >= 2 columns (numpy's
    x86-64 baseline build fuses no multiply-add there); a lone column numpy
    sums pairwise, so it takes the product and its sum."""
    if a.shape[1] < 2:
        return np.multiply(a, b).sum(axis=0, out=out)
    return np.einsum("ij,ij->j", a, b, out=out)


@contextlib.contextmanager
def _ahead(fill, n: int, shape):
    """``with _ahead(fill, n, shape) as blocks:`` iterates over n float64
    blocks of ``shape``, block i filled by ``fill(i, out)``, the caller's
    until the next is taken. With several workers and ``os.fork``, producer q
    of P = min(WORKERS, n) forked ones fills blocks q, q + P, ... meanwhile,
    block i into slot i % SLOTS of one shared ring. The producers are reaped
    on every way out, a failed pipe or fork too, and the ``with`` raises
    RuntimeError if one failed."""
    if WORKERS < 2 or not hasattr(os, "fork"):
        out = np.empty(shape)
        yield (fill(i, out) or out for i in range(n))  # fill returns None
        return
    import mmap
    ring = np.frombuffer(mmap.mmap(-1, 8 * SLOTS * math.prod(shape))).reshape(SLOTS, *shape)
    producers = min(WORKERS, n)
    # the open ends of each producer's two pipes: a byte per block taken, whose
    # slot that producer may refill, and a byte per block it filled
    pids, frees, fulls = [], [], []
    try:
        for q in range(producers):
            frees += os.pipe()
            fulls += os.pipe()
            pid = os.fork()
            if pid == 0:  # producer q leaves by os._exit, never into the caller's stack
                status = 1
                try:
                    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller stops it
                    free_r, full_w = frees[-2], fulls[-1]
                    for fd in {*frees, *fulls} - {free_r, full_w}:  # the caller's ends
                        os.close(fd)
                    for i in range(q, n, producers):
                        if i >= SLOTS and not os.read(free_r, 1):
                            break  # the caller has left the with
                        fill(i, ring[i % SLOTS])
                        os.write(full_w, b"\0")
                    status = 0
                except Exception:
                    traceback.print_exc()
                finally:
                    os._exit(status)
            pids.append(pid)
            os.close(frees.pop(-2))  # producer q's ends
            os.close(fulls.pop())

        def taken():
            for i in range(n):
                if 0 < i <= n - SLOTS:  # the producer of block i - 1 + SLOTS waits for its slot
                    os.write(frees[(i - 1 + SLOTS) % producers], b"\0")
                if not os.read(fulls[i % producers], 1):
                    raise RuntimeError(f"the field producer ended before block {i}")
                yield ring[i % SLOTS]

        yield taken()
    finally:
        for fd in frees:  # each producer stops at its next read
            os.close(fd)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
        for fd in fulls:  # only now, so that no write of a producer fails
            os.close(fd)
        if any(codes):  # also in place of a broken pipe to a dead producer
            raise RuntimeError(f"the field producers failed with exit statuses {codes}")
