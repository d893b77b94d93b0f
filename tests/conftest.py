"""Shared test settings and fixtures.

Property tests run without hypothesis's per-example deadline: on a loaded
or throttled host one example can take longer than the 200 ms default
without anything being wrong. Example counts stay at their defaults; the
``thorough`` profile (``--hypothesis-profile=thorough``) runs 1000 a test.
"""

import contextlib

import pytest
from hypothesis import settings

from topostat import _parallel

settings.register_profile("topostat", deadline=None)
settings.register_profile("thorough", deadline=None, max_examples=1000)
settings.load_profile("topostat")


@contextlib.contextmanager
def _worker_count(n: int):
    saved = _parallel.WORKERS, _parallel._pool
    _parallel.WORKERS, _parallel._pool = n, None
    try:
        yield
    finally:
        if _parallel._pool is not None:
            _parallel._pool.shutdown()
        _parallel.WORKERS, _parallel._pool = saved


@pytest.fixture()
def workers():
    """``with workers(n):`` runs the parallel passes as on a host of n cores,
    in a thread pool of their own that is shut down on exit."""
    return _worker_count
