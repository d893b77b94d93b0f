"""Shared test settings and fixtures.

Property tests run without hypothesis's per-example deadline: on a loaded
or throttled host one example can take longer than the 200 ms default
without anything being wrong. Example counts stay at their defaults; the
``thorough`` profile (``--hypothesis-profile=thorough``) runs 1000 a test.
Both print a failing example's ``@reproduce_failure`` line, so a failure
seen once, in CI say, can be replayed without a search over seeds.
"""

import contextlib

import pytest
from hypothesis import settings

from topostat import _parallel, glm, lkc

settings.register_profile("topostat", deadline=None, print_blob=True)
settings.register_profile("thorough", deadline=None, max_examples=1000, print_blob=True)
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


class ChainLog(list):
    """(name, whether inside a ``lkc.fit_resels`` call) per logged call."""

    #: one fit's way to its resels
    one_fit = [("fit_resels", False), ("normalized_residuals", True),
               ("lattice_smoothness", True), ("intrinsic_volumes", True), ("lkc_vector", True)]


@pytest.fixture()
def resel_chain(monkeypatch):
    """A :class:`ChainLog` of each call of ``lkc.fit_resels`` and of the four steps
    it takes, through the bindings it calls them by: a caller that took a step
    itself logs it as outside."""
    log, depth = ChainLog(), [0]

    def spy(owner, name):
        real = getattr(owner, name)

        def called(*args, **kwargs):
            log.append((name, depth[0] > 0))
            depth[0] += name == "fit_resels"
            try:
                return real(*args, **kwargs)
            finally:
                depth[0] -= name == "fit_resels"

        monkeypatch.setattr(owner, name, called)

    for owner, name in [(lkc, "fit_resels"), (glm, "normalized_residuals"),
                        (lkc, "lattice_smoothness"), (lkc, "intrinsic_volumes"),
                        (lkc, "lkc_vector")]:
        spy(owner, name)
    return log
