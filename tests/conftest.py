"""Shared test settings.

Property tests run without hypothesis's per-example deadline: on a loaded
or throttled host one example can take longer than the 200 ms default
without anything being wrong. Example counts stay at their defaults.
"""

from hypothesis import settings

settings.register_profile("topostat", deadline=None)
settings.load_profile("topostat")
