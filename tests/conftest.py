"""Shared test settings.

Hypothesis' default 200 ms deadline per example flakes on a loaded
machine; every property test here runs without one.
"""

from hypothesis import settings

settings.register_profile("flipgroupoid", deadline=None)
settings.load_profile("flipgroupoid")
