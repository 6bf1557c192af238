"""Hypothesis settings for the whole suite.

Examples are derived from each test's name rather than drawn at random, so
every run checks the same cases, and the per-example deadline is off so a
slow or shared machine does not turn into flaky failures.
"""

from hypothesis import settings

settings.register_profile("udfgrid", derandomize=True, deadline=None)
settings.load_profile("udfgrid")
