"""Hypothesis settings for the whole suite.

Examples are derived from each test's name rather than drawn at random, so
every run checks the same cases, and the per-example deadline is off so a
slow or shared machine does not turn into flaky failures.  The explain
phase, which only annotates a failure after it is found and shrunk, is
skipped: on a failing lattice property it can run for minutes, and without
it every other phase checks the same examples.
"""

from hypothesis import Phase, settings

settings.register_profile("udfgrid", derandomize=True, deadline=None,
                          phases=[phase for phase in Phase if phase is not Phase.explain])
settings.load_profile("udfgrid")
