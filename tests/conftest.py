"""Test-suite settings: one deterministic hypothesis profile."""

from hypothesis import settings

# every run draws the same examples, so none are stored; solves have no deadline
settings.register_profile("tier1", derandomize=True, database=None, deadline=None,
                          max_examples=40)
settings.load_profile("tier1")
