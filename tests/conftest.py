"""Hypothesis runs derandomized, so every property test draws the same examples on every run."""

from hypothesis import settings

settings.register_profile("seeded", derandomize=True, deadline=None, database=None)
settings.load_profile("seeded")
