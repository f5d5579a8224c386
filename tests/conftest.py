"""Hypothesis runs the same examples on every run of the suite."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, max_examples=200,
                          deadline=None)
settings.load_profile("deterministic")
