"""Shared test settings.

Property tests draw a fixed, capped set of examples, so every run of the
suite checks the same inputs and takes the same time.
"""
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, max_examples=60,
                          deadline=None, database=None)
settings.load_profile("deterministic")
