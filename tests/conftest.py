"""Shared pytest configuration.

Hypothesis draws its examples from a fixed derandomized sequence and has no
per-example deadline, so a run's outcome does not depend on the random seed
or on how busy the host is.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
