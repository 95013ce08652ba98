"""Suite-wide hypothesis settings.

derandomize makes every run draw the same examples, so a tier-1 result
repeats exactly; the plant and network properties run for a variable
time per example, so no example has a deadline.  Tests keep their own
max_examples.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
