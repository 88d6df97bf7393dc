"""One Hypothesis profile for the whole suite: derandomized and without an
example database, so that every run of a property draws the same examples
and a failure repeats.  Each test keeps its own ``max_examples``."""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")
