"""One Hypothesis profile for the whole suite: derandomized and without an
example database, so that every run of a property draws the same examples
and a failure repeats.  Each test keeps its own ``max_examples``.

The examples still depend on what the process has loaded: Hypothesis
mixes constants harvested from every local module it has imported into
its draws.  An edit to ``src/`` (or a test module) can change the
examples a property draws, and a test file run alone draws other examples
than the whole suite does.  A property result counts only from a full
tier-1 run, and a failure found there repeats only with the same set of
files."""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")
