"""Hypothesis profiles for the suite.

`derandomize` is loaded by default: every run draws the same examples, so a
failure replays without the local example database. `explore` draws anew on
each run, for a search beyond those examples:
`pytest --hypothesis-profile=explore`.
"""

from hypothesis import settings

settings.register_profile("derandomize", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile("derandomize")
