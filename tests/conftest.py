"""Hypothesis profiles for the suite.

"deterministic", loaded by default, derives each property's examples from
the test itself (derandomize) and reads no example database, so every run
of the suite draws the same examples.  "search" draws afresh: select it
with `--hypothesis-profile=search` and fix its draw with
`--hypothesis-seed=<seed>`; properties without an example count of their
own run 1000 examples there.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.register_profile("search", derandomize=False, database=None, max_examples=1000)
settings.load_profile("deterministic")
