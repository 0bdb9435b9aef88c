"""Hypothesis profiles.

``ci`` draws the same examples on every run and prints the reproduction blob
of a failing one, so a property that fails in CI fails the same way locally:

    python -m pytest --hypothesis-profile=ci
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
