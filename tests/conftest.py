"""Hypothesis draws the same examples on every run and keeps no example database,
so a run is repeatable and saves no examples under .hypothesis/."""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")
