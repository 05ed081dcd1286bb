"""Property tests draw the same examples on every run: the hypothesis
profile is derandomised, keeps no example database and has no deadline."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
