from hypothesis import settings

# Property tests draw the same examples on every run, so a failure reproduces.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
