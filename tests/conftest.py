from hypothesis import settings

# Property tests draw the same examples on every run, so Tier-1 results
# and timings repeat; no per-example deadline on a shared host.
settings.register_profile("bflab", derandomize=True, deadline=None)
settings.load_profile("bflab")
