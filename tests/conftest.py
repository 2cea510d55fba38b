from hypothesis import settings

# Property tests draw a fixed example sequence, so every run of the suite
# checks the same cases and its timing does not fail a test.
settings.register_profile("qdcsim", derandomize=True, deadline=None)
settings.load_profile("qdcsim")
