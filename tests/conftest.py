from hypothesis import settings

# Wall time per example is not a property of the code under test, and this
# suite runs on hosts whose speed drifts, so no example has a deadline.
# Tests that pass their own @settings keep this default.
settings.register_profile("metricmass", deadline=None)
settings.load_profile("metricmass")
