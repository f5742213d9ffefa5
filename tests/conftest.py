"""Suite-wide settings: hypothesis draws the same examples on every run
(each test's ``max_examples`` is its own), so a run's result and wall
time do not depend on the draw."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
