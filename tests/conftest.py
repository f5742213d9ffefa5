"""Suite-wide settings: hypothesis draws the same examples on every run
(each test's ``max_examples`` is its own), so a run's result and wall
time do not depend on the draw; and every test starts with no core
family stated or certified (``cli._certified_core``), so that a test
that monkeypatches a case function leaves no wrong core behind for the
next one, and each ``verify`` call of a test is cold unless the test
repeats it."""

import pytest
from hypothesis import settings

from cyclotwist import cli

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(autouse=True)
def no_cached_core():
    cli._certified_core.cache_clear()
