"""Shared fixtures."""

import pytest
from hypothesis.internal.conjecture import providers


@pytest.fixture(scope="module")
def hypothesis_without_local_constants():
    """Hypothesis examples that depend only on the test, not on the session.

    Hypothesis (6.155) mixes literals mined from every local module in
    sys.modules into its draws, and caches the pools it builds from them.  So
    a derandomized test drew other examples in the full suite, which also
    imports liecoord.cli and the perfbench modules, than alone, and other
    examples whenever the library's source changed.  While this fixture is
    active the pool of local literals is empty.
    """
    mined = providers._get_local_constants
    providers._get_local_constants = providers.Constants
    providers.CONSTANTS_CACHE.cache.clear()
    try:
        yield
    finally:
        providers._get_local_constants = mined
        providers.CONSTANTS_CACHE.cache.clear()
