import pytest

from growthdiagrams import growth


@pytest.fixture(autouse=True)
def empty_growth_memo():
    """Start every test with an empty growth memo, so that no test sees a
    memo that the tests before it happened to fill."""
    growth._PLANS.clear()
    growth._small_rules.cache_clear()
    growth._small_conjugate.cache_clear()
    growth._clear_fold_memo()
    growth._FOLD_STEPS.clear()
