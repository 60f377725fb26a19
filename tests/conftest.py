import pytest

from growthdiagrams import growth


@pytest.fixture(autouse=True)
def empty_growth_memo():
    """Start every test with an empty growth memo, so that no test sees a
    memo that the tests before it happened to fill: the fold's memo is
    emptied and its one count reset to 0, and no code map is kept."""
    growth._PLANS.clear()
    growth._small_rules.cache_clear()
    growth._small_conjugate.cache_clear()
    growth._clear_fold_memo()
    growth._FOLD_STEPS.clear()
    growth._SWAPS.clear()
    assert growth._FOLD_ENTRIES == 0 and not growth._FULL
