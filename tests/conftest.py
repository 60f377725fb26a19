import pytest

from growthdiagrams import growth


@pytest.fixture(autouse=True)
def empty_growth_memo():
    """Start every test with an empty growth memo, so that no test sees a
    memo that the tests before it happened to fill."""
    growth._MEMO.clear()
