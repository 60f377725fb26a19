import pytest

from growthdiagrams.shapes import (FerrersShape, InstanceTooLarge,
                                   StackPolyomino, parse_word,
                                   shape_from_text, shape_from_word,
                                   stack_from_text, staircase)


def test_word_round_trip():
    shape = FerrersShape((5, 3, 3, 2, 2, 1))
    fresh = FerrersShape((5, 3, 3, 2, 2, 1))
    assert shape.word == "RDRDDRDDRRD"
    assert shape_from_word(shape.word) == shape
    # the word is kept once computed, outside equality, hashing and repr
    assert shape.word is shape.word
    assert shape == fresh and hash(shape) == hash(fresh)
    assert repr(shape) == repr(fresh) == "FerrersShape(rows=(5, 3, 3, 2, 2, 1))"


def test_word_normalizes_padding():
    # leading D's (zero rows) and trailing R's (zero columns) disappear
    assert shape_from_word("DDRDRR") == FerrersShape((1,))


def test_parse_word_keeps_padding():
    assert parse_word("DRRDDR") == ((2, 2, 0), 3)


def test_word_rejects_bad_characters():
    with pytest.raises(ValueError):
        shape_from_word("RDRRDDX")


def test_cells_and_heights():
    shape = FerrersShape((3, 1))
    assert shape.n_cells == 4
    assert shape.col_heights == (2, 1, 1)
    assert (3, 1) in shape and (2, 2) not in shape
    assert shape.cells() == [(1, 1), (1, 2), (2, 1), (3, 1)]


def test_transpose_and_symmetry():
    assert FerrersShape((3, 1)).transpose() == FerrersShape((2, 1, 1))
    assert FerrersShape((3, 3, 2)).is_symmetric()
    assert not FerrersShape((3, 1)).is_symmetric()


def test_staircase():
    assert staircase(5).rows == (4, 3, 2, 1)
    assert staircase(1).rows == ()
    assert staircase(0).rows == ()


@pytest.mark.parametrize("n", [-3, True, 2.5, "4"])
def test_staircase_refuses_a_bad_n(n):
    with pytest.raises(ValueError,
                       match=r"^a staircase needs an integer n >= 0, got "):
        staircase(n)


def test_shape_from_text():
    assert shape_from_text("RRDD") == FerrersShape((2, 2))
    assert shape_from_text("2,3,1") == FerrersShape((3, 2, 1))
    assert shape_from_text("") == FerrersShape(())


def test_shape_from_text_bounds_its_rows(monkeypatch):
    """A row longer than the budget is refused, by default 10 ** 7 cells;
    the budget bounds rows, not cells."""
    monkeypatch.delenv("GROWTH_BUDGET", raising=False)
    with pytest.raises(InstanceTooLarge, match="^shape '99999999' has a row "
                       "of more than 10000000 cells$"):
        shape_from_text("99999999")
    monkeypatch.setenv("GROWTH_BUDGET", "5")
    assert shape_from_text("5,3,3") == FerrersShape((5, 3, 3))
    with pytest.raises(InstanceTooLarge, match="more than 5 cells"):
        shape_from_text("1,6")
    monkeypatch.setenv("GROWTH_BUDGET", "0")
    with pytest.raises(ValueError, match="GROWTH_BUDGET must be a positive"):
        shape_from_text("1")


def test_stack_from_text_bounds_its_columns(monkeypatch):
    """A column taller than the budget is refused, as a shape's row is."""
    monkeypatch.delenv("GROWTH_BUDGET", raising=False)
    with pytest.raises(InstanceTooLarge, match="^stack '1,99999999' has a "
                       "column of more than 10000000 cells$"):
        stack_from_text("1,99999999")
    monkeypatch.setenv("GROWTH_BUDGET", "5")
    assert stack_from_text("2,5,3") == StackPolyomino((2, 5, 3))
    with pytest.raises(InstanceTooLarge, match="more than 5 cells"):
        stack_from_text("6,1")


def test_stack_polyomino():
    sp = StackPolyomino((1, 3, 2))
    assert sp.n_cells == 6
    assert (2, 3) in sp and (1, 2) not in sp
    assert sp.sort_columns() == FerrersShape((3, 2, 1))
    with pytest.raises(ValueError):
        StackPolyomino((2, 1, 2))  # not unimodal
    assert stack_from_text("1,3,2") == sp
