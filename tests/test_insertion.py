"""The insertion engine (``insertion_border`` / ``deletion_entries``) and the
growth diagrams of rectangles against the textbook RSK oracle of
``rsk_oracle``, which shares no code with them."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthdiagrams.enumeration import all_fillings
from growthdiagrams.fillings import Filling
from growthdiagrams.growth import (MEMO_MAX_CELLS, border_tableau,
                                   growth_tableau, label_diagram, reconstruct)
from growthdiagrams.insertion import deletion_entries, insertion_border
from growthdiagrams.local_rules import get_variant
from growthdiagrams.shapes import FerrersShape
from rsk_oracle import (VARIANTS, TwoRowedArray, biword, border_chain,
                        column_insert, insertion_pair, row_insert,
                        transpose_tableau)

RECT = FerrersShape((2, 2, 2, 2))
ONES = {(1, 1): 1, (1, 3): 1, (1, 4): 1, (2, 1): 1, (2, 2): 1}


def test_two_rowed_array_orderings():
    TwoRowedArray(((1, 2), (1, 2), (2, 1)), "weak")
    with pytest.raises(ValueError):
        TwoRowedArray(((1, 2), (1, 1)), "weak")
    TwoRowedArray(((1, 2), (1, 2), (1, 1)), "dec")
    with pytest.raises(ValueError):
        TwoRowedArray(((1, 1), (1, 2)), "dec")
    with pytest.raises(ValueError):
        TwoRowedArray(((2, 1), (1, 1)), "weak")


@pytest.mark.parametrize("pairs, ordering, message", [
    (((1.5, 2.9),), "weak", r"^1\.5 in \(1\.5, 2\.9\) is not an integer$"),
    ((("1", "2"),), "weak", r"^'1' in \('1', '2'\) is not an integer$"),
    (((1, True),), "dec", r"^True in \(1, True\) is not an integer$"),
    (((1, 2),), "sideways",
     r"^unknown ordering 'sideways'; choose from \('weak', 'dec'\)$"),
], ids=["float", "text", "bool", "ordering"])
def test_two_rowed_array_rejects_bad_input(pairs, ordering, message):
    """The oracle takes no value it would have to convert, and only the
    two orderings that its insertions read."""
    with pytest.raises(ValueError, match=message):
        TwoRowedArray(pairs, ordering)


def test_biword_from_filling():
    entries = {(1, 1): 2, (1, 2): 1, (2, 1): 1}
    assert biword(entries).pairs == ((1, 1), (1, 1), (1, 2), (2, 1))
    assert biword(entries, "dec").pairs == ((1, 2), (1, 1), (1, 1), (2, 1))


def test_row_insert_bumping():
    p, cell = row_insert(((1, 3), (2,)), 2)
    assert p == ((1, 2), (2, 3))
    assert cell == (2, 2)


def test_column_insert_bumping():
    # 1 bumps the 1 from column one, which bumps the 3 from column two
    p, cell = column_insert(((1, 3), (2,)), 1)
    assert p == ((1, 1, 3), (2,))
    assert cell == (1, 3)


def test_transpose_tableau():
    assert transpose_tableau(((1, 2, 2), (3,))) == ((1, 3), (2,), (2,))
    assert transpose_tableau(()) == ()


def test_rsk_figure_pair():
    assert insertion_pair(biword(ONES), "rsk") == (((1, 1, 2), (3, 4)),
                                                   ((1, 1, 1), (2, 2)))


def test_dual_rsk_figure_pair():
    assert insertion_pair(biword(ONES), "dual-rsk") == (
        ((1, 1), (2, 3), (4,)), ((1, 2), (1, 2), (1,)))


def test_rsk_prime_figure_pair():
    assert insertion_pair(biword(ONES, "dec"), "rsk-prime") == (
        ((1, 1), (2,), (3,), (4,)), ((1, 2), (1,), (1,), (2,)))


def test_dual_rsk_prime_figure_pair():
    assert insertion_pair(biword(ONES, "dec"), "dual-rsk-prime") == (
        ((1, 1, 3, 4), (2,)), ((1, 1, 1, 2), (2,)))


def test_insertions_check_ordering():
    with pytest.raises(ValueError, match="^rsk insertion expects the weak "):
        insertion_pair(biword(ONES, "dec"), "rsk")
    with pytest.raises(ValueError, match="^rsk-prime insertion expects the "
                                         "dec "):
        insertion_pair(biword(ONES), "rsk-prime")


def test_border_pair_fixture():
    """The 2x4 rectangle's border, by the sweeps and by the insertion
    engine, is the chain of the oracle's pair (P, Q)."""
    chain = [(), (3,), (3, 2), (3, 1), (3,), (2,), ()]
    assert border_chain(ONES, "rsk", 2, 4) == chain
    t = growth_tableau(Filling(RECT, ONES), "rsk", "RRDDDD")
    assert list(t.seq) == chain
    assert insertion_border([4, 4, 4], ONES, "H", "H") == chain


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_growth_equals_insertion_small(variant):
    """The border of the rectangle's growth diagram is the chain of the
    insertion pair, for every small rectangular filling."""
    cls = get_variant(variant).filling_class
    max_n = 3 if cls == "arbitrary" else 1
    for p_rows in range(1, 4):
        for q_cols in range(1, 3):
            shape = FerrersShape((q_cols,) * p_rows)
            word = "R" * q_cols + "D" * p_rows
            for _, f in all_fillings(shape, cls, 3):
                if max(f.entries.values(), default=0) > max_n:
                    continue
                t = growth_tableau(f, variant, word=word)
                assert list(t.seq) == border_chain(
                    f.entries, variant, q_cols, p_rows), (variant, f)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_insertion_engine_matches_the_oracle_exhaustive(variant):
    """Every filling of every rectangle of at most 3 x 3 (entry sum at most
    3 for arbitrary fillings): insertion gives the oracle's border, and
    deletion gives the filling back from it."""
    v = get_variant(variant)
    max_n = 3 if v.filling_class == "arbitrary" else None
    checked = 0
    for p_rows in range(1, 4):
        for q_cols in range(1, 4):
            shape = FerrersShape((q_cols,) * p_rows)
            heights = [p_rows] * (q_cols + 1)
            for _, f in all_fillings(shape, v.filling_class, max_n):
                chain = border_chain(f.entries, variant, q_cols, p_rows)
                assert insertion_border(heights, f.entries, v.right,
                                        v.down) == chain, f
                assert deletion_entries(heights, chain, v.right,
                                        v.down) == f.entries, f
                checked += 1
    assert checked == {"arbitrary": 487, "zero-one": 682}[v.filling_class]


@st.composite
def large_rectangle_fillings(draw, variant):
    """A filling in the variant's class of a rectangle of more than
    MEMO_MAX_CELLS cells, up to 12 x 12, with at most 30 nonzero cells."""
    cols = draw(st.integers(6, 12))
    rows = draw(st.integers(-(-(MEMO_MAX_CELLS + 1) // cols), 12))
    shape = FerrersShape((cols,) * rows)
    cells = draw(st.lists(st.sampled_from(shape.cells()), max_size=30,
                          unique=True))
    top = 3 if get_variant(variant).filling_class == "arbitrary" else 1
    return Filling(shape, {cell: draw(st.integers(1, top)) for cell in cells})


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_large_rectangle_matches_the_oracle_property(variant, data):
    """Past the memo, where label_diagram takes its border from insertion
    and reconstruct deletes: the border is the oracle's, and reconstruct
    gives the filling back with empty boundary labels."""
    f = data.draw(large_rectangle_fillings(variant))
    cols, rows = f.shape.n_cols, f.shape.n_rows
    d = label_diagram(f, variant)
    t = border_tableau(d)
    assert "_flat" not in vars(d)
    assert list(t.seq) == border_chain(f.entries, variant, cols, rows)
    assert reconstruct(t.word, t) == (f, [()] * (cols + 1),
                                      [()] * (rows + 1))
