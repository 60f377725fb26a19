import pytest

from growthdiagrams.enumeration import generate_fillings
from growthdiagrams.fillings import Filling
from growthdiagrams.growth import growth_tableau
from growthdiagrams.insertion import (TwoRowedArray, biword_from_filling,
                                      border_pair, column_insert,
                                      dual_rsk_insert, dual_rsk_prime_insert,
                                      row_insert, rsk_insert, rsk_prime_insert,
                                      transpose_tableau)
from growthdiagrams.shapes import FerrersShape

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
    """Values are never truncated or converted, and the ordering is one of
    the two that the insertions read."""
    with pytest.raises(ValueError, match=message):
        TwoRowedArray(pairs, ordering)


def test_biword_from_filling():
    f = Filling(FerrersShape((2, 2)), {(1, 1): 2, (1, 2): 1, (2, 1): 1})
    assert biword_from_filling(f).pairs == ((1, 1), (1, 1), (1, 2), (2, 1))
    assert biword_from_filling(f, "dec").pairs == ((1, 2), (1, 1), (1, 1),
                                                   (2, 1))


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
    p, q = rsk_insert(biword_from_filling(Filling(RECT, ONES)))
    assert p == ((1, 1, 2), (3, 4))
    assert q == ((1, 1, 1), (2, 2))


def test_dual_rsk_figure_pair():
    p, q = dual_rsk_insert(biword_from_filling(Filling(RECT, ONES)))
    assert p == ((1, 1), (2, 3), (4,))
    assert q == ((1, 2), (1, 2), (1,))


def test_rsk_prime_figure_pair():
    p, q = rsk_prime_insert(biword_from_filling(Filling(RECT, ONES), "dec"))
    assert p == ((1, 1), (2,), (3,), (4,))
    assert q == ((1, 2), (1,), (1,), (2,))


def test_dual_rsk_prime_figure_pair():
    p, q = dual_rsk_prime_insert(biword_from_filling(Filling(RECT, ONES),
                                                     "dec"))
    assert p == ((1, 1, 3, 4), (2,))
    assert q == ((1, 1, 1, 2), (2,))


def test_insertions_check_ordering():
    weak = biword_from_filling(Filling(RECT, ONES))
    dec = biword_from_filling(Filling(RECT, ONES), "dec")
    with pytest.raises(ValueError):
        rsk_insert(dec)
    with pytest.raises(ValueError):
        rsk_prime_insert(weak)


def test_border_pair_fixture():
    t = growth_tableau(Filling(RECT, ONES), "rsk", word="RRDDDD")
    p, q = border_pair(t.seq, 2)
    assert p == ((1, 1, 2), (3, 4))
    assert q == ((1, 1, 1), (2, 2))


VARIANTS = {
    "rsk": (rsk_insert, "weak", "arbitrary", False),
    "dual-rsk": (dual_rsk_insert, "weak", "zero-one", True),
    "rsk-prime": (rsk_prime_insert, "dec", "zero-one", False),
    "dual-rsk-prime": (dual_rsk_prime_insert, "dec", "arbitrary", True),
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_growth_equals_insertion_small(variant):
    """The border of the rectangle's growth diagram encodes the insertion
    pair, for every small rectangular filling."""
    insert, ordering, cls, dual = VARIANTS[variant]
    max_n = 3 if cls == "arbitrary" else 1
    for p_rows in range(1, 4):
        for q_cols in range(1, 3):
            shape = FerrersShape((q_cols,) * p_rows)
            word = "R" * q_cols + "D" * p_rows
            for total in range(0, 4):
                for f in generate_fillings(shape, cls, total):
                    if max(f.entries.values(), default=0) > max_n:
                        continue
                    t = growth_tableau(f, variant, word=word)
                    gp, gq = border_pair(t.seq, q_cols)
                    if dual:
                        gp = transpose_tableau(gp)
                        gq = transpose_tableau(gq)
                    assert (gp, gq) == insert(
                        biword_from_filling(f, ordering)), (variant, f)
