import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from growthdiagrams.growth import GrowthTableau
from growthdiagrams.partitions import (conjugate, contains,
                                       differs_by_one_square,
                                       is_horizontal_strip, is_vertical_strip,
                                       make_partition, parse_partition, part,
                                       partitions_of, to_compact)
from growthdiagrams.shapes import FerrersShape, StackPolyomino
from oracles import add_square_in_row, diff_row, intersect, union

partitions = st.lists(st.integers(0, 8), max_size=6).map(
    lambda xs: make_partition(sorted(xs, reverse=True)))


def test_make_partition_strips_zeros():
    assert make_partition([3, 1, 0, 0]) == (3, 1)
    assert make_partition([]) == ()


def test_make_partition_rejects_increase():
    with pytest.raises(ValueError):
        make_partition([1, 2])


@pytest.mark.parametrize("make, bad", [
    (lambda: make_partition([True, True]), "True in (True, True)"),
    (lambda: make_partition([2, 1.0]), "1.0 in (2, 1.0)"),
    (lambda: FerrersShape((2.5, 1)), "2.5 in (2.5, 1)"),
    (lambda: FerrersShape("21"), "'2' in ('2', '1')"),
    (lambda: GrowthTableau("RD", ((), (1.9,), ())), "1.9 in (1.9,)"),
    (lambda: StackPolyomino((1.5, 2)), "1.5 in (1.5, 2)"),
], ids=["bools", "float", "shape-float", "shape-string", "tableau-float",
        "stack-float"])
def test_parts_must_be_ints(make, bad):
    with pytest.raises(ValueError, match=f"^{re.escape(bad)} is not an integer$"):
        make()


@pytest.mark.parametrize("text", ["[2,x]", "[2,]", "[ ]"])
def test_parse_partition_names_the_bad_token(text):
    token = text[1:-1].split(",")[-1]
    with pytest.raises(ValueError) as info:
        parse_partition(text)
    assert str(info.value) == f"{token!r} in {text!r} is not an integer"


def test_part_indexing():
    p = (4, 2, 1)
    assert part(p, 1) == 4
    assert part(p, 3) == 1
    assert part(p, 7) == 0


def test_conjugate_small():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()


@given(partitions)
def test_conjugate_involution(p):
    assert conjugate(conjugate(p)) == p


@given(partitions, partitions)
def test_union_intersect_lattice(p, q):
    u, i = union(p, q), intersect(p, q)
    assert contains(u, p) and contains(u, q)
    assert contains(p, i) and contains(q, i)
    assert sum(u) + sum(i) == sum(p) + sum(q)


def test_strips():
    assert is_horizontal_strip((3, 1), (2, 1))
    assert is_horizontal_strip((3, 3), (3, 1))    # one square per column
    assert not is_horizontal_strip((3, 3), (1, 1))
    assert is_vertical_strip((2, 2, 1), (2, 1))
    assert not is_vertical_strip((3, 1), (1,))


def test_one_square_steps():
    assert differs_by_one_square((2, 1), (1, 1))
    assert not differs_by_one_square((2, 2), (1, 1))
    assert diff_row((2, 1), (1, 1)) == 1
    assert add_square_in_row((2, 2), 3) == (2, 2, 1)


def test_compact_and_parse():
    assert to_compact(()) == "e"
    assert to_compact((2, 1, 1)) == "211"
    assert parse_partition("211") == (2, 1, 1)
    assert parse_partition("e") == ()
    assert parse_partition("[10,2]") == (10, 2)


def test_partitions_of_counts():
    # partition numbers 1, 1, 2, 3, 5, 7, 11
    assert [len(list(partitions_of(n))) for n in range(7)] == [1, 1, 2, 3, 5, 7, 11]
