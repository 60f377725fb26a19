from itertools import product

import pytest

from growthdiagrams.enumeration import (InstanceTooLarge, all_fillings,
                                        all_shapes)
from growthdiagrams.fillings import (ARBITRARY, PARTIAL_PERMUTATION, ZERO_ONE,
                                     Filling, _code, _code_entries, _weights,
                                     chain_spec, filling_class,
                                     filling_from_json, filling_to_json,
                                     in_class, longest_chain,
                                     transpose_filling)
from growthdiagrams.shapes import FerrersShape, StackPolyomino
from oracles import greene_oracle


def make(rows, entries):
    return Filling(FerrersShape(rows), entries)


def test_filling_cleans_zeros():
    f = make((2, 2), {(1, 1): 0, (2, 2): 3})
    assert f.entries == {(2, 2): 3}
    assert f.entry(1, 1) == 0
    assert f.entry_sum == 3


def test_filling_validates_cells():
    with pytest.raises(ValueError):
        make((2, 1), {(2, 2): 1})
    with pytest.raises(ValueError):
        make((2, 2), {(1, 1): -1})


@pytest.mark.parametrize("value", [1.5, 1.0, True, "1"])
def test_filling_rejects_entries_that_are_not_ints(value):
    with pytest.raises(ValueError, match=r"at \(1,1\) is not an integer"):
        make((1,), {(1, 1): value})


def test_filling_class():
    assert filling_class(make((2, 2), {(1, 1): 1, (2, 2): 1})) == PARTIAL_PERMUTATION
    assert filling_class(make((2, 2), {(1, 1): 1, (1, 2): 1})) == ZERO_ONE
    assert filling_class(make((2, 2), {(1, 1): 2})) == ARBITRARY
    assert in_class(make((2, 2), {}), PARTIAL_PERMUTATION)
    assert not in_class(make((2, 2), {(1, 1): 2}), ZERO_ONE)


def test_in_class_agrees_with_the_class_order():
    order = [PARTIAL_PERMUTATION, ZERO_ONE, ARBITRARY]
    fillings = [f for shape in all_shapes(5)
                for _, f in all_fillings(shape, ARBITRARY, 3)]
    for f in fillings:
        rank = order.index(filling_class(f))
        for cls in order:
            assert in_class(f, cls) == (rank <= order.index(cls)), (f, cls)
    assert {filling_class(f) for f in fillings} == set(order)
    with pytest.raises(ValueError, match="unknown filling class"):
        in_class(fillings[0], "rook")


@pytest.mark.parametrize("bits", [1, 2, 3])
def test_code_round_trip(bits):
    """The one filling code, on the empty shape and every shape of at most
    7 cells, for every filling with entries 0, 1 and the largest digit:
    digit i holds the entry of cell i, and decoding gives the nonzero
    entries back in cell order."""
    top = (1 << bits) - 1
    for shape in [FerrersShape(()), *all_shapes(7)]:
        cells = shape.cells()
        weights = _weights(cells, bits)
        assert list(weights.items()) == [(cell, 1 << bits * i)
                                         for i, cell in enumerate(cells)]
        for values in product(sorted({0, 1, top}), repeat=len(cells)):
            entries = {cell: v for cell, v in zip(cells, values) if v}
            code = _code(entries, weights)
            assert [code >> bits * i & top
                    for i in range(len(cells))] == list(values)
            assert code >> bits * len(cells) == 0
            assert list(_code_entries(code, cells, bits).items()) == list(
                entries.items()), (shape, values)


def test_json_round_trip():
    f = make((3, 1), {(1, 1): 2, (3, 1): 1})
    assert filling_from_json(filling_to_json(f)) == f


def test_json_refuses_a_repeated_cell():
    text = '{"shape": "RRDD", "entries": [[2, 1, 3], [1, 1, 1], [2, 1, 3]]}'
    with pytest.raises(ValueError, match=r"^the entries give cell 2,1 twice$"):
        filling_from_json(text)


def test_chain_spec_codes():
    assert chain_spec("NE").code == "NE"
    assert chain_spec("se").code == "se"
    assert chain_spec("NE").step_ok((1, 1), (1, 2))
    assert not chain_spec("ne").step_ok((1, 1), (1, 2))
    assert chain_spec("Se").step_ok((1, 2), (2, 2))
    assert not chain_spec("sE").step_ok((1, 2), (2, 2))
    with pytest.raises(ValueError):
        chain_spec("XY")


def test_longest_chain_basic():
    f = make((3, 3, 3), {(1, 1): 1, (2, 2): 1, (3, 3): 1, (3, 1): 1})
    assert longest_chain(f, chain_spec("ne")) == 3
    assert longest_chain(f, chain_spec("se")) == 2
    assert longest_chain(make((2, 2), {}), chain_spec("NE")) == 0


def test_longest_chain_entry_sum():
    f = make((2, 2), {(1, 1): 2, (2, 2): 3})
    assert longest_chain(f, chain_spec("NE", length_mode="entry-sum")) == 5


def test_rectangle_constraint():
    spec = chain_spec("NE", require_rectangle=True)
    f2 = make((3, 1), {(1, 1): 1, (3, 1): 1})
    assert longest_chain(f2, chain_spec("NE")) == 2
    assert longest_chain(f2, spec) == 2  # bottom row rectangle is inside
    f3 = make((2, 1), {(1, 1): 1})
    assert longest_chain(f3, spec) == 1
    se = chain_spec("se", require_rectangle=True)
    # chain (1,2) -> (2,1) needs the full 2x2 box, which is not in the shape
    f5 = Filling(FerrersShape((2, 1)), {(1, 2): 1, (2, 1): 1})
    assert longest_chain(f5, chain_spec("se")) == 2
    assert longest_chain(f5, se) == 1


def test_chains_on_stack_polyomino():
    sp = StackPolyomino((1, 2, 1))
    f = Filling(sp, {(1, 1): 1, (3, 1): 1})
    spec = chain_spec("ne", require_rectangle=True)
    assert longest_chain(f, spec) == 1
    # the box of (1,1) -> (2,2) has its top-right corner in the shape but
    # its top-left corner (1,2) outside
    g = Filling(StackPolyomino((1, 2, 2)), {(1, 1): 1, (2, 2): 1})
    assert longest_chain(g, chain_spec("ne")) == 2
    assert longest_chain(g, spec) == 1


def test_greene_oracle_matches_longest_chain_for_k1():
    f = make((3, 2, 1), {(1, 1): 1, (2, 2): 1, (3, 1): 1})
    for code in ("NE", "SE", "ne", "se"):
        spec = chain_spec(code)
        assert greene_oracle(f, spec, 1) == longest_chain(f, spec)


def test_greene_oracle_union_semantics():
    # 2x2 permutation matrix: one NE chain of length 2 needs both cells,
    # two chains cover everything
    f = make((2, 2), {(1, 2): 1, (2, 1): 1})
    ne = chain_spec("NE")
    assert greene_oracle(f, ne, 1) == 1
    assert greene_oracle(f, ne, 2) == 2


def test_greene_oracle_entry_multiplicity():
    # entry 2 may sit in two different chains
    f = make((2, 2), {(1, 1): 2, (2, 2): 1, (1, 2): 1})
    spec = chain_spec("ne", length_mode="entry-multiplicity")
    assert greene_oracle(f, spec, 1) == 2
    # the corner entry 2 may open a second chain of its own
    assert greene_oracle(f, spec, 2) == 3


def test_greene_oracle_budget():
    f = make((5, 5, 5, 5), {})
    with pytest.raises(InstanceTooLarge):
        greene_oracle(f, chain_spec("NE"), 1)


def test_transpose_filling():
    f = make((3, 1), {(3, 1): 2})
    assert transpose_filling(f).entries == {(1, 3): 2}
    assert transpose_filling(transpose_filling(f)) == f


def test_is_symmetric_is_equality_with_the_transpose():
    """On every filling of every Ferrers shape of at most 5 cells, the
    self-conjugate ones included."""
    fillings = [f for shape in all_shapes(5)
                for _, f in all_fillings(shape, ARBITRARY, 2)]
    assert [f.is_symmetric() for f in fillings] == [
        transpose_filling(f) == f for f in fillings]
    assert any(f.is_symmetric() and f.entries for f in fillings)
    assert not make((2, 1), {(1, 2): 1}).is_symmetric()
    assert not make((2,), {}).is_symmetric()
