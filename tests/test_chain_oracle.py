"""The longest-path `longest_chain` against an exhaustive chain search,
and the `ChainTable` against `longest_chain`.

The oracle lists every chain in the cell order, keeps those whose
bounding box fits, and takes the largest value.  It reads a spec's code,
length mode and rectangle flag only, and tests a step and a box with its
own helpers, so a fault in `ChainSpec.step_ok` or in the box test of
`longest_chain` shows up here as a mismatch.
"""

import random
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthdiagrams import enumeration, fillings
from growthdiagrams.enumeration import (NE_SE_SPECS, NES1_SPECS, T2_SPECS,
                                        InstanceTooLarge, all_fillings,
                                        all_shapes, count_table,
                                        problem2_evidence)
from growthdiagrams.fillings import (ARBITRARY, MEMO_MAX_CELLS,
                                     PARTIAL_PERMUTATION, ZERO_ONE, ChainTable,
                                     Filling, chain_spec, longest_chain)
from growthdiagrams.growth import MEMO_MAX_ENTRIES
from growthdiagrams.shapes import FerrersShape, StackPolyomino

from oracles import filling_reads, stack_polyominoes

CODES = ("NE", "Ne", "nE", "ne", "SE", "Se", "sE", "se")
SPECS = tuple(chain_spec(code, mode, rect) for code in CODES
              for mode in ("count", "entry-sum", "entry-multiplicity")
              for rect in (False, True))


def _step_ok(code, a, b):
    ca, ra = a
    cb, rb = b
    if (ca, ra) == (cb, rb):
        return False
    vert = {"N": rb >= ra, "n": rb > ra, "S": rb <= ra, "s": rb < ra}[code[0]]
    horiz = cb >= ca if code[1] == "E" else cb > ca
    return vert and horiz


def _sorted_cells(cells, code):
    if code[0] in "Nn":
        return sorted(cells)
    return sorted(cells, key=lambda cr: (cr[0], -cr[1]))


def _chain_value(f, spec, cells):
    if spec.length_mode == "entry-sum":
        return sum(f.entry(c, r) for c, r in cells)
    return len(cells)


def _box_in_shape(shape, lo_col, lo_row, hi_col, hi_row):
    return all((c, r) in shape
               for c in range(lo_col, hi_col + 1)
               for r in range(lo_row, hi_row + 1))


def oracle_longest_chain(f, spec):
    """Length of the longest chain, by listing every chain."""
    cells = _sorted_cells(f.entries, spec.code)
    best = 0

    def fits(chain):
        # a chain is monotone in both coordinates, so its two ends span
        # its bounding box
        (c0, r0), (c1, r1) = chain[0], chain[-1]
        return _box_in_shape(f.shape, c0, min(r0, r1), c1, max(r0, r1))

    def extend(chain, start):
        nonlocal best
        if chain and (not spec.require_rectangle or fits(chain)):
            best = max(best, _chain_value(f, spec, chain))
        for i in range(start, len(cells)):
            if not chain or _step_ok(spec.code, chain[-1], cells[i]):
                chain.append(cells[i])
                extend(chain, i + 1)
                chain.pop()

    extend([], 0)
    return best


def _mismatches(fillings):
    return [(f, spec) for f in fillings for spec in SPECS
            if longest_chain(f, spec) != oracle_longest_chain(f, spec)]


def test_exhaustive_ferrers_arbitrary():
    fillings = [f for shape in all_shapes(7)
                for _, f in all_fillings(shape, ARBITRARY, 3)]
    assert _mismatches(fillings) == []


def test_exhaustive_stack_zero_one():
    fillings = [f for poly in stack_polyominoes(7)
                for _, f in all_fillings(poly, ZERO_ONE)]
    assert _mismatches(fillings) == []


@st.composite
def _shapes(draw):
    if draw(st.booleans()):
        rows = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
        return FerrersShape(tuple(sorted(rows, reverse=True)))
    rise = sorted(draw(st.lists(st.integers(1, 6), max_size=3)))
    fall = sorted(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)),
                  reverse=True)
    return StackPolyomino(tuple(rise + fall))


@st.composite
def _fillings(draw):
    shape = draw(_shapes())
    cells = draw(st.lists(st.sampled_from(shape.cells()), max_size=10,
                          unique=True))
    values = draw(st.lists(st.integers(1, 3), min_size=len(cells),
                           max_size=len(cells)))
    return Filling(shape, dict(zip(cells, values)))


@settings(max_examples=300, deadline=None)
@given(_fillings())
def test_longest_chain_matches_oracle_property(f):
    assert _mismatches([f]) == []


# ---------------------------------------------------------------------------
# the chain table

def counting_fallback(monkeypatch):
    """The fillings that a ChainTable hands to longest_chain from now on."""
    handed = []

    def fallback(f, spec):
        handed.append(f)
        return longest_chain(f, spec)
    monkeypatch.setattr(fillings, "longest_chain", fallback)
    return handed


def test_chain_table_matches_longest_chain(monkeypatch):
    """Every filling of every Ferrers shape and stack polyomino of at most
    6 cells, in each class and under every spec, read in the order of
    all_fillings: the table gives longest_chain's value, and reads every
    filling from its smaller ones."""
    handed = counting_fallback(monkeypatch)
    mismatches = []
    for shape in list(all_shapes(6)) + stack_polyominoes(6):
        for cls, max_n in ((ARBITRARY, 3), (ZERO_ONE, None),
                           (PARTIAL_PERMUTATION, None)):
            group = [f for _, f in all_fillings(shape, cls, max_n)]
            for spec in SPECS:
                read = filling_reads(
                    ChainTable(shape, spec, 2 if cls == ARBITRARY else 1))
                mismatches += [(f, spec) for f in group
                               if read(f) != longest_chain(f, spec)]
    assert mismatches == []
    assert handed == []


@settings(max_examples=100, deadline=None)
@given(_shapes(), st.sampled_from([(ARBITRARY, 2), (ZERO_ONE, 2),
                                   (PARTIAL_PERMUTATION, 3)]),
       st.sampled_from(SPECS))
def test_chain_table_property(shape, cls_n, spec):
    """Shapes of up to 36 cells: the table gives longest_chain's value on
    every filling of up to two or three entries."""
    cls, max_n = cls_n
    read = filling_reads(ChainTable(shape, spec, max_n.bit_length()))
    assert all(read(f) == longest_chain(f, spec)
               for _, f in all_fillings(shape, cls, max_n))


def test_chain_table_reads_out_of_order(monkeypatch):
    """Read from the largest filling down, a table reads the smaller
    fillings it lacks by its own recurrence: it gives longest_chain's
    value, hands no filling to longest_chain and keeps every filling read,
    on (4,4,3,2) more than MEMO_MAX_ENTRIES of them."""
    handed = counting_fallback(monkeypatch)
    for shape in (FerrersShape((3, 2, 1)), FerrersShape((4, 4, 3, 2))):
        group = [f for _, f in all_fillings(shape, ZERO_ONE)][::-1]
        for spec in NE_SE_SPECS:
            table = ChainTable(shape, spec, 1)
            assert list(map(filling_reads(table), group)) == [
                longest_chain(f, spec) for f in group]
            assert len(table.bounded) == len(group)
    assert len(group) > MEMO_MAX_ENTRIES
    assert handed == []


def test_chain_table_memos_hold_at_most_the_fillings_read():
    """Read in the order of all_fillings, each memo of each table holds at
    most as many fillings as were read, for every class and spec on the
    Ferrers shapes and stack polyominoes of at most 6 cells."""
    oversize = []
    for shape in list(all_shapes(6)) + stack_polyominoes(6):
        for cls, max_n in ((ARBITRARY, 3), (ZERO_ONE, None),
                           (PARTIAL_PERMUTATION, None)):
            group = [f for _, f in all_fillings(shape, cls, max_n)]
            for spec in SPECS:
                table = ChainTable(shape, spec, 2 if cls == ARBITRARY else 1)
                read = filling_reads(table)
                for f in group:
                    read(f)
                oversize += [(shape, cls, spec)
                             for memo in (table.free, table.bounded or {})
                             if len(memo) > len(group)]
    assert oversize == []


def enumerated_counts(shape, cls, reads, max_n=None):
    """count_table's counts by enumeration, each filling read by each of
    ``reads``."""
    counts = {}
    for n, f in all_fillings(shape, cls, max_n):
        key = tuple(read(f) for read in reads)
        counts.setdefault(n, {})
        counts[n][key] = counts[n].get(key, 0) + 1
    return counts


def counts_by_longest_chain(shape, cls, specs, max_n=None):
    """count_table's counts, each filling read by longest_chain."""
    return enumerated_counts(shape, cls, [partial(longest_chain, spec=spec)
                                          for spec in specs], max_n)


def ordered(counts):
    """The counts with the order of their keys, n's and each n's (s, t)."""
    return [(n, list(table.items())) for n, table in counts.items()]


def test_walk_counts_match_longest_chain(monkeypatch):
    """count_table's walk, which serves every table but a full 0-1 one,
    gives longest_chain's counts, n's and each n's (s, t) in the same
    order: every partial permutation, every arbitrary filling of entry sum
    at most 3 and every 0-1 filling with fewer 1's than cells of the empty
    shape, of every Ferrers shape of at most 7 cells and of every stack
    polyomino of at most 6, for three spec pairs.  An n with no filling
    has no key, as n = 3 of the hooks of at most 7 cells with at least
    three rows and three columns."""
    shapes = [FerrersShape(())] + list(all_shapes(7)) + stack_polyominoes(6)
    cases = [(shape, cls, max_n) for shape in shapes
             for cls, max_n in ((PARTIAL_PERMUTATION, None), (ARBITRARY, 3),
                                (ZERO_ONE, shape.n_cells - 1))
             if max_n is None or max_n >= 0]
    expected = {(case, specs): counts_by_longest_chain(case[0], case[1],
                                                       specs, case[2])
                for case in cases
                for specs in (NE_SE_SPECS, NES1_SPECS, MIXED_SPECS)}

    def refuse(*args):
        raise AssertionError("count_table counted over the code space")
    monkeypatch.setattr(enumeration, "_code_space_counts", refuse)
    for ((shape, cls, max_n), specs), counts in expected.items():
        assert (ordered(count_table(shape, cls, *specs, max_n).counts)
                == ordered(counts)), (shape, cls, specs)
    for rows in ((3, 1, 1), (4, 1, 1), (5, 1, 1), (3, 1, 1, 1), (4, 1, 1, 1),
                 (3, 1, 1, 1, 1)):
        # three rows and columns or more, but no three cells in distinct
        # rows and columns
        assert list(count_table(FerrersShape(rows), PARTIAL_PERMUTATION,
                                *T2_SPECS).counts) == [0, 1, 2], rows


def test_count_table_past_the_table_memo(monkeypatch):
    """A table's memos have no cap: past MEMO_MAX_ENTRIES fillings every
    filling is still read from its smaller fillings, and none goes to
    longest_chain."""
    shape = FerrersShape((4, 4, 3, 2))
    assert 2 ** shape.n_cells > MEMO_MAX_ENTRIES
    expected = counts_by_longest_chain(shape, ZERO_ONE, NE_SE_SPECS)
    handed = counting_fallback(monkeypatch)
    assert count_table(shape, ZERO_ONE, *NE_SE_SPECS).counts == expected
    assert handed == []


def test_count_table_past_the_table_shape_bound(monkeypatch):
    """A shape of more than MEMO_MAX_CELLS cells gets no table: every
    filling goes to longest_chain."""
    shape = FerrersShape((9,) * 8)
    assert shape.n_cells > MEMO_MAX_CELLS
    specs = (chain_spec("NE"), chain_spec("SE", require_rectangle=True))
    expected = counts_by_longest_chain(shape, ZERO_ONE, specs, 2)
    handed = counting_fallback(monkeypatch)
    table = count_table(shape, ZERO_ONE, *specs, 2)
    assert table.counts == expected
    assert len(handed) == 2 * sum(map(table.total, table.counts))


def test_decoded_reads_past_the_shape_bound(monkeypatch):
    """On shapes of more than MEMO_MAX_CELLS cells a table decodes each
    code back into its filling for longest_chain: every spec, a Ferrers
    shape and a stack polyomino, entries of 1 to 3 bits, the empty
    filling, and fillings with the largest entry in the first and in the
    highest cell."""
    handed = counting_fallback(monkeypatch)
    rng = random.Random(26)
    for shape in (FerrersShape((10, 9, 9, 9, 9, 8, 8, 4)),
                  StackPolyomino((3, 8, 10, 10, 9, 9, 8, 7, 4))):
        assert shape.n_cells > MEMO_MAX_CELLS
        cells = shape.cells()
        for bits in (1, 2, 3):
            for spec in SPECS:
                table = ChainTable(shape, spec, bits)
                read, top = filling_reads(table), (1 << bits) - 1
                for entries in (
                        {}, {table.cells[-1]: top},
                        {table.cells[0]: top, table.cells[-1]: 1},
                        {cell: rng.randint(1, top)
                         for cell in rng.sample(cells, 9)}):
                    f = Filling(shape, entries)
                    assert read(f) == longest_chain(f, spec)
                    assert handed[-1] == f


def test_asymmetric_ne_se_table():
    """(4,4,4,3) has an asymmetric table of rectangle-bounded ne and se
    chains: of its 5,005 0-1 fillings with six 1's, 43 have (s, t) =
    (1, 2) and 42 have (2, 1).  The exhaustive chain search gives the same
    counts, and the full table, counted over the code space, the same
    n = 6 table in the same key order."""
    shape = FerrersShape((4, 4, 4, 3))
    table = count_table(shape, ZERO_ONE, *NE_SE_SPECS, 6)
    assert (table.counts[6][1, 2], table.counts[6][2, 1]) == (43, 42)
    group = [f for n, f in all_fillings(shape, ZERO_ONE, 6) if n == 6]
    assert len(group) == 5005
    assert Counter(tuple(oracle_longest_chain(f, spec) for spec in NE_SE_SPECS)
                   for f in group) == table.counts[6]
    full = count_table(shape, ZERO_ONE, *NE_SE_SPECS)
    assert sum(map(full.total, full.counts)) == 2 ** 15
    assert list(full.counts[6].items()) == list(table.counts[6].items())
    for max_n in (6, None):
        assert (problem2_evidence(shape, max_n).details
                == "asymmetry at (n,s,t)=(6, 1, 2)")


# ---------------------------------------------------------------------------
# count tables over the code space

# a rectangle-bounded spec, whose cells go top down in each column, and
# a free one, whose cells go bottom up
MIXED_SPECS = (chain_spec("Se", require_rectangle=True), chain_spec("nE"))


def refuse_enumeration(monkeypatch):
    """Make count_table fail if it walks the fillings."""
    def refuse(*args):
        raise AssertionError("count_table enumerated the fillings")
    monkeypatch.setattr(enumeration, "_codes", refuse)


def test_code_space_counts_match_longest_chain(monkeypatch):
    """Every 0-1 filling of the empty shape, of every Ferrers shape of at
    most 8 cells and of every stack polyomino of at most 7, counted over
    the code space: the counts of longest_chain, n's and each n's (s, t) in
    the same order, for three spec pairs."""
    shapes = [FerrersShape(())] + list(all_shapes(8)) + stack_polyominoes(7)
    expected = {(shape, specs): counts_by_longest_chain(shape, ZERO_ONE, specs)
                for shape in shapes
                for specs in (NE_SE_SPECS, T2_SPECS, MIXED_SPECS)}
    refuse_enumeration(monkeypatch)
    for (shape, specs), counts in expected.items():
        assert (ordered(count_table(shape, ZERO_ONE, *specs).counts)
                == ordered(counts)), (shape, specs)


@st.composite
def _shapes_of_9_to_16_cells(draw):
    """A Ferrers shape with the drawn rows, or a stack polyomino with them
    as column heights."""
    left, rows = draw(st.integers(9, 16)), []
    while left:
        rows.append(draw(st.integers(1, min(left, rows[-1] if rows
                                            else left))))
        left -= rows[-1]
    if draw(st.booleans()):
        return FerrersShape(tuple(rows))
    rising = draw(st.lists(st.booleans(), min_size=len(rows),
                           max_size=len(rows)))
    return StackPolyomino(tuple(sorted(h for h, up in zip(rows, rising) if up)
                                + [h for h, up in zip(rows, rising)
                                   if not up]))


@settings(max_examples=12, deadline=None)
@given(_shapes_of_9_to_16_cells(), st.sampled_from(SPECS),
       st.sampled_from(SPECS))
def test_code_space_counts_property(shape, spec_x, spec_y):
    """Shapes of 9 to 16 cells: the code-space counts are those of the
    enumerated fillings, each read by a chain table, in the same order."""
    reads = [filling_reads(ChainTable(shape, spec, 1))
             for spec in (spec_x, spec_y)]
    assert (ordered(count_table(shape, ZERO_ONE, spec_x, spec_y).counts)
            == ordered(enumerated_counts(shape, ZERO_ONE, reads)))


def test_code_space_budget(monkeypatch):
    """The code space obeys the budget on all 2 ** N codes: N = 8 cells
    fit a budget of 256 fillings, and a budget of 255 is refused before
    any table is filled."""
    shape = FerrersShape((3, 3, 2))
    monkeypatch.setenv("GROWTH_BUDGET", "256")
    table = count_table(shape, ZERO_ONE, *NE_SE_SPECS)
    assert sum(map(table.total, table.counts)) == 256
    monkeypatch.setenv("GROWTH_BUDGET", "255")
    refuse_enumeration(monkeypatch)
    monkeypatch.setattr(ChainTable, "_code_space", None)
    with pytest.raises(InstanceTooLarge) as raised:
        count_table(shape, ZERO_ONE, *NE_SE_SPECS)
    assert str(raised.value) == "more than 255 fillings generated"
