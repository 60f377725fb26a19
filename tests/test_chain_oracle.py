"""The longest-path `longest_chain` against an exhaustive chain search,
and the `ChainTable` against `longest_chain`.

The oracle lists every chain in the cell order, keeps those whose
bounding box fits, and takes the largest value.  It reads a spec's code,
length mode and rectangle flag only, and tests a step and a box with its
own helpers, so a fault in `ChainSpec.step_ok` or in the box test of
`longest_chain` shows up here as a mismatch.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from growthdiagrams import fillings
from growthdiagrams.enumeration import (NE_SE_SPECS, all_fillings, all_shapes,
                                        count_table)
from growthdiagrams.fillings import (ARBITRARY, MEMO_MAX_CELLS,
                                     MEMO_MAX_ENTRIES, PARTIAL_PERMUTATION,
                                     ZERO_ONE, ChainTable, Filling, chain_spec,
                                     longest_chain)
from growthdiagrams.shapes import FerrersShape, StackPolyomino

from oracles import stack_polyominoes

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
    for shape in all_shapes(6) + stack_polyominoes(6):
        for cls, max_n in ((ARBITRARY, 3), (ZERO_ONE, None),
                           (PARTIAL_PERMUTATION, None)):
            group = [f for _, f in all_fillings(shape, cls, max_n)]
            for spec in SPECS:
                table = ChainTable(shape, spec, 2 if cls == ARBITRARY else 1)
                mismatches += [(f, spec) for f in group
                               if table(f) != longest_chain(f, spec)]
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
    table = ChainTable(shape, spec, max_n.bit_length())
    assert all(table(f) == longest_chain(f, spec)
               for _, f in all_fillings(shape, cls, max_n))


def test_chain_table_reads_out_of_order(monkeypatch):
    """Read from the largest filling down, a table misses the smaller
    fillings of most fillings, and hands those to longest_chain, which
    gives the value."""
    handed = counting_fallback(monkeypatch)
    shape = FerrersShape((3, 2, 1))
    group = [f for _, f in all_fillings(shape, ZERO_ONE)][::-1]
    for spec in NE_SE_SPECS:
        table = ChainTable(shape, spec, 1)
        assert [table(f) for f in group] == [longest_chain(f, spec)
                                             for f in group]
    assert group[0] in handed and group[-1] not in handed


def counts_by_longest_chain(shape, cls, specs, max_n=None):
    """count_table's counts, each filling read by longest_chain."""
    counts = {}
    for n, f in all_fillings(shape, cls, max_n):
        key = tuple(longest_chain(f, spec) for spec in specs)
        counts.setdefault(n, {})
        counts[n][key] = counts[n].get(key, 0) + 1
    return counts


def test_count_table_past_the_table_memo(monkeypatch):
    """Past MEMO_MAX_ENTRIES fillings a table stores no more, and the
    fillings whose smaller fillings it lacks go to longest_chain."""
    shape = FerrersShape((4, 4, 3, 2))
    assert 2 ** shape.n_cells > MEMO_MAX_ENTRIES
    expected = counts_by_longest_chain(shape, ZERO_ONE, NE_SE_SPECS)
    handed = counting_fallback(monkeypatch)
    assert count_table(shape, ZERO_ONE, *NE_SE_SPECS).counts == expected
    assert handed


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
