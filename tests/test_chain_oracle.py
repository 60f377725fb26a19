"""The longest-path `longest_chain` against an exhaustive chain search.

The oracle lists every chain in the cell order, keeps those whose
bounding box fits, and takes the largest value.  It reads a spec's code,
length mode and rectangle flag only, and tests a step and a box with its
own helpers, so a fault in `ChainSpec.step_ok` or in the box test of
`longest_chain` shows up here as a mismatch.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from growthdiagrams.enumeration import all_fillings, all_shapes
from growthdiagrams.fillings import (ARBITRARY, ZERO_ONE, Filling, chain_spec,
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
def _fillings(draw):
    if draw(st.booleans()):
        rows = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
        shape = FerrersShape(tuple(sorted(rows, reverse=True)))
    else:
        rise = sorted(draw(st.lists(st.integers(1, 6), max_size=3)))
        fall = sorted(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)),
                      reverse=True)
        shape = StackPolyomino(tuple(rise + fall))
    cells = draw(st.lists(st.sampled_from(shape.cells()), max_size=10,
                          unique=True))
    values = draw(st.lists(st.integers(1, 3), min_size=len(cells),
                           max_size=len(cells)))
    return Filling(shape, dict(zip(cells, values)))


@settings(max_examples=300, deadline=None)
@given(_fillings())
def test_longest_chain_matches_oracle_property(f):
    assert _mismatches([f]) == []
