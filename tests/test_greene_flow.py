"""The min-cost flow `greene_totals` against the exhaustive `greene_oracle`.

The oracle searches every way of laying k chains over the cells; the flow
finds the same totals by successive augmenting paths, for every k at once.
They are compared exhaustively on small fillings and by a Hypothesis
property within the oracle's caps.
"""

import ast
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from growthdiagrams.enumeration import all_fillings, all_shapes
from growthdiagrams.fillings import ARBITRARY, Filling, chain_spec, greene_totals
from growthdiagrams.shapes import FerrersShape

from oracles import (ORACLE_MAX_CELLS, ORACLE_MAX_ENTRY_SUM, ORACLE_MAX_K,
                     greene_oracle)

CODES = ("NE", "Ne", "nE", "ne", "SE", "Se", "sE", "se")
SPECS = tuple(chain_spec(code, mode) for code in CODES
              for mode in ("count", "entry-sum", "entry-multiplicity"))


def _mismatches(f, spec, k_max, corner):
    totals = greene_totals(f, spec, k_max, corner)
    assert len(totals) == k_max
    return [(f, spec, k, corner) for k in range(1, k_max + 1)
            if totals[k - 1] != greene_oracle(f, spec, k, corner)]


def test_flow_matches_oracle_exhaustively():
    found, compared = [], 0
    for shape in all_shapes(5):
        for _, f in all_fillings(shape, ARBITRARY, 3):
            for spec in SPECS:
                for corner in (None, (2, 2)):
                    found += _mismatches(f, spec, 3, corner)
                    compared += 3
    assert compared == 93744
    assert found == []


@st.composite
def _instances(draw):
    """A filling within the oracle's caps, a spec, a k and a corner."""
    rows = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    rows = sorted(rows, reverse=True)
    while sum(rows) > ORACLE_MAX_CELLS:
        rows.pop()
    shape = FerrersShape(tuple(rows))
    cells = draw(st.lists(st.sampled_from(shape.cells()), max_size=8,
                          unique=True))
    entries, left = {}, ORACLE_MAX_ENTRY_SUM
    for cell in cells:
        value = draw(st.integers(1, 3))
        if value > left:
            break
        entries[cell] = value
        left -= value
    corner = draw(st.none() | st.tuples(st.integers(1, shape.n_cols),
                                        st.integers(1, shape.n_rows)))
    return (Filling(shape, entries), draw(st.sampled_from(SPECS)),
            draw(st.integers(1, ORACLE_MAX_K)), corner)


@settings(max_examples=300, deadline=None)
@given(_instances())
def test_flow_matches_oracle_property(instance):
    assert _mismatches(*instance) == []


def test_flow_gives_every_k():
    # an antichain of two NE cells: one chain takes one, two take both,
    # and more chains add nothing
    f = Filling(FerrersShape((2, 2)), {(1, 2): 1, (2, 1): 1})
    assert greene_totals(f, chain_spec("NE"), 5) == [1, 2, 2, 2, 2]
    assert greene_totals(f, chain_spec("SE"), 3) == [2, 2, 2]
    # an entry 2 may carry two ne chains of multisets, but not three
    g = Filling(FerrersShape((2, 2)), {(1, 1): 2, (2, 2): 1, (1, 2): 1})
    spec = chain_spec("ne", length_mode="entry-multiplicity")
    assert greene_totals(g, spec, 4) == [2, 3, 4, 4]
    assert greene_totals(g, spec, 4, corner=(1, 2)) == [1, 2, 3, 3]
    assert greene_totals(Filling(FerrersShape((1,)), {}), spec, 2) == [0, 0]


def test_flow_reads_no_growth_code():
    """check_greene compares the labels with the flow, so the flow's module
    imports nothing that makes or reads a label."""
    path = Path(__file__).resolve().parent.parent / "src/growthdiagrams/fillings.py"
    imported = {node.module for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) and node.level}
    assert imported == {"shapes"}
