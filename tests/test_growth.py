import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from growthdiagrams import growth
from growthdiagrams.enumeration import GREENE_SPECS, all_fillings, all_shapes
from growthdiagrams.fillings import (ARBITRARY, PARTIAL_PERMUTATION, Filling,
                                     longest_chain)
from growthdiagrams.growth import (GrowthDiagram, GrowthTableau, blow_up,
                                   border_tableau, growth_tableau,
                                   label_diagram, reconstruct, shrink_back,
                                   tableau_from_json, tableau_to_json,
                                   trace_corners)
from growthdiagrams.local_rules import VARIANTS, get_variant
from growthdiagrams.partitions import part
from growthdiagrams.shapes import FerrersShape, parse_word


def test_trace_corners():
    pts = trace_corners(*parse_word("RDD"))
    assert pts == [(0, 2), (1, 2), (1, 1), (1, 0)]


def test_tableau_validation():
    with pytest.raises(ValueError):
        GrowthTableau("RD", ((), ()))
    with pytest.raises(ValueError):
        GrowthTableau("RX", ((), (1,), ()))
    t = GrowthTableau("RD", ((), (1,), ()))
    t.validate_steps()
    bad = GrowthTableau("RD", ((), (1, 1, 1), ()), "standard")
    with pytest.raises(ValueError):
        bad.validate_steps()


def test_tableau_json_round_trip():
    t = GrowthTableau("RRDD", ((), (1,), (2,), (1,), ()), "rsk")
    assert tableau_from_json(tableau_to_json(t)) == t


def test_conjugate_swaps_variant():
    t = GrowthTableau("RD", ((), (1,), ()), "rsk")
    assert t.conjugate().variant == "dual-rsk-prime"
    assert t.conjugate().conjugate() == t


@pytest.mark.parametrize("name", VARIANTS)
def test_variant_table_conjugates(name):
    v = get_variant(name)
    w = get_variant(v.conjugate)
    flip = {"1": "1", "H": "V", "V": "H"}
    assert w.conjugate == name
    assert (w.right, w.down) == (flip[v.right], flip[v.down])
    assert ("1" in (v.right, v.down)) == (name == "standard")


def test_single_cross_growth():
    f = Filling(FerrersShape((1,)), {(1, 1): 1})
    t = growth_tableau(f)
    assert t.seq == ((), (1,), ())


def test_round_trip_with_boundary():
    shape = FerrersShape((3, 2))
    f = Filling(shape, {(2, 2): 1})
    bottom = [(), (1,), (1,), (1,)]
    left = [(), (), ()]
    d = label_diagram(f, bottom=bottom, left=left)
    t = border_tableau(d)
    f2, bottom2, left2 = reconstruct(shape.word, t)
    assert f2 == f
    assert [tuple(p) for p in bottom2] == bottom
    assert [tuple(p) for p in left2] == left


def test_boundary_change_under_occupied_column_rejected():
    shape = FerrersShape((2, 2))
    f = Filling(shape, {(1, 1): 1})
    with pytest.raises(ValueError):
        label_diagram(f, bottom=[(), (1,), (1,)])


def test_nontrivial_boundary_needs_standard():
    shape = FerrersShape((2,))
    f = Filling(shape, {})
    with pytest.raises(ValueError):
        label_diagram(f, "rsk", bottom=[(), (1,), (1,)])


def test_wrong_class_rejected():
    f = Filling(FerrersShape((2,)), {(1, 1): 2})
    with pytest.raises(ValueError):
        label_diagram(f, "standard")
    with pytest.raises(ValueError):
        label_diagram(f, "dual-rsk")


def sweep_labels(f, variant):
    """Corner labels from the variant's forward rule, called directly on
    every cell, row by row."""
    forward = get_variant(variant).forward
    rows = f.shape.rows
    labels = {(x, 0): () for x in range(f.shape.n_cols + 1)}
    labels.update({(0, y): () for y in range(len(rows) + 1)})
    for r, length in enumerate(rows, 1):
        for c in range(1, length + 1):
            labels[(c, r)] = forward(labels[(c - 1, r - 1)], labels[(c, r - 1)],
                                     labels[(c - 1, r)], f.entry(c, r))
    return labels


def sweep_entries(f, labels, variant):
    """The entries the backward rule recovers, called directly on the
    labelled frame of every cell."""
    backward = get_variant(variant).backward
    out = {}
    for c, r in f.shape.cells():
        rho, m = backward(labels[(c, r - 1)], labels[(c - 1, r)], labels[(c, r)])
        assert rho == labels[(c - 1, r - 1)]
        if m:
            out[(c, r)] = m
    return out


def round_trip(f, variant):
    """Labels, border tableau and recovered filling of f, and the filling
    its conjugated tableau reconstructs."""
    d = label_diagram(f, variant)
    t = border_tableau(d)
    f2, bottom, left = reconstruct(t.word, t, variant)
    assert all(p == () for p in bottom + left)
    return dict(d.labels), t, f2, reconstruct(t.word, t.conjugate())[0]


@pytest.mark.parametrize("variant", VARIANTS)
def test_round_trip_small_exhaustive(variant):
    """Every filling of up to 6 cells: labelling and reconstruction, which
    go through the memo at this size, agree with direct calls of the rules,
    the round trip is the identity, and a warm memo gives what an empty one
    gave."""
    cls = get_variant(variant).filling_class
    max_n = 3 if cls == "arbitrary" else None
    fillings = [f for shape in all_shapes(6)
                for _, f in all_fillings(shape, cls, max_n)]
    cold = []
    for f in fillings:
        growth._MEMO.clear()
        out = round_trip(f, variant)
        labels, _, f2, _ = out
        assert labels == sweep_labels(f, variant)
        assert f2 == f
        assert f2.entries == sweep_entries(f, labels, variant)
        cold.append(out)
    assert growth._MEMO
    for f, out in zip(fillings, cold):
        # the memo as the fillings before left it, then holding this one too
        assert round_trip(f, variant) == out
        assert round_trip(f, variant) == out
    assert len(growth._MEMO) < growth.MEMO_MAX_ENTRIES


def test_memo_stores_no_exception():
    forward = growth._rule(get_variant("standard"), "forward", True)
    for _ in range(2):
        with pytest.raises(ValueError, match="nu/rho"):
            forward((), (1,), (2,), 0)
    assert growth._MEMO == {}
    assert forward((), (1,), (1,), 0) == (1, 1)
    assert len(growth._MEMO) == 1


def test_memo_stops_at_its_cap():
    rng = random.Random(5)
    shape = FerrersShape((8,) * 8)
    assert shape.n_cells <= growth.MEMO_MAX_CELLS
    frames = set()
    while len(frames) <= growth.MEMO_MAX_ENTRIES:
        f = Filling(shape, {cell: rng.randint(0, 3) for cell in shape.cells()})
        d = label_diagram(f, "rsk")
        assert d.labels == sweep_labels(f, "rsk")
        frames.update((d.labels[(c - 1, r - 1)], d.labels[(c, r - 1)],
                       d.labels[(c - 1, r)], f.entry(c, r))
                      for c, r in shape.cells())
    assert len(growth._MEMO) == growth.MEMO_MAX_ENTRIES


def test_memo_skips_large_diagrams():
    shape = FerrersShape((13,) * 5)
    assert shape.n_cells > growth.MEMO_MAX_CELLS
    f = Filling(shape, {(1, 1): 2, (4, 3): 1, (13, 5): 1})
    t = growth_tableau(f, "rsk")
    assert reconstruct(t.word, t)[0] == f
    # the checking constructor, a padded word, the step checks and the
    # conjugates store nothing either
    assert reconstruct(t.word, list(t.seq), "rsk")[0] == f
    assert growth_tableau(f, "rsk", "D" + t.word).seq[1:] == t.seq
    t.validate_steps()
    reconstruct(t.word, t.conjugate())
    assert growth._MEMO == {}


def test_memo_keeps_every_kind_under_its_cap(monkeypatch):
    fillings = [f for shape in all_shapes(5)
                for _, f in all_fillings(shape, ARBITRARY, 2)]
    monkeypatch.setattr(growth, "MEMO_MAX_ENTRIES", 0)
    plain = [round_trip(f, "rsk") for f in fillings]
    assert growth._MEMO == {}
    monkeypatch.setattr(growth, "MEMO_MAX_ENTRIES", 64)
    assert [round_trip(f, "rsk") for f in fillings] == plain
    assert len(growth._MEMO) == 64
    kinds = {key[0] if key[0] in ("sweep", "conjugate") else key[1]
             for key in growth._MEMO}
    assert kinds == {"sweep", "forward", "backward", "step", "conjugate"}


def test_plans_are_stored_for_decoded_words_only():
    f = Filling(FerrersShape((2, 1)), {(1, 1): 1})
    key = ("sweep", "RDRD")
    t = growth_tableau(f)
    assert key not in growth._MEMO
    assert reconstruct(t.word, t)[0] == f
    assert label_diagram(f)._plan is growth._MEMO[key]


def test_malformed_word_is_never_stored():
    f = Filling(FerrersShape((1,)), {(1, 1): 1})
    for _ in range(2):
        with pytest.raises(ValueError, match="only contain D and R"):
            GrowthTableau("RX", ((), (1,), ()))
        with pytest.raises(ValueError, match="only contain D and R"):
            reconstruct("RXD", [(), (1,), (), ()])
        with pytest.raises(ValueError, match="only contain D and R"):
            label_diagram(f, word="RXD")
        with pytest.raises(ValueError, match="only contain D and R"):
            GrowthDiagram("RX", (1,), 1, "standard", f)
        # a well-formed word of another shape is kept, and still refused
        with pytest.raises(ValueError, match="traces RRD"):
            label_diagram(f, word="RRDD")
    assert list(growth._MEMO) == [("sweep", "RRDD")]


def test_bad_step_rejected_on_every_call():
    bad = GrowthTableau("RD", ((), (1, 1, 1), ()), "standard")
    for _ in range(2):
        with pytest.raises(ValueError, match="step 1 "):
            bad.validate_steps()
        with pytest.raises(ValueError, match="step 1 "):
            reconstruct(bad.word, bad)
    assert growth._MEMO[("standard", "step", "R", (), (1, 1, 1))] is False
    # a step that one variant allows is still refused by a variant that
    # does not
    GrowthTableau("RD", ((), (2,), ()), "rsk").validate_steps()
    with pytest.raises(ValueError, match="not a valid standard step"):
        GrowthTableau("RD", ((), (2,), ()), "standard").validate_steps()


def test_growth_diagram_is_read_only_and_checked():
    f = Filling(FerrersShape((1,)), {})
    d = label_diagram(f)
    with pytest.raises(TypeError):
        d.labels[(1, 1)] = (1, 2)
    with pytest.raises(FrozenInstanceError):
        d.labels = {}
    labels = dict(d.labels)
    built = GrowthDiagram("RD", [1], 1, "standard", f, labels)
    assert built == d and built.labels == labels
    assert border_tableau(built) == border_tableau(d)
    with pytest.raises(ValueError, match="not weakly decreasing"):
        GrowthDiagram("RD", (1,), 1, "standard", f, {**labels, (1, 1): (1, 2)})
    with pytest.raises(ValueError, match="traces rows"):
        GrowthDiagram("RD", (2,), 2, "standard", f, labels)
    with pytest.raises(ValueError, match="unknown variant"):
        GrowthDiagram("RD", (1,), 1, "bogus", f, labels)
    # the labels cover exactly the corners, and the filling fits the word
    with pytest.raises(ValueError, match="exactly the corners"):
        GrowthDiagram("RD", (1,), 1, "standard", f, {})
    with pytest.raises(ValueError, match="exactly the corners"):
        GrowthDiagram("RD", (1,), 1, "standard", f, {**labels, (2, 2): ()})
    del labels[(1, 1)]
    with pytest.raises(ValueError, match="exactly the corners"):
        GrowthDiagram("RD", (1,), 1, "standard", f, labels)
    with pytest.raises(ValueError, match="traces RD, not RDRD"):
        GrowthDiagram("RD", (1,), 1, "standard",
                      Filling(FerrersShape((2, 1)), {}), dict(d.labels))


def test_reconstruct_checks_outside_tableaux():
    # a raw sequence is checked label by label
    with pytest.raises(ValueError, match="not weakly decreasing"):
        reconstruct("RD", [(), (1, 2), ()])
    # a tableau read with another variant is checked for that variant's steps
    t = growth_tableau(Filling(FerrersShape((2,)), {(1, 1): 1, (2, 1): 1}),
                       "rsk")
    assert t.seq == ((), (1,), (2,), ())
    with pytest.raises(ValueError, match="not a valid standard step"):
        reconstruct(t.word, t, "standard")
    with pytest.raises(ValueError, match="not a valid dual-rsk step"):
        reconstruct(t.word, t, "dual-rsk")
    # and against another word
    with pytest.raises(ValueError, match="need 5 partitions"):
        reconstruct("RRDD", t)


def test_explicit_empty_boundary_matches_default():
    shape = FerrersShape((3, 2))
    f = Filling(shape, {(2, 2): 1, (3, 1): 1})
    explicit = label_diagram(f, bottom=[()] * 4, left=[()] * 3)
    assert explicit.labels == label_diagram(f).labels
    assert label_diagram(f, bottom=[()] * 4).labels == explicit.labels


def test_padded_word_round_trip():
    # a staircase read along the full (DR)^n word
    shape = FerrersShape((2, 1))
    f = Filling(shape, {(1, 1): 1, (2, 1): 0})
    word = "DRDRDR"
    t = growth_tableau(f, word=word)
    assert len(t.seq) == 7
    f2, _, _ = reconstruct(word, t)
    assert f2 == f


@st.composite
def padded_fillings(draw, variant):
    """A filling of at most 10 cells in the variant's class, entries <= 2,
    and its shape's word with 0-3 leading D and 0-3 trailing R steps."""
    shape = draw(st.sampled_from(all_shapes(10, min_cells=0)))
    cls = get_variant(variant).filling_class
    cells = shape.cells()
    values = draw(st.lists(st.integers(0, 2 if cls == ARBITRARY else 1),
                           min_size=len(cells), max_size=len(cells)))
    entries = keep_in_class({cell: v for cell, v in zip(cells, values) if v},
                            cls)
    word = ("D" * draw(st.integers(0, 3)) + shape.word
            + "R" * draw(st.integers(0, 3)))
    return Filling(shape, entries), word


def keep_in_class(entries, cls):
    """entries, with only the first cross of every row and column kept for
    partial permutations."""
    if cls == PARTIAL_PERMUTATION:
        used_cols, used_rows = set(), set()
        for c, r in list(entries):
            if c in used_cols or r in used_rows:
                del entries[(c, r)]
            used_cols.add(c)
            used_rows.add(r)
    return entries


def padded_round_trip(f, word, variant):
    """The border tableau of f along word, after checking that it
    reconstructs f and that the padding leaves the shape's labels alone."""
    t = growth_tableau(f, variant, word)
    f2, bottom, left = reconstruct(word, t, variant)
    assert f2 == f
    assert all(p == () for p in bottom + left)
    padded = label_diagram(f, variant, word)
    plain = label_diagram(f, variant)
    assert all(padded.label(*xy) == plain.label(*xy) for xy in plain.corners())
    return t


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_padded_word_round_trip_property(variant, data):
    f, word = data.draw(padded_fillings(variant))
    # the memo as earlier examples left it, then holding this one, then empty
    first = padded_round_trip(f, word, variant)
    assert padded_round_trip(f, word, variant) == first
    growth._MEMO.clear()
    assert padded_round_trip(f, word, variant) == first


@st.composite
def large_fillings(draw, variant):
    """A filling of a Ferrers shape of 65 to 200 cells, past the memo, in
    the variant's class: at most 24 nonzero entries, each at most 3."""
    rows = sorted(draw(st.lists(st.integers(1, 20), min_size=5, max_size=15)),
                  reverse=True)
    assume(growth.MEMO_MAX_CELLS < sum(rows) <= 200)
    shape = FerrersShape(tuple(rows))
    cls = get_variant(variant).filling_class
    cells = draw(st.lists(st.sampled_from(shape.cells()), max_size=24,
                          unique=True))
    values = draw(st.lists(st.integers(1, 3 if cls == ARBITRARY else 1),
                           min_size=len(cells), max_size=len(cells)))
    return Filling(shape, keep_in_class(dict(zip(cells, values)), cls))


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_large_round_trip_and_greene_property(variant, data):
    """Past the memo: the round trip is the identity, and at every corner
    the label's first part and length are the longest chains of the
    variant's Greene pair in the corner's rectangle (Greene at k = 1)."""
    f = data.draw(large_fillings(variant))
    d = label_diagram(f, variant)
    assert dict(d.labels) == sweep_labels(f, variant)
    t = border_tableau(d)
    f2, bottom, left = reconstruct(t.word, t, variant)
    assert f2 == f
    assert all(p == () for p in bottom + left)
    assert growth._MEMO == {}
    spec_up, spec_down = GREENE_SPECS[variant]
    for (x, y), lam in d.labels.items():
        box = Filling(FerrersShape((x,) * y),
                      {(c, r): v for (c, r), v in f.entries.items()
                       if c <= x and r <= y})
        assert part(lam, 1) == longest_chain(box, spec_up)
        assert len(lam) == longest_chain(box, spec_down)


@pytest.mark.parametrize("variant",
                         ["rsk", "dual-rsk", "rsk-prime", "dual-rsk-prime"])
def test_blow_up_equivalence_small(variant):
    cls = get_variant(variant).filling_class
    max_n = 3 if cls == "arbitrary" else None
    for shape in all_shapes(5):
        for _, f in all_fillings(shape, cls, max_n):
            fine, row_blocks, col_blocks = blow_up(f, variant)
            coarse = shrink_back(label_diagram(fine), row_blocks, col_blocks)
            direct = label_diagram(f, variant)
            for key, lam in direct.labels.items():
                assert coarse[key] == lam, (variant, f, key)


_SQUARE = FerrersShape((2, 2))
_ENTRIES_122 = {(1, 1): 1, (1, 2): 2, (2, 1): 2}
_ALL_ONES = {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 1}


# variant: (entries on the 2x2 square, crosses of the blown-up filling)
_BLOW_UPS = {
    "rsk": (_ENTRIES_122, [(1, 1), (2, 4), (3, 5), (4, 2), (5, 3)]),
    "dual-rsk": (_ALL_ONES, [(1, 2), (2, 4), (3, 1), (4, 3)]),
    "rsk-prime": (_ALL_ONES, [(1, 3), (2, 1), (3, 4), (4, 2)]),
    "dual-rsk-prime": (_ENTRIES_122, [(1, 5), (2, 4), (3, 3), (4, 2), (5, 1)]),
}


@pytest.mark.parametrize("variant", list(_BLOW_UPS))
def test_blow_up_shapes(variant):
    entries, crosses = _BLOW_UPS[variant]
    fine, row_blocks, col_blocks = blow_up(Filling(_SQUARE, entries), variant)
    side = len(crosses)
    assert fine.shape.rows == (side,) * side
    assert sorted(fine.entries) == crosses
    blocks = ((1, 3), (4, 2)) if side == 5 else ((1, 2), (3, 2))
    assert row_blocks == col_blocks == blocks


def test_blow_up_needs_strip_variant():
    with pytest.raises(ValueError):
        blow_up(Filling(_SQUARE, {(1, 1): 1}), "standard")
    # an entry of 2 is outside the dual-rsk class, as for label_diagram
    with pytest.raises(ValueError, match="dual-rsk rules need a zero-one"):
        blow_up(Filling(FerrersShape((2,)), {(1, 1): 2}), "dual-rsk")
