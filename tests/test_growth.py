import dataclasses
import random
import re
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from growthdiagrams import growth, local_rules
from growthdiagrams.enumeration import (GREENE_SPECS, all_fillings, all_shapes,
                                        check_greene)
from growthdiagrams.fillings import (ARBITRARY, PARTIAL_PERMUTATION, Filling,
                                     _code, _code_entries, _weights,
                                     longest_chain)
from growthdiagrams.growth import (GrowthDiagram, GrowthTableau, blow_up,
                                   border_tableau, conjugate_swap,
                                   growth_tableau, label_diagram, reconstruct,
                                   shrink_back, tableau_from_json,
                                   tableau_to_json, trace_corners)
from growthdiagrams.insertion import deletion_entries, insertion_border
from growthdiagrams.local_rules import VARIANTS, get_variant
from growthdiagrams.partitions import part, partitions_of
from growthdiagrams.shapes import FerrersShape, StackPolyomino, parse_word
from oracles import add_square_in_row, blow_up_oracle, swap_by_definition


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
    # a tableau that names no variant takes the one given
    unnamed = '{"word": "RRDD", "seq": [[], [1], [2], [1], []]}'
    assert tableau_from_json(unnamed, "rsk") == t
    assert tableau_from_json(unnamed).variant == "standard"


def test_tableau_rejects_unknown_variant():
    with pytest.raises(ValueError, match="unknown variant 'nope'"):
        GrowthTableau("RD", ((), (1,), ()), "nope")
    with pytest.raises(ValueError, match="unknown variant 'nope'"):
        tableau_from_json('{"word": "RD", "seq": [[], [1], []]}', "nope")


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


def test_boundary_labels_must_be_steps():
    """The sweeps take the boundary edges as checked, so the boundary check
    is the only one they get."""
    f = Filling(FerrersShape((2, 2)), {})
    with pytest.raises(ValueError, match="bottom labels at 0,1 differ by more"):
        label_diagram(f, bottom=[(), (2,), (2,)])
    with pytest.raises(ValueError, match="left labels at 1,2 differ by more"):
        label_diagram(f, left=[(), (), (1, 1)])
    with pytest.raises(ValueError, match="bottom labels at 0,1 differ by more"):
        label_diagram(f, bottom=[(1,), (), ()], left=[(1,), (1,), (1,)])


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


def clear_memo():
    """Empty every growth memo, as the autouse fixture does before each
    test."""
    growth._PLANS.clear()
    growth._small_rules.cache_clear()
    growth._small_conjugate.cache_clear()


def memo_is_empty():
    """Whether no plan is stored and no memoised rule, step check or
    conjugate has been built or called."""
    return (growth._PLANS == {}
            and growth._small_rules.cache_info().currsize == 0
            and growth._small_conjugate.cache_info().currsize == 0)


def small_caches(variant):
    """The memoised forward rule, backward rule and step check of a
    variant."""
    return growth._small_rules(get_variant(variant))


def sweep_labels(f, variant, bottom=None, left=None):
    """Corner labels from the variant's forward rule, called directly on
    every cell, row by row, from the given bottom and left labels (empty by
    default)."""
    forward = get_variant(variant).forward
    rows = f.shape.rows
    bottom = bottom or [()] * (f.shape.n_cols + 1)
    left = left or [()] * (len(rows) + 1)
    labels = {(x, 0): p for x, p in enumerate(bottom)}
    labels.update({(0, y): p for y, p in enumerate(left)})
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
        clear_memo()
        out = round_trip(f, variant)
        labels, _, f2, _ = out
        assert labels == sweep_labels(f, variant)
        assert f2 == f
        assert f2.entries == sweep_entries(f, labels, variant)
        cold.append(out)
    for f, out in zip(fillings, cold):
        # the memo as the fillings before left it, then holding this one too
        assert round_trip(f, variant) == out
        assert round_trip(f, variant) == out
    # every cache was used, and none was full enough to evict an entry
    caches = [*small_caches(variant), growth._small_conjugate]
    sizes = [len(growth._PLANS)] + [c.cache_info().currsize for c in caches]
    assert all(0 < size < growth.MEMO_MAX_ENTRIES for size in sizes)


def test_memo_stores_no_exception():
    forward = small_caches("standard")[0]
    for _ in range(2):
        with pytest.raises(ValueError, match="nu/rho"):
            forward((), (1,), (2,), 0)
    assert forward.cache_info().currsize == 0
    assert forward((), (1,), (1,), 0) == (1, 1)
    assert forward.cache_info().currsize == 1


def is_pass_through(rho, mu, nu, m):
    """Whether label_diagram passes the frame's label through itself."""
    return not m and (rho == mu or rho == nu)


def test_memo_stops_at_its_cap():
    rng = random.Random(5)
    shape = FerrersShape((8,) * 8)
    assert shape.n_cells <= growth.MEMO_MAX_CELLS
    # only the frames that reach the rules can fill the memo
    frames = set()
    while len(frames) <= growth.MEMO_MAX_ENTRIES:
        f = Filling(shape, {cell: rng.randint(0, 3) for cell in shape.cells()})
        d = label_diagram(f, "rsk")
        assert d.labels == sweep_labels(f, "rsk")
        frames.update(frame for frame in (
            (d.labels[(c - 1, r - 1)], d.labels[(c, r - 1)],
             d.labels[(c - 1, r)], f.entry(c, r)) for c, r in shape.cells())
            if not is_pass_through(*frame))
    assert small_caches("rsk")[0].cache_info().currsize == growth.MEMO_MAX_ENTRIES


def test_memo_holds_no_pass_through_frame():
    """The sweeps pass labels through themselves, so after a warm pass each
    variant's rule caches hold exactly the distinct frames that needed a
    rule."""
    for variant in VARIANTS:
        cls = get_variant(variant).filling_class
        forward, backward = set(), set()
        for shape in all_shapes(5):
            for _, f in all_fillings(shape, cls, 2):
                for _ in range(2):
                    d = label_diagram(f, variant)
                    t = border_tableau(d)
                    assert reconstruct(t.word, t)[0] == f
                labels = d.labels
                for c, r in shape.cells():
                    rho, mu, nu = (labels[(c - 1, r - 1)], labels[(c, r - 1)],
                                   labels[(c - 1, r)])
                    lam, m = labels[(c, r)], f.entry(c, r)
                    if not is_pass_through(rho, mu, nu, m):
                        forward.add((rho, mu, nu, m))
                    if lam not in (mu, nu):
                        backward.add((mu, nu, lam))
        caches = small_caches(variant)
        assert forward and backward
        assert caches[0].cache_info().currsize == len(forward)
        assert caches[1].cache_info().currsize == len(backward)


def corrupt_rsk(monkeypatch):
    """Give rsk kernels whose labels are no step from their neighbours: a
    forward lam with a 2x2 block more than the kernel's, a backward rho
    with a first part longer than lam's, so that it fits in neither mu nor
    nu.  A frame the kernel refuses is still refused."""
    def forward_kernel(rho, mu, nu, m):
        lam = local_rules._forward_rsk(rho, mu, nu, m)
        if lam is None:
            return None
        return (lam[0] + 2, lam[0] + 2) + lam[1:]

    def backward_kernel(mu, nu, lam):
        out = local_rules._backward_rsk(mu, nu, lam)
        if out is None:
            return None
        return (lam[0] + 1,), out[1]

    monkeypatch.setitem(local_rules.VARIANT_TABLE, "rsk", local_rules._variant(
        "rsk", ARBITRARY, "H", "H", "dual-rsk-prime",
        (forward_kernel, backward_kernel)))
    # a new VARIANT_TABLE row gets memoised rules of its own, so nothing
    # the real rules gave is remembered for it


# A line of cells (a column or a row) and, for each sweep, the entries in
# the order the sweep meets them, with the error of the cell after the
# first entry: that cell (above or to the right going forward, below or to
# the left going back) is the first to see the label of the corrupted
# kernel.  It passes a label through in the first two cases and holds an
# entry in the last two.
_CORRUPTED = [
    ("column", {(1, 1): 1}, "mu/rho = (3, 3)/() is not",
     {(1, 2): 1}, "lam/nu = ()/(2,) is not"),
    ("row", {(1, 1): 1}, "nu/rho = (3, 3)/() is not",
     {(2, 1): 1}, "lam/mu = ()/(2,) is not"),
    ("column", {(1, 1): 1, (1, 2): 1}, "mu/rho = (3, 3)/() is not",
     {(1, 2): 1, (1, 1): 1}, "lam/nu = (1,)/(3,) is not"),
    ("row", {(1, 1): 1, (2, 1): 1}, "nu/rho = (3, 3)/() is not",
     {(2, 1): 1, (1, 1): 1}, "lam/mu = (1,)/(3,) is not"),
]


@pytest.mark.parametrize("line, forward_entries, forward_error, "
                         "backward_entries, backward_error", _CORRUPTED,
                         ids=["above-passes", "right-passes", "above-carries",
                              "right-carries"])
@pytest.mark.parametrize("n", [2, growth.MEMO_MAX_CELLS + 6])
def test_sweeps_check_what_a_carry_leaves(monkeypatch, n, line,
                                          forward_entries, forward_error,
                                          backward_entries, backward_error):
    """The sweeps skip only edges known to be good: a label that a kernel
    got wrong is refused by the next cell that sees it, whether that cell
    passes a label through or runs its rule, on a line of n cells, through
    the memo or past it.  Past the memo, the forward sweep runs when the
    diagram's labels are first read."""
    shape = FerrersShape((1,) * n if line == "column" else (n,))
    t = growth_tableau(Filling(shape, backward_entries), "rsk")
    corrupt_rsk(monkeypatch)
    with pytest.raises(ValueError, match=re.escape(forward_error)):
        label_diagram(Filling(shape, forward_entries), "rsk").labels
    with pytest.raises(ValueError, match=re.escape(backward_error)):
        growth._backward_sweep(t._plan, t.seq, get_variant("rsk"))


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
    assert memo_is_empty()


def counted_row(monkeypatch, variant):
    """Rebuild the variant's VARIANT_TABLE row, as corrupt_rsk does, from
    step tests and kernels that count their calls: "step" counts the step
    tests, "frames" the rule frames (each runs the kernel once)."""
    counts = {"step": 0, "frames": 0}

    def counting(key, fn):
        def counted(*args):
            counts[key] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(local_rules, "_STEP_TESTS", {
        kind: counting("step", test)
        for kind, test in local_rules._STEP_TESTS.items()})
    v = get_variant(variant)
    kernels = (getattr(local_rules, f"_{direction}_{variant.replace('-', '_')}")
               for direction in ("forward", "backward"))
    monkeypatch.setitem(local_rules.VARIANT_TABLE, variant, local_rules._variant(
        variant, v.filling_class, v.right, v.down, v.conjugate,
        [counting("frames", kernel) for kernel in kernels]))
    return counts


@pytest.mark.parametrize("variant", VARIANTS)
def test_large_sweeps_test_each_edge_once(monkeypatch, variant):
    """Past the memo each edge is step-tested at most once: a rule frame
    checks its input edges in its kernel and leaves two new edges, and the
    boundary edges start verified, so the forward sweep makes at most 2R
    step tests and the backward sweep, which first checks the B border
    steps, at most B + 2R, for R rule frames (R kernel calls).  The forward
    sweep runs when the diagram's labels are first read."""
    rng = random.Random(20)
    cls = get_variant(variant).filling_class
    counts = counted_row(monkeypatch, variant)
    for _ in range(5):
        shape = FerrersShape(tuple(sorted(
            (rng.randint(8, 16) for _ in range(10)), reverse=True)))
        assert shape.n_cells > growth.MEMO_MAX_CELLS
        cells = rng.sample(shape.cells(), 12)
        f = Filling(shape, keep_in_class(
            {cell: rng.randint(1, 3 if cls == ARBITRARY else 1)
             for cell in cells}, cls))
        counts.update(step=0, frames=0)
        d = label_diagram(f, variant)
        assert d.labels
        assert counts["frames"] > 0
        assert counts["step"] <= 2 * counts["frames"]
        t = border_tableau(d)
        counts.update(step=0, frames=0)
        assert growth._backward_sweep(t._plan, t.seq,
                                      get_variant(variant))[1] == f.entries
        assert counts["frames"] > 0
        assert counts["step"] <= len(t.word) + 2 * counts["frames"]
    assert memo_is_empty()


def count_plans(monkeypatch):
    """The words of the sweep plans built from now on, in a list that
    grows as they are built."""
    built = []
    init = growth._SweepPlan.__init__

    def counting_init(plan, word, rows, n_cols):
        built.append(word)
        init(plan, word, rows, n_cols)

    monkeypatch.setattr(growth._SweepPlan, "__init__", counting_init)
    return built


def test_large_tableaux_decode_their_word_once(monkeypatch):
    """Past the memo a tableau keeps the plan its word was decoded into,
    or its diagram's: the step check, the conjugate and reconstruct decode
    the word no more, and reconstruct of a raw sequence decodes it once."""
    f = Filling(FerrersShape((13,) * 5), {(1, 1): 2, (4, 3): 1, (13, 5): 1})
    built = count_plans(monkeypatch)
    t = growth_tableau(f, "rsk")
    assert len(built) == 1
    t.validate_steps()
    conj = t.conjugate()
    conj.validate_steps()
    assert reconstruct(t.word, t)[0] == f
    assert reconstruct(t.word, conj)[0] == reconstruct(
        conj.word, list(conj.seq), conj.variant)[0]
    assert len(built) == 2
    assert reconstruct(t.word, list(t.seq), "rsk")[0] == f
    assert len(built) == 3


def test_small_rules_are_keyed_by_identity():
    """A variant hashes and compares as itself, so a copy with the same
    fields, as a replaced VARIANT_TABLE row may be, gets caches of its
    own."""
    v = get_variant("rsk")
    copy = dataclasses.replace(v)
    assert copy != v and hash(v) == object.__hash__(v)
    assert growth._small_rules(copy) is not growth._small_rules(v)
    assert growth._small_rules(v) is growth._small_rules(get_variant("rsk"))


def test_memo_keeps_every_kind_under_its_cap():
    """Every rule, step and conjugate cache is bounded by MEMO_MAX_ENTRIES,
    and the plans stop being stored at MEMO_MAX_ENTRIES words."""
    caches = [c for variant in VARIANTS for c in small_caches(variant)]
    caches.append(growth._small_conjugate)
    assert all(c.cache_info().maxsize == growth.MEMO_MAX_ENTRIES
               for c in caches)
    f = Filling(FerrersShape((1,)), {(1, 1): 1})
    plain = label_diagram(f).labels[(1, 1)]
    # padded words of the one cell, more than the plans may hold
    for i in range(70):
        for j in range(70):
            word = "D" * i + "RD" + "R" * j
            assert label_diagram(f, word=word).label(1, 1) == plain
    assert len(growth._PLANS) == growth.MEMO_MAX_ENTRIES


def test_small_plans_are_stored_when_first_built(monkeypatch):
    """A small plan is stored under its word whether it was decoded or
    built from a filling's shape: a second label_diagram of a fresh small
    shape builds no plan, and reconstruct, of a tableau or of a raw
    sequence, reads the same plan object."""
    built = count_plans(monkeypatch)
    f = Filling(FerrersShape((2, 1)), {(1, 1): 1})
    d = label_diagram(f)
    assert built == ["RDRD"] and d._plan is growth._PLANS["RDRD"]
    g = Filling(FerrersShape((2, 1)), {(2, 1): 1})
    assert label_diagram(g)._plan is d._plan
    t = border_tableau(d)
    assert reconstruct(t.word, t)[0] == f
    assert reconstruct(t.word, list(t.seq))[0] == f
    assert GrowthTableau(t.word, t.seq)._plan is d._plan
    assert built == ["RDRD"]


def test_malformed_word_is_never_stored():
    f = Filling(FerrersShape((1,)), {(1, 1): 1})
    for _ in range(2):
        with pytest.raises(ValueError, match="only contain D and R"):
            GrowthTableau("RX", ((), (1,), ()))
        with pytest.raises(ValueError, match="only contain D and R"):
            reconstruct("RXD", [(), (1,), (), ()])
        with pytest.raises(ValueError, match="only contain D and R"):
            label_diagram(f, word="RXD")
        # a well-formed word of another shape is kept, and still refused
        with pytest.raises(ValueError, match="traces RRD"):
            label_diagram(f, word="RRDD")
    assert list(growth._PLANS) == ["RRDD"]


def test_bad_step_rejected_on_every_call():
    bad = GrowthTableau("RD", ((), (1, 1, 1), ()), "standard")
    for _ in range(2):
        with pytest.raises(ValueError, match="step 1 "):
            bad.validate_steps()
        with pytest.raises(ValueError, match="step 1 "):
            reconstruct(bad.word, bad)
    # the failed check was stored once (hits, misses, maxsize, size), and
    # the stored False still raises
    step_ok = small_caches("standard")[2]
    assert step_ok.cache_info() == (3, 1, growth.MEMO_MAX_ENTRIES, 1)
    # a step that one variant allows is still refused by a variant that
    # does not
    GrowthTableau("RD", ((), (2,), ()), "rsk").validate_steps()
    with pytest.raises(ValueError, match="not a valid standard step"):
        GrowthTableau("RD", ((), (2,), ()), "standard").validate_steps()


def test_growth_diagram_is_read_only_and_checked():
    """A diagram's labels are read-only, and they are the growth of its
    filling: the labels of the rules called directly on every cell."""
    f = Filling(FerrersShape((1,)), {})
    d = label_diagram(f)
    with pytest.raises(TypeError):
        d.labels[(1, 1)] = (1, 2)
    with pytest.raises(FrozenInstanceError):
        d.labels = {}
    assert d.labels == sweep_labels(f, "standard")
    g = Filling(FerrersShape((2, 1)), {(2, 1): 1})
    for variant in VARIANTS:
        assert label_diagram(g, variant).labels == sweep_labels(g, variant)


def test_only_label_diagram_makes_diagrams():
    """GrowthDiagram has no public constructor, so no diagram carries
    labels that are not its filling's growth: one cross in the one-cell
    shape, with all four corners labelled (), is refused, and
    label_diagram's diagram of it has the border (), (1,), () that
    reconstruct turns back into the cross."""
    f = Filling(FerrersShape((1,)), {(1, 1): 1})
    labels = dict.fromkeys([(0, 0), (1, 0), (0, 1), (1, 1)], ())
    with pytest.raises(TypeError):
        GrowthDiagram("RD", (1,), 1, "standard", f, labels)
    d = label_diagram(f)
    assert d.labels == sweep_labels(f, "standard") == {**labels, (1, 1): (1,)}
    t = border_tableau(d)
    assert t.seq == ((), (1,), ())
    assert reconstruct(t.word, t)[0] == f


@pytest.mark.parametrize("rows", [(3, 2), (13,) * 5])
def test_labels_are_built_on_first_read(rows):
    """A diagram builds its labels when they are first read, ==, repr and
    label() included, and they are the labels of the rules called on every
    cell; a large diagram only passed on to border_tableau and reconstruct
    never makes its plan's corner keys."""
    shape = FerrersShape(rows)
    f = Filling(shape, {(1, 1): 1, (2, 2): 1})
    labels = sweep_labels(f, "standard")
    d = label_diagram(f)
    assert "labels" not in vars(d)
    assert d == label_diagram(f) and "labels" in vars(d)
    assert repr(label_diagram(f)) == repr(d)
    assert label_diagram(f).label(2, 2) == labels[(2, 2)] == (2,)
    assert label_diagram(f).labels == d.labels == labels
    with pytest.raises(AttributeError, match="no attribute 'lables'"):
        label_diagram(f).lables
    passed_on = label_diagram(f)
    t = border_tableau(passed_on)
    assert reconstruct(t.word, t)[0] == f
    assert "labels" not in vars(passed_on)
    if shape.n_cells > growth.MEMO_MAX_CELLS:
        assert "keys" not in vars(passed_on._plan)


@pytest.mark.parametrize("rows", [(2, 2), (9,) * 8])
def test_diagrams_hash_as_they_compare(rows):
    """Two diagrams of one filling hash alike, and hashing builds no
    labels; they compare equal, with the labels of the rules called on
    every cell."""
    shape = FerrersShape(rows)
    f = Filling(shape, {(1, 1): 1, (2, 2): 1})
    d, e = label_diagram(f), label_diagram(f)
    assert hash(d) == hash(e)
    assert "labels" not in vars(d) and "labels" not in vars(e)
    assert d == e and len({d, e}) == 1
    assert d.labels == sweep_labels(f, "standard")
    assert label_diagram(f, "rsk") != d


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
    shape = draw(st.sampled_from(list(all_shapes(10, min_cells=0))))
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
    reconstructs f and that the padding leaves the shape's labels alone.
    The padded diagram's labels are the direct rule calls' labels, with
    empty labels on the corners of zero-length top rows and zero-height
    columns, and the entries recovered are the direct backward rule
    calls'."""
    t = growth_tableau(f, variant, word)
    f2, bottom, left = reconstruct(word, t, variant)
    assert f2 == f
    assert all(p == () for p in bottom + left)
    padded = label_diagram(f, variant, word)
    plain = label_diagram(f, variant)
    assert all(padded.label(*xy) == plain.label(*xy) for xy in plain.corners())
    assert dict(padded.labels) == {**dict.fromkeys(padded.corners(), ()),
                                   **sweep_labels(f, variant)}
    assert f2.entries == sweep_entries(f, padded.labels, variant)
    return t


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_padded_word_round_trip_property(variant, data):
    f, word = data.draw(padded_fillings(variant))
    # the memo as earlier examples left it, then holding this one, then empty
    first = padded_round_trip(f, word, variant)
    assert padded_round_trip(f, word, variant) == first
    clear_memo()
    assert padded_round_trip(f, word, variant) == first


@st.composite
def large_fillings(draw, variant, max_cells=200, max_entries=24):
    """A filling of a Ferrers shape of 65 to ``max_cells`` cells, past the
    memo, in the variant's class: at most ``max_entries`` nonzero entries,
    each at most 3.  Its rows are 5 to ``max_cells // 13`` lines of up to
    20 cells."""
    rows = sorted(draw(st.lists(st.integers(1, 20), min_size=5,
                                max_size=max_cells // 13)), reverse=True)
    assume(growth.MEMO_MAX_CELLS < sum(rows) <= max_cells)
    shape = FerrersShape(tuple(rows))
    cls = get_variant(variant).filling_class
    cells = draw(st.lists(st.sampled_from(shape.cells()),
                          max_size=max_entries, unique=True))
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
    assert memo_is_empty()
    spec_up, spec_down = GREENE_SPECS[variant]
    for (x, y), lam in d.labels.items():
        box = Filling(FerrersShape((x,) * y),
                      {(c, r): v for (c, r), v in f.entries.items()
                       if c <= x and r <= y})
        assert part(lam, 1) == longest_chain(box, spec_up)
        assert len(lam) == longest_chain(box, spec_down)


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_large_greene_property(variant, data):
    """Past the memo and past the exhaustive oracle's caps: at every corner
    lam_1 + ... + lam_k and lam'_1 + ... + lam'_k are the largest totals of
    k chains of the variant's Greene pair, for k <= 4."""
    f = data.draw(large_fillings(variant))
    report = check_greene(f, variant, 4)
    assert report.passed, report


@pytest.mark.parametrize("variant", VARIANTS)
def test_insertion_border_matches_the_sweep_exhaustive(variant):
    """Every filling of every Ferrers shape of at most 7 cells (entry sum at
    most 3 for arbitrary fillings), on the shape's word and on the word
    padded with a leading D and a trailing R: insertion gives the border
    that the forward sweep gives, and deletion gives the filling back."""
    v = get_variant(variant)
    max_n = 3 if v.filling_class == ARBITRARY else None
    for shape in all_shapes(7):
        for word in (shape.word, "D" + shape.word + "R"):
            heights = growth._sweep_plan(word).heights
            for _, f in all_fillings(shape, v.filling_class, max_n):
                seq = growth_tableau(f, variant, word).seq
                assert tuple(insertion_border(heights, f.entries, v.right,
                                              v.down)) == seq
                assert deletion_entries(heights, seq, v.right,
                                        v.down) == f.entries


# the labels of at most 4 squares
_SMALL_LABELS = [p for n in range(5) for p in partitions_of(n)]


def valid_sequences(word, step_ok):
    """Every label sequence from the empty partition to the empty partition
    along ``word``, of labels of at most 4 squares, whose steps pass
    ``step_ok``, built step by step."""
    seqs = [((),)]
    for step in word:
        seqs = [s + (p,) for s in seqs for p in _SMALL_LABELS
                if p == s[-1] or step_ok(step, s[-1], p)]
    return [s for s in seqs if s[-1] == ()]


def test_deletion_matches_the_backward_sweep_on_every_sequence():
    """Along the words of all shapes of at most 5 cells and their padded
    words, every valid sequence from and to the empty partition, of labels
    of at most 4 squares: the backward sweep, which reconstruct runs on so
    small a word, gives what deletion gives, empty boundary labels
    included, and neither raises."""
    counts = {}
    for variant in VARIANTS:
        v = get_variant(variant)
        counts[variant] = 0
        for shape in all_shapes(5):
            for word in (shape.word, "D" + shape.word + "R"):
                plan = growth._sweep_plan(word)
                empty = [()] * len(plan.heights), [()] * (len(plan.rows) + 1)
                for seq in valid_sequences(word, v.step_ok):
                    entries = deletion_entries(plan.heights, seq, v.right,
                                               v.down)
                    assert reconstruct(word, seq, variant) == (
                        Filling(shape, entries), *empty)
                    counts[variant] += 1
    assert counts == {"standard": 224, "rsk": 4674, "dual-rsk": 672,
                      "rsk-prime": 672, "dual-rsk-prime": 4674}


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_large_insertion_border_property(variant, data):
    """Past the memo, on 65 to 400 cells: the border that label_diagram
    takes from insertion is the border of the labels that the forward
    sweep gives when they are first read; reconstruct, by deletion, gives
    the filling back; and conjugate_swap and the code maps of both cell
    orders give the backward sweep of the conjugated border."""
    f = data.draw(large_fillings(variant, max_cells=400, max_entries=40))
    d = label_diagram(f, variant)
    t = border_tableau(d)
    assert "_flat" not in vars(d)
    assert t.seq == tuple(d.label(*xy)
                          for xy in trace_corners(d.row_lens, d.n_cols))
    assert reconstruct(t.word, t) == (f, [()] * (f.shape.n_cols + 1),
                                      [()] * (f.shape.n_rows + 1))
    assert_swap_is_the_definition(f, variant)


def grown_chain(draw, start, free):
    """Labels from start, one per line, each the one before or that plus
    one square; only a line marked free may grow it."""
    chain = [start]
    for line_free in free:
        p = chain[-1]
        if line_free and draw(st.booleans()):
            k = draw(st.sampled_from([k for k in range(1, len(p) + 2)
                                      if k == 1 or part(p, k - 1) > part(p, k)]))
            p = add_square_in_row(p, k)
        chain.append(p)
    return chain


@st.composite
def bounded_fillings(draw):
    """A partial permutation filling of a Ferrers shape of at most
    MEMO_MAX_CELLS cells or of more (up to 200), with standard bottom and
    left labels that start from one partition and grow by at most one
    square per column or row, beside empty columns and rows only."""
    if draw(st.booleans()):
        rows = draw(st.lists(st.integers(1, 20), min_size=5, max_size=15))
        assume(growth.MEMO_MAX_CELLS < sum(rows) <= 200)
    else:
        rows = draw(st.lists(st.integers(1, 8), min_size=1, max_size=8))
        assume(sum(rows) <= growth.MEMO_MAX_CELLS)
    shape = FerrersShape(tuple(sorted(rows, reverse=True)))
    cells = draw(st.lists(st.sampled_from(shape.cells()), max_size=12,
                          unique=True))
    entries = keep_in_class(dict.fromkeys(cells, 1), PARTIAL_PERMUTATION)
    start = draw(st.sampled_from([(), (1,), (2, 1), (3, 1, 1)]))
    bottom = grown_chain(draw, start, [
        not any(c == x for c, _ in entries) for x in range(1, shape.n_cols + 1)])
    left = grown_chain(draw, start, [
        not any(r == y for _, r in entries) for y in range(1, shape.n_rows + 1)])
    return Filling(shape, entries), bottom, left


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_nontrivial_boundary_property(data):
    """Standard labels from nontrivial bottom and left labels, which the
    sweeps take as checked edges, are those of direct rule calls, and the
    round trip gives the filling and both boundaries back."""
    f, bottom, left = data.draw(bounded_fillings())
    d = label_diagram(f, bottom=bottom, left=left)
    assert dict(d.labels) == sweep_labels(f, "standard", bottom, left)
    t = border_tableau(d)
    assert reconstruct(t.word, t) == (f, bottom, left)


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


def test_walks_hold_the_shared_keys():
    """A small plan's walks hold the key objects of _COLUMN_KEYS itself,
    padded words included.  Labelling a blown-up filling and shrinking it
    back walks the fine plan, small or large, but builds no plan keys, and
    a large plan's walk leaves _COLUMN_KEYS as it was."""
    f = Filling(FerrersShape((3, 2, 2)), {(1, 3): 1, (2, 1): 1, (3, 1): 2})
    for word in (f.shape.word, "DD" + f.shape.word + "RR"):
        t = growth_tableau(f, "rsk", word)
        assert reconstruct(word, t)[0] == f
        plan = t._plan
        up = [cell for *_, cells in plan.forward_walk for cell in cells]
        down = [cell for *_, cells in plan.backward_walk for cell in cells]
        assert sorted(up) == sorted(down) == sorted(f.shape.cells())
        assert all(cell is growth._COLUMN_KEYS[cell[0]][cell[1]]
                   for cell in up + down)
    for shape in (FerrersShape((4, 3, 3, 1)), FerrersShape((9,) * 8)):
        f = Filling(shape, {(1, 4): 1, (2, 2): 2, (3, 1): 1, (4, 1): 1})
        widths = list(map(len, growth._COLUMN_KEYS))
        fine, row_blocks, col_blocks = blow_up(f, "rsk")
        d = label_diagram(fine)
        coarse = shrink_back(d, row_blocks, col_blocks)
        assert coarse == {xy: lam for xy, lam
                          in label_diagram(f, "rsk").labels.items()}
        plan = d._plan
        assert plan.small == (shape.n_cells <= growth.MEMO_MAX_CELLS)
        assert "forward_walk" in vars(plan) and "keys" not in vars(plan)
        if not plan.small:
            assert list(map(len, growth._COLUMN_KEYS)) == widths


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


STRIP_VARIANTS = ["rsk", "dual-rsk", "rsk-prime", "dual-rsk-prime"]


def assert_blow_up_is_oracle(f, variant):
    """blow_up(f) equals the blow-up built through the checking
    constructors, down to the order of its entries and the shape's column
    heights; returns it."""
    got = blow_up(f, variant)
    want = blow_up_oracle(f, variant)
    assert got == want
    assert list(got[0].entries.items()) == list(want[0].entries.items())
    assert got[0].shape.col_heights == want[0].shape.col_heights
    return got


@pytest.mark.parametrize("variant", STRIP_VARIANTS)
def test_blow_up_matches_oracle_exhaustive(variant):
    """Every filling of up to 7 cells (entry sum at most 3): the trusted
    blow-up is the checked one, its shape is the stored plan's, and the
    refined filling is labelled along that plan."""
    cls = get_variant(variant).filling_class
    max_n = 3 if cls == ARBITRARY else None
    for shape in all_shapes(7):
        for _, f in all_fillings(shape, cls, max_n):
            fine = assert_blow_up_is_oracle(f, variant)[0]
            plan = growth._PLANS[fine.shape.word]
            assert fine.shape is plan.shape
            assert label_diagram(fine)._plan is plan


@pytest.mark.parametrize("variant", STRIP_VARIANTS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_large_blow_up_property(variant, data):
    """Refined shapes past the memo are built per call, equal the checked
    blow-up, and store no plan."""
    f = data.draw(large_fillings(variant))
    assert_blow_up_is_oracle(f, variant)
    assert growth._PLANS == {}


def test_blow_ups_keep_plans_under_cap():
    """Refined shapes are stored only while _PLANS has room, and blow-ups
    past that point are still right."""
    for i in range(growth.MEMO_MAX_ENTRIES - 2):
        growth._sweep_plan("D" * i + "RD")
    fillings = [Filling(FerrersShape((2, 1)), {(1, 1): m, (2, 1): 1})
                for m in range(1, 6)]
    for f in fillings:
        assert_blow_up_is_oracle(f, "rsk")
    assert len(growth._PLANS) == growth.MEMO_MAX_ENTRIES
    for f in fillings:
        fine = assert_blow_up_is_oracle(f, "rsk")[0]
        assert (fine.shape.word in growth._PLANS) == (f.entries[(1, 1)] < 3)


def test_shrink_back_needs_blocks_that_tile():
    """Blocks that leave out, repeat or invent refined lines are refused
    rather than read off in part."""
    fine = label_diagram(Filling(FerrersShape((2, 1)), {(1, 1): 1}), "rsk")
    assert shrink_back(fine, ((1, 1), (2, 1)), ((1, 2),)) == {
        (0, 0): (), (1, 0): (), (0, 1): (), (1, 1): (1,), (0, 2): ()}
    for rows, cols in [(((1, 9),), ((1, 9),)),
                       (((1, 1),), ((1, 2),)),
                       (((1, 1), (3, 1)), ((1, 2),)),
                       (((1, 2), (2, 0)), ((1, 2),)),
                       (((1, 0), (1, 1), (2, 1)), ((1, 2),)),
                       (((1, 1), (2, 1)), ((1, 1), (1, 1))),
                       (((1, 1), (2, 1)), ((1, 3),))]:
        with pytest.raises(ValueError, match="do not tile the refined"):
            shrink_back(fine, rows, cols)


def test_growth_diagrams_need_ferrers_shapes():
    f = Filling(StackPolyomino((1, 2, 1)), {(2, 2): 1})
    for call in (lambda: label_diagram(f), lambda: blow_up(f, "rsk")):
        with pytest.raises(ValueError,
                           match="need a Ferrers shape, not StackPolyomino"):
            call()


def fold_sizes():
    """The number of entries of each table of the fold's memo, the vectors
    first."""
    return [len(growth._VECTORS) - growth._SEEDS,
            *(len(table) for tables in growth._FOLD_STEPS.values()
              for table in tables)]


def fold_image(f, variant, bits):
    """The image entries of the code map of f's shape, on f's code, whose
    digits go column by column, up each column; None for an image that
    overflows a digit."""
    cells = f.shape.cells()
    code = _code(f.entries, _weights(cells, bits))
    image = growth._shape_swap(f.shape, variant, bits)(code)
    return None if image is None else _code_entries(image, cells, bits)


def assert_swap_is_the_definition(f, variant):
    """conjugate_swap and the code map give the swap by its definition."""
    want = swap_by_definition(f, variant)
    assert conjugate_swap(f, variant) == want, (variant, f)
    bits = max(f.entry_sum, 1).bit_length()
    assert fold_image(f, variant, bits) == want.entries, (variant, f)


@pytest.mark.parametrize("variant", VARIANTS)
def test_fold_swap_is_the_definition_exhaustive(variant):
    """Every filling of every shape of at most 6 cells (arbitrary ones up
    to entry sum 3), with the fold's memo as the fillings before left
    it."""
    cls = get_variant(variant).filling_class
    for shape in all_shapes(6):
        for _, f in all_fillings(shape, cls, 3 if cls == ARBITRARY else None):
            assert_swap_is_the_definition(f, variant)
    assert all(0 < size <= growth.FOLD_MAX_ENTRIES for size in fold_sizes())


@st.composite
def memo_fillings(draw, variant):
    """A filling of a Ferrers shape of at most MEMO_MAX_CELLS cells in the
    variant's class: at most 12 nonzero entries, each at most 3."""
    rows = sorted(draw(st.lists(st.integers(1, 12), min_size=1, max_size=12)),
                  reverse=True)
    assume(sum(rows) <= growth.MEMO_MAX_CELLS)
    shape = FerrersShape(tuple(rows))
    cls = get_variant(variant).filling_class
    cells = draw(st.lists(st.sampled_from(shape.cells()), max_size=12,
                          unique=True))
    values = draw(st.lists(st.integers(1, 3 if cls == ARBITRARY else 1),
                           min_size=len(cells), max_size=len(cells)))
    return Filling(shape, keep_in_class(dict(zip(cells, values)), cls))


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fold_swap_is_the_definition_property(variant, data):
    """Up to MEMO_MAX_CELLS cells, the fold gives the swap by its
    definition."""
    assert_swap_is_the_definition(data.draw(memo_fillings(variant)), variant)


def test_fold_swap_refuses_an_overflowing_digit():
    """The rsk swap of three 1's in the 2x2 square puts a 2 in one cell:
    with one bit a digit the code map has no image, and with two it has."""
    f = Filling(FerrersShape((2, 2)), {(1, 1): 1, (1, 2): 1, (2, 1): 1})
    image = conjugate_swap(f, "rsk").entries
    assert image == {(1, 1): 2, (2, 2): 1}
    assert fold_image(f, "rsk", 1) is None
    assert fold_image(f, "rsk", 2) == image


def test_large_code_map_builds_one_plan(monkeypatch):
    """Past the memo a shape's code map reads the plan it was set up with:
    mapping 50 fillings of the 9 x 9 square, entries 2, 1 and 1 in three
    rows and columns, under rsk builds one plan, and gives the swap by its
    definition."""
    shape, rng = FerrersShape((9,) * 9), random.Random(0)
    fillings = [Filling(shape, dict(zip(zip(
        rng.sample(range(1, 10), 3), rng.sample(range(1, 10), 3)), (2, 1, 1))))
        for _ in range(50)]
    cells = shape.cells()
    weights = _weights(cells, 3)
    built = count_plans(monkeypatch)
    swap = growth._shape_swap(shape, "rsk", 3)
    images = [swap(_code(f.entries, weights)) for f in fillings]
    assert len(built) == 1
    assert [_code_entries(image, cells, 3) for image in images] == [
        swap_by_definition(f, "rsk").entries for f in fillings]


def test_conjugate_swap_maps_with_the_shape_swap(monkeypatch):
    """On a small shape conjugate_swap maps the filling's code with the
    very map that ``_shape_swap`` set up and the shape's plan keeps."""
    monkeypatch.setattr(growth, "_PLANS", {})
    f = Filling(FerrersShape((3, 2)), {(1, 1): 2, (2, 2): 1})
    swap, shape_swap, used = growth._shape_swap(f.shape, "rsk", 2), (
        growth._shape_swap), []
    monkeypatch.setattr(growth, "_shape_swap", lambda *args: used.append(
        shape_swap(*args)) or used[-1])
    assert conjugate_swap(f, "rsk") == swap_by_definition(f, "rsk")
    assert len(used) == 1 and used[0] is swap


def test_large_shapes_keep_no_cell_weights():
    """Past the memo nothing keeps a shape's weights, whose O(cells ** 2)
    bits would stay after the call: enumerating the 0-1 fillings of a
    1,000-cell row with at most one 1, and mapping one of them with the
    row's code map, leave ``_cell_weights`` empty."""
    row = FerrersShape((1000,))
    growth._cell_weights.cache_clear()
    fillings = [f for _, f in all_fillings(row, "zero-one", 1)]
    assert [f.entries for f in fillings[1:]] == [
        {(c, 1): 1} for c in range(1, 1001)]
    weights = _weights(row.cells(), 1)
    f = fillings[500]
    assert growth._shape_swap(row, "dual-rsk", 1)(
        _code(f.entries, weights)) == _code(
            conjugate_swap(f, "dual-rsk").entries, weights)
    assert growth._cell_weights.cache_info().currsize == 0


def test_code_maps_are_emptied_with_the_fold_memo():
    """The fold's memo keeps a small shape's code map, set up once, until
    the memo is emptied: the maps go with the tables, a map a caller holds
    still maps, and the next call sets up a new map with the same images.
    A large shape's map is not kept."""
    shape = FerrersShape((3, 2))
    swap = growth._shape_swap(shape, "rsk", 2)
    assert growth._shape_swap(shape, "rsk", 2) is swap
    assert len(growth._SWAPS) == 1
    growth._clear_fold_memo()
    assert growth._SWAPS == {}
    again = growth._shape_swap(shape, "rsk", 2)
    assert again is not swap
    assert list(map(swap, range(1 << 10))) == list(map(again, range(1 << 10)))
    growth._shape_swap(FerrersShape((13,) * 5), "rsk", 1)
    assert len(growth._SWAPS) == 1


def memo_sizes_within(bound):
    """Whether every table of the fold's memo holds at most ``bound``
    entries."""
    return all(size <= bound for size in fold_sizes())


def test_fold_memo_bound_keeps_images(monkeypatch):
    """With every memo bounded by 8 entries, the fold's tables fill again
    and again, and are emptied after each swap that fills one, also one
    that needs more than 8 entries itself: the verdicts and the images
    stay, and no table is left over the bound."""
    from growthdiagrams.enumeration import verify_t2, verify_t2a_nes1
    fillings = [f for shape in all_shapes(5)
                for _, f in all_fillings(shape, ARBITRARY, 2)]
    want = [swap_by_definition(f, "rsk") for f in fillings]
    reports = [str(verify_t2(5)), str(verify_t2a_nes1(4, 2))]
    growth._clear_fold_memo()
    monkeypatch.setattr(growth, "MEMO_MAX_ENTRIES", 8)
    monkeypatch.setattr(growth, "FOLD_MAX_ENTRIES", 8)
    for f, g in zip(fillings, want):
        assert conjugate_swap(f, "rsk") == g
        assert memo_sizes_within(8)
    assert [str(verify_t2(5)), str(verify_t2a_nes1(4, 2))] == reports
    assert memo_sizes_within(8)
    # a row of nine 1's has nine different columns: one swap needs more
    # than 8 entries
    f = Filling(FerrersShape((9,)), {(c, 1): 1 for c in range(1, 10)})
    assert conjugate_swap(f, "rsk") == swap_by_definition(f, "rsk")
    assert memo_sizes_within(8)


def test_large_plan_keys_are_shared():
    """Past the memo a plan makes its corner keys once: the forward walk of
    a read diagram and its ``keys`` hold the same tuples."""
    shape = FerrersShape((40,) * 20)
    f = Filling(shape, {(1, 1): 1, (17, 9): 2, (40, 20): 1})
    d = label_diagram(f, "rsk")
    assert d.labels == sweep_labels(f, "rsk")
    plan = d._plan
    assert not plan.small and "forward_walk" in vars(plan)
    keys = {key: key for key in plan.keys}
    assert all(keys[cell] is cell
               for *_, cells in plan.forward_walk + plan.backward_walk
               for cell in cells)
