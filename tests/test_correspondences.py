"""Set partitions, matchings and their tableau encodings."""

import random
import re
import time
from itertools import zip_longest

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from growthdiagrams import correspondences, growth
from growthdiagrams.correspondences import (_SWAP_FORWARD, Matching,
                                            PartialTableau, SetPartition,
                                            _hesitating, all_set_partitions,
                                            conjugate_set_partition,
                                            conjugate_set_partition_enhanced,
                                            cross, enhanced_cross,
                                            enhanced_nest,
                                            filling_to_setpartition,
                                            matching_to_oscillating,
                                            min_max_blocks,
                                            min_max_from_vacillating, nest,
                                            pair_to_vacillating,
                                            parse_set_partition,
                                            setpartition_to_filling,
                                            setpartition_to_hesitating,
                                            setpartition_to_vacillating,
                                            standard_representation,
                                            swap_chain_statistics)
from growthdiagrams.enumeration import (NES1_IMAGE_SPECS, NES1_SPECS,
                                        NES2_IMAGE_SPECS, NES2_SPECS,
                                        T2_SPECS, all_fillings, all_shapes)
from growthdiagrams.fillings import (ARBITRARY, PARTIAL_PERMUTATION,
                                     ChainTable, Filling, longest_chain,
                                     transpose_filling)
from growthdiagrams.growth import (MEMO_MAX_CELLS, GrowthTableau,
                                   growth_tableau, reconstruct)
from growthdiagrams.local_rules import get_variant
from growthdiagrams.partitions import conjugate, parse_partition
from growthdiagrams.shapes import FerrersShape, shape_from_word

from oracles import (_max_k, all_matchings, conjugate_by_hesitating,
                     conjugate_by_oscillating, conjugate_by_vacillating,
                     enhanced_representation, filling_reads,
                     hesitating_to_setpartition,
                     is_hesitating, is_oscillating, is_vacillating,
                     oscillating_to_matching, parse_matching,
                     random_set_partition, vacillating_to_setpartition)
from test_growth import large_fillings


def seq_of(t):
    from growthdiagrams.partitions import to_compact
    return ",".join(to_compact(p) for p in t.seq)


def expect(text):
    return tuple(parse_partition(s) for s in text.split(","))


def test_parse_and_str():
    p = parse_set_partition("1 4 5 7 | 2 6 | 3")
    assert p.n == 7
    assert str(p) == "1 4 5 7 | 2 6 | 3"
    with pytest.raises(ValueError):
        SetPartition(3, ((1, 2),))


def test_parse_inverts_str():
    for n in range(6):
        for p in all_set_partitions(n):
            assert parse_set_partition(str(p)) == p
    assert parse_set_partition("") == SetPartition(0, ())


@pytest.mark.parametrize("parse, text", [
    (parse_set_partition, "1 x"), (parse_set_partition, "1 2 | 3.0"),
    (parse_matching, "1-x"), (parse_matching, "1-2 3-"),
])
def test_parsers_name_the_bad_token(parse, text):
    token = text.replace("|", " ").replace("-", " ").split(" ")[-1]
    with pytest.raises(ValueError) as info:
        parse(text)
    assert str(info.value) == f"{token!r} in {text!r} is not an integer"


@pytest.mark.parametrize("make", [
    lambda: SetPartition(2, ((1, 2), ())),
    lambda: parse_set_partition("1 2 |"),
    lambda: Matching(2, ((1, 2, 3), (4,))),
    lambda: parse_matching("1-2-3 4"),
], ids=["empty-block", "parsed-empty-block", "triple", "parsed-triple"])
def test_malformed_blocks_raise(make):
    with pytest.raises(ValueError, match="empty block|is not a pair"):
        make()


def test_representations():
    p = parse_set_partition("1 4 5 7 | 2 6 | 3")
    assert standard_representation(p) == [(1, 4), (2, 6), (4, 5), (5, 7)]
    assert enhanced_representation(p) == [(1, 4), (2, 6), (3, 3), (4, 5),
                                          (5, 7)]


def test_cross_nest_small():
    assert cross(parse_set_partition("1 3 | 2 4")) == 2
    assert nest(parse_set_partition("1 3 | 2 4")) == 1
    assert cross(parse_set_partition("1 4 | 2 3")) == 1
    assert nest(parse_set_partition("1 4 | 2 3")) == 2


def test_statistics_match_the_k_subset_oracle():
    """The statistics, and the chain tables of T2's specs that the T4-T6
    verifiers read them from, on the staircase and the hesitating
    fillings: nest is the longest NE chain and cross the longest
    rectangle-bounded SE chain of a partial permutation."""
    start = time.perf_counter()
    tables = {}     # shape -> its (cross, nest) chain-table reads, SE then NE

    def read(f):
        if f.shape not in tables:
            tables[f.shape] = [filling_reads(ChainTable(f.shape, spec, 1))
                               for spec in reversed(T2_SPECS)]
        return tuple(table(f) for table in tables[f.shape])
    for n in range(9):
        for p in all_set_partitions(n):
            standard, enhanced = (standard_representation(p),
                                  enhanced_representation(p))
            want = (_max_k(standard, "crossing", False),
                    _max_k(standard, "nesting", False),
                    _max_k(enhanced, "crossing", True),
                    _max_k(enhanced, "nesting", True))
            assert (cross(p), nest(p), enhanced_cross(p),
                    enhanced_nest(p)) == want, str(p)
            f = setpartition_to_filling(p)
            assert read(f) + read(_hesitating(n, f.entries)[1]) == want, str(p)
    assert time.perf_counter() - start < 5


def test_statistics_read_no_growth_label(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a statistic called growth code")
    for name in ("growth_tableau", "label_diagram", "border_tableau",
                 "conjugate_swap"):
        monkeypatch.setattr(correspondences, name, refuse)
    p = parse_set_partition("1 2 3 | 4 6 | 5")
    assert (cross(p), nest(p), enhanced_cross(p), enhanced_nest(p)) == (
        1, 1, 2, 2)


def test_min_max_blocks():
    p = parse_set_partition("1 4 5 7 | 2 6 | 3")
    mins, maxes = min_max_blocks(p)
    assert mins == {1, 2, 3}
    assert maxes == {3, 6, 7}


def test_setpartition_filling_round_trip():
    for p in all_set_partitions(5):
        f = setpartition_to_filling(p)
        assert filling_to_setpartition(f, 5) == p


def test_vacillating_fixture():
    p = parse_set_partition("1 4 5 7 | 2 6 | 3")
    t = setpartition_to_vacillating(p)
    assert t.seq == expect("e,e,1,1,11,11,11,1,2,1,11,1,1,e,e")
    assert is_vacillating(t, 7)
    assert vacillating_to_setpartition(t) == p


def test_vacillating_round_trip():
    for n in range(5):
        seen = set()
        for p in all_set_partitions(n):
            t = setpartition_to_vacillating(p)
            assert is_vacillating(t, n)
            assert len(t.seq) == 2 * n + 1
            seen.add(t.seq)
            assert vacillating_to_setpartition(t, n) == p
        # the encoding is injective
        assert len(seen) == len(list(all_set_partitions(n)))


def test_hesitating_fixture():
    p = parse_set_partition("1 4 5 7 | 2 6 | 3")
    t = setpartition_to_hesitating(p)
    assert t.seq == expect("e,e,1,1,11,21,11,21,2,21,11,1,1,e,e")
    assert is_hesitating(t, 7)
    assert hesitating_to_setpartition(t) == p


def test_hesitating_round_trip():
    for n in range(5):
        for p in all_set_partitions(n):
            t = setpartition_to_hesitating(p)
            assert is_hesitating(t, n)
            assert hesitating_to_setpartition(t, n) == p


def _removed(p):
    """p less one corner square, for each corner."""
    for i, x in enumerate(p):
        if i + 1 == len(p) or p[i + 1] < x:
            yield tuple(y for y in p[:i] + (x - 1,) + p[i + 1:] if y)


def _added(p):
    """p plus one square, for each row that can take one."""
    for i in range(len(p) + 1):
        here = p[i] if i < len(p) else 0
        if i == 0 or p[i - 1] > here:
            yield p[:i] + (here + 1,) + p[i + 1:]


def _vacillating_steps(a):
    for b in (a, *_removed(a)):
        for c in (b, *_added(b)):
            yield b, c


def _hesitating_steps(a):
    yield from ((a, c) for c in _added(a))
    yield from ((b, b) for b in _removed(a))
    yield from ((b, c) for b in _added(a) for c in _removed(b))


def _oscillating_steps(a):
    yield from ((b,) for b in (*_added(a), *_removed(a)))


def _closed_sequences(steps, groups):
    """Every sequence of partitions from () back to () made of ``groups``
    groups of labels, each a choice of ``steps`` after the last label.
    Each group shrinks the size by at most one, which prunes the search."""
    def grow(seq, left):
        if not left:
            if seq[-1] == ():
                yield seq
            return
        for group in steps(seq[-1]):
            if sum(group[-1]) < left:
                yield from grow(seq + group, left - 1)
    return list(grow(((),), groups))


def test_every_tableau_decodes_and_reencodes():
    """The sequences found by an independent search, pruned by each
    tableau's step pattern, are exactly as many as the objects they encode,
    and each one decodes and re-encodes to itself; so the decoders need no
    check after the backward pass."""
    start = time.perf_counter()
    bell = (1, 1, 2, 5, 15, 52, 203)
    for n, count in enumerate(bell):
        for steps, ok, decode, encode in (
                (_vacillating_steps, is_vacillating, vacillating_to_setpartition,
                 setpartition_to_vacillating),
                (_hesitating_steps, is_hesitating, hesitating_to_setpartition,
                 setpartition_to_hesitating)):
            found = _closed_sequences(steps, n)
            assert len(found) == count
            for seq in found:
                t = GrowthTableau("DR" * n, seq)
                assert ok(t, n)
                assert encode(decode(t, n)).seq == seq
    for n, count in enumerate((1, 1, 3, 15, 105)):
        found = _closed_sequences(_oscillating_steps, 2 * n)
        assert len(found) == count
        for seq in found:
            t = GrowthTableau("D" * (2 * n), seq)
            assert is_oscillating(t, 2 * n)
            assert matching_to_oscillating(oscillating_to_matching(t)).seq == seq
    assert time.perf_counter() - start < 5


def test_oscillating_fixture():
    m = parse_matching("1-4 2-6 3-5")
    t = matching_to_oscillating(m)
    assert t.seq == expect("e,1,11,21,2,1,e")
    assert is_oscillating(t, 6)
    assert oscillating_to_matching(t) == m


def test_oscillating_round_trip():
    for n in range(4):
        for m in all_matchings(n):
            t = matching_to_oscillating(m)
            assert is_oscillating(t, 2 * n)
            assert oscillating_to_matching(t) == m


def test_pair_to_vacillating_fixture():
    p = parse_set_partition("1 | 2 6 | 3 | 4 7 | 5")
    t = PartialTableau(((1, 7), (5,)))
    vac = pair_to_vacillating(p, t)
    assert vac.seq == expect("e,e,1,1,2,2,2,2,21,21,211,21,21,11,21")


def test_pair_to_vacillating_rejects_non_maxima():
    p = parse_set_partition("1 2 | 3")
    with pytest.raises(ValueError):
        pair_to_vacillating(p, PartialTableau(((1,),)))


def test_partial_tableau_validation():
    with pytest.raises(ValueError):
        PartialTableau(((2, 1),))
    with pytest.raises(ValueError):
        PartialTableau(((1, 3), (5, 2)))
    assert PartialTableau(((1, 7), (5,))).shape_at(5) == (1, 1)


def test_conjugation_swaps_cross_and_nest():
    for p in all_set_partitions(4):
        q = conjugate_set_partition(p)
        assert (cross(q), nest(q)) == (nest(p), cross(p))
        assert conjugate_set_partition(q) == p
        # mins and maxes are preserved
        assert min_max_blocks(q) == min_max_blocks(p)


def test_min_max_from_vacillating():
    for p in all_set_partitions(4):
        t = setpartition_to_vacillating(p)
        assert min_max_from_vacillating(t, p.n) == min_max_blocks(p)


def test_enhanced_conjugation_swaps_cross_and_nest():
    for p in all_set_partitions(4):
        q = conjugate_set_partition_enhanced(p)
        assert (enhanced_cross(q), enhanced_nest(q)) == (
            enhanced_nest(p), enhanced_cross(p))
        assert conjugate_set_partition_enhanced(q) == p


def test_swap_chain_statistics_standard():
    from growthdiagrams.enumeration import all_fillings, all_shapes
    from growthdiagrams.correspondences import swap_chain_statistics
    from growthdiagrams.fillings import chain_spec, longest_chain
    ne, se = chain_spec("NE"), chain_spec("SE", require_rectangle=True)
    for shape in all_shapes(5):
        for _, f in all_fillings(shape, "partial-permutation"):
            g = swap_chain_statistics(f)
            assert g.shape == f.shape
            assert longest_chain(g, ne) == longest_chain(f, se)
            assert longest_chain(g, se) == longest_chain(f, ne)
            assert swap_chain_statistics(g) == f


def test_swap_chain_statistics_routes_invert():
    from growthdiagrams.correspondences import swap_chain_statistics
    from growthdiagrams.fillings import Filling
    from growthdiagrams.shapes import FerrersShape
    f = Filling(FerrersShape((3, 2)), {(1, 1): 2, (2, 2): 1, (3, 1): 1})
    g = swap_chain_statistics(f, "nes1")
    assert swap_chain_statistics(g, "nes1-inverse") == f
    z = Filling(FerrersShape((3, 2)), {(1, 1): 1, (1, 2): 1, (2, 1): 1})
    w = swap_chain_statistics(z, "nes2")
    assert swap_chain_statistics(w, "nes2-inverse") == z


def test_swap_chain_statistics_rejects_unknown_mode():
    from growthdiagrams.correspondences import swap_chain_statistics
    from growthdiagrams.fillings import Filling
    from growthdiagrams.shapes import FerrersShape
    f = Filling(FerrersShape((1,)), {})
    with pytest.raises(ValueError, match=r"unknown mode 'nope'; choose from "
                                         r"\('standard', 'nes1'"):
        swap_chain_statistics(f, "nope")


def test_conjugate_matching():
    """A matching is conjugated as the set partition it is: that equals
    conjugating its oscillating tableau, exchanges cross and nest, and is
    an involution."""
    for n in range(6):
        for m in all_matchings(n):
            pm = m.as_set_partition()
            pc = conjugate_set_partition(pm)
            assert pc == conjugate_by_oscillating(m).as_set_partition(), str(m)
            assert (cross(pc), nest(pc)) == (nest(pm), cross(pm))
            assert conjugate_set_partition(pc) == pm


def test_conjugations_equal_the_tableau_route():
    start = time.perf_counter()
    for n in range(8):
        for p in all_set_partitions(n):
            assert conjugate_set_partition(p) == conjugate_by_vacillating(p), str(p)
            assert conjugate_set_partition_enhanced(p) == (
                conjugate_by_hesitating(p)), str(p)
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("seed", range(3))
def test_conjugations_on_large_partitions(seed):
    """Partitions of 20 to 60 elements, whose staircases are past the
    growth layer's memo, so the sweeps run unmemoised."""
    rng = random.Random(seed)
    for _ in range(5):
        p = random_set_partition(rng, rng.randint(20, 60))
        assert setpartition_to_filling(p).shape.n_cells > MEMO_MAX_CELLS
        q = conjugate_set_partition(p)
        assert q == conjugate_by_vacillating(p), str(p)
        assert (cross(q), nest(q)) == (nest(p), cross(p)), str(p)
        assert min_max_blocks(q) == min_max_blocks(p), str(p)
        assert conjugate_set_partition(q) == p, str(p)
        e = conjugate_set_partition_enhanced(p)
        assert e == conjugate_by_hesitating(p), str(p)
        assert (enhanced_cross(e), enhanced_nest(e)) == (
            enhanced_nest(p), enhanced_cross(p)), str(p)
        assert conjugate_set_partition_enhanced(e) == p, str(p)


def test_hesitating_shapes_are_shared():
    p, q = parse_set_partition("1 3 | 2 | 4"), parse_set_partition("1 2 3 | 4")
    (word, f), (other, g) = (_hesitating(x.n, setpartition_to_filling(x).entries)
                             for x in (p, q))
    assert word == other == "DRRDDRRD"
    assert f.shape is g.shape
    assert f.shape == shape_from_word(word)


@pytest.mark.parametrize("make", [
    lambda: SetPartition(-2, ()), lambda: Matching(-1, ()),
    lambda: list(all_set_partitions(-1)),
], ids=["set-partition", "matching", "all-set-partitions"])
def test_negative_n_is_refused(make):
    with pytest.raises(ValueError, match=r"n >= 0, got -\d$"):
        make()


@pytest.mark.parametrize("n", [True, False, 1.5, 2.0, "3"])
@pytest.mark.parametrize("make", [
    lambda n: SetPartition(n, ()), lambda n: Matching(n, ()),
    lambda n: list(all_set_partitions(n)),
], ids=["set-partition", "matching", "all-set-partitions"])
def test_non_integer_n_is_refused(make, n):
    """n must be an int by ``partitions.int_tuple``'s rule, which refuses
    bools, and the one-line message names n."""
    with pytest.raises(ValueError, match=re.escape(
            f" an integer n >= 0, got {n!r}") + "$"):
        make(n)


@pytest.mark.parametrize("mode", list(_SWAP_FORWARD))
def test_swap_equals_the_tableau_composition(mode):
    """On every filling of every shape up to 6 cells, the empty one too
    (arbitrary entry sum at most 3), the one-pass swap is the public
    composition: label, read the border, conjugate it, reconstruct."""
    variant = _SWAP_FORWARD[mode]
    cls = get_variant(variant).filling_class
    for shape in all_shapes(6, min_cells=0):
        for _, f in all_fillings(shape, cls, 3 if cls == ARBITRARY else None):
            t = growth_tableau(f, variant)
            assert swap_chain_statistics(f, mode) == reconstruct(
                t.word, t.conjugate())[0], (mode, f)


@pytest.mark.parametrize("mode", list(_SWAP_FORWARD))
def test_inverse_mode_runs_the_conjugate_variant(mode):
    """A mode's inverse runs the conjugate of the mode's forward variant,
    which is how the swap verifiers find a map's inverse."""
    inverse = {"standard": "standard", "nes1": "nes1-inverse",
               "nes1-inverse": "nes1", "nes2": "nes2-inverse",
               "nes2-inverse": "nes2"}[mode]
    assert get_variant(_SWAP_FORWARD[mode]).conjugate == _SWAP_FORWARD[inverse]


@pytest.mark.parametrize("shape, entries, step", [
    (FerrersShape((1,)), {(1, 1): 2}, "step 1 (R) from () to (2,)"),
    (FerrersShape((13,) * 5), {(1, 1): 2}, "step 1 (R) from () to (2,)"),
    (FerrersShape((2, 2)), {(1, 1): 1, (2, 1): 1}, "step 4 (D) from (2,) to ()"),
], ids=["memoised", "past-the-memo", "memoised-down-step"])
def test_swap_step_checks_the_conjugated_border(monkeypatch, shape, entries,
                                                step):
    """With the label conjugation replaced by the identity, the rsk border
    of an entry 2 makes a horizontal step of two squares, which the
    dual-rsk-prime backward rules refuse before they run.  They also
    refuse the D step that takes off the two 1's in the bottom row of the
    2 x 2 square, after R steps of one square each.  The error names the
    first refused step as ``_check_steps`` does on the whole border; up to
    MEMO_MAX_CELLS cells the fold refuses it on a backward miss."""
    f = Filling(shape, entries)
    swap_chain_statistics(f, "nes1")
    t = growth_tableau(f, "rsk")
    with pytest.raises(ValueError) as want:
        growth._check_steps(t.word, t.seq, get_variant("dual-rsk-prime")
                            .step_ok, "dual-rsk-prime")
    assert str(want.value) == f"{step} is not a valid dual-rsk-prime step"
    monkeypatch.setattr(growth, "conjugate", lambda p: p)
    monkeypatch.setattr(growth, "_small_conjugate", lambda p: p)
    with pytest.raises(ValueError) as got:
        swap_chain_statistics(f, "nes1")
    assert str(got.value) == str(want.value)
    assert isinstance(got.value.__context__, growth._Refused) == (
        shape.n_cells <= MEMO_MAX_CELLS)


def test_one_large_conjugation_builds_at_most_two_plans(monkeypatch):
    """Past the memo nothing stores a plan, and each conjugation decodes
    the tableau word once for the partition's filling and the shape's word
    once for the swap."""
    built = []
    init = growth._SweepPlan.__init__

    def counting_init(plan, word, rows, n_cols):
        built.append(word)
        init(plan, word, rows, n_cols)

    monkeypatch.setattr(growth._SweepPlan, "__init__", counting_init)
    p = random_set_partition(random.Random(0), 40)
    for conj in (conjugate_set_partition, conjugate_set_partition_enhanced):
        built.clear()
        conj(p)
        assert len(built) <= 2, built


# mode: (forward variant, inverse mode, statistics of f, of the image)
_LARGE_SWAPS = {
    "standard": ("standard", "standard", T2_SPECS, T2_SPECS),
    "nes1": ("rsk", "nes1-inverse", NES1_SPECS, NES1_IMAGE_SPECS),
    "nes2": ("dual-rsk", "nes2-inverse", NES2_SPECS, NES2_IMAGE_SPECS),
}


@pytest.mark.parametrize("mode", list(_LARGE_SWAPS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_large_swap_property(mode, data):
    """Past the memo, on 65 to 400 cells: the swap sends statistics (s, t)
    to (t, s) under the image's specs, by the chain oracle, and the inverse
    mode gives f back."""
    variant, inverse, specs, image_specs = _LARGE_SWAPS[mode]
    f = data.draw(large_fillings(variant, max_cells=400, max_entries=40))
    g = swap_chain_statistics(f, mode)
    assert g.shape == f.shape
    s, t = (longest_chain(f, spec) for spec in specs)
    assert tuple(longest_chain(g, spec) for spec in image_specs) == (t, s)
    assert swap_chain_statistics(g, inverse) == f


@st.composite
def symmetric_large_fillings(draw, cls):
    """A symmetric filling of a self-conjugate shape of 65 to 400 cells,
    the union of a random shape in a 20 x 20 box and its transpose: at
    most 40 nonzero entries, each at most 3, in mirrored pairs, and for
    partial permutations in distinct lines."""
    rows = sorted(draw(st.lists(st.integers(1, 20), min_size=5,
                                max_size=20)), reverse=True)
    rows = tuple(max(a, b) for a, b in zip_longest(rows, conjugate(rows),
                                                   fillvalue=0))
    assume(MEMO_MAX_CELLS < sum(rows))
    shape = FerrersShape(rows)
    cells = draw(st.lists(st.sampled_from([(c, r) for c, r in shape.cells()
                                           if c <= r]),
                          max_size=20, unique=True))
    entries, used = {}, set()
    for c, r in cells:
        if cls == PARTIAL_PERMUTATION:
            if c in used or r in used:
                continue
            used.update((c, r))
        m = draw(st.integers(1, 3)) if cls == ARBITRARY else 1
        entries[(c, r)] = entries[(r, c)] = m
    return Filling(shape, entries)


@pytest.mark.parametrize("mode, cls", [("standard", PARTIAL_PERMUTATION),
                                       ("nes1", ARBITRARY)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_large_symmetric_swap_property(mode, cls, data):
    """Past the memo, the standard and nes1 swaps send a symmetric filling
    to a symmetric image (T2sym, T2asym)."""
    f = data.draw(symmetric_large_fillings(cls))
    assert transpose_filling(f) == f
    g = swap_chain_statistics(f, mode)
    assert transpose_filling(g) == g
