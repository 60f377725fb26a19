"""Generators, count tables, verifiers and the counting oracles."""

import inspect
from collections import Counter
from itertools import combinations

import pytest

from growthdiagrams import correspondences, enumeration, fillings, growth
from growthdiagrams.correspondences import (SetPartition, _hesitating,
                                            all_set_partitions,
                                            filling_to_setpartition,
                                            min_max_blocks,
                                            setpartition_to_filling)
from growthdiagrams.enumeration import (NE_SE_SPECS, VERIFIERS,
                                        InstanceTooLarge, Report,
                                        _code_weights, _codes,
                                        _densest_bounded_ne, _occupied,
                                        all_fillings, all_shapes,
                                        budget_limit, check_greene,
                                        count_table, jonsson_check,
                                        problem2_evidence, symmetric_shapes,
                                        verify_t2, verify_t2a_nes1,
                                        verify_t2a_nes2, verify_t2asym,
                                        verify_t2sym, verify_t4, verify_t5,
                                        verify_t6, verify_theorem)
from growthdiagrams.fillings import (ARBITRARY, PARTIAL_PERMUTATION, ZERO_ONE,
                                     ChainTable, Filling, _code, _code_entries,
                                     _weights, chain_spec, greene_totals,
                                     longest_chain)
from growthdiagrams.growth import _shape_swap
from growthdiagrams.shapes import FerrersShape, StackPolyomino, staircase

from oracles import (bell_number, catalan_number, count_noncrossing_matchings,
                     fillings_by_dicts, greene_oracle,
                     hesitating_by_definition, max_ones_with_bounded_ne,
                     random_fillings, stack_polyominoes)

SQUARE = FerrersShape((2, 2))


def test_report_verdicts():
    assert Report("x", True).verdict == "PASS"
    assert Report("x", False).verdict == "FAIL"
    assert Report("x", None).verdict == "EVIDENCE"
    assert str(Report("x", True, "ok")) == "x: PASS [ok]"


def test_all_shapes_counts():
    # nonempty partitions with at most 4 cells: 1+2+3+5
    assert len(list(all_shapes(4))) == 11
    assert all(s.n_cells <= 4 for s in all_shapes(4))
    assert [s.rows for s in all_shapes(2)] == [(1,), (1, 1), (2,)]
    assert len(list(all_shapes(4, min_cells=4))) == 5


def test_symmetric_shapes():
    shapes = list(symmetric_shapes(5))
    assert all(s.is_symmetric() for s in shapes)
    assert FerrersShape((2, 2)) in shapes
    assert FerrersShape((3, 1, 1)) in shapes


def test_stack_polyominoes():
    polys = list(stack_polyominoes(3))
    assert StackPolyomino((1, 2)) in polys
    assert StackPolyomino((2, 1)) in polys
    assert all(p.n_cells <= 3 for p in polys)


def fillings_of(shape, cls, n):
    """The fillings of the class with n, read off ``all_fillings``."""
    return [f for m, f in all_fillings(shape, cls, n) if m == n]


def test_generate_fillings_counts():
    shape = FerrersShape((2, 2))
    assert len(fillings_of(shape, "zero-one", 2)) == 6
    # two non-attacking rooks on a 2x2 board
    assert len(fillings_of(shape, "partial-permutation", 2)) == 2
    # weak compositions of 2 over 4 cells
    assert len(fillings_of(shape, "arbitrary", 2)) == 10


@pytest.mark.parametrize("cls", [PARTIAL_PERMUTATION, ZERO_ONE, ARBITRARY])
@pytest.mark.parametrize("n, message", [
    (-1, "n must be at least 0, got -1"),
    (1.0, "n must be an integer, got 1.0"),
    (True, "n must be an integer, got True")])
def test_generate_fillings_checks_n(cls, n, message):
    """A bad bound n is refused before the first filling is generated, in
    every class, with one line that names it: ``all_fillings`` refuses it
    as ``max_n`` at the call."""
    with pytest.raises(ValueError) as raised:
        all_fillings(SQUARE, cls, n)
    assert str(raised.value) == f"max_{message}"


def partial_permutations_by_filter(shape, n):
    """Reference: every n-subset of the column-major cells, in
    ``combinations`` order, kept when no two share a row or a column."""
    for chosen in combinations(shape.cells(), n):
        rows = [r for _, r in chosen]
        cols = [c for c, _ in chosen]
        if len(set(rows)) == n and len(set(cols)) == n:
            yield Filling(shape, {cell: 1 for cell in chosen})


def test_partial_permutations_match_filter():
    """The rook placement yields the filter's fillings in the filter's
    order, on every shape of up to 8 cells and every n (one past the
    largest, which yields none)."""
    for shape in all_shapes(8):
        for n in range(min(shape.n_rows, shape.n_cols) + 2):
            got = [tuple(f.entries.items())
                   for f in fillings_of(shape, "partial-permutation", n)]
            want = [tuple(f.entries.items())
                    for f in partial_permutations_by_filter(shape, n)]
            assert got == want, (shape, n)


def test_walk_is_the_dict_generators_exhaustive():
    """The code walk gives the dict generators' fillings in their order,
    on the empty shape and every shape of at most 7 cells, for each class
    and every n (arbitrary fillings up to entry sum 4), one past the
    largest included.  ``all_fillings`` decodes them with the same
    entries in the same order, and the walk's code pairs are the chain
    tables' codes of those fillings in the upward and the downward cell
    order."""
    for shape in [FerrersShape(()), *all_shapes(7)]:
        rooks = min(shape.n_rows, shape.n_cols)
        for cls, top in ((ZERO_ONE, shape.n_cells),
                         (PARTIAL_PERMUTATION, rooks), (ARBITRARY, 4)):
            for n in range(top + 2):
                want = [f.entries for f in fillings_by_dicts(shape, cls, n)]
                assert [list(f.entries.items()) for f in fillings_of(
                    shape, cls, n)] == [list(e.items()) for e in want], (
                    shape, cls, n)
                bits = max(n, 1).bit_length() if cls == ARBITRARY else 1
                up, down = (_weights(ChainTable(shape, chain_spec(code),
                                                bits).cells, bits)
                            for code in ("NE", "SE"))
                weights = _code_weights(shape, bits)
                assert list(_codes(weights, cls, n)) == [
                    _code(e, up) | _code(e, down) << bits * shape.n_cells
                    for e in want], (shape, cls, n)


def test_partial_permutations_of_staircase_9():
    # sum over k of the Stirling numbers S(9, 9 - k): the Bell number B(9)
    total = sum(1 for _ in all_fillings(staircase(9), "partial-permutation"))
    assert total == bell_number(9) == 21147


def test_staircase_placements_are_the_set_partitions():
    """The set-partition verifiers' one source against the partitions, for
    every n <= 8: the staircase's rook placements are the partitions'
    staircase fillings, each placement's T5 key is its partition's block
    maxima and minima as the columns and rows that are not empty, and its
    hesitating filling is the one built from the blocks."""
    for n in range(9):
        partitions = {setpartition_to_filling(p): p
                      for p in all_set_partitions(n)}
        shape = staircase(n)
        placements = [f for _, f in all_fillings(shape, "partial-permutation")]
        assert len(placements) == len(partitions) == bell_number(n)
        assert set(placements) == set(partitions)
        # T5's key sits above the code pair: bit n + i for column i, bit
        # r for row r
        occupied = _occupied(n, shape)
        for f in placements:
            p = partitions[f]
            minima, maxima = min_max_blocks(p)
            code = sum(occupied[cell] for cell in f.entries)
            assert code >> 2 * len(occupied) == sum(
                [1 << n + i for i in range(1, n + 1) if i not in maxima]
                + [1 << n + 1 - j for j in range(1, n + 1) if j not in minima]
            ), str(p)
            assert _hesitating(n, f.entries) == hesitating_by_definition(p), (
                str(p))


@pytest.mark.parametrize("call, message", [
    (lambda: list(all_fillings(FerrersShape((2, 2)), "zero-one", -1)),
     "max_n must be at least 0"),
    (lambda: count_table(FerrersShape((2, 2)), "zero-one", chain_spec("ne"),
                         chain_spec("se"), -1), "max_n must be at least 0"),
    (lambda: verify_t4(-1), "max_n must be at least 0"),
    (lambda: verify_t5(-2), "max_n must be at least 0"),
    (lambda: verify_t6(-1), "max_n must be at least 0"),
    (lambda: verify_t2(0), "no shape to check"),
    (lambda: verify_t2(shapes=[]), "no shape to check"),
    (lambda: verify_t2a_nes1(0), "no shape to check"),
    (lambda: verify_t2sym(0), "no shape to check"),
    (lambda: jonsson_check(StackPolyomino((1, 3, 2)), 0), "s must be at least 1"),
    (lambda: jonsson_check(StackPolyomino((1, 3, 2)), -1), "s must be at least 1"),
    (lambda: check_greene(Filling(FerrersShape((1,)), {}), "standard", 0),
     "k must be at least 1"),
], ids=["all-fillings", "count-table", "T4", "T5", "T6", "T2", "T2-shapes",
        "NES1", "T2sym", "jonsson-s0", "jonsson-s-1", "greene-no-k"])
def test_empty_ranges_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


POLY = StackPolyomino((1, 3, 2))


@pytest.mark.parametrize("verify", [verify_t2, verify_t2a_nes1,
                                    verify_t2a_nes2],
                         ids=["T2", "NES1", "NES2"])
@pytest.mark.parametrize("shape", [StackPolyomino((1, 2, 1)), (2, 1)],
                         ids=["stack", "tuple"])
def test_swap_verifiers_refuse_other_shapes(verify, shape):
    """A swap verifier checks Ferrers shapes only, and refuses any other
    shape before it walks a filling, with growth diagrams' one line."""
    with pytest.raises(ValueError) as raised:
        verify(shapes=[SQUARE, shape])
    assert str(raised.value) == ("growth diagrams need a Ferrers shape, not "
                                 f"{type(shape).__name__} {shape}")


@pytest.mark.parametrize("call, message", [
    (lambda v: all_fillings(SQUARE, "arbitrary", v), "max_n"),
    (lambda v: all_fillings(SQUARE, "zero-one", v), "max_n"),
    (lambda v: count_table(SQUARE, "arbitrary", chain_spec("ne"),
                           chain_spec("se"), v), "max_n"),
    (lambda v: problem2_evidence(SQUARE, v), "max_n"),
    (lambda v: verify_t2(v), "max_cells"),
    (lambda v: verify_t2sym(v), "max_cells"),
    (lambda v: verify_t2a_nes1(4, v), "max_sum"),
    (lambda v: verify_t2a_nes2(4, v), "max_ones"),
    (lambda v: verify_t2asym(4, v), "max_sum"),
    (lambda v: verify_t4(v), "max_n"),
    (lambda v: verify_t5(v), "max_n"),
    (lambda v: verify_t6(v), "max_n"),
    (lambda v: jonsson_check(POLY, v), "s"),
    (lambda v: check_greene(Filling(SQUARE, {}), "standard", v), "k_max"),
], ids=["all-fillings", "all-fillings-01", "count-table", "problem2", "T2",
        "T2sym", "NES1", "NES2", "T2asym", "T4", "T5", "T6", "jonsson",
        "greene"])
@pytest.mark.parametrize("value", [2.5, 2.0, True, "2"])
def test_non_integer_bounds_are_refused(call, message, value):
    """A bound that is not an int, by partitions.int_tuple's rule (a bool
    is not), is refused at the call with one line that names it."""
    with pytest.raises(ValueError) as raised:
        call(value)
    assert str(raised.value) == f"{message} must be an integer, got {value!r}"


def test_all_fillings_iterates_by_size():
    sizes = [n for n, _ in all_fillings(FerrersShape((2,)), "zero-one")]
    assert sizes == [0, 1, 1, 2]


@pytest.mark.parametrize("cls, top", [("zero-one", 4),
                                      ("partial-permutation", 2)])
def test_max_n_stops_at_the_largest_n(monkeypatch, cls, top):
    """n runs up to the cell count of 0-1 fillings and up to the smaller
    side of partial permutations, whatever larger bound is asked for."""
    walked = []
    monkeypatch.setattr(enumeration, "_codes",
                        lambda weights, cls, n: walked.append(n) or iter(()))
    list(all_fillings(SQUARE, cls, 10))
    assert walked == list(range(top + 1))


def test_arbitrary_fillings_of_the_empty_shape_stop_at_zero():
    """The empty shape has only the empty filling, at n = 0, so no larger
    n is walked, whatever bound is asked for."""
    fillings = list(all_fillings(FerrersShape(()), "arbitrary", 10 ** 12))
    assert [(n, f.entries) for n, f in fillings] == [(0, {})]


def test_count_table():
    shape = FerrersShape((2, 2))
    t = count_table(shape, "partial-permutation", chain_spec("NE"),
                    chain_spec("SE", require_rectangle=True))
    assert t.total(0) == 1 and t.total(1) == 4 and t.total(2) == 2
    ok, witness = t.is_symmetric()
    assert ok, witness
    rows = list(t.csv_rows())
    t.counts[1][5, 0] = 1
    assert t.is_symmetric() == (False, (1, 5, 0))
    assert rows[0] == (str(shape), "partial-permutation", 0, 0, 0, 1)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("GROWTH_BUDGET", "10")
    assert budget_limit() == 10
    with pytest.raises(InstanceTooLarge):
        list(all_fillings(FerrersShape((4, 4, 4)), "zero-one"))


def test_all_fillings_refuses_before_the_n_past_the_budget(monkeypatch):
    """Within a budget of 10, the 1 + 4 0-1 fillings of the 2 x 2 square
    with n <= 1 are yielded, and none of the 6 with n = 2, which would take
    the total past it."""
    monkeypatch.setenv("GROWTH_BUDGET", "10")
    yielded = []
    with pytest.raises(InstanceTooLarge):
        yielded.extend(all_fillings(SQUARE, ZERO_ONE))
    assert [n for n, _ in yielded] == [0, 1, 1, 1, 1]


@pytest.mark.parametrize("text", ["abc", "0", "-3"])
def test_budget_env_must_be_positive(monkeypatch, text):
    monkeypatch.setenv("GROWTH_BUDGET", text)
    with pytest.raises(ValueError, match="must be a positive integer"):
        budget_limit()


def test_problem2_evidence_respects_budget(monkeypatch):
    # shape 3,3,2 has 256 zero-one fillings
    monkeypatch.setenv("GROWTH_BUDGET", "100")
    with pytest.raises(InstanceTooLarge):
        problem2_evidence(FerrersShape((3, 3, 2)))


@pytest.mark.parametrize("verify, total", [
    (lambda: verify_t2(7), 478),
    (lambda: verify_t2a_nes1(4, 2), 120),
    (lambda: verify_t2a_nes2(5, 2), 198),
], ids=["T2", "NES1", "NES2"])
def test_swap_verdict_charges_its_shapes_to_one_budget(monkeypatch, verify,
                                                       total):
    """A swap verdict charges the fillings of all its shapes to one budget:
    it passes within a budget of its total, and refuses one less, although
    no shape has more than 20 fillings."""
    monkeypatch.setenv("GROWTH_BUDGET", str(total))
    assert verify().passed
    monkeypatch.setenv("GROWTH_BUDGET", str(total - 1))
    with pytest.raises(InstanceTooLarge) as raised:
        verify()
    assert str(raised.value) == f"more than {total - 1} fillings generated"


def test_default_shapes_are_walked_not_listed(monkeypatch):
    """A swap verdict builds its default shapes as it reads them: under a
    budget of 100, T2 up to 40 cells builds fewer than 100 shapes before
    the meter refuses it, where a list would build all 215,307 first."""
    built = []
    init = FerrersShape.__post_init__
    monkeypatch.setattr(FerrersShape, "__post_init__",
                        lambda self: built.append(1) or init(self))
    monkeypatch.setenv("GROWTH_BUDGET", "100")
    with pytest.raises(InstanceTooLarge) as raised:
        verify_t2(40)
    assert str(raised.value) == "more than 100 fillings generated"
    assert 0 < len(built) < 100


def test_a_failing_verdict_counts_every_shape(monkeypatch):
    """A verdict that stops at a witness still reports every shape it was
    given to check: the identity is no standard swap, and T2 fails on an
    early shape of at most 5 cells, but names all 18."""
    patch_swap(monkeypatch, lambda shape, variant, swap: dict)
    report = verify_t2(5)
    assert report.passed is False
    assert report.witness[0].n_cells < 5
    assert report.details == "18 shapes"


def test_given_shapes_may_be_a_generator():
    """The shapes a verifier is given are read once: a generator of them
    is checked up front to hold Ferrers shapes and then verified, where the
    check used to leave nothing to verify."""
    report = verify_t2(shapes=(FerrersShape(rows) for rows in [(2, 1), (2, 2)]))
    assert (report.passed, report.details) == (True, "2 shapes")


@pytest.mark.parametrize("verify, details", [
    (lambda: verify_t2(40), "215307 shapes"),
    (lambda: verify_t2sym(40), "495 symmetric shapes")], ids=["T2", "T2sym"])
def test_a_failing_verdict_counts_shapes_it_does_not_build(
        monkeypatch, verify, details):
    """A verdict that stops at a witness counts the default shapes it did
    not check without building them: with the identity for the swap, T2
    and T2sym up to 40 cells fail on an early shape and name all 215,307
    shapes (the partitions of 1 to 40) or all 495 symmetric ones (the
    partitions into distinct odd parts), having built fewer than 100."""
    patch_swap(monkeypatch, lambda shape, variant, swap: dict)
    built = []
    init = FerrersShape.__post_init__
    monkeypatch.setattr(FerrersShape, "__post_init__",
                        lambda self: built.append(1) or init(self))
    report = verify()
    assert (report.verdict, report.details) == ("FAIL", details)
    assert 0 < len(built) < 100


@pytest.mark.parametrize("enumerate_, total, what", [
    (lambda: list(all_fillings(SQUARE, ZERO_ONE)), 16, "fillings"),
    (lambda: count_table(SQUARE, PARTIAL_PERMUTATION, *NE_SE_SPECS), 7,
     "fillings"),
    (lambda: count_table(SQUARE, ZERO_ONE, *NE_SE_SPECS), 16, "fillings"),
    (lambda: verify_t2sym(7).passed, 56, "fillings"),
    (lambda: verify_t4(5).passed, 76, "set partitions"),
    (lambda: verify_t5(5).passed, 76, "set partitions"),
    (lambda: verify_t6(5).passed, 76, "set partitions"),
    (lambda: jonsson_check(StackPolyomino((1, 3, 2)), 1).passed, 7,
     "fillings"),
], ids=["all-fillings", "count-table-walk", "count-table-code-space",
        "T2sym", "T4", "T5", "T6", "jonsson-side"])
def test_one_meter_per_enumeration(monkeypatch, enumerate_, total, what):
    """Each enumeration is charged to one meter, which passes it within a
    budget of its total and refuses it, with the one message, at one less:
    the 16 0-1 fillings and 7 rook placements of the 2 x 2 square, the
    partial permutations of every symmetric shape of at most 7 cells, the
    set partitions of every n <= 5 (Bell(0) + ... + Bell(5)) for each of
    T4-T6, and each side of a Jonsson check on its own (the 1 + 6 fillings
    of 6 and 5 ones of each 6-cell shape)."""
    monkeypatch.setenv("GROWTH_BUDGET", str(total))
    assert enumerate_()
    monkeypatch.setenv("GROWTH_BUDGET", str(total - 1))
    with pytest.raises(InstanceTooLarge) as raised:
        enumerate_()
    assert str(raised.value) == f"more than {total - 1} {what} generated"


@pytest.mark.parametrize("call", [
    lambda: all_fillings(SQUARE, "bogus"),
    lambda: all_fillings(SQUARE, "bogus", 2),
    lambda: count_table(SQUARE, "bogus", *NE_SE_SPECS),
    lambda: count_table(SQUARE, "bogus", *NE_SE_SPECS, 2),
], ids=["all-fillings", "all-fillings-bound", "count-table",
        "count-table-bound"])
def test_unknown_class_is_named(call):
    """An unknown filling class is refused by name, with or without a
    bound, before any filling is walked."""
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == "unknown filling class 'bogus'"


def test_verify_t2_small():
    report = verify_t2(5)
    assert report.passed is True


def test_verify_t4_small():
    assert verify_t4(4).passed is True


def test_verify_t6_small():
    assert verify_t6(3).passed is True


def test_swap_counts_differ_is_found(monkeypatch):
    # the NES2 count over symmetric fillings, against a pair of statistics
    # that is never exchanged with it
    monkeypatch.setattr(enumeration, "NES2_IMAGE_SPECS",
                        (chain_spec("NE"), chain_spec("NE")))
    report = verify_t2asym(5, 2)
    assert report.passed is False
    assert report.witness[-1] == "counts differ"


def patch_swap(monkeypatch, make):
    """Replace the verifiers' per-shape swap: the shape's map under a
    variant becomes ``make(shape, variant, swap)``, given the real map
    ``swap`` from entries to entries.  The verifiers map codes, so the
    patched map reads a code's entries and codes its image, which has no
    code (None) when an entry is too large for a digit."""
    def code_swap(shape, variant, bits):
        real = _shape_swap(shape, variant, bits)
        cells = shape.cells()
        weights = _weights(cells, bits)
        swap = make(shape, variant, lambda entries: _code_entries(
            real(_code(entries, weights)), cells, bits))

        def mapped(code):
            image = swap(_code_entries(code, cells, bits))
            if max(image.values(), default=0) >> bits:
                return None
            return _code(image, weights)
        return mapped
    monkeypatch.setattr(enumeration, "_shape_swap", code_swap)


def test_swap_statistics_not_exchanged_is_found(monkeypatch):
    patch_swap(monkeypatch, lambda shape, variant, swap: dict)
    report = verify_t2a_nes1(4, 2)
    assert report.passed is False
    assert report.witness[-1] == "statistics not exchanged"


def test_swap_map_not_inverting_is_found(monkeypatch):
    # the inverse of nes2 runs the rsk-prime rules, and here loses every
    # entry
    patch_swap(monkeypatch, lambda shape, variant, swap:
               (lambda entries: {}) if variant == "rsk-prime" else swap)
    report = verify_t2a_nes2(4, 2)
    assert report.passed is False
    assert report.witness[-1] == "map does not invert"


def test_swap_image_not_symmetric_is_found(monkeypatch):
    # sends every filling of the shape 2,1 to one off the diagonal
    patch_swap(monkeypatch, lambda shape, variant, swap:
               (lambda entries: {(1, 2): 1}) if (1, 2) in shape else swap)
    report = verify_t2sym(3)
    assert report.passed is False
    assert report.witness[-1] == "image not symmetric"


def swap_except(overrides):
    """The swap map, except that the filling with a single 1 in a key cell
    of ``overrides`` is sent to the value's entries."""
    def make(shape, variant, swap):
        def patched(entries):
            for cell, image in overrides.items():
                if entries == {cell: 1}:
                    return image
            return swap(entries)
        return patched
    return make


@pytest.mark.parametrize("verify", [lambda: verify_t2(shapes=[SQUARE]),
                                    lambda: verify_t2a_nes1(shapes=[SQUARE],
                                                            max_sum=1)],
                         ids=["T2", "NES1"])
def test_swap_image_outside_the_class_is_found(monkeypatch, verify):
    # one filling with a single entry is sent to the empty filling, which
    # the table of its n does not hold
    patch_swap(monkeypatch, swap_except({(2, 1): {}}))
    report = verify()
    assert report.passed is False
    assert report.witness == (SQUARE, Filling(SQUARE, {(2, 1): 1}),
                              "image outside the class")


def test_swap_image_key_does_not_collide(monkeypatch):
    """The table of the NES2 fillings with one 1 is keyed by one bit per
    cell, so an image with a 2 in the cell below (1,2) would carry the
    key of the filling with a 1 at (1,2), which the table holds.  It is
    outside the class all the same."""
    weights = _weights(SQUARE.cells(), 1)
    assert 2 * weights[1, 1] == weights[1, 2]
    patch_swap(monkeypatch, swap_except({(1, 1): {(1, 1): 2}}))
    report = verify_t2a_nes2(shapes=[SQUARE], max_ones=1)
    assert report.witness == (SQUARE, Filling(SQUARE, {(1, 1): 1}),
                              "image outside the class")


def test_swap_witness_is_the_first_failing_filling(monkeypatch):
    # the standard map fixes every single cross.  Here (1,1) goes to (1,2),
    # whose image is not (1,1) again, and the later (2,2) goes outside the
    # class: the earlier filling is named, with its own reason
    patch_swap(monkeypatch, swap_except({(1, 1): {(1, 2): 1}, (2, 2): {}}))
    report = verify_t2(shapes=[SQUARE])
    assert report.witness == (SQUARE, Filling(SQUARE, {(1, 1): 1}),
                              "map does not invert")


def rotated(entries, shape):
    """The staircase filling of the partition of ``entries`` with every
    element x moved to x + 1, and n to 1: not an involution from n = 3."""
    n = shape.n_cols + 1
    p = filling_to_setpartition(Filling(shape, entries), n)
    return setpartition_to_filling(
        SetPartition(n, tuple(tuple(x % n + 1 for x in b) for b in p.blocks))
    ).entries


def hesitating(p):
    """The filling of p's hesitating shape."""
    return _hesitating(p.n, setpartition_to_filling(p).entries)[1]


# the hesitating filling of 1 3 | 2, which the injection sends outside
HESITATING = hesitating(SetPartition(3, ((1, 3), (2,))))


@pytest.mark.parametrize("verify, make, details, witness", [
    # every map the identity: the first partition with cross != nest
    (verify_t4, lambda shape, variant, swap: dict, "n=4",
     (SetPartition(4, ((1, 4), (2, 3))), "statistics not exchanged")),
    # every map a transpose, which reverses the partition, and with it
    # the block minima and maxima
    (verify_t5, lambda shape, variant, swap:
     lambda entries: {(r, c): v for (c, r), v in entries.items()}, "n=3",
     (SetPartition(3, ((1, 2), (3,))), "image outside the class")),
    (verify_t4, lambda shape, variant, swap:
     lambda entries: rotated(entries, shape), "n=3",
     (SetPartition(3, ((1, 3), (2,))), "map does not invert")),
    (verify_t6, lambda shape, variant, swap:
     lambda entries: {} if (shape, entries) == (HESITATING.shape,
                                                HESITATING.entries)
     else swap(entries), "n=3",
     (SetPartition(3, ((1, 3), (2,))), "image outside the class")),
], ids=["exchange", "minima", "involution", "outside"])
def test_partition_failures_are_found(monkeypatch, verify, make, details,
                                      witness):
    """The set-partition verifiers check the standard swap of each
    partition's filling with the swap verifiers' checks; the witness is
    the failing partition's filling."""
    patch_swap(monkeypatch, make)
    report = verify(4)
    assert report.passed is False
    p, reason = witness
    f = hesitating(p) if verify is verify_t6 else setpartition_to_filling(p)
    assert (report.details, report.witness) == (details,
                                                (f.shape, f, reason))


def test_each_map_runs_once_per_object(monkeypatch):
    """The swap is its own inverse, so every image's image is looked up,
    not computed again: once per filling of T2's shapes, and once per
    filling of a set partition."""
    mapped = Counter()

    def counted_swap(shape, variant, swap):
        def counted(entries):
            mapped[shape, frozenset(entries.items())] += 1
            return swap(entries)
        return counted
    patch_swap(monkeypatch, counted_swap)
    assert verify_t2(6).passed
    swapped, mapped = mapped, Counter()
    assert verify_t4(6).passed
    assert swapped == Counter((shape, frozenset(f.entries.items()))
                              for shape in all_shapes(6) for _, f in
                              all_fillings(shape, "partial-permutation"))
    # n = 0 and n = 1 both have the empty filling of the empty staircase
    assert mapped == Counter((f.shape, frozenset(f.entries.items()))
                             for f in map(setpartition_to_filling,
                                          (p for n in range(7)
                                           for p in all_set_partitions(n))))


def test_each_shape_sets_up_its_swaps_once(monkeypatch):
    """The harness sets up a shape's two maps once per shape, not once per
    key of its fillings."""
    set_up = Counter()

    def counted(shape, variant, bits):
        set_up[shape] += 1
        return _shape_swap(shape, variant, bits)
    monkeypatch.setattr(enumeration, "_shape_swap", counted)
    assert verify_t2a_nes1(5, 2).passed
    assert set_up == Counter({shape: 2 for shape in all_shapes(5)})


def count_fillings(monkeypatch) -> list:
    """The fillings built from here on, checked or trusted, in any
    module."""
    built = []
    for module in (fillings, growth, correspondences, enumeration):
        monkeypatch.setattr(module, "_trusted", lambda cls, _trusted=(
            module._trusted), **values: built.append(cls) or _trusted(
                cls, **values))
    check = Filling.__post_init__
    monkeypatch.setattr(Filling, "__post_init__",
                        lambda self: built.append(Filling) or check(self))
    return built


def test_a_pass_builds_no_filling(monkeypatch):
    """The swap verifiers run on codes from the walk to the verdict: their
    PASS builds no filling, and a FAIL decodes its witness once.  Nor does
    count_table build one when it reads the walk, in any class."""
    built = count_fillings(monkeypatch)
    assert verify_t2a_nes1(4, 2).passed and verify_t5(5).passed
    shape = FerrersShape((3, 2, 1))
    for cls, max_n in ((PARTIAL_PERMUTATION, None), (ARBITRARY, 3),
                       (ZERO_ONE, 5)):
        table = count_table(shape, cls, *NE_SE_SPECS, max_n)
        assert max(table.counts) == (max_n or 3)
    assert Filling not in built
    patch_swap(monkeypatch, lambda shape, variant, swap: dict)
    assert verify_t2a_nes1(4, 2).passed is False
    assert built.count(Filling) == 1


def test_corrupted_fold_memo_fails_the_verdict():
    """The verifiers trust the fold's memo: a forward step that remembers
    another column makes the NES1 certificate fail."""
    assert verify_t2a_nes1(4, 2).passed
    forward = next(tables[0] for key, tables in growth._FOLD_STEPS.items()
                   if key[0].name == "rsk")
    # one entry now gives another column of the same height
    by_height = {}
    for key, vid in forward.items():
        by_height.setdefault(len(growth._VECTORS[vid]), {})[vid] = key
    columns = next(c for c in by_height.values() if len(c) > 1)
    (_, key), (other, _) = list(columns.items())[:2]
    forward[key] = other
    report = verify_t2a_nes1(4, 2)
    assert report.passed is False
    assert report.witness[-1] in ("image outside the class",
                                  "statistics not exchanged",
                                  "map does not invert")


def test_every_verifier_checks_through_the_swap_harness(monkeypatch):
    """Each verifier, at its smallest size, runs ``_check_swap``."""
    smallest = {"max_cells": 1, "max_n": 0, "max_sum": 0, "max_ones": 0}
    check_swap, calls = enumeration._check_swap, Counter()

    def counted(*args, **kwargs):
        calls[name] += 1
        return check_swap(*args, **kwargs)
    monkeypatch.setattr(enumeration, "_check_swap", counted)
    for name, verify in VERIFIERS.items():
        params = inspect.signature(verify).parameters
        assert verify(**{k: v for k, v in smallest.items()
                         if k in params}).passed, name
    assert set(calls) == set(VERIFIERS)


def test_verify_theorem_dispatch():
    assert verify_theorem("T2", max_cells=4).passed is True
    with pytest.raises(ValueError):
        verify_theorem("T99")


def test_max_ones_with_bounded_ne():
    # in a 2x2 square only the diagonal pair is strictly increasing, so
    # three 1s avoiding one diagonal cell still have no ne-chain of length 2
    assert max_ones_with_bounded_ne(FerrersShape((2, 2)), 1) == 3
    assert max_ones_with_bounded_ne(FerrersShape((2, 2)), 2) == 4
    assert max_ones_with_bounded_ne(FerrersShape((2, 1)), 1) == 3
    # the single pass of jonsson_check finds the same density, and as
    # many densest fillings with a longest chain of exactly s as
    # longest_chain does
    ne = NE_SE_SPECS[0]
    for shape in list(all_shapes(5)) + stack_polyominoes(6):
        for s in (1, 2):
            n_max = max_ones_with_bounded_ne(shape, s)
            count = sum(longest_chain(f, ne) == s
                        for f in fillings_of(shape, "zero-one", n_max))
            assert _densest_bounded_ne(shape, s) == (n_max, count)


def test_jonsson_check_sorted_shape_trivial():
    # a stack polyomino that already is a Ferrers shape compares to itself
    report = jonsson_check(StackPolyomino((2, 1)), 1)
    assert report.passed is True


def test_jonsson_check_genuine():
    report = jonsson_check(StackPolyomino((1, 3, 2)), 1)
    assert report.passed is True, report


def test_problem2_evidence_verdict():
    report = problem2_evidence(FerrersShape((2, 1)))
    assert report.passed is None
    assert report.verdict == "EVIDENCE"


def test_check_greene_small():
    f = Filling(staircase(4), {(1, 3): 1, (2, 2): 1, (3, 1): 1})
    assert check_greene(f, "standard").passed is True
    g = Filling(FerrersShape((2, 2)), {(1, 1): 2, (2, 2): 1})
    assert check_greene(g, "rsk").passed is True


def test_check_greene_rejects_unknown_variant():
    f = Filling(FerrersShape((1,)), {})
    with pytest.raises(ValueError, match=r"unknown variant 'nope'; choose "
                                         r"from \('standard', 'rsk'"):
        check_greene(f, "nope")


def test_greene_oracle_agrees_on_one_rsk_corner():
    # spot check the corner label sums directly
    from growthdiagrams.growth import label_diagram
    f = Filling(FerrersShape((2, 2)), {(1, 1): 2, (2, 2): 1})
    lam = label_diagram(f, "rsk").labels[(2, 2)]
    spec = chain_spec("NE", length_mode="entry-sum")
    assert lam[0] == greene_oracle(f, spec, 1)


def test_check_greene_stops_at_the_entry_sum(monkeypatch):
    asked = []

    def totals(f, spec, k_max, corner=None):
        asked.append(k_max)
        return greene_totals(f, spec, k_max, corner)
    monkeypatch.setattr(enumeration, "greene_totals", totals)
    f = Filling(staircase(4), {(1, 3): 1, (2, 2): 1, (3, 1): 1})
    report = check_greene(f, "standard", 10 ** 12)
    assert str(report) == "greene[standard]: PASS [k in 1..1000000000000]"
    assert set(asked) == {3}
    asked.clear()
    assert str(check_greene(f, "standard", 2)) == \
        "greene[standard]: PASS [k in (1, 2)]"
    assert set(asked) == {2}


def test_random_fillings_deterministic():
    a = list(random_fillings("rsk", 5))
    b = list(random_fillings("rsk", 5))
    assert a == b
    assert len(a) == 5
    assert all(f.shape.n_cells <= 9 for f in a)


def test_bell_numbers():
    assert [bell_number(n) for n in range(6)] == [1, 1, 2, 5, 15, 52]


def test_catalan_and_noncrossing():
    assert [catalan_number(n) for n in range(5)] == [1, 1, 2, 5, 14]
    assert count_noncrossing_matchings(3) == catalan_number(3)
    assert count_noncrossing_matchings(4) == catalan_number(4)
