"""Generators, count tables, verifiers and the counting oracles."""

from collections import Counter
from itertools import combinations

import pytest

from growthdiagrams import enumeration
from growthdiagrams.correspondences import (SetPartition, all_set_partitions,
                                            conjugate_set_partition,
                                            swap_chain_statistics)
from growthdiagrams.enumeration import (InstanceTooLarge, Report,
                                        _densest_bounded_ne,
                                        all_fillings, all_shapes,
                                        budget_limit, check_greene,
                                        count_table, generate_fillings,
                                        jonsson_check, problem2_evidence,
                                        symmetric_shapes,
                                        verify_t2, verify_t2a_nes1,
                                        verify_t2a_nes2, verify_t2asym,
                                        verify_t2sym, verify_t4, verify_t5,
                                        verify_t6, verify_theorem)
from growthdiagrams.fillings import Filling, chain_spec, greene_totals
from growthdiagrams.shapes import FerrersShape, StackPolyomino, staircase

from oracles import (bell_number, catalan_number, count_noncrossing_matchings,
                     greene_oracle, max_ones_with_bounded_ne, random_fillings,
                     stack_polyominoes)

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


def test_generate_fillings_counts():
    shape = FerrersShape((2, 2))
    assert len(list(generate_fillings(shape, "zero-one", 2))) == 6
    # two non-attacking rooks on a 2x2 board
    assert len(list(generate_fillings(shape, "partial-permutation", 2))) == 2
    # weak compositions of 2 over 4 cells
    assert len(list(generate_fillings(shape, "arbitrary", 2))) == 10


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
                   for f in generate_fillings(shape, "partial-permutation", n)]
            want = [tuple(f.entries.items())
                    for f in partial_permutations_by_filter(shape, n)]
            assert got == want, (shape, n)


def test_partial_permutations_of_staircase_9():
    # sum over k of the Stirling numbers S(9, 9 - k): the Bell number B(9)
    total = sum(1 for n in range(9) for _ in
                generate_fillings(staircase(9), "partial-permutation", n))
    assert total == bell_number(9) == 21147


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


def test_count_table():
    shape = FerrersShape((2, 2))
    t = count_table(shape, "partial-permutation", chain_spec("NE"),
                    chain_spec("SE", require_rectangle=True))
    assert t.total(0) == 1 and t.total(1) == 4 and t.total(2) == 2
    ok, witness = t.is_symmetric()
    assert ok, witness
    rows = list(t.csv_rows())
    t.add(1, 5, 0)
    assert t.is_symmetric() == (False, (1, 5, 0))
    assert rows[0] == (str(shape), "partial-permutation", 0, 0, 0, 1)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("GROWTH_BUDGET", "10")
    assert budget_limit() == 10
    with pytest.raises(InstanceTooLarge):
        list(all_fillings(FerrersShape((4, 4, 4)), "zero-one"))


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


def test_swap_statistics_not_exchanged_is_found(monkeypatch):
    monkeypatch.setattr(enumeration, "swap_chain_statistics",
                        lambda f, mode: f)
    report = verify_t2a_nes1(4, 2)
    assert report.passed is False
    assert report.witness[-1] == "statistics not exchanged"


def test_swap_map_not_inverting_is_found(monkeypatch):
    def forward_only(f, mode):
        if mode.endswith("-inverse"):
            return Filling(f.shape, {})
        return swap_chain_statistics(f, mode)
    monkeypatch.setattr(enumeration, "swap_chain_statistics", forward_only)
    report = verify_t2a_nes2(4, 2)
    assert report.passed is False
    assert report.witness[-1] == "map does not invert"


def test_swap_image_not_symmetric_is_found(monkeypatch):
    # sends every filling of the shape 2,1 to one off the diagonal
    monkeypatch.setattr(
        enumeration, "swap_chain_statistics",
        lambda f, mode: Filling(f.shape, {(1, 2): 1}) if (1, 2) in f.shape
        else f)
    report = verify_t2sym(3)
    assert report.passed is False
    assert report.witness[-1] == "image not symmetric"


def swap_except(overrides):
    """The swap map, except that the filling with a single 1 in a key cell
    of ``overrides`` is sent to the value's entries."""
    def swap(f, mode):
        for cell, entries in overrides.items():
            if f.entries == {cell: 1}:
                return Filling(f.shape, entries)
        return swap_chain_statistics(f, mode)
    return swap


@pytest.mark.parametrize("verify", [lambda: verify_t2(shapes=[SQUARE]),
                                    lambda: verify_t2a_nes1(shapes=[SQUARE],
                                                            max_sum=1)],
                         ids=["T2", "NES1"])
def test_swap_image_outside_the_class_is_found(monkeypatch, verify):
    # one filling with a single entry is sent to the empty filling, which
    # the table of its n does not hold
    monkeypatch.setattr(enumeration, "swap_chain_statistics",
                        swap_except({(2, 1): {}}))
    report = verify()
    assert report.passed is False
    assert report.witness == (SQUARE, Filling(SQUARE, {(2, 1): 1}),
                              "image outside the class")


def test_swap_witness_is_the_first_failing_filling(monkeypatch):
    # the standard map fixes every single cross.  Here (1,1) goes to (1,2),
    # whose image is not (1,1) again, and the later (2,2) goes outside the
    # class: the earlier filling is named, with its own reason
    monkeypatch.setattr(enumeration, "swap_chain_statistics",
                        swap_except({(1, 1): {(1, 2): 1}, (2, 2): {}}))
    report = verify_t2(shapes=[SQUARE])
    assert report.witness == (SQUARE, Filling(SQUARE, {(1, 1): 1}),
                              "map does not invert")


def reversed_partition(p):
    return SetPartition(p.n, tuple(tuple(p.n + 1 - x for x in b)
                                   for b in p.blocks))


def shifted_partition(p):
    return SetPartition(p.n, tuple(tuple(x % p.n + 1 for x in b)
                                   for b in p.blocks))


@pytest.mark.parametrize("verify, conj, stats, details, witness", [
    (verify_t4, lambda p: p, None, "n=4",
     (SetPartition(4, ((1, 3), (2, 4))), "statistics not exchanged")),
    (verify_t5, reversed_partition, lambda p: (0, 0), "n=3",
     (SetPartition(3, ((1,), (2, 3))), "minima/maxima not preserved")),
    (verify_t4, shifted_partition, lambda p: (0, 0), "n=3",
     (SetPartition(3, ((1, 3), (2,))), "conjugation is not an involution")),
    (verify_t6, lambda p: SetPartition(p.n + 1, p.blocks + ((p.n + 1,),)),
     None, "n=0", (SetPartition(0, ()), "image outside the class")),
], ids=["exchange", "minima", "involution", "outside"])
def test_partition_failures_are_found(monkeypatch, verify, conj, stats,
                                      details, witness):
    monkeypatch.setattr(enumeration, "conjugate_set_partition", conj)
    monkeypatch.setattr(enumeration, "conjugate_set_partition_enhanced", conj)
    if stats is not None:
        monkeypatch.setattr(enumeration, "cross_nest", stats)
    report = verify(4)
    assert report.passed is False
    assert (report.details, report.witness) == (details, witness)


def test_each_map_runs_once_per_object(monkeypatch):
    """The swap and the conjugation are each their own inverse, so every
    image's image is looked up, not computed again."""
    mapped, conjugated = Counter(), Counter()

    def counted_swap(f, mode):
        mapped[f.shape, frozenset(f.entries)] += 1
        return swap_chain_statistics(f, mode)

    def counted_conjugate(p):
        conjugated[p] += 1
        return conjugate_set_partition(p)
    monkeypatch.setattr(enumeration, "swap_chain_statistics", counted_swap)
    monkeypatch.setattr(enumeration, "conjugate_set_partition",
                        counted_conjugate)
    assert verify_t2(6).passed and verify_t4(6).passed
    assert mapped.keys() == {(shape, frozenset(f.entries))
                             for shape in all_shapes(6) for _, f in
                             all_fillings(shape, "partial-permutation")}
    assert conjugated.keys() == {p for n in range(7)
                                 for p in all_set_partitions(n)}
    assert set(mapped.values()) == set(conjugated.values()) == {1}


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
    # the single pass of jonsson_check finds the same density
    for shape in all_shapes(5):
        for s in (1, 2):
            assert (_densest_bounded_ne(shape, s)[0]
                    == max_ones_with_bounded_ne(shape, s))


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
