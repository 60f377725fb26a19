"""Generators, count tables, verifiers and the counting oracles."""

from itertools import combinations

import pytest

from growthdiagrams.enumeration import (Report, _densest_bounded_ne,
                                        all_fillings, all_shapes,
                                        bell_number, budget_limit,
                                        catalan_number, check_greene,
                                        count_table, generate_fillings,
                                        jonsson_check,
                                        problem2_evidence, random_fillings,
                                        stack_polyominoes, symmetric_shapes,
                                        verify_t2, verify_t2a_nes1,
                                        verify_t2sym, verify_t4, verify_t5,
                                        verify_t6, verify_theorem)
from growthdiagrams.fillings import (Filling, InstanceTooLarge, chain_spec,
                                     greene_oracle)
from growthdiagrams.shapes import FerrersShape, StackPolyomino, staircase

from oracles import count_noncrossing_matchings, max_ones_with_bounded_ne


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
    (lambda: check_greene(Filling(FerrersShape((1,)), {}), "standard", ()),
     "k must be at least 1"),
], ids=["all-fillings", "count-table", "T4", "T5", "T6", "T2", "T2-shapes",
        "NES1", "T2sym", "jonsson-s0", "jonsson-s-1", "greene-no-k"])
def test_empty_ranges_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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
