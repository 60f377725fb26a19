"""The ten acceptance checks, one test each.

Every test prints a single pass/fail line (visible with ``pytest -s``)
and asserts the same condition, so the suite doubles as a report.
"""

import time

from growthdiagrams.cli import _DEMOS
from growthdiagrams.enumeration import (all_fillings, all_shapes, check_greene,
                                        problem2_evidence, jonsson_check,
                                        verify_t2, verify_t2a_nes1,
                                        verify_t2a_nes2, verify_t2asym,
                                        verify_t2sym, verify_t4, verify_t5,
                                        verify_t6)
from growthdiagrams.growth import (blow_up, growth_tableau, label_diagram,
                                   reconstruct, shrink_back)
from growthdiagrams.local_rules import VARIANTS, get_variant
from growthdiagrams.shapes import FerrersShape, staircase

import rsk_oracle
from oracles import (bell_number, catalan_number, count_noncrossing_matchings,
                     random_fillings, stack_polyominoes)


def report(number, ok, detail):
    print(f"criterion {number}: {'pass' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_golden_figures():
    start = time.monotonic()
    bad = [name for name, fn in _DEMOS.items() if not fn()[1]]
    elapsed = time.monotonic() - start
    report(1, not bad and elapsed < 1.0,
           f"{len(_DEMOS)} worked examples, {elapsed:.2f}s")


def _round_trip_instances():
    for variant in VARIANTS:
        cls = get_variant(variant).filling_class
        max_n = 4 if cls == "arbitrary" else None
        for shape in all_shapes(9):
            for _, f in all_fillings(shape, cls, max_n):
                yield variant, f


def test_criterion_2_round_trip_bijectivity():
    checked = failures = 0
    for variant, f in _round_trip_instances():
        t = growth_tableau(f, variant)
        f2, bottom, left = reconstruct(t.word, t, variant)
        checked += 1
        if f2 != f or any(p != () for p in bottom + left):
            failures += 1
    report(2, failures == 0, f"{checked} round trips, {failures} failures")


def test_criterion_3_blow_up_equivalence():
    checked = failures = 0
    for variant, f in _round_trip_instances():
        if variant == "standard":
            continue
        fine, row_blocks, col_blocks = blow_up(f, variant)
        coarse = shrink_back(label_diagram(fine), row_blocks, col_blocks)
        direct = label_diagram(f, variant)
        checked += 1
        if any(coarse.get(key) != lam for key, lam in direct.labels.items()):
            failures += 1
    report(3, failures == 0, f"{checked} fillings, {failures} failures")


def test_criterion_4_greene_oracle():
    checked = failures = 0
    delta5 = staircase(5)
    for _, f in all_fillings(delta5, "partial-permutation"):
        checked += 1
        if not check_greene(f, "standard").passed:
            failures += 1
    for variant in ("rsk", "dual-rsk", "rsk-prime", "dual-rsk-prime"):
        for f in random_fillings(variant, 500):
            checked += 1
            if not check_greene(f, variant).passed:
                failures += 1
    report(4, failures == 0, f"{checked} fillings x k=1,2,3, "
           f"{failures} failures")


def test_criterion_5_partition_theorems():
    reports = [verify_t2(9), verify_t4(5), verify_t5(5), verify_t6(4)]
    ok = all(r.passed for r in reports)
    report(5, ok, "; ".join(str(r) for r in reports))


def test_criterion_6_arbitrary_and_zero_one_swaps():
    reports = [verify_t2a_nes1(8, 4), verify_t2a_nes2(8, 4)]
    ok = all(r.passed for r in reports)
    report(6, ok, "; ".join(str(r) for r in reports))


def test_criterion_7_symmetric_fillings():
    reports = [verify_t2sym(9), verify_t2asym(9, 4)]
    ok = all(r.passed for r in reports)
    report(7, ok, "; ".join(str(r) for r in reports))


def test_criterion_8_insertion_equivalence():
    """The border of every rectangle filling's growth diagram, by the
    sweeps, is the chain of the textbook insertion pair (P, Q)."""
    checked = failures = 0
    for variant in sorted(rsk_oracle.VARIANTS):
        cls = get_variant(variant).filling_class
        for q_cols in range(1, 4):
            for p_rows in range(1, 5):
                shape = FerrersShape((q_cols,) * p_rows)
                word = "R" * q_cols + "D" * p_rows
                for _, f in all_fillings(shape, cls, 5):
                    t = growth_tableau(f, variant, word=word)
                    checked += 1
                    if list(t.seq) != rsk_oracle.border_chain(
                            f.entries, variant, q_cols, p_rows):
                        failures += 1
    report(8, failures == 0, f"{checked} rectangle fillings, "
           f"{failures} failures")


def test_criterion_9_stack_polyominoes():
    checked = failures = 0
    for poly in stack_polyominoes(8):
        for s in (1, 2):
            checked += 1
            if not jonsson_check(poly, s).passed:
                failures += 1
    evidence = problem2_evidence(FerrersShape((2, 2, 1)), 3)
    report(9, failures == 0 and evidence.passed is None,
           f"{checked} (polyomino, s) pairs, {failures} failures; "
           f"open-question report is {evidence.verdict}")


def test_criterion_10_sanity_cardinalities():
    bells = [sum(1 for _ in all_fillings(staircase(n), "partial-permutation"))
             for n in range(6)]
    ok = (bells == [bell_number(n) for n in range(6)]
          and bells == [1, 1, 2, 5, 15, 52]
          and catalan_number(3) == 5
          and count_noncrossing_matchings(3) == 5)
    report(10, ok, f"fillings of the staircases count {bells}; "
           f"noncrossing matchings on 6 points: {count_noncrossing_matchings(3)}")
