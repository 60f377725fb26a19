"""Exhaustive generators and the theorem-verification harness.

Everything here is deliberately brute force: fillings are generated in a
deterministic lexicographic order, chain statistics come from the chain
searcher in :mod:`fillings`, and each verifier checks a counting identity
together with a pointwise bijection certificate where one exists.
"""

import os
import random
from dataclasses import dataclass, field
from itertools import combinations, groupby
from operator import itemgetter

from .correspondences import (all_set_partitions, conjugate_set_partition,
                              conjugate_set_partition_enhanced, cross,
                              enhanced_cross, enhanced_nest, min_max_blocks,
                              nest, swap_chain_statistics)
from .fillings import (ARBITRARY, PARTIAL_PERMUTATION, ZERO_ONE, ChainSpec,
                       Filling, InstanceTooLarge, chain_spec, greene_oracle,
                       longest_chain, transpose_filling)
from .growth import label_diagram
from .local_rules import get_variant
from .partitions import conjugate, part, partitions_of
from .shapes import FerrersShape, StackPolyomino

DEFAULT_HARD_WALL = 10 ** 7


def budget_limit() -> int:
    """The most fillings or set partitions one enumeration may generate
    (``GROWTH_BUDGET``)."""
    text = os.environ.get("GROWTH_BUDGET")
    if text is None:
        return DEFAULT_HARD_WALL
    try:
        limit = int(text)
    except ValueError:
        limit = 0
    if limit <= 0:
        raise ValueError(f"GROWTH_BUDGET must be a positive integer, got {text!r}")
    return limit


@dataclass
class Report:
    name: str
    passed: bool | None          # None marks EVIDENCE for open statements
    details: str = ""
    witness: object = None

    @property
    def verdict(self) -> str:
        if self.passed is None:
            return "EVIDENCE"
        return "PASS" if self.passed else "FAIL"

    def __str__(self) -> str:
        tail = f" [{self.details}]" if self.details else ""
        return f"{self.name}: {self.verdict}{tail}"


def all_shapes(max_cells: int, min_cells: int = 1):
    """Every Ferrers shape with the given cell-count range."""
    out = []
    for n in range(min_cells, max_cells + 1):
        out.extend(FerrersShape(p) for p in sorted(partitions_of(n)))
    return out


def symmetric_shapes(max_cells: int):
    return [s for s in all_shapes(max_cells) if s.is_symmetric()]


def stack_polyominoes(max_cells: int):
    """Every stack polyomino with 1..max_cells cells (unimodal heights)."""
    def comps(total):
        if total == 0:
            yield ()
            return
        for first in range(1, total + 1):
            for rest in comps(total - first):
                yield (first,) + rest
    out = []
    for n in range(1, max_cells + 1):
        for heights in comps(n):
            try:
                out.append(StackPolyomino(heights))
            except ValueError:
                continue
    return out


def generate_fillings(shape, cls: str, n: int):
    """All fillings of the shape in the given class.

    For the 0-1 classes ``n`` is the number of 1's; for arbitrary fillings
    it is the sum of the entries.  Generation order is lexicographic over
    the column-major cell list.
    """
    cells = shape.cells()
    if cls == ZERO_ONE:
        for chosen in combinations(cells, n):
            yield Filling(shape, {cell: 1 for cell in chosen})
    elif cls == PARTIAL_PERMUTATION:
        for chosen in _rook_placements(cells, n):
            yield Filling(shape, {cell: 1 for cell in chosen})
    elif cls == ARBITRARY:
        def spread(i, left):
            if left == 0:
                yield {}
                return
            if i == len(cells):
                return
            for here in range(left + 1):
                for rest in spread(i + 1, left - here):
                    if here:
                        d = {cells[i]: here}
                        d.update(rest)
                        yield d
                    else:
                        yield rest
        for entries in spread(0, n):
            yield Filling(shape, entries)
    else:
        raise ValueError(f"unknown filling class {cls!r}")


def _rook_placements(cells, n: int):
    """The n-subsets of the column-major cell list with no two cells in a
    row or a column, in the order of ``combinations(cells, n)``.

    Column by column, each column is skipped or given one cell in a free
    row, lowest row first; a column is tried only while enough columns are
    left to place the rest.
    """
    columns = [list(group) for _, group in groupby(cells, key=itemgetter(0))]
    chosen, used_rows = [], set()

    def place(first):
        if len(chosen) == n:
            yield tuple(chosen)
            return
        for i in range(first, len(columns) - (n - len(chosen)) + 1):
            for cell in columns[i]:
                if cell[1] not in used_rows:
                    chosen.append(cell)
                    used_rows.add(cell[1])
                    yield from place(i + 1)
                    chosen.pop()
                    used_rows.remove(cell[1])

    return place(0)


def all_fillings(shape, cls: str, max_n: int | None = None):
    """Fillings for every feasible n, with the hard generation wall applied."""
    if max_n is None:
        if cls == PARTIAL_PERMUTATION:
            max_n = min(shape.n_rows, shape.n_cols)
        elif cls == ZERO_ONE:
            max_n = shape.n_cells
        else:
            raise ValueError("arbitrary fillings need an explicit entry-sum bound")
    else:
        _check_max_n(max_n)
    yield from _metered((n, f) for n in range(max_n + 1)
                        for f in generate_fillings(shape, cls, n))


def _check_max_n(max_n: int):
    """A negative bound would give an empty range, and an empty verdict."""
    if max_n < 0:
        raise ValueError(f"max_n must be at least 0, got {max_n}")


def _shapes_to_check(shapes):
    """The verifier's shapes, of which there must be at least one."""
    if not shapes:
        raise ValueError("no shape to check: max_cells must be at least 1")
    return shapes


def _metered(items, what="fillings"):
    """Pass items through, raising InstanceTooLarge once more than
    ``budget_limit()`` of them have been generated."""
    wall = budget_limit()
    for produced, item in enumerate(items, 1):
        if produced > wall:
            raise InstanceTooLarge(f"more than {wall} {what} generated")
        yield item


def _mirror_mismatch(source, image):
    """The first (key, (s, t)) whose count in the table ``source[key]``
    differs from the count of (t, s) in ``image[key]``; None if there is
    none."""
    for key, table in source.items():
        other = image.get(key, {})
        for (s, t), cnt in table.items():
            if other.get((t, s), 0) != cnt:
                return key, (s, t)
    return None


@dataclass
class CountTable:
    shape_id: str
    filling_class: str
    spec_x: ChainSpec
    spec_y: ChainSpec
    counts: dict = field(default_factory=dict)   # n -> {(s, t): count}

    def add(self, n, s, t):
        self.counts.setdefault(n, {})
        self.counts[n][(s, t)] = self.counts[n].get((s, t), 0) + 1

    def is_symmetric(self):
        """Whether every per-n table equals its (s, t) transpose; returns
        (ok, witness)."""
        bad = _mirror_mismatch(self.counts, self.counts)
        if bad:
            n, (s, t) = bad
            return False, (n, s, t)
        return True, None

    def total(self, n):
        return sum(self.counts.get(n, {}).values())

    def csv_rows(self):
        for n in sorted(self.counts):
            for (s, t) in sorted(self.counts[n]):
                yield (self.shape_id, self.filling_class, n, s, t,
                       self.counts[n][(s, t)])


def count_table(shape, cls: str, spec_x: ChainSpec, spec_y: ChainSpec,
                max_n: int | None = None) -> CountTable:
    table = CountTable(str(shape), cls, spec_x, spec_y)
    for n, f in all_fillings(shape, cls, max_n):
        table.add(n, longest_chain(f, spec_x), longest_chain(f, spec_y))
    return table


# ---------------------------------------------------------------------------
# the statistic pairs of the four count identities

T2_SPECS = (chain_spec("NE"), chain_spec("SE", require_rectangle=True))
NES1_SPECS = (chain_spec("NE", length_mode="entry-sum"),
              chain_spec("se", require_rectangle=True))
NES1_IMAGE_SPECS = (chain_spec("ne"),
                    chain_spec("SE", length_mode="entry-sum",
                               require_rectangle=True))
NES2_SPECS = (chain_spec("nE"), chain_spec("Se", require_rectangle=True))
NES2_IMAGE_SPECS = (chain_spec("Ne"), chain_spec("sE", require_rectangle=True))


def _check_swap(shapes, cls, max_n, specs, image_specs, mode, inverse_mode,
                symmetric_only=False):
    """Count equality plus bijection certificate for one swap identity.

    The bijection must carry statistics (s, t) on the source side to
    (t, s) on the image side and invert cleanly.
    """
    for shape in shapes:
        source = CountTable(str(shape), cls, *specs)
        image = CountTable(str(shape), cls, *image_specs)
        for n, f in all_fillings(shape, cls, max_n):
            if symmetric_only and transpose_filling(f) != f:
                continue
            s = longest_chain(f, specs[0])
            t = longest_chain(f, specs[1])
            source.add(n, s, t)
            g = swap_chain_statistics(f, mode)
            u = longest_chain(g, image_specs[0])
            v = longest_chain(g, image_specs[1])
            image.add(n, u, v)
            if symmetric_only and transpose_filling(g) != g:
                return False, (shape, f, "image not symmetric")
            if (u, v) != (t, s):
                return False, (shape, f, "statistics not exchanged")
            back = swap_chain_statistics(g, inverse_mode)
            if back != f:
                return False, (shape, f, "map does not invert")
        bad = _mirror_mismatch(source.counts, image.counts)
        if bad:
            return False, (shape, *bad, "counts differ")
    return True, None


def verify_t2(max_cells: int = 9, shapes=None) -> Report:
    shapes = _shapes_to_check(shapes if shapes is not None
                              else all_shapes(max_cells))
    ok, witness = _check_swap(shapes, PARTIAL_PERMUTATION, None,
                              T2_SPECS, T2_SPECS, "standard", "standard")
    return Report("T2", ok, f"{len(shapes)} shapes", witness)


def verify_t2a_nes1(max_cells: int = 8, max_sum: int = 4, shapes=None) -> Report:
    shapes = _shapes_to_check(shapes if shapes is not None
                              else all_shapes(max_cells))
    ok, witness = _check_swap(shapes, ARBITRARY, max_sum,
                              NES1_SPECS, NES1_IMAGE_SPECS,
                              "nes1", "nes1-inverse")
    return Report("T2a-NES1", ok, f"{len(shapes)} shapes, entry sum <= {max_sum}",
                  witness)


def verify_t2a_nes2(max_cells: int = 8, max_ones: int = 4, shapes=None) -> Report:
    shapes = _shapes_to_check(shapes if shapes is not None
                              else all_shapes(max_cells))
    ok, witness = _check_swap(shapes, ZERO_ONE, max_ones,
                              NES2_SPECS, NES2_IMAGE_SPECS,
                              "nes2", "nes2-inverse")
    return Report("T2a-NES2", ok, f"{len(shapes)} shapes, <= {max_ones} ones",
                  witness)


def verify_t2sym(max_cells: int = 9) -> Report:
    shapes = _shapes_to_check(symmetric_shapes(max_cells))
    ok, witness = _check_swap(shapes, PARTIAL_PERMUTATION, None,
                              T2_SPECS, T2_SPECS, "standard", "standard",
                              symmetric_only=True)
    return Report("T2sym", ok, f"{len(shapes)} symmetric shapes", witness)


def verify_t2asym(max_cells: int = 9, max_sum: int = 4) -> Report:
    # The first identity has a symmetry-preserving bijection (its two rule
    # sets treat mu and nu interchangeably, so symmetric fillings give
    # palindromic border sequences).  The second does not: its rule sets
    # are reflections of each other rather than self-reflective, so it is
    # checked by counting over the symmetric fillings directly.
    shapes = _shapes_to_check(symmetric_shapes(max_cells))
    ok1, w1 = _check_swap(shapes, ARBITRARY, max_sum,
                          NES1_SPECS, NES1_IMAGE_SPECS,
                          "nes1", "nes1-inverse", symmetric_only=True)
    ok2, w2 = True, None
    for shape in shapes:
        lhs = CountTable(str(shape), ZERO_ONE, *NES2_SPECS)
        rhs = CountTable(str(shape), ZERO_ONE, *NES2_IMAGE_SPECS)
        for n, f in all_fillings(shape, ZERO_ONE, max_sum):
            if transpose_filling(f) != f:
                continue
            lhs.add(n, *(longest_chain(f, spec) for spec in NES2_SPECS))
            rhs.add(n, *(longest_chain(f, spec) for spec in NES2_IMAGE_SPECS))
        bad = _mirror_mismatch(lhs.counts, rhs.counts)
        if bad:
            ok2, w2 = False, (shape, *bad, "counts differ")
            break
    return Report("T2asym", ok1 and ok2,
                  f"{len(shapes)} symmetric shapes", w1 or w2)


def _partition_tables(n, stats, conj, refined):
    """Generic crossing/nesting symmetry check over set partitions of n."""
    counts = {}
    for p in _metered(all_set_partitions(n), "set partitions"):
        key = min_max_blocks(p) if refined else None
        s, t = stats(p)
        counts.setdefault(key, {})
        counts[key][(s, t)] = counts[key].get((s, t), 0) + 1
        q = conj(p)
        if stats(q) != (t, s):
            return False, (p, "statistics not exchanged")
        if refined and min_max_blocks(q) != min_max_blocks(p):
            return False, (p, "minima/maxima not preserved")
        if conj(q) != p:
            return False, (p, "conjugation is not an involution")
    bad = _mirror_mismatch(counts, counts)
    if bad:
        key, (s, t) = bad
        return False, (key, s, t, "counts differ")
    return True, None


def _partition_verdict(name, max_n, stats, conj, refined, kind=""):
    _check_max_n(max_n)
    for n in range(max_n + 1):
        ok, witness = _partition_tables(n, stats, conj, refined)
        if not ok:
            return Report(name, False, f"n={n}", witness)
    return Report(name, True, f"set partitions up to n={max_n}{kind}")


def verify_t4(max_n: int = 5) -> Report:
    return _partition_verdict("T4", max_n, lambda p: (cross(p), nest(p)),
                              conjugate_set_partition, False)


def verify_t5(max_n: int = 5) -> Report:
    return _partition_verdict("T5", max_n, lambda p: (cross(p), nest(p)),
                              conjugate_set_partition, True, ", refined")


def verify_t6(max_n: int = 4) -> Report:
    # The enhanced statistics are exchanged by conjugating the hesitating
    # tableau, but unlike the plain case the block minima/maxima are not
    # preserved (the conjugation may turn a singleton into a middle
    # element of a chain: already {{1,3},{2}} <-> {{1,2,3}} at n = 3), so
    # the tables are checked without the minima/maxima refinement.
    return _partition_verdict(
        "T6", max_n, lambda p: (enhanced_cross(p), enhanced_nest(p)),
        conjugate_set_partition_enhanced, False, ", enhanced")


VERIFIERS = {"T2": verify_t2, "T2a-NES1": verify_t2a_nes1,
             "T2a-NES2": verify_t2a_nes2, "T2sym": verify_t2sym,
             "T2asym": verify_t2asym, "T4": verify_t4, "T5": verify_t5,
             "T6": verify_t6}


def verify_theorem(theorem_id: str, **kwargs) -> Report:
    try:
        fn = VERIFIERS[theorem_id]
    except KeyError:
        raise ValueError(f"unknown theorem id {theorem_id!r}; "
                         f"choose from {sorted(VERIFIERS)}") from None
    return fn(**kwargs)


# ---------------------------------------------------------------------------
# stack polyominoes

NE_SE_SPECS = (chain_spec("ne", require_rectangle=True),
               chain_spec("se", require_rectangle=True))


def _densest_bounded_ne(shape, s: int):
    """(n_max, count): the most 1's a 0-1 filling can carry while keeping
    all rectangle-bounded ne-chains at length <= s, and how many fillings
    with n_max 1's have a longest such chain of exactly s.

    One metered pass from the fullest fillings down, ending at the first
    filling below n_max.
    """
    n_max, count = None, 0
    for n, f in _metered((n, f) for n in range(shape.n_cells, -1, -1)
                         for f in generate_fillings(shape, ZERO_ONE, n)):
        if n_max is not None and n < n_max:
            break
        ne = longest_chain(f, NE_SE_SPECS[0])
        if ne <= s:
            n_max = n
            count += ne == s
    return (0, 0) if n_max is None else (n_max, count)


def jonsson_check(poly: StackPolyomino, s: int) -> Report:
    """Column-sorting invariance of the maximal-density chain counts.

    With n maximal so that 0-1 fillings with all rectangle-bounded
    ne-chains of length <= s exist, the number of such fillings with
    longest ne-chain exactly s must agree between the polyomino and the
    Ferrers shape obtained by sorting its columns by height.
    """
    if s < 1:
        raise ValueError(f"s must be at least 1, got {s}")
    n1, c1 = _densest_bounded_ne(poly, s)
    n2, c2 = _densest_bounded_ne(poly.sort_columns(), s)
    ok = n1 == n2 and c1 == c2
    return Report(f"jonsson[{poly};s={s}]", ok,
                  f"n_max={n1}/{n2}, counts {c1}/{c2}",
                  None if ok else (poly, s, n1, n2, c1, c2))


def problem2_evidence(shape, max_n: int | None = None) -> Report:
    """Tabulate N^01(F; n; ne=s, se=t) against its (s, t) transpose.

    This concerns an open question, so the outcome is reported as
    EVIDENCE either way, never asserted.
    """
    table = count_table(shape, ZERO_ONE, *NE_SE_SPECS, max_n)
    ok, witness = table.is_symmetric()
    details = ("all tables symmetric" if ok
               else f"asymmetry at (n,s,t)={witness}")
    return Report(f"problem2[{shape}]", None, details, table)


# ---------------------------------------------------------------------------
# Greene-style invariants of the corner labels

# per variant: the chain flavor whose k-fold statistic gives
# lam_1 + ... + lam_k, and the one giving lam'_1 + ... + lam'_k
GREENE_SPECS = {
    "standard": (chain_spec("NE"), chain_spec("SE")),
    "rsk": (chain_spec("NE", length_mode="entry-sum"),
            chain_spec("se", length_mode="entry-multiplicity")),
    "dual-rsk": (chain_spec("nE"), chain_spec("Se")),
    "rsk-prime": (chain_spec("Ne"), chain_spec("sE")),
    "dual-rsk-prime": (chain_spec("ne", length_mode="entry-multiplicity"),
                       chain_spec("SE", length_mode="entry-sum")),
}


def check_greene(f: Filling, variant: str, ks=(1, 2, 3)) -> Report:
    """Compare every corner label of the growth diagram with the chain
    statistics of the corresponding rectangular region of the filling."""
    if not ks or min(ks) < 1:
        raise ValueError(f"k must be at least 1, got ks={tuple(ks)}")
    diagram = label_diagram(f, variant)     # rejects an unknown variant
    spec_up, spec_down = GREENE_SPECS[variant]
    for (x, y) in diagram.corners():
        lam = diagram.label(x, y)
        lam_c = conjugate(lam)
        for k in ks:
            want_rows = sum(part(lam, i) for i in range(1, k + 1))
            want_cols = sum(part(lam_c, i) for i in range(1, k + 1))
            got_rows = greene_oracle(f, spec_up, k, corner=(x, y))
            got_cols = greene_oracle(f, spec_down, k, corner=(x, y))
            if (got_rows, got_cols) != (want_rows, want_cols):
                return Report(f"greene[{variant}]", False,
                              f"corner ({x},{y}), k={k}: label {lam} wants "
                              f"({want_rows},{want_cols}), chains give "
                              f"({got_rows},{got_cols})", f)
    return Report(f"greene[{variant}]", True, f"k in {tuple(ks)}")


def random_fillings(variant: str, count: int, seed: int = 20060828,
                    max_cells: int = 9, max_entry: int = 3):
    """Deterministic pseudo-random fillings in the variant's class."""
    rng = random.Random(seed)
    shapes = all_shapes(max_cells)
    cls = get_variant(variant).filling_class
    out = []
    while len(out) < count:
        shape = rng.choice(shapes)
        cells = shape.cells()
        entries = {}
        if cls == PARTIAL_PERMUTATION:
            cols = list(range(1, shape.n_cols + 1))
            rows = list(range(1, shape.n_rows + 1))
            rng.shuffle(cols)
            rng.shuffle(rows)
            for c, r in zip(cols, rows):
                if (c, r) in shape and rng.random() < 0.7:
                    entries[(c, r)] = 1
        else:
            top = 1 if cls == ZERO_ONE else max_entry
            budget = 8          # stay inside the oracle's entry-sum budget
            for cell in cells:
                if rng.random() < 0.4:
                    v = rng.randint(1, top)
                    if budget - v < 0:
                        break
                    budget -= v
                    entries[cell] = v
        out.append(Filling(shape, entries))
    return out


# ---------------------------------------------------------------------------
# independent counting oracles

def bell_number(n: int) -> int:
    """Bell numbers via the Peirce triangle recurrence."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def catalan_number(n: int) -> int:
    c = 1
    for i in range(n):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c
