"""Exhaustive generators and the theorem-verification harness.

Everything here is deliberately brute force: fillings are generated in a
deterministic lexicographic order, by entry sum, and each verifier checks
a counting identity together with a pointwise bijection certificate where
one exists.  The chain statistics of the enumerated fillings come from one
:class:`fillings.ChainTable` per shape and spec, which reads each filling
from two smaller ones; single fillings, as of the set partitions and the
stack polyominoes, go to :func:`fillings.longest_chain`.

The certificates take two passes over one table, kept for one (shape, n)
or one n at a time.  The first pass reads each object's statistics, and
for set partitions its conjugate, once; the second checks each object's
image against the table, so an image's statistics and, for a map that is
its own inverse, its image are looked up rather than computed again.  An
image that is not in the table fails the check.
"""

import os
from dataclasses import dataclass, field
from itertools import combinations, groupby
from operator import itemgetter

from .correspondences import (all_set_partitions, conjugate_set_partition,
                              conjugate_set_partition_enhanced, cross_nest,
                              min_max_blocks, swap_chain_statistics)
from .fillings import (ARBITRARY, PARTIAL_PERMUTATION, ZERO_ONE, ChainSpec,
                       ChainTable, Filling, _trusted, chain_spec,
                       greene_totals, longest_chain)
from .growth import label_diagram
from .partitions import conjugate, partitions_of
from .shapes import FerrersShape, StackPolyomino

DEFAULT_HARD_WALL = 10 ** 7


class InstanceTooLarge(Exception):
    """Raised when an enumeration generates more than ``budget_limit()``
    items."""


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
    for n in range(min_cells, _check_int(max_cells, "max_cells") + 1):
        out.extend(FerrersShape(p) for p in sorted(partitions_of(n)))
    return out


def symmetric_shapes(max_cells: int):
    return [s for s in all_shapes(max_cells) if s.is_symmetric()]


def generate_fillings(shape, cls: str, n: int):
    """All fillings of the shape in the given class.

    For the 0-1 classes ``n`` is the number of 1's; for arbitrary fillings
    it is the sum of the entries.  Generation order is lexicographic over
    the column-major cell list.  The entries are positive ints in cells of
    the shape by construction, so the fillings are not checked again.
    """
    cells = shape.cells()
    if cls == ZERO_ONE:
        for chosen in combinations(cells, n):
            yield _trusted(Filling, shape=shape,
                           entries=dict.fromkeys(chosen, 1))
    elif cls == PARTIAL_PERMUTATION:
        for chosen in _rook_placements(cells, n):
            yield _trusted(Filling, shape=shape,
                           entries=dict.fromkeys(chosen, 1))
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
            yield _trusted(Filling, shape=shape, entries=entries)
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
    """(n, filling) for every feasible n in ascending order, with the hard
    generation wall applied.  The bound is checked here, before the first
    filling is asked for."""
    return _metered((n, f) for n in range(_max_n(shape, cls, max_n) + 1)
                    for f in generate_fillings(shape, cls, n))


def _max_n(shape, cls: str, max_n: int | None) -> int:
    """``max_n``, once checked, or the largest n of the class's fillings of
    the shape when it is None."""
    if max_n is not None:
        return _check_bound(max_n, "max_n", 0)
    if cls == PARTIAL_PERMUTATION:
        return min(shape.n_rows, shape.n_cols)
    if cls == ZERO_ONE:
        return shape.n_cells
    raise ValueError("arbitrary fillings need an explicit entry-sum bound")


def _check_int(value, name: str) -> int:
    """``value``, once it is an int, by ``partitions.int_tuple``'s rule (a
    bool is not)."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _check_bound(value, name: str, least: int) -> int:
    """``value``, once it is an int of at least ``least``: a smaller bound
    would give an empty range, and an empty verdict."""
    if _check_int(value, name) < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def _chain_tables(shape, cls: str, max_n: int | None, specs):
    """A ChainTable of the shape for each spec, sized for the class's
    fillings of entry sum at most ``max_n``."""
    bits = _max_n(shape, cls, max_n).bit_length() if cls == ARBITRARY else 1
    return [ChainTable(shape, spec, bits) for spec in specs]


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
    x, y = _chain_tables(shape, cls, max_n, (spec_x, spec_y))
    for n, f in all_fillings(shape, cls, max_n):
        table.add(n, x(f), y(f))
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


def _check_swap(shapes, cls, max_n, specs, image_specs, modes=None,
                symmetric_only=False):
    """Count identity plus, given the map's (mode, inverse mode), a
    bijection certificate for one swap identity.

    Over the fillings, as many have statistics (s, t) under ``specs`` as
    have (t, s) under ``image_specs``.  The map must carry statistics
    (s, t) on the source side to (t, s) on the image side and invert
    cleanly.  Each (shape, n) is checked in two passes over one table of
    its fillings: the first reads every statistic once, the second checks
    each filling's image against the table.  The statistics of every
    filling are read, symmetric or not, so that each finds the smaller
    fillings it is read from in the chain tables.
    """
    for shape in shapes:
        source = CountTable(str(shape), cls, *specs)
        image = (source if image_specs == specs
                 else CountTable(str(shape), cls, *image_specs))
        x, y = _chain_tables(shape, cls, max_n, specs)
        image_x, image_y = (x, y) if image is source else _chain_tables(
            shape, cls, max_n, image_specs)
        for n, group in groupby(all_fillings(shape, cls, max_n),
                                key=itemgetter(0)):
            table = {}      # entries -> (filling, statistics, image side)
            for _, f in group:
                s, t = x(f), y(f)
                swapped = (s, t) if image is source else (image_x(f),
                                                          image_y(f))
                if symmetric_only and not f.is_symmetric():
                    continue
                source.add(n, s, t)
                if image is not source:
                    image.add(n, *swapped)
                table[frozenset(f.entries.items())] = f, (s, t), swapped
            if modes is not None and table:
                witness = _swap_witness(shape, table, modes, symmetric_only)
                if witness:
                    return False, witness
        bad = _mirror_mismatch(source.counts, image.counts)
        if bad:
            return False, (shape, *bad, "counts differ")
    return True, None


def _swap_witness(shape, table, modes, symmetric_only):
    """The first filling of the table, in enumeration order, whose image
    under ``modes[0]`` fails a check, as (shape, filling, reason); None if
    there is none.  A map that is its own inverse is applied once to each
    filling, and each image's image is looked up."""
    forward, backward = modes
    images = (swap_chain_statistics(f, forward) for f, _, _ in table.values())
    if forward == backward:
        images = list(images)
        image_of = dict(zip(table, images))
    for (f, (s, t), _), g in zip(table.values(), images):
        if symmetric_only and not g.is_symmetric():
            return shape, f, "image not symmetric"
        key = frozenset(g.entries.items())
        if g.shape != shape or key not in table:
            return shape, f, "image outside the class"
        if table[key][2] != (t, s):
            return shape, f, "statistics not exchanged"
        back = (image_of[key] if forward == backward
                else swap_chain_statistics(g, backward))
        if back != f:
            return shape, f, "map does not invert"
    return None


def verify_t2(max_cells: int = 9, shapes=None) -> Report:
    shapes = _shapes_to_check(shapes if shapes is not None
                              else all_shapes(max_cells))
    ok, witness = _check_swap(shapes, PARTIAL_PERMUTATION, None,
                              T2_SPECS, T2_SPECS, ("standard", "standard"))
    return Report("T2", ok, f"{len(shapes)} shapes", witness)


def verify_t2a_nes1(max_cells: int = 8, max_sum: int = 4, shapes=None) -> Report:
    _check_bound(max_sum, "max_sum", 0)
    shapes = _shapes_to_check(shapes if shapes is not None
                              else all_shapes(max_cells))
    ok, witness = _check_swap(shapes, ARBITRARY, max_sum,
                              NES1_SPECS, NES1_IMAGE_SPECS,
                              ("nes1", "nes1-inverse"))
    return Report("T2a-NES1", ok, f"{len(shapes)} shapes, entry sum <= {max_sum}",
                  witness)


def verify_t2a_nes2(max_cells: int = 8, max_ones: int = 4, shapes=None) -> Report:
    _check_bound(max_ones, "max_ones", 0)
    shapes = _shapes_to_check(shapes if shapes is not None
                              else all_shapes(max_cells))
    ok, witness = _check_swap(shapes, ZERO_ONE, max_ones,
                              NES2_SPECS, NES2_IMAGE_SPECS,
                              ("nes2", "nes2-inverse"))
    return Report("T2a-NES2", ok, f"{len(shapes)} shapes, <= {max_ones} ones",
                  witness)


def verify_t2sym(max_cells: int = 9) -> Report:
    shapes = _shapes_to_check(symmetric_shapes(max_cells))
    ok, witness = _check_swap(shapes, PARTIAL_PERMUTATION, None,
                              T2_SPECS, T2_SPECS, ("standard", "standard"),
                              symmetric_only=True)
    return Report("T2sym", ok, f"{len(shapes)} symmetric shapes", witness)


def verify_t2asym(max_cells: int = 9, max_sum: int = 4) -> Report:
    _check_bound(max_sum, "max_sum", 0)
    # The first identity has a symmetry-preserving bijection (its two rule
    # sets treat mu and nu interchangeably, so symmetric fillings give
    # palindromic border sequences).  The second does not: its rule sets
    # are reflections of each other rather than self-reflective, so it is
    # checked by counting over the symmetric fillings directly.
    shapes = _shapes_to_check(symmetric_shapes(max_cells))
    ok1, w1 = _check_swap(shapes, ARBITRARY, max_sum,
                          NES1_SPECS, NES1_IMAGE_SPECS,
                          ("nes1", "nes1-inverse"), symmetric_only=True)
    ok2, w2 = _check_swap(shapes, ZERO_ONE, max_sum,
                          NES2_SPECS, NES2_IMAGE_SPECS, symmetric_only=True)
    return Report("T2asym", ok1 and ok2,
                  f"{len(shapes)} symmetric shapes", w1 or w2)


def _partition_tables(n, stats, conj, refined):
    """Generic crossing/nesting symmetry check over set partitions of n,
    in two passes over one table of them: the first reads each
    partition's statistics and conjugate once, the second checks each
    conjugate against the table."""
    counts, table = {}, {}
    for p in _metered(all_set_partitions(n), "set partitions"):
        key = min_max_blocks(p) if refined else None
        s, t = stats(p)
        counts.setdefault(key, {})
        counts[key][(s, t)] = counts[key].get((s, t), 0) + 1
        table[p] = key, (s, t), conj(p)
    for p, (key, (s, t), q) in table.items():
        if q not in table:
            return False, (p, "image outside the class")
        q_key, q_stats, q_image = table[q]
        if q_stats != (t, s):
            return False, (p, "statistics not exchanged")
        if refined and q_key != key:
            return False, (p, "minima/maxima not preserved")
        if q_image != p:
            return False, (p, "conjugation is not an involution")
    bad = _mirror_mismatch(counts, counts)
    if bad:
        key, (s, t) = bad
        return False, (key, s, t, "counts differ")
    return True, None


def _partition_verdict(name, max_n, stats, conj, refined, kind=""):
    _check_bound(max_n, "max_n", 0)
    for n in range(max_n + 1):
        ok, witness = _partition_tables(n, stats, conj, refined)
        if not ok:
            return Report(name, False, f"n={n}", witness)
    return Report(name, True, f"set partitions up to n={max_n}{kind}")


def verify_t4(max_n: int = 5) -> Report:
    return _partition_verdict("T4", max_n, cross_nest,
                              conjugate_set_partition, False)


def verify_t5(max_n: int = 5) -> Report:
    return _partition_verdict("T5", max_n, cross_nest,
                              conjugate_set_partition, True, ", refined")


def verify_t6(max_n: int = 4) -> Report:
    # The enhanced statistics are exchanged by conjugating the hesitating
    # tableau, but unlike the plain case the block minima/maxima are not
    # preserved (the conjugation may turn a singleton into a middle
    # element of a chain: already {{1,3},{2}} <-> {{1,2,3}} at n = 3), so
    # the tables are checked without the minima/maxima refinement.
    return _partition_verdict(
        "T6", max_n, lambda p: cross_nest(p, enhanced=True),
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
    _check_bound(s, "s", 1)
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


def check_greene(f: Filling, variant: str, k_max: int = 3) -> Report:
    """Compare every corner label of the growth diagram with the largest
    totals of k chains in the corresponding rectangular region of the
    filling, for each k in 1..k_max.

    Both sides stop changing once k reaches the filling's entry sum, so no
    larger k is compared.
    """
    if _check_int(k_max, "k_max") < 1:
        raise ValueError(f"k must be at least 1, got k_max={k_max}")
    top = min(k_max, max(f.entry_sum, 1))
    diagram = label_diagram(f, variant)     # rejects an unknown variant
    spec_up, spec_down = GREENE_SPECS[variant]
    for (x, y) in diagram.corners():
        lam = diagram.label(x, y)
        lam_c = conjugate(lam)
        rows = greene_totals(f, spec_up, top, corner=(x, y))
        cols = greene_totals(f, spec_down, top, corner=(x, y))
        for k in range(1, top + 1):
            want = (sum(lam[:k]), sum(lam_c[:k]))
            got = (rows[k - 1], cols[k - 1])
            if got != want:
                return Report(f"greene[{variant}]", False,
                              f"corner ({x},{y}), k={k}: label {lam} wants "
                              f"({want[0]},{want[1]}), chains give "
                              f"({got[0]},{got[1]})", f)
    ks = f"1..{k_max}" if k_max > 3 else tuple(range(1, k_max + 1))
    return Report(f"greene[{variant}]", True, f"k in {ks}")
