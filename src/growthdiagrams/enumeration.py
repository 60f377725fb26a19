"""Exhaustive generators and the theorem-verification harness.

Everything here is deliberately brute force: fillings are generated in a
deterministic lexicographic order, by entry sum, and each verifier checks
a counting identity together with a pointwise bijection certificate where
one exists.  One walk (``_codes``) gives the fillings as ints, each the
sum of its entries times per-cell weights (``fillings._weights``), and
only the meter reads it.  ``all_fillings`` is the one enumeration that
decodes the ints into fillings; every count reads them as code pairs
(``_code_weights``) through ``_pair_reads``: one :class:`ChainTable` per
shape and spec, which reads a filling's code from two smaller ones.  A
count table of every 0-1 filling of a shape reads the tables over the
whole code space instead, one byte per filling.

One meter, a ``_Budget``, bounds each verdict, count table, Jonsson side
and ``all_fillings`` call over all its shapes and n: its walk charges
each n's codes before passing them on, and a code-space count its 2 ** N.
A swap verifier walks its default shapes as it checks them, so the meter
refuses an oversize verdict before its shapes are all built.

Every verifier checks one swap of fillings in ``_check_swap``.  The set
partitions of n are its staircase's rook placements (for T6 their
hesitating fillings), conjugated by the standard swap with T2's specs.
A certificate takes two passes over one table of code pairs, kept for
one key of one shape at a time: the fillings' n (for T4 the crosses, for
T6 the partitions' n), or for T5 the columns and rows that hold a cross.
The first pass reads each filling's statistics once; the second maps
each code to its image's with the shape's swaps (``growth._shape_swap``)
and checks the image against the table, so an image's statistics and,
for a map that is its own inverse, its image are looked up rather than
computed again.  Only a failing filling, the witness, is decoded.
"""

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, combinations, groupby, islice
from operator import itemgetter

from .correspondences import _hesitating, _tableau_word
from .fillings import (ARBITRARY, MEMO_MAX_CELLS, PARTIAL_PERMUTATION,
                       ZERO_ONE, ChainSpec, ChainTable, Filling, _code,
                       _code_entries, _sorted_cells, _trusted, _weights,
                       chain_spec, greene_totals)
from .growth import _check_ferrers, _shape_swap, _sweep_plan, label_diagram
from .local_rules import get_variant
from .partitions import conjugate, partitions_of
from .shapes import (FerrersShape, InstanceTooLarge, StackPolyomino,
                     budget_limit)


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
    """Every Ferrers shape with the given cell-count range, walked by cell
    count; ``max_cells`` is checked at the call."""
    return (FerrersShape(p)
            for n in range(min_cells, _check_int(max_cells, "max_cells") + 1)
            for p in sorted(partitions_of(n)))


def symmetric_shapes(max_cells: int):
    return (s for s in all_shapes(max_cells) if s.is_symmetric())


def _codes(weights: dict, cls: str, n: int):
    """The one walk over the class's fillings with n of the shape whose
    column-major cells key ``weights``: each as the sum of its entries
    times their cells' weights, in lexicographic order over the cells."""
    if cls == ZERO_ONE:
        return map(sum, combinations(weights.values(), n))
    if cls == PARTIAL_PERMUTATION:
        return _rook_codes(weights, n)
    if cls == ARBITRARY:
        return _composition_codes(n, list(weights.values()))
    raise ValueError(f"unknown filling class {cls!r}")


def _rook_codes(weights: dict, n: int):
    """The codes of the n-subsets of the column-major cells with no two in
    a row or a column, in the order of ``combinations(cells, n)``.

    Column by column, each column is skipped or given one cell in a free
    row, lowest row first; a column is tried only while enough columns are
    left to place the rest."""
    columns = [[(1 << r, w) for (_, r), w in group] for _, group in
               groupby(weights.items(), key=lambda item: item[0][0])]

    def place(first, left, code, used):
        if left == 1:
            # the last cell, in a free row of any column left
            for column in columns[first:]:
                for row, w in column:
                    if not used & row:
                        yield code + w
            return
        for i in range(first, len(columns) - left + 1):
            for row, w in columns[i]:
                if not used & row:
                    yield from place(i + 1, left - 1, code + w, used | row)

    return place(0, n, 0, 0) if n else iter((0,))


def _composition_codes(n: int, weights):
    """The codes of the fillings with entry sum n, ascending in the
    lexicographic order of their entries.  From all of n in the last cell,
    each next one moves one unit from the last nonzero cell t to t - 1 and
    the rest of t's entry to the last cell, until all of n is in the first.
    """
    if not n:
        yield 0
    if n <= 0 or not weights:
        return
    last = len(weights) - 1
    entries = [0] * last + [n]
    t, code = last, n * weights[last]
    while True:
        yield code
        if not t:
            return
        rest = entries[t] - 1
        entries[t], entries[last] = 0, rest
        entries[t - 1] += 1
        code += weights[t - 1] - (rest + 1) * weights[t] + rest * weights[last]
        t = last if rest else t - 1


def _code_weights(shape, bits: int) -> dict:
    """Each cell's weight in a code pair, in the order of ``shape.cells()``:
    the filling's code in ``ChainTable``'s upward cell order in the low
    ``bits * shape.n_cells`` bits, and in the downward order above them."""
    cells = shape.cells()
    down = _weights(_sorted_cells(cells, False), bits)
    return {cell: weight | down[cell] << bits * len(cells)
            for cell, weight in _weights(cells, bits).items()}


def all_fillings(shape, cls: str, max_n: int | None = None):
    """(n, filling) for every feasible n in ascending order, decoded from
    the walk's codes on one budget.  The bound is checked here, before the
    first filling is asked for."""
    top = _max_n(shape, cls, max_n)
    bits = max(top, 1).bit_length() if cls == ARBITRARY else 1
    cells = shape.cells()
    walk = _Budget().walk(_weights(cells, bits), cls, range(top + 1))
    return ((n, _trusted(Filling, shape=shape,
                         entries=_code_entries(code, cells, bits)))
            for n, codes in walk for code in codes)


def _max_n(shape, cls: str, max_n: int | None) -> int:
    """The largest n of the class's fillings of the shape, or ``max_n``,
    once checked, when that is smaller.  Arbitrary fillings of a shape
    with cells have no largest n, so ``max_n`` is needed and is taken as
    it is; a shape with no cells has only the empty filling, at n = 0."""
    if cls == PARTIAL_PERMUTATION:
        top = min(shape.n_rows, shape.n_cols)
    elif cls == ZERO_ONE:
        top = shape.n_cells
    elif cls != ARBITRARY:
        raise ValueError(f"unknown filling class {cls!r}")
    elif max_n is None:
        raise ValueError("arbitrary fillings need an explicit entry-sum bound")
    else:
        bound = _check_bound(max_n, "max_n", 0)
        return bound if shape.n_cells else 0
    return top if max_n is None else min(_check_bound(max_n, "max_n", 0), top)


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


def _shapes_to_check(shapes, max_cells=None):
    """The verifier's shapes, unless given every shape of at most
    ``max_cells`` cells: given ones are each checked up front to be a
    Ferrers shape, and the default ones are walked as the verdict reads
    them."""
    if shapes is None:
        return _Shapes(all_shapes(max_cells))
    for shape in shapes:
        _check_ferrers(shape)
    return _Shapes(shapes)


class _Shapes:
    """A verdict's walk of its shapes, at least one, with a count of those
    walked.  Its length walks what the verdict left, so that a verdict that
    stops at a witness still counts every shape."""

    def __init__(self, shapes):
        shapes = iter(shapes)
        first = next(shapes, None)
        if first is None:
            raise ValueError("no shape to check: max_cells must be at least 1")
        self._rest, self._count = chain((first,), shapes), 0

    def __iter__(self):
        for shape in self._rest:
            self._count += 1
            yield shape

    def __len__(self):
        self._count += sum(1 for _ in self._rest)
        return self._count


class _Budget:
    """One enumeration's meter: the budget (``GROWTH_BUDGET``), read once,
    bounds the items that all its walks generate together."""

    def __init__(self, what="fillings"):
        self.wall = self.left = budget_limit()
        self.what = what

    def charge(self, count: int):
        """Take ``count`` items off the budget, or raise InstanceTooLarge."""
        self.left -= count
        if self.left < 0:
            raise InstanceTooLarge(
                f"more than {self.wall} {self.what} generated")

    def walk(self, weights: dict, cls: str, ns):
        """(n, list of ``_codes(weights, cls, n)``) for each n of ``ns``,
        charged before it is passed on; a list stops one past the budget."""
        for n in ns:
            codes = list(islice(_codes(weights, cls, n), self.left + 1))
            self.charge(len(codes))
            yield n, codes


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
    """The number of fillings of the class with each (n, s, t): n their
    entry sum, s and t their statistics under ``spec_x`` and ``spec_y``.
    An n with no filling has no key, and each n's (s, t) keys come in the
    order the fillings are generated.

    A table of every 0-1 filling of a shape with chain-table masks is
    counted over the code space; every other one reads the walk's code
    pairs, metered n by n."""
    table = CountTable(str(shape), cls, spec_x, spec_y)
    top = _max_n(shape, cls, max_n)
    if (cls == ZERO_ONE and shape.n_cells <= MEMO_MAX_CELLS
            and top >= shape.n_cells):
        table.counts = _code_space_counts(shape, spec_x, spec_y)
        return table
    bits = top.bit_length() if cls == ARBITRARY else 1
    shift, low, ((x, i), (y, j)) = _pair_reads(shape, (spec_x, spec_y), bits)
    for n, pairs in _Budget().walk(_code_weights(shape, bits), cls,
                                   range(top + 1)):
        counts = Counter()
        for pair in pairs:
            codes = pair & low, pair >> shift
            counts[x(codes[i]), y(codes[j])] += 1
        if counts:
            table.counts[n] = dict(counts)
    return table


def _pair_reads(shape, specs, bits: int):
    """(shift, low, reads): ``pair & low`` is a code pair's upward code and
    ``pair >> shift`` its downward one; ``reads`` holds each spec's
    ChainTable read and the index of its cell order's code in the two."""
    shift = bits * shape.n_cells
    return shift, (1 << shift) - 1, [(ChainTable(shape, spec, bits)._read,
                                      not spec.upward) for spec in specs]


def _code_space_counts(shape, spec_x: ChainSpec, spec_y: ChainSpec) -> dict:
    """count_table's counts of all 2 ** N 0-1 fillings of the N-cell
    shape, read from one byte array of each spec's chain table.

    One pass walks the fillings as the codes with cell i of
    ``shape.cells()`` at bit N - 1 - i, from 2 ** N - 1 down to 0: each n's
    fillings come in generation order, as codes of ``combinations`` in
    lexicographic order fall.  A code's digits go to each table's cell
    order through one lookup table per byte, the low byte's read in the
    inner loop."""
    cells = shape.cells()
    size = 1 << len(cells)
    _Budget().charge(size)
    x, y = (ChainTable(shape, spec, 1) for spec in (spec_x, spec_y))
    stat_x, stat_y = x._code_space(), y._code_space()
    low = min(len(cells), 8)
    bytes_x, bytes_y = (_byte_tables(_weights(table.cells, 1), cells)
                        for table in (x, y))
    # the low byte's (n << 16, x digits, y digits), highest byte first
    lows = list(zip([v.bit_count() << 16 for v in range(1 << low)],
                    bytes_x[0], bytes_y[0]))[::-1]
    # (n << 16) + (s << 8) + t -> count, in the order the walk meets them
    joint = Counter()
    for high in range((size >> low) - 1, -1, -1):
        hx = hy = 0
        for i in range(1, len(bytes_x)):
            digits = high >> 8 * (i - 1) & 255
            hx |= bytes_x[i][digits]
            hy |= bytes_y[i][digits]
        hn = high.bit_count() << 16
        joint.update([hn + n + (stat_x[hx | dx] << 8 | stat_y[hy | dy])
                      for n, dx, dy in lows])
    counts = {n: {} for n in range(len(cells) + 1)}
    for key, count in joint.items():
        counts[key >> 16][key >> 8 & 255, key & 255] = count
    return counts


def _byte_tables(weights, cells) -> list:
    """For each byte of a code with cell i of ``cells`` at bit N - 1 - i,
    the table of the byte's values with each digit moved to the cell's
    bit, its one-bit weight in ``weights``."""
    tables, order = [], cells[::-1]
    for at in range(0, max(len(order), 1), 8):
        table = [0]
        for cell in order[at:at + 8]:
            table += [v | weights[cell] for v in table]
        tables.append(table)
    return tables


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


def _check_swap(groups, specs, image_specs, variant=None, bits=1,
                symmetric_only=False):
    """Count identity plus, given the map's forward variant, a bijection
    certificate for one swap identity, whose inverse is the swap under the
    variant's conjugate.

    ``groups`` holds (shape, keyed) pairs, ``keyed`` one (key, codes) group
    per key, ``codes`` its fillings' code pairs (``_code_weights``) with
    entries below ``2 ** bits``.  Over each key's fillings, as many have
    statistics (s, t) under ``specs`` as have (t, s) under ``image_specs``.
    The map must carry (s, t) on the source side to (t, s) on the image
    side, keep the key, and invert cleanly.  Each key is checked in two
    passes over one table of its fillings, keyed by upward code: the first
    reads every statistic once, each chain table from the code of its cell
    order; the second checks each filling's image against the table.  The
    shape's code maps are set up once for all its keys.  With
    ``symmetric_only`` a filling that is not symmetric is skipped before it
    is read.  Only a witness is decoded into a filling."""
    for shape, keyed in groups:
        source = {}     # key -> {(s, t): count}
        image = source if image_specs == specs else {}
        shift, low, reads = _pair_reads(
            shape, specs if image is source else specs + image_specs, bits)
        (x, i), (y, j) = reads[:2]      # the source side's (s, t)
        (u, k), (v, m) = reads[-2:]     # the image side's
        symmetric = _symmetric(shape, bits) if symmetric_only else None
        if variant is not None:
            inverse = get_variant(variant).conjugate
            swaps = _shape_swap(shape, variant, bits), (
                None if inverse == variant
                else _shape_swap(shape, inverse, bits))
        for key, pairs in keyed:
            table = {}      # upward code -> ((s, t), image side)
            counts = source.setdefault(key, Counter())
            image_counts = image.setdefault(key, Counter())
            for pair in pairs:
                codes = pair & low, pair >> shift
                if symmetric and not symmetric(codes[0]):
                    continue
                st = x(codes[i]), y(codes[j])
                counts[st] += 1
                if image is source:
                    swapped = st
                else:
                    swapped = u(codes[k]), v(codes[m])
                    image_counts[swapped] += 1
                table[codes[0]] = st, swapped
            if variant is not None and table:
                witness = _swap_witness(table, *swaps, symmetric)
                if witness:
                    code, reason = witness
                    return False, (shape, _trusted(
                        Filling, shape=shape,
                        entries=_code_entries(code, shape.cells(), bits)),
                        reason)
        bad = _mirror_mismatch(source, image)
        if bad:
            return False, (shape, *bad, "counts differ")
    return True, None


def _swap_witness(table, forward, backward, symmetric):
    """The first upward code of the table, in enumeration order, whose
    image under ``forward`` fails a check, with the reason; None if there
    is none.  The maps, ``_shape_swap``'s, send a code to its image's code,
    or to None for an image with an entry too large for a digit, which has
    no key.  With no ``backward`` map the swap is its own inverse: it maps
    each filling once, and each image's image is looked up.  When
    ``symmetric`` tests codes the table holds only symmetric fillings, so
    only an image outside it is tested."""
    images = map(forward, table)
    if backward is None:
        images = list(images)
        backward = dict(zip(table, images)).__getitem__
    for (code, ((s, t), _)), key in zip(table.items(), images):
        if key not in table:
            if symmetric and key is not None and not symmetric(key):
                return code, "image not symmetric"
            return code, "image outside the class"
        if table[key][1] != (t, s):
            return code, "statistics not exchanged"
        if backward(key) != code:
            return code, "map does not invert"
    return None


def _symmetric(shape, bits: int):
    """The test of whether the filling of an upward code of the shape
    equals its transpose: its code with each entry moved across the
    diagonal is its own."""
    if not shape.is_symmetric():
        return lambda code: False
    cells = shape.cells()
    across = {(r, c): w for (c, r), w in _weights(cells, bits).items()}
    return lambda code: code == _code(_code_entries(code, cells, bits), across)


def _shape_groups(shapes, cls, max_n, bits=1):
    """_check_swap's groups of the shapes' fillings, keyed by n and charged
    to one budget; each shape's groups are read before the next shape's."""
    budget = _Budget()
    for shape in shapes:
        yield shape, budget.walk(_code_weights(shape, bits), cls,
                                 range(_max_n(shape, cls, max_n) + 1))


def verify_t2(max_cells: int = 9, shapes=None) -> Report:
    shapes = _shapes_to_check(shapes, max_cells)
    ok, witness = _check_swap(_shape_groups(shapes, PARTIAL_PERMUTATION, None),
                              T2_SPECS, T2_SPECS, "standard")
    return Report("T2", ok, f"{len(shapes)} shapes", witness)


def verify_t2a_nes1(max_cells: int = 8, max_sum: int = 4, shapes=None) -> Report:
    _check_bound(max_sum, "max_sum", 0)
    shapes = _shapes_to_check(shapes, max_cells)
    bits = max_sum.bit_length()
    ok, witness = _check_swap(_shape_groups(shapes, ARBITRARY, max_sum, bits),
                              NES1_SPECS, NES1_IMAGE_SPECS, "rsk", bits)
    return Report("T2a-NES1", ok, f"{len(shapes)} shapes, entry sum <= {max_sum}",
                  witness)


def verify_t2a_nes2(max_cells: int = 8, max_ones: int = 4, shapes=None) -> Report:
    _check_bound(max_ones, "max_ones", 0)
    shapes = _shapes_to_check(shapes, max_cells)
    ok, witness = _check_swap(_shape_groups(shapes, ZERO_ONE, max_ones),
                              NES2_SPECS, NES2_IMAGE_SPECS, "dual-rsk")
    return Report("T2a-NES2", ok, f"{len(shapes)} shapes, <= {max_ones} ones",
                  witness)


def verify_t2sym(max_cells: int = 9) -> Report:
    shapes = _Shapes(symmetric_shapes(max_cells))
    ok, witness = _check_swap(_shape_groups(shapes, PARTIAL_PERMUTATION, None),
                              T2_SPECS, T2_SPECS, "standard",
                              symmetric_only=True)
    return Report("T2sym", ok, f"{len(shapes)} symmetric shapes", witness)


def verify_t2asym(max_cells: int = 9, max_sum: int = 4) -> Report:
    _check_bound(max_sum, "max_sum", 0)
    # The first identity has a symmetry-preserving bijection (its two rule
    # sets treat mu and nu interchangeably, so symmetric fillings give
    # palindromic border sequences).  The second does not: its rule sets
    # are reflections of each other rather than self-reflective, so it is
    # checked by counting over the symmetric fillings directly.
    shapes = _Shapes(symmetric_shapes(max_cells))
    bits = max_sum.bit_length()
    ok1, w1 = _check_swap(_shape_groups(shapes, ARBITRARY, max_sum, bits),
                          NES1_SPECS, NES1_IMAGE_SPECS, "rsk", bits,
                          symmetric_only=True)
    # the second count walks the shapes again
    ok2, w2 = _check_swap(_shape_groups(symmetric_shapes(max_cells), ZERO_ONE,
                                        max_sum),
                          NES2_SPECS, NES2_IMAGE_SPECS, symmetric_only=True)
    return Report("T2asym", ok1 and ok2,
                  f"{len(shapes)} symmetric shapes", w1 or w2)


def _partition_verdict(name, max_n, groups, kind=""):
    """The standard swap of the set partitions of each n up to ``max_n``,
    the rook placements of the staircase, checked with T2's specs on
    ``groups(n, staircase, place)``: ``place(weights)`` walks the rook
    placements of the weighed staircase on the verdict's one budget."""
    _check_bound(max_n, "max_n", 0)
    budget = _Budget("set partitions")
    for n in range(max_n + 1):
        shape = _sweep_plan(_tableau_word(n)).shape

        def place(weights):
            return budget.walk(weights, PARTIAL_PERMUTATION, range(max(n, 1)))
        ok, witness = _check_swap(groups(n, shape, place), T2_SPECS, T2_SPECS,
                                  "standard")
        if not ok:
            return Report(name, False, f"n={n}", witness)
    return Report(name, True, f"set partitions up to n={max_n}{kind}")


def _occupied(n: int, shape) -> dict:
    """T5's weight of each cell of n's staircase ``shape``: its code-pair
    weight and, above the pair, bit n + c for its column c and bit r for
    its row r.  So a placement's code carries the columns and the rows that
    hold a cross above its code pair.  Column i holds none when i is a
    block maximum, row n + 1 - j none when j is a block minimum."""
    at = 2 * shape.n_cells
    return {(c, r): w | (1 << n + c | 1 << r) << at
            for (c, r), w in _code_weights(shape, 1).items()}


def verify_t4(max_n: int = 5) -> Report:
    # T2 on the staircase, keyed by crosses: n minus the number of blocks
    return _partition_verdict("T4", max_n, lambda n, shape, place: [
        (shape, place(_code_weights(shape, 1)))])


def verify_t5(max_n: int = 5) -> Report:
    # the swap keeps which columns and rows of the staircase hold a cross:
    # each placement's (key, code pair) is its code's divmod
    def groups(n, shape, place):
        placements = place(_occupied(n, shape))
        pairs = sorted((divmod(code, 1 << 2 * shape.n_cells)
                        for _, codes in placements for code in codes),
                       key=itemgetter(0))
        return [(shape, ((key, map(itemgetter(1), group)) for key, group
                         in groupby(pairs, key=itemgetter(0))))]
    return _partition_verdict("T5", max_n, groups, ", refined")


def verify_t6(max_n: int = 4) -> Report:
    # The swap keeps the hesitating shape, so each shape's fillings are
    # checked apart.  Unlike the plain case the block minima/maxima are
    # not preserved (the conjugation may turn a singleton into a middle
    # element of a chain: already {{1,3},{2}} <-> {{1,2,3}} at n = 3), so
    # the tables are checked without the minima/maxima refinement.
    def groups(n, shape, place):
        cells = shape.cells()
        by_shape = {}   # hesitating shape -> (its code weights, code pairs)
        for _, codes in place(_weights(cells, 1)):
            for code in codes:
                g = _hesitating(n, _code_entries(code, cells, 1))[1]
                if g.shape not in by_shape:
                    by_shape[g.shape] = _code_weights(g.shape, 1), []
                weights, pairs = by_shape[g.shape]
                pairs.append(_code(g.entries, weights))
        return ((s, [(n, pairs)]) for s, (_, pairs) in by_shape.items())
    return _partition_verdict("T6", max_n, groups, ", enhanced")


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

    The walk's code pairs on one budget, n by n from the fullest fillings
    down to the first n with one within the bound, at the latest n = 0.
    """
    shift, low, ((ne, i),) = _pair_reads(shape, NE_SE_SPECS[:1], 1)
    for n, pairs in _Budget().walk(_code_weights(shape, 1), ZERO_ONE,
                                   range(shape.n_cells, -1, -1)):
        # each pair's code of the spec's cell order
        lengths = map(ne, (pair >> shift * i & low for pair in pairs))
        within = [length for length in lengths if length <= s]
        if within:
            return n, within.count(s)


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
