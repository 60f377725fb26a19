"""Brute-force counts and plain reference versions that the tests check the
library against; nothing in ``src/`` calls them."""

import random
from itertools import accumulate, combinations, groupby
from operator import itemgetter

from growthdiagrams.correspondences import (Matching, SetPartition,
                                            _tableau_word,
                                            filling_to_setpartition,
                                            matching_to_oscillating,
                                            setpartition_to_hesitating,
                                            setpartition_to_vacillating,
                                            standard_representation)
from growthdiagrams.enumeration import InstanceTooLarge, all_fillings, all_shapes
from growthdiagrams.fillings import (ARBITRARY, PARTIAL_PERMUTATION, ZERO_ONE,
                                     ChainSpec, Filling, _Chains,
                                     _sorted_cells, chain_spec,
                                     longest_chain)
from growthdiagrams import growth
from growthdiagrams.growth import GrowthTableau, growth_tableau, reconstruct
from growthdiagrams.local_rules import get_variant
from growthdiagrams.partitions import (checked_partition, contains,
                                       differs_by_one_square, parse_int)
from growthdiagrams.shapes import FerrersShape, StackPolyomino


# ---------------------------------------------------------------------------
# partition operations that the tests use to build and compare labels

def union(mu, nu):
    """Coordinatewise maximum."""
    if len(mu) < len(nu):
        mu, nu = nu, mu
    return checked_partition(tuple(map(max, mu, nu)) + mu[len(nu):])


def intersect(mu, nu):
    """Coordinatewise minimum."""
    return checked_partition(tuple(map(min, mu, nu)))


def add_square_in_row(p, k):
    """Add one square to the k-th row; the result must still be a partition."""
    parts = list(p) + [0] * (k - len(p))
    parts[k - 1] += 1
    return checked_partition(parts)


def diff_row(bigger, smaller):
    """The unique row where two partitions differing by one square differ."""
    if bigger == smaller:
        raise ValueError(f"{bigger} and {smaller} are equal")
    if not differs_by_one_square(bigger, smaller):
        raise ValueError(f"{bigger} and {smaller} do not differ by one square")
    for i, (a, b) in enumerate(zip(bigger, smaller), 1):
        if a != b:
            return i
    return len(smaller) + 1


def enhanced_representation(p):
    """The standard representation plus (i, i) for every singleton block."""
    rep = standard_representation(p)
    rep.extend((b[0], b[0]) for b in p.blocks if len(b) == 1)
    return sorted(rep)


def hesitating_by_definition(p):
    """The hesitating word and filling of p, built from its blocks: the
    staircase of p.n with the diagonal cell (i, n + 1 - i) added for each
    singleton and each middle element i of a block, a cross in column i,
    row n + 1 - j for consecutive elements i < j of a block, and a cross in
    the diagonal cell of each singleton.  The word has "RD" for each
    element with a diagonal cell and "DR" for each other one."""
    n = p.n
    singletons = {b[0] for b in p.blocks if len(b) == 1}
    extended = singletons | {x for b in p.blocks for x in b[1:-1]}
    word = "".join("RD" if i in extended else "DR" for i in range(1, n + 1))
    # row n + 1 - i has the staircase's i - 1 cells, then the diagonal cell
    shape = FerrersShape(tuple(i - 1 + (i in extended)
                               for i in range(n, 0, -1)))
    entries = {(i, n + 1 - j): 1 for b in p.blocks for i, j in zip(b, b[1:])}
    entries.update({(i, n + 1 - i): 1 for i in singletons})
    return word, Filling(shape, entries)


def fillings_by_dicts(shape, cls: str, n: int):
    """The fillings of the class with n, as entries dicts built cell by
    cell in lexicographic order over the column-major cell list: the
    generators that the library's enumeration had before it read its
    fillings off the code walk."""
    cells = shape.cells()
    if cls == ZERO_ONE:
        for chosen in combinations(cells, n):
            yield Filling(shape, dict.fromkeys(chosen, 1))
    elif cls == PARTIAL_PERMUTATION:
        for chosen in _rook_placements(cells, n):
            yield Filling(shape, dict.fromkeys(chosen, 1))
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
    row or a column, in the order of ``combinations(cells, n)``: column by
    column, each column skipped or given one cell in a free row, lowest
    row first, while enough columns are left to place the rest."""
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


def swap_by_definition(f: Filling, variant: str) -> Filling:
    """``conjugate_swap`` by its definition: label the filling, read the
    border, conjugate it, and reconstruct with the conjugate variant's
    backward rules.  Past the memo, where ``reconstruct`` deletes, the
    backward sweep recovers the filling, so that the oracle does not rest
    on insertion and deletion."""
    t = growth_tableau(f, variant)
    conj = t.conjugate()
    if t._plan.small:
        return reconstruct(t.word, conj)[0]
    return Filling(f.shape, growth._backward_sweep(
        t._plan, conj.seq, get_variant(conj.variant))[1])


# ---------------------------------------------------------------------------
# the tableau route: decode a vacillating, hesitating or oscillating tableau
# by its step pattern and the backward rules.  The conjugations of the
# library swap the partition's filling instead; the tests check that both
# routes agree.

EMPTY = ()
# a border step of the standard rules: "R" adds at most one square, "D"
# removes at most one
_step_ok = get_variant("standard").step_ok


def is_vacillating(t: GrowthTableau, n: int) -> bool:
    if len(t.seq) != 2 * n + 1 or t.seq[0] != EMPTY or t.seq[-1] != EMPTY:
        return False
    for i in range(1, n + 1):
        a, b, c = t.seq[2 * i - 2], t.seq[2 * i - 1], t.seq[2 * i]
        if not (_step_ok("D", a, b) and _step_ok("R", b, c)):
            return False
    return True


def vacillating_to_setpartition(t: GrowthTableau, n: int | None = None):
    if n is None:
        n = (len(t.seq) - 1) // 2
    if not is_vacillating(t, n):
        raise ValueError("not a vacillating tableau")
    return filling_to_setpartition(
        reconstruct(_tableau_word(n), t, "standard")[0], n)


def is_hesitating(t: GrowthTableau, n: int) -> bool:
    """Each step pair does nothing-then-add, delete-then-nothing, or
    add-then-delete."""
    if len(t.seq) != 2 * n + 1 or t.seq[0] != EMPTY or t.seq[-1] != EMPTY:
        return False
    for i in range(1, n + 1):
        a, b, c = t.seq[2 * i - 2], t.seq[2 * i - 1], t.seq[2 * i]
        pat1 = a == b and _step_ok("R", b, c) and b != c
        pat2 = _step_ok("D", a, b) and a != b and b == c
        pat3 = _step_ok("R", a, b) and a != b and _step_ok("D", b, c) and b != c
        if not (pat1 or pat2 or pat3):
            return False
    return True


def hesitating_to_setpartition(t: GrowthTableau, n: int | None = None):
    if n is None:
        n = (len(t.seq) - 1) // 2
    if not is_hesitating(t, n):
        raise ValueError("not a hesitating tableau")
    # an add-then-delete pair at position i marks the extra diagonal cell;
    # a cross there is a singleton, which filling_to_setpartition skips
    extended = {i for i in range(1, n + 1)
                if contains(t.seq[2 * i - 1], t.seq[2 * i - 2])
                and t.seq[2 * i - 1] != t.seq[2 * i - 2]}
    return filling_to_setpartition(
        reconstruct(_tableau_word(n, extended), t, "standard")[0], n)


def parse_matching(text: str) -> Matching:
    pairs = tuple(tuple(parse_int(x, text) for x in p.split("-"))
                  for p in text.split())
    return Matching(len(pairs), pairs)


def all_matchings(n: int):
    """All perfect matchings of {1..2n}."""
    def rec(elems):
        if not elems:
            yield ()
            return
        first, rest = elems[0], elems[1:]
        for i, other in enumerate(rest):
            for sub in rec(rest[:i] + rest[i + 1:]):
                yield ((first, other),) + sub
    for pairs in rec(tuple(range(1, 2 * n + 1))):
        yield Matching(n, pairs)


def is_oscillating(t: GrowthTableau, length: int) -> bool:
    if len(t.seq) != length + 1 or t.seq[0] != EMPTY or t.seq[-1] != EMPTY:
        return False
    return all(differs_by_one_square(a, b) or differs_by_one_square(b, a)
               for a, b in zip(t.seq, t.seq[1:]))


def oscillating_to_matching(t: GrowthTableau) -> Matching:
    two_n = len(t.seq) - 1
    if not is_oscillating(t, two_n):
        raise ValueError("not an oscillating tableau")
    seq = []
    for i, p in enumerate(t.seq):
        seq.append(p)
        if i < two_n:
            q = t.seq[i + 1]
            seq.append(p if contains(q, p) else q)
    # seq now interleaves deletions and additions into a length 4n+1 sequence
    vac = GrowthTableau(_tableau_word(two_n), tuple(seq))
    return Matching(two_n // 2, vacillating_to_setpartition(vac, two_n).blocks)


def conjugate_by_vacillating(p):
    """Conjugate p's vacillating tableau and decode it."""
    t = setpartition_to_vacillating(p)
    return vacillating_to_setpartition(t.conjugate(), p.n)


def conjugate_by_hesitating(p):
    """Conjugate p's hesitating tableau and decode it."""
    t = setpartition_to_hesitating(p)
    return hesitating_to_setpartition(t.conjugate(), p.n)


def conjugate_by_oscillating(m: Matching) -> Matching:
    """Conjugate m's oscillating tableau and decode it."""
    return oscillating_to_matching(matching_to_oscillating(m).conjugate())


def random_set_partition(rng: random.Random, n: int):
    """A set partition of 1..n, each element joining a random block or
    opening a new one (not uniform over the partitions)."""
    blocks = []
    for x in range(1, n + 1):
        k = rng.randrange(len(blocks) + 1)
        if k == len(blocks):
            blocks.append([x])
        else:
            blocks[k].append(x)
    return SetPartition(n, tuple(map(tuple, blocks)))


# ---------------------------------------------------------------------------
# the chain tables' statistics of a Filling, which the tests check against
# longest_chain

def filling_stats(shape, specs, bits=1):
    """The statistics of a filling of the shape under ``specs``, entries
    below ``2 ** bits``: its columns inserted in turn into the states of
    the shape's chain tables (``fillings._Chains``)."""
    chains = _Chains(shape, specs, bits)
    return lambda f: chains.stats(f.entries)


# ---------------------------------------------------------------------------
# brute-force counts

def _max_k(pairs, kind: str, enhanced: bool) -> int:
    """Largest k with a k-crossing resp. k-nesting among the given pairs."""
    best = 0
    for k in range(1, len(pairs) + 1):
        found = False
        for combo in combinations(sorted(pairs), k):
            i_s = [i for i, _ in combo]
            j_s = [j for _, j in combo]
            if any(a >= b for a, b in zip(i_s, i_s[1:])):
                continue
            if kind == "crossing":
                ok = all(a < b for a, b in zip(j_s, j_s[1:]))
                sep = i_s[-1] <= j_s[0] if enhanced else i_s[-1] < j_s[0]
            else:
                ok = all(a > b for a, b in zip(j_s, j_s[1:]))
                sep = i_s[-1] <= j_s[-1] if enhanced else i_s[-1] < j_s[-1]
            if ok and sep:
                found = True
                break
        if found:
            best = k
        else:
            break
    return best


def count_noncrossing_matchings(n: int) -> int:
    """Matchings of {1..2n} with no 2-crossing, counted by brute force."""
    return sum(_max_k(standard_representation(m.as_set_partition()),
                      "crossing", False) <= 1 for m in all_matchings(n))


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


def max_ones_with_bounded_ne(shape, s: int) -> int:
    """The largest number of 1's a 0-1 filling of shape can carry while
    keeping all rectangle-bounded ne-chains at length <= s, by trying every
    0-1 filling."""
    ne = chain_spec("ne", require_rectangle=True)
    return max(n for n, f in all_fillings(shape, ZERO_ONE)
               if longest_chain(f, ne) <= s)


def _refine(lines, down):
    """Split each coarse line into one refined line per token it holds (at
    least one), assigning its tokens from the first refined line of its
    block on, or from the last one back if ``down``.  Returns the blocks
    (first refined line, number of refined lines), 1-based, and the refined
    line of each token."""
    blocks, fine, base = [], {}, 0
    for tokens in lines:
        n = max(1, len(tokens))
        blocks.append((base + 1, n))
        fine.update(zip(reversed(tokens) if down else tokens,
                        range(base + 1, base + n + 1)))
        base += n
    return tuple(blocks), fine


def blow_up_oracle(filling, variant: str):
    """``growth.blow_up`` spelt out: one token per cross, listed line by
    line, and the refined filling built through the checking constructors
    of ``FerrersShape`` and ``Filling``."""
    v = get_variant(variant)
    rows_down, cols_down = v.down == "V", v.right == "V"
    shape = filling.shape
    rows = [[] for _ in range(shape.n_rows)]
    cols = [[] for _ in range(shape.n_cols)]
    for (c, r), m in sorted(filling.entries.items()):
        tokens = [(c, r, j) for j in range(m)]
        rows[r - 1] += tokens
        cols[c - 1] += reversed(tokens) if rows_down and cols_down else tokens
    row_blocks, fine_row = _refine(rows, rows_down)
    col_blocks, fine_col = _refine(cols, cols_down)
    col_ends = [0, *accumulate(n for _, n in col_blocks)]
    fine_rows = []
    for length, (_, n) in zip(shape.rows, row_blocks):
        fine_rows += [col_ends[length]] * n
    entries = {(fine_col[tok], row): 1 for tok, row in fine_row.items()}
    return (Filling(FerrersShape(tuple(fine_rows)), entries),
            row_blocks, col_blocks)


# the exhaustive oracle refuses instances beyond these limits
ORACLE_MAX_CELLS = 16
ORACLE_MAX_ENTRY_SUM = 8
ORACLE_MAX_K = 3


def greene_oracle(f: Filling, spec: ChainSpec, k: int, corner=None) -> int:
    """Maximal total length of a collection of k chains, by exhaustive search.

    The collection semantics depend on the length mode:

    * ``count``: k chains, maximizing the cardinality of the union of their
      cells (equivalently: the largest cell set decomposable into k chains);
    * ``entry-sum``: k pairwise disjoint chains, maximizing the sum of the
      entries they cover;
    * ``entry-multiplicity``: k chains where a cell with entry e may appear
      in up to e of them, maximizing the cardinality of the multiset union.

    ``corner=(x, y)`` restricts attention to the cells weakly left of
    column x and weakly below row y.  This search is deliberately
    independent of the growth-diagram machinery; it is the reference
    implementation the fast invariants are tested against.
    """
    region = list(f.entries)
    if corner is not None:
        x, y = corner
        region = [(c, r) for (c, r) in region if c <= x and r <= y]
    if (f.shape.n_cells > ORACLE_MAX_CELLS or f.entry_sum > ORACLE_MAX_ENTRY_SUM
            or k > ORACLE_MAX_K):
        raise InstanceTooLarge(
            f"oracle budget exceeded (cells={f.shape.n_cells}, "
            f"sum={f.entry_sum}, k={k})")
    cells = _sorted_cells(region, spec.upward)

    if spec.length_mode == "entry-multiplicity":
        caps = [min(f.entry(c, r), k) for c, r in cells]
        gain = [1] * len(cells)
    elif spec.length_mode == "entry-sum":
        caps = [1] * len(cells)
        gain = [f.entry(c, r) for c, r in cells]
    else:
        caps = [1] * len(cells)
        gain = [1] * len(cells)

    best = 0

    def search(idx, lasts, value):
        nonlocal best
        if value + sum(gain[idx:]) * max(caps[idx:], default=1) <= best:
            return
        if idx == len(cells):
            best = max(best, value)
            return
        cell = cells[idx]
        nonempty = [j for j in range(k)
                    if lasts[j] is not None and spec.step_ok(lasts[j], cell)]
        empties = [j for j in range(k) if lasts[j] is None]
        base = [()]
        for j in nonempty:
            base.extend(sub + (j,) for sub in list(base) if len(sub) < caps[idx])
        # empty chains are interchangeable, so only prefixes of them are used
        choices = []
        for sub in base:
            for t in range(min(caps[idx] - len(sub), len(empties)) + 1):
                choices.append(sub + tuple(empties[:t]))
        for subset in choices:
            new_lasts = list(lasts)
            for j in subset:
                new_lasts[j] = cell
            search(idx + 1, tuple(new_lasts), value + gain[idx] * len(subset))

    search(0, tuple([None] * k), 0)
    return best


def random_fillings(variant: str, count: int, seed: int = 20060828,
                    max_cells: int = 9, max_entry: int = 3):
    """Deterministic pseudo-random fillings in the variant's class, of
    entry sum within the exhaustive Greene oracle's cap."""
    rng = random.Random(seed)
    shapes = list(all_shapes(max_cells))
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
            budget = ORACLE_MAX_ENTRY_SUM
            for cell in cells:
                if rng.random() < 0.4:
                    v = rng.randint(1, top)
                    if budget - v < 0:
                        break
                    budget -= v
                    entries[cell] = v
        out.append(Filling(shape, entries))
    return out
