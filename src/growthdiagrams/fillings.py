"""Fillings of shapes with nonnegative integers, and their chain
statistics: the longest chain, and the largest totals of k chains.

A filling stores only its nonzero entries, keyed by (col, row).  Three
nested classes of fillings appear throughout:

* ``arbitrary``          -- any nonnegative entries,
* ``zero-one``           -- entries 0/1,
* ``partial-permutation``-- entries 0/1 with at most one 1 per row and column.

The fast paths hold a filling as an int code, laid out here alone: with
the weights ``_weights(cells, bits)``, digit i of ``bits`` bits holds the
entry of ``cells[i]``.  ``_code`` codes entries, ``_code_entries`` decodes.

Chains are described by a :class:`ChainSpec`, keyed by its two-letter
compass code.  The first letter gives the vertical relation (N = weakly
above, n = strictly above, S = weakly below, s = strictly below), the
second the horizontal one (E = weakly right, e = strictly right).
:func:`longest_chain` finds the longest chain with one longest-path pass;
the tests check it against an exhaustive search over all chains.  A
:class:`ChainTable` reads the same statistic for any filling of one
shape from two smaller fillings, in any order.
"""

import json
from collections import defaultdict, deque
from math import inf
from dataclasses import dataclass, field
from itertools import accumulate
from operator import or_

from .shapes import shape_from_word

ARBITRARY = "arbitrary"
ZERO_ONE = "zero-one"
PARTIAL_PERMUTATION = "partial-permutation"

# The most cells of a shape that keeps a memo: the growth layer's rule
# caches and sweep plans, and a ChainTable, whose masks take O(cells ** 2)
# bits.
MEMO_MAX_CELLS = 64


@dataclass(frozen=True)
class Filling:
    shape: object
    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for (c, r), v in self.entries.items():
            if type(v) is not int:
                raise ValueError(f"entry {v!r} at ({c},{r}) is not an integer")
            if v < 0:
                raise ValueError(f"negative entry at ({c},{r})")
            if v == 0:
                continue
            if (c, r) not in self.shape:
                raise ValueError(f"cell ({c},{r}) outside shape {self.shape}")
            clean[(c, r)] = v
        object.__setattr__(self, "entries", clean)

    def entry(self, c: int, r: int) -> int:
        return self.entries.get((c, r), 0)

    @property
    def entry_sum(self) -> int:
        return sum(self.entries.values())

    def is_symmetric(self) -> bool:
        """Whether the filling equals its transpose, which is not built: its
        shape is self-conjugate and each entry equals the one across the
        diagonal."""
        entries = self.entries
        return self.shape.is_symmetric() and all(
            entries.get((r, c)) == v for (c, r), v in entries.items())

    def __eq__(self, other):
        return (isinstance(other, Filling)
                and self.shape == other.shape and self.entries == other.entries)

    def __hash__(self):
        return hash((self.shape, tuple(sorted(self.entries.items()))))


def _trusted(cls, **values):
    """An instance of a frozen dataclass made of values that are valid by
    construction (a filling's entries are positive ints in cells of its
    shape, a diagram's labels are its filling's growth); outside input goes
    through the checking constructor instead, and a growth diagram, which
    only ``label_diagram`` makes, has none."""
    obj = object.__new__(cls)
    obj.__dict__.update(values)
    return obj


def filling_class(f: Filling) -> str:
    """The strictest of the three filling classes that f belongs to."""
    return next(cls for cls in (PARTIAL_PERMUTATION, ZERO_ONE, ARBITRARY)
                if in_class(f, cls))


def in_class(f: Filling, cls: str) -> bool:
    """Whether f belongs to the class cls (the classes are nested)."""
    if cls == ARBITRARY:
        return True
    if cls not in (ZERO_ONE, PARTIAL_PERMUTATION):
        raise ValueError(f"unknown filling class {cls!r}")
    entries = f.entries
    if any(v > 1 for v in entries.values()):
        return False
    if cls == ZERO_ONE:
        return True
    return (len({c for c, _ in entries}) == len(entries)
            == len({r for _, r in entries}))


def transpose_filling(f: Filling) -> Filling:
    shape = f.shape.transpose()
    return Filling(shape, {(r, c): v for (c, r), v in f.entries.items()})


def filling_to_json(f: Filling) -> str:
    return json.dumps({
        "shape": f.shape.word,
        "entries": [[c, r, v] for (c, r), v in sorted(f.entries.items())],
    })


def int_lists(value, length=None) -> bool:
    """True if value is a JSON list of lists of integers (each of the given
    length, if one is given)."""
    return isinstance(value, list) and all(
        isinstance(item, list) and length in (None, len(item))
        and all(type(x) is int for x in item) for item in value)


def filling_from_json(text: str) -> Filling:
    data = json.loads(text)
    if not (isinstance(data, dict) and isinstance(data.get("shape"), str)
            and int_lists(data.get("entries"), 3)):
        raise ValueError('a filling is a JSON object {"shape": "<D/R word>", '
                         '"entries": [[col, row, value], ...]}')
    shape = shape_from_word(data["shape"])
    entries = {}
    for c, r, v in data["entries"]:
        if (c, r) in entries:
            raise ValueError(f"the entries give cell {c},{r} twice")
        entries[(c, r)] = v
    return Filling(shape, entries)


# ---------------------------------------------------------------------------
# chain specifications

@dataclass(frozen=True)
class ChainSpec:
    code: str                            # two-letter compass code, e.g. 'NE'
    length_mode: str = "count"           # count | entry-sum | entry-multiplicity
    require_rectangle: bool = False
    # the code's relations, derived once; equality, hashing and repr use the
    # fields above.  A step from a to b rises by at least min_rise rows
    # (upward for N/n, downward for S/s) and moves right by at least min_run
    # columns.
    upward: bool = field(init=False, repr=False, compare=False)
    min_rise: int = field(init=False, repr=False, compare=False)
    min_run: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if (len(self.code) != 2 or self.code[0] not in "NnSs"
                or self.code[1] not in "Ee"):
            raise ValueError(f"bad chain code {self.code!r}")
        if self.length_mode not in ("count", "entry-sum", "entry-multiplicity"):
            raise ValueError(f"bad length mode {self.length_mode!r}")
        v, h = self.code
        object.__setattr__(self, "upward", v in "Nn")
        object.__setattr__(self, "min_rise", int(v in "ns"))
        object.__setattr__(self, "min_run", int(h == "e"))

    def step_ok(self, a, b) -> bool:
        """May cell b follow cell a in a chain?"""
        (ca, ra), (cb, rb) = a, b
        rise = rb - ra if self.upward else ra - rb
        return ((ca, ra) != (cb, rb) and rise >= self.min_rise
                and cb - ca >= self.min_run)


def chain_spec(code: str, length_mode: str = "count",
               require_rectangle: bool = False) -> ChainSpec:
    """Build a ChainSpec from a two-letter compass code like 'NE' or 'se'."""
    return ChainSpec(code, length_mode, require_rectangle)


def _sorted_cells(cells, upward: bool):
    """The cells in an order of which every chain is a subsequence: column
    by column, up each column for an ``upward`` chain, else down it."""
    if upward:
        return sorted(cells)
    return sorted(cells, key=lambda cr: (cr[0], -cr[1]))


def longest_chain(f: Filling, spec: ChainSpec) -> int:
    """Length of the longest single chain of the given flavor.

    With ``require_rectangle`` the bounding rectangle of the chain must lie
    inside the shape.  For a single chain the multiset mode coincides with
    plain counting.

    A chain's bounding box is spanned by its two ends, so one longest-path
    pass decides it: for each cell, the longest chain to it from each
    earlier start cell.  O(k^3) in the k nonzero cells.
    """
    cells = _sorted_cells(f.entries, spec.upward)
    entry_sum = spec.length_mode == "entry-sum"
    upward, min_rise, min_run = spec.upward, spec.min_rise, spec.min_run
    # both shape kinds are bottom-justified columns, so a box fits when
    # every column it spans reaches its top row
    heights = f.shape.col_heights if spec.require_rectangle else None
    best = 0
    # from_start[j][s]: the longest chain from cells[s] to cells[j]
    from_start = []
    for j, (c1, r1) in enumerate(cells):
        weight = f.entries[(c1, r1)] if entry_sum else 1
        here = {j: weight}
        # the earlier cells, which are all distinct from this one
        for (c0, r0), ends in zip(cells, from_start):
            if ((r1 - r0 if upward else r0 - r1) >= min_rise
                    and c1 - c0 >= min_run):
                for s, value in ends.items():
                    if value + weight > here.get(s, 0):
                        here[s] = value + weight
        from_start.append(here)
        for s, value in here.items():
            if value > best:
                c0, r0 = cells[s]
                if heights is None or min(heights[c0 - 1:c1]) >= max(r0, r1):
                    best = value
    return best


class ChainTable:
    """``longest_chain(f, spec)`` of the fillings f of one shape whose
    entries are below ``2 ** bits``, each read from two fillings of smaller
    entry sum.

    A filling is read by its code with the weights ``_weights(cells,
    bits)`` of the spec's cell order ``cells``, so its last cell x is its
    top digit and its first cell s its lowest.  Every chain runs in that
    order, and steps compose: a cell that may follow b may follow every
    cell that b may follow.  So with pred(x) the cells that may precede x,
    succ(s) those that may follow s, and w the entry for ``entry-sum``
    chains and 1 otherwise,

        L(f) = max(L(f - x), w(x) + L(f & pred(x))).

    A chain's box is spanned by its two ends, so a chain from s fits the
    shape exactly when each of its cells spans a box with s that fits,
    the cells win(s).  With ``require_rectangle``

        R(f) = max(R(f - s), w(s) + L(f & succ(s) & win(s))).

    ``_read`` takes a filling's code, so that callers reading several
    tables of one cell order code each filling once.  The table keeps every
    filling it reads, in any order, and reads a smaller filling it lacks by
    the same recurrence: a nested read drops a nonzero cell, so at most
    MEMO_MAX_CELLS reads are nested.  Read in order of entry sum, as the
    enumeration walk gives them, each memo holds at most the fillings read.
    ``_code_space`` fills the statistic of every 0-1 filling, by the same
    recurrences in increasing code order, into one byte per code.  A shape
    of more than MEMO_MAX_CELLS cells gets no masks (``pred`` is None), and
    ``longest_chain`` reads its fillings.
    """

    def __init__(self, shape, spec: ChainSpec, bits: int):
        self.spec, self.bits = spec, bits
        self.weighted = spec.length_mode == "entry-sum"
        self.shape = shape
        self.cells = cells = _sorted_cells(shape.cells(), spec.upward)
        if shape.n_cells > MEMO_MAX_CELLS:
            self.pred, self._read = None, self._decoded
            return
        digit = {cell: ((1 << bits) - 1) * weight
                 for cell, weight in _weights(cells, bits).items()}
        # col_upto[c] and row_upto[r]: the digits of the cells in columns
        # 1..c and in rows 1..r
        heights = shape.col_heights
        col_upto = [0] * (len(heights) + 2)
        row_upto = [0] * (max(heights, default=0) + 2)
        for (c, r), d in digit.items():
            col_upto[c] |= d
            row_upto[r] |= d
        col_upto = list(accumulate(col_upto, or_))
        row_upto = list(accumulate(row_upto, or_))
        every = col_upto[-1]
        rise, run = spec.min_rise, spec.min_run

        def step_cells(c, r, forward):
            """The cells a chain may step to from (c, r): forward to a later
            cell, or back to an earlier one."""
            if forward:
                cols = every ^ col_upto[c + run - 1]
            else:
                cols = col_upto[c - run]
            up, down = every ^ row_upto[r + rise - 1], row_upto[r - rise]
            return cols & (up if forward == spec.upward else down) & ~digit[c, r]

        self.pred = [step_cells(c, r, False) for c, r in cells]
        self.free, self.bounded = {0: 0}, None
        self._read = self._free
        if spec.require_rectangle:
            # after[i]: the cells that may follow cell i and span a box
            # with it that fits the shape, column by column while the
            # lowest column so far reaches row r
            self.after = []
            for c, r in cells:
                fits, low = 0, heights[c - 1]
                for col in range(c, len(heights) + 1):
                    low = min(low, heights[col - 1])
                    if low < r:
                        break
                    fits |= (col_upto[col] ^ col_upto[col - 1]) & row_upto[low]
                self.after.append(step_cells(c, r, True) & fits)
            self.bounded = {0: 0}
            self._read = self._bounded

    def _decoded(self, code: int) -> int:
        """``longest_chain`` of the filling ``code``, on a shape with no
        masks."""
        entries = _code_entries(code, self.cells, self.bits)
        return longest_chain(_trusted(Filling, shape=self.shape,
                                      entries=entries), self.spec)

    def _free(self, code: int) -> int:
        """L of the filling ``code``."""
        known = self.free
        value = known.get(code)
        if value is None:
            last = (code.bit_length() - 1) // self.bits
            shift = last * self.bits
            rest, before = code & ((1 << shift) - 1), code & self.pred[last]
            value = known.get(before)
            if value is None:
                value = self._free(before)
            value += code >> shift if self.weighted else 1
            other = known.get(rest)
            if other is None:
                other = self._free(rest)
            known[code] = value = value if value > other else other
        return value

    def _bounded(self, code: int) -> int:
        """R of the filling ``code``."""
        known = self.bounded
        value = known.get(code)
        if value is None:
            first = ((code & -code).bit_length() - 1) // self.bits
            shift = first * self.bits
            w = (code >> shift) & ((1 << self.bits) - 1)
            rest, after = code ^ (w << shift), code & self.after[first]
            value = self.free.get(after)
            if value is None:
                value = self._free(after)
            value += w if self.weighted else 1
            other = known.get(rest)
            if other is None:
                other = self._bounded(rest)
            known[code] = value = value if value > other else other
        return value

    def _code_space(self) -> bytearray:
        """The statistic of every 0-1 filling, one byte per code.  L goes
        block by block of one top digit, and R, with ``require_rectangle``,
        slice by slice of one lowest digit, from the highest one down: each
        code is filled after the smaller codes its recurrence reads."""
        size = 1 << len(self.pred)
        free = bytearray(size)
        for last, before in enumerate(self.pred):
            # the codes top + rest, rest < top, read L(rest) and
            # L(rest & before)
            top = 1 << last
            free[top:2 * top] = _max_plus_one(
                free[:top], [free[rest & before] for rest in range(top)])
        if self.bounded is None:
            return free
        bounded = bytearray(size)
        for first in reversed(range(len(self.after))):
            # the codes with lowest digit 1 << first, every step-th from it,
            # read R of the code without it, every step-th from 0
            step, after = 2 << first, self.after[first]
            bounded[1 << first::step] = _max_plus_one(
                bounded[::step], [free[code & after]
                                  for code in range(1 << first, size, step)])
        return bounded


def _weights(cells, bits: int) -> dict:
    """Each cell's weight in a filling's code: ``cells[i]`` weighs
    ``1 << bits * i``, so digit i of ``bits`` bits holds its entry."""
    return {cell: 1 << bits * i for i, cell in enumerate(cells)}


def _code(entries, weights) -> int:
    """The code of a filling's entries: each times its cell's weight."""
    return sum(v * weights[cell] for cell, v in entries.items())


def _code_entries(code: int, cells, bits: int) -> dict:
    """The entries of a code with the entry of ``cells[i]`` in its digit i,
    ``bits`` bits each, in the order of ``cells``.  Only the digits with a
    set bit are decoded, the lowest one first, each in a few operations on
    the code, fewer for a 0-1 filling."""
    entries = {}
    if bits == 1:
        while code:
            low = code & -code
            entries[cells[low.bit_length() - 1]] = 1
            code ^= low
        return entries
    digit = (1 << bits) - 1
    while code:
        i = ((code & -code).bit_length() - 1) // bits
        value = code >> bits * i & digit
        entries[cells[i]] = value
        code ^= value << bits * i
    return entries


def _max_plus_one(without, within) -> bytes:
    """max(a, b + 1) of each pair of the two sequences: a code's value
    without its digit, and one more than the value of the cells its digit
    may join."""
    return bytes([a if a > b else b + 1 for a, b in zip(without, within)])


def greene_totals(f: Filling, spec: ChainSpec, k_max: int, corner=None) -> list:
    """The largest total length of k chains, for k = 1, ..., k_max: the
    size of their union (``count``), the sum of the entries of k disjoint
    chains (``entry-sum``), or the size of their multiset union when a cell
    with entry e may lie in up to e chains (``entry-multiplicity``).
    ``corner=(x, y)`` keeps the cells weakly left of column x and weakly
    below row y; ``require_rectangle`` is not read.

    k chains are a flow of k units from a source through the nonzero cells
    to a sink (Greene--Kleitman; Frank).  Each cell is an in-node and an
    out-node joined by an edge of its capacity and gain, and out(a) leads
    to in(b) wherever b may follow a.  Successive longest augmenting paths,
    one unit each, give the best total for k = 1, 2, ... in turn; once no
    path gains, the total stays.  No growth label is read: this is what
    the labels are checked against.
    """
    cells = _sorted_cells([(c, r) for c, r in f.entries if corner is None
                           or (c <= corner[0] and r <= corner[1])],
                          spec.upward)
    # node 2i is cell i's in-node and 2i + 1 its out-node; -2 is the
    # source and -1 the sink
    cap, gain, out = {}, {}, defaultdict(list)

    def edge(a, b, capacity, g):
        cap[a, b], cap[b, a], gain[a, b], gain[b, a] = capacity, 0, g, -g
        out[a].append(b)
        out[b].append(a)

    for i, cell in enumerate(cells):
        e = f.entries[cell]
        edge(-2, 2 * i, k_max, 0)
        edge(2 * i, 2 * i + 1,
             min(e, k_max) if spec.length_mode == "entry-multiplicity" else 1,
             e if spec.length_mode == "entry-sum" else 1)
        edge(2 * i + 1, -1, k_max, 0)
        for j in range(i + 1, len(cells)):
            if spec.step_ok(cell, cells[j]):
                edge(2 * i + 1, 2 * j, k_max, 0)
    totals = [0]
    while len(totals) <= k_max:
        # Bellman-Ford, queue-driven: the residual graph has no cycle of
        # positive gain
        best, via, queue = {-2: 0}, {}, deque([-2])
        while queue:
            u = queue.popleft()
            for v in out[u]:
                if cap[u, v] and best[u] + gain[u, v] > best.get(v, -inf):
                    best[v], via[v] = best[u] + gain[u, v], u
                    if v not in queue:
                        queue.append(v)
        if best.get(-1, 0) <= 0:
            break
        v = -1
        while v != -2:
            u = via[v]
            cap[u, v] -= 1
            cap[v, u] += 1
            v = u
        totals.append(totals[-1] + best[-1])
    return totals[1:] + totals[-1:] * (k_max + 1 - len(totals))
