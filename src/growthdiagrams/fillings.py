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
the tests check it against an exhaustive search over all chains, and
everything else against it.  The enumerations read the same statistics
from ``_Chains``, whose patience states take a filling's columns in turn,
so a walk that goes column by column carries them down; a full table of
0-1 fillings reads them over the code space (``_code_space``).  No growth
code is imported here: the statistics are what the labels are checked
against.
"""

import json
from collections import defaultdict, deque
from math import inf
from dataclasses import dataclass, field

from .shapes import shape_from_word

ARBITRARY = "arbitrary"
ZERO_ONE = "zero-one"
PARTIAL_PERMUTATION = "partial-permutation"

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


def _chain_keys(spec: ChainSpec):
    """The keys P and Q of a cell (c, r) under the spec: b may follow a
    exactly when both rise.  With u = r for an upward spec and -r for a
    downward one, P = (c, u), or (c, -u) for a strict run, and Q = (u, c),
    or (u, -c) for a strict rise."""
    u = 1 if spec.upward else -1
    run, rise = -1 if spec.min_run else 1, -1 if spec.min_rise else 1
    return (lambda cell: (cell[0], run * u * cell[1]),
            lambda cell: (u * cell[1], rise * cell[0]))


class _Chains:
    """The statistics of a tuple of specs for the fillings of one shape,
    entries below ``2 ** bits``, carried column by column.  A longest chain
    is a longest strictly increasing run of ``_chain_keys``: the cells go
    in P order, a column at a time, up it or down it, each as its Q rank
    (an ``entry-sum`` entry m as m consecutive ranks) into a patience
    state, one int, where rank q clears the lowest bit at or above q and
    sets bit q, and the bit count is the run's length.  A chain fits the
    shape exactly when it lies in one maximal rectangle, so a
    rectangle-bounded spec keeps a state per distinct column height h, of
    the cells (c, r) with r <= h <= the height of column c.  A state list
    holds each spec's statistic so far, then the states; nothing is kept
    between fillings."""

    def __init__(self, shape, specs, bits: int = 1):
        heights, cells = shape.col_heights, shape.cells()
        # each cell's (slot, rank, spec, weighted) inserts into the states
        # that take a column up, and into those that take it down
        inserts = {cell: ([], []) for cell in cells}
        slot, copies = len(specs), max((1 << bits) - 1, 1)
        for i, spec in enumerate(specs):
            weighted = spec.length_mode == "entry-sum"
            rank = {cell: q * (copies if weighted else 1) for q, cell in
                    enumerate(sorted(cells, key=_chain_keys(spec)[1]))}
            for h in sorted(set(heights)) if spec.require_rectangle else [0]:
                for c, r in cells:
                    if not h or r <= h <= heights[c - 1]:
                        inserts[c, r][spec.upward == bool(spec.min_run)] \
                            .append((slot, rank[c, r], i, weighted))
                slot += 1
        self.count, self.start = len(specs), [0] * slot
        # columns[c][r]: the inserts of cell (c, r) up, down, and both
        self.columns = {}
        for (c, _), (up, down) in inserts.items():
            self.columns.setdefault(c, [None]).append(
                (tuple(up), tuple(down), tuple(up + down)))

    def update(self, st: list, column: int, chosen) -> list:
        """A new state list: ``st`` with the cells (row, entry) ``chosen``
        of one column, rows ascending, inserted."""
        st = st.copy()
        inserts = self.columns[column]
        for side, order in (((2, chosen),) if len(chosen) == 1 else
                            ((0, chosen), (1, chosen[::-1]))):
            for r, v in order:
                for slot, q, i, weighted in inserts[r][side]:
                    s = st[slot]
                    high = s >> q
                    if weighted and v > 1:
                        # ranks q to q + v - 1: the v lowest bits at or
                        # above q go, and bits q to q + v - 1 come
                        rest = high if high.bit_count() > v else 0
                        for _ in range(v if rest else 0):
                            rest &= rest - 1
                        st[slot] = s = s ^ (high ^ rest ^ (1 << v) - 1) << q
                        if rest:
                            continue
                    elif high:
                        # the lowest bit at or above q moves down to q
                        st[slot] = s ^ (high & -high ^ 1) << q
                        continue
                    else:
                        st[slot] = s = s | 1 << q
                    if s.bit_count() > st[i]:
                        st[i] = s.bit_count()
        return st

    def last(self, st: list, column: int, row: int) -> tuple:
        """The statistics of ``st`` with one more cell, of entry 1: a state
        grows only if no bit is at or above the rank."""
        out = st[:self.count]
        for slot, q, i, _ in self.columns[column][row][2]:
            s = st[slot]
            if not s >> q and s.bit_count() == st[i]:
                out[i] = st[i] + 1
        return tuple(out)

    def stats(self, entries: dict) -> tuple:
        """The statistics of the filling with these entries, by columns."""
        st, column, chosen = self.start, 0, ()
        for (c, r), v in sorted(entries.items()):
            if c != column and chosen:
                st, chosen = self.update(st, column, chosen), ()
            column, chosen = c, chosen + ((r, v),)
        return tuple((self.update(st, column, chosen) if chosen else st)
                     [:self.count])


def _code_space(shape, spec: ChainSpec) -> bytearray:
    """``longest_chain(f, spec)`` of every 0-1 filling f, one byte per code
    of the weights ``_weights(cells, 1)`` of the spec's cell order
    ``cells``.  With x the code's last cell and s its first, pred(x) the
    cells that may precede x, succ(s) those that may follow s and win(s)
    those whose box with s fits the shape (masks of O(cells ** 2) bits),

        L(f) = max(L(f - x), 1 + L(f & pred(x))),
        R(f) = max(R(f - s), 1 + L(f & succ(s) & win(s))),

    L block by block of one top digit and R, with ``require_rectangle``,
    slice by slice of one lowest digit from the highest down, so that each
    code is filled after the smaller codes it reads.  Both shape kinds have
    unimodal columns, so the box of (c, r) and (c', r') fits exactly when
    r is at most the height of column c' and r' at most that of c."""
    cells, heights = _sorted_cells(shape.cells(), spec.upward), shape.col_heights
    p_key, q_key = _chain_keys(spec)
    keys = [(p_key(cell), q_key(cell), cell) for cell in cells]
    size = 1 << len(cells)
    free = bytearray(size)
    for last, (p, q, _) in enumerate(keys):
        # the codes top + rest, rest < top, read L(rest) and L(rest & pred)
        top = 1 << last
        pred = sum(1 << i for i, (p0, q0, _) in enumerate(keys)
                   if p0 < p and q0 < q)
        free[top:2 * top] = _max_plus_one(
            free[:top], [free[rest & pred] for rest in range(top)])
    if not spec.require_rectangle:
        return free
    bounded = bytearray(size)
    for first in reversed(range(len(cells))):
        # the codes with lowest digit 1 << first, every step-th from it,
        # read R of the code without it, every step-th from 0
        p, q, (c, r) = keys[first]
        after = sum(1 << i for i, (p1, q1, (c1, r1)) in enumerate(keys)
                    if p < p1 and q < q1 and r <= heights[c1 - 1]
                    and r1 <= heights[c - 1])
        step = 2 << first
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
