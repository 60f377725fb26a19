"""Row and column insertion, the four tableau correspondences they
implement, and the border labels of a growth diagram on a Ferrers shape
computed by insertion and inverted by deletion.

A filling of a p x q rectangle turns into a two-rowed array: an entry m in
column j and row i (from the bottom) contributes m pairs (top=j,
bottom=i).  Pairs are ordered with weakly increasing top entries; under
equal tops the bottoms are either weakly increasing ('weak' ordering) or
weakly decreasing ('dec' ordering).

Tableaux are stored as tuples of rows.  The column-insertion variants
naturally build the transposed tableaux; their results are returned as
built, and callers transpose as needed.

On any Ferrers shape, a growth diagram whose bottom and left labels are
empty is the record of an insertion (Krattenthaler, arXiv:math/0510676;
Chen-Deng-Du-Stanley-Yan, arXiv:math/0501230): insert each column's
entries, column by column, into one tableau, and the label of corner
(x, y) is the shape of the entries at most y once columns 1..x are in.
``insertion_border`` reads the border labels so, and ``deletion_entries``
walks the border back, adding each down step's squares and reverse-bumping
each right step's squares, to recover the filling.  The variant's step
kinds choose the rules: a vertical-strip down step bumps the first entry
at least the new one (rows strictly increase), any other the first entry
greater than it (columns strictly increase); a vertical-strip right step
inserts a column's entries from its top row down, any other from its
bottom row up.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .fillings import Filling
from .partitions import int_tuple, part


@dataclass(frozen=True)
class TwoRowedArray:
    pairs: tuple          # ((top, bottom), ...)
    ordering: str         # 'weak' | 'dec'

    def __post_init__(self):
        if self.ordering not in ("weak", "dec"):
            raise ValueError(f"unknown ordering {self.ordering!r}; choose "
                             f"from ('weak', 'dec')")
        pairs = tuple(int_tuple((a, b)) for a, b in self.pairs)
        tops = [a for a, _ in pairs]
        if tops != sorted(tops):
            raise ValueError("top entries must be weakly increasing")
        for (a1, b1), (a2, b2) in zip(pairs, pairs[1:]):
            if a1 == a2:
                if self.ordering == "weak" and b1 > b2:
                    raise ValueError("bottoms under equal tops must weakly increase")
                if self.ordering == "dec" and b1 < b2:
                    raise ValueError("bottoms under equal tops must decrease")
        object.__setattr__(self, "pairs", pairs)


def biword_from_filling(f: Filling, ordering: str = "weak") -> TwoRowedArray:
    pairs = []
    for (c, r), v in f.entries.items():
        pairs.extend([(c, r)] * v)
    reverse = ordering == "dec"
    pairs.sort(key=lambda ab: (ab[0], -ab[1] if reverse else ab[1]))
    return TwoRowedArray(tuple(pairs), ordering)


def transpose_tableau(rows):
    rows = [list(r) for r in rows]
    if not rows:
        return ()
    return tuple(tuple(row[i] for row in rows if i < len(row))
                 for i in range(len(rows[0])))


def _insert(rows, x, bump=bisect_right):
    """Insert x into ``rows``, a tableau as a list of lists, in place.  In
    each row x displaces the entry at ``bump(row, x)`` (for bisect_right
    the first entry greater than x, for bisect_left the first at least x)
    and goes on to the next row with it, until it ends a row.  Returns the
    0-based row the tableau grew in."""
    for i, row in enumerate(rows):
        pos = bump(row, x)
        if pos == len(row):
            row.append(x)
            return i
        x, row[pos] = row[pos], x
    rows.append([x])
    return len(rows) - 1


def _unbump(rows, i, bump=bisect_right):
    """Undo, in place, the ``_insert`` with ``bump`` that ended row i of
    ``rows``: take the last entry of row i, and in each row before it put
    it back in place of the entry that displaced it there (the last entry
    less than it for bisect_right, at most it for bisect_left), which goes
    on to the row before.  Returns the entry that leaves the first row."""
    row = rows[i]
    x = row.pop()
    if not row:
        rows.pop()
    unbump = bisect_left if bump is bisect_right else bisect_right
    for j in range(i - 1, -1, -1):
        row = rows[j]
        pos = unbump(row, x) - 1
        x, row[pos] = row[pos], x
    return x


def row_insert(rows, x):
    """Insert x by row bumping (displace the first entry strictly larger).

    Returns (new rows, (row, col)) with the 1-based position of the new cell.
    """
    rows = [list(r) for r in rows]
    i = _insert(rows, x)
    return tuple(tuple(r) for r in rows), (i + 1, len(rows[i]))


def column_insert(rows, x):
    """Insert x by column bumping (displace the first entry >= x, moving
    rightward through the columns): row insertion with bisect_left into
    the columns.  Returns (new rows, (row, col)) as ``row_insert`` does."""
    cols = [list(c) for c in transpose_tableau(rows)]
    j = _insert(cols, x, bisect_left)
    return transpose_tableau(cols), (len(cols[j]), j + 1)


def _record(q_rows, cell, value):
    q = [list(r) for r in q_rows]
    i, j = cell
    while len(q) < i:
        q.append([])
    if len(q[i - 1]) != j - 1:
        raise ValueError("recording cell is not at the end of its row")
    q[i - 1].append(value)
    return tuple(tuple(r) for r in q)


def _insert_pairs(arr: TwoRowedArray, insert):
    p, q = (), ()
    for top, bottom in arr.pairs:
        p, cell = insert(p, bottom)
        q = _record(q, cell, top)
    return p, q


def rsk_insert(arr: TwoRowedArray):
    """Row insertion on a weakly ordered array; both tableaux semistandard."""
    if arr.ordering != "weak":
        raise ValueError("rsk insertion expects the weak ordering")
    return _insert_pairs(arr, row_insert)


def dual_rsk_insert(arr: TwoRowedArray):
    """Column insertion on a weakly ordered array; returns the transposed
    pair (P^t, Q^t)."""
    if arr.ordering != "weak":
        raise ValueError("dual rsk insertion expects the weak ordering")
    return _insert_pairs(arr, column_insert)


def rsk_prime_insert(arr: TwoRowedArray):
    """Row insertion on a strictly decreasing-ordered array; P is
    semistandard, Q transposes to semistandard."""
    if arr.ordering != "dec":
        raise ValueError("rsk-prime insertion expects the decreasing ordering")
    return _insert_pairs(arr, row_insert)


def dual_rsk_prime_insert(arr: TwoRowedArray):
    """Column insertion on a decreasing-ordered array; returns (P^t, Q^t)."""
    if arr.ordering != "dec":
        raise ValueError("dual rsk-prime insertion expects the decreasing ordering")
    return _insert_pairs(arr, column_insert)


# ---------------------------------------------------------------------------
# the same pairs read off a growth diagram of a rectangle

def _array_from_chain(chain):
    """Fill the squares of a growing chain of partitions: the squares added
    at step i all receive the entry i."""
    rows = {}
    for i in range(1, len(chain)):
        smaller, bigger = chain[i - 1], chain[i]
        for r in range(1, len(bigger) + 1):
            for c in range(part(smaller, r) + 1, part(bigger, r) + 1):
                rows.setdefault(r, {})[c] = i
    out = []
    for r in range(1, max(rows, default=0) + 1):
        row = rows.get(r, {})
        out.append(tuple(row[c] for c in range(1, max(row, default=0) + 1)))
    return tuple(out)


def border_pair(tableau_seq, q_cols: int):
    """Split a border sequence of a q_cols-wide rectangle (read along
    R^q D^p) into the recording and insertion tableaux (Q, P)."""
    up = tableau_seq[: q_cols + 1]
    down = tableau_seq[q_cols:]
    q = _array_from_chain(up)
    p = _array_from_chain(tuple(reversed(down)))
    return p, q


# ---------------------------------------------------------------------------
# the border of a growth diagram on a Ferrers shape, by insertion and
# deletion

def insertion_border(heights, entries, right: str, down: str) -> list:
    """The border labels, top-left to bottom-right, of the growth diagram
    with empty bottom and left labels of the filling ``entries`` (a dict
    (col, row) -> m) under rules with step kinds ``right`` and ``down``.
    ``heights`` holds the column heights of the reading word, column 0
    (the left side) first; a padded word's zero-height columns are 0.

    Column x's entries go into the tableau, m copies of row r for an entry
    m in cell (x, r); then the border corners of column x, from its top
    (x, heights[x]) down to (x, heights[x + 1]), read off the shapes of
    the entries up to their height."""
    bump = bisect_left if down == "V" else bisect_right
    cols = [[] for _ in heights]
    for (c, r), m in sorted(entries.items()):
        cols[c] += [r] * m
    tab, seq = [], []
    for h, low, col in zip(heights, heights[1:] + [0], cols):
        for r in reversed(col) if right == "V" else col:
            _insert(tab, r, bump)
        for y in range(h, low - 1, -1):
            label = []
            for row in tab:
                n = bisect_right(row, y)
                if not n:
                    break
                label.append(n)
            seq.append(tuple(label))
    return seq


def deletion_entries(heights, seq, right: str, down: str) -> dict:
    """The filling whose ``insertion_border`` is ``seq``, as a dict of
    entries, for a border ``seq`` that starts and ends at the empty
    partition and whose steps are valid of the kinds ``right`` and
    ``down``.

    The border is walked back from the bottom-right corner, with a tableau
    of the shape of the corner reached.  Going up column x from (x, y - 1)
    to (x, y), the squares label(x, y)/label(x, y - 1) take the entry y.
    Going left from (x, h) to (x - 1, h), the squares label(x, h)/label(x -
    1, h) are reverse-bumped, the last inserted first: for a vertical
    strip the square in the last row first, for any other step the
    rightmost square first, which is the first row's last one.  Each entry
    r that leaves the tableau adds 1 to the entry of cell (x, r)."""
    bump = bisect_left if down == "V" else bisect_right
    tab, entries = [], {}
    i = len(seq) - 1
    for x in range(len(heights) - 1, -1, -1):
        low = heights[x + 1] if x + 1 < len(heights) else 0
        for y in range(low + 1, heights[x] + 1):
            lam, mu = seq[i - 1], seq[i]
            i -= 1
            if lam != mu:
                for k, n in enumerate(lam):
                    if k == len(tab):
                        tab.append([])
                    row = tab[k]
                    row += [y] * (n - len(row))
        if not x:
            break
        outer, inner = seq[i], seq[i - 1]
        i -= 1
        if outer == inner:
            continue
        inner += (0,) * (len(outer) - len(inner))
        rows = range(len(outer))
        for k in reversed(rows) if right == "V" else rows:
            for _ in range(outer[k] - inner[k]):
                cell = x, _unbump(tab, k, bump)
                entries[cell] = entries.get(cell, 0) + 1
    return entries
