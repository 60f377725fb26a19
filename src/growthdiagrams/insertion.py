"""Row and column insertion, and the four tableau correspondences they
implement for fillings of rectangles.

A filling of a p x q rectangle turns into a two-rowed array: an entry m in
column j and row i (from the bottom) contributes m pairs (top=j,
bottom=i).  Pairs are ordered with weakly increasing top entries; under
equal tops the bottoms are either weakly increasing ('weak' ordering) or
weakly decreasing ('dec' ordering).

Tableaux are stored as tuples of rows.  The column-insertion variants
naturally build the transposed tableaux; their results are returned as
built, and callers transpose as needed.
"""

from bisect import bisect_right
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


def row_insert(rows, x):
    """Insert x by row bumping (displace the first entry strictly larger).

    Returns (new rows, (row, col)) with the 1-based position of the new cell.
    """
    rows = [list(r) for r in rows]
    i = 0
    while True:
        if i == len(rows):
            rows.append([x])
            return tuple(tuple(r) for r in rows), (i + 1, 1)
        pos = bisect_right(rows[i], x)
        if pos == len(rows[i]):
            rows[i].append(x)
            return tuple(tuple(r) for r in rows), (i + 1, pos + 1)
        x, rows[i][pos] = rows[i][pos], x
        i += 1


def column_insert(rows, x):
    """Insert x by column bumping (displace the first entry >= x, moving
    rightward through the columns)."""
    rows = [list(r) for r in rows]
    j = 0
    while True:
        col = [(i, rows[i][j]) for i in range(len(rows)) if j < len(rows[i])]
        hit = next(((i, v) for i, v in col if v >= x), None)
        if hit is None:
            i = next((i for i in range(len(rows)) if len(rows[i]) == j), len(rows))
            if i == len(rows):
                rows.append([])
            rows[i].append(x)
            return tuple(tuple(r) for r in rows), (i + 1, j + 1)
        i, v = hit
        rows[i][j] = x
        x = v
        j += 1


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
