"""A textbook Robinson-Schensted-Knuth correspondence on two-rowed arrays,
the oracle of the library's insertion engine (``insertion.insertion_border``
and ``deletion_entries``).  It imports nothing from ``growthdiagrams`` and
has its own bump loops, so that a fault of the engine is not repeated here.

A filling of a p x q rectangle, a dict {(col, row): m}, is a two-rowed
array: an entry m in column c and row r (from the bottom) gives m pairs
(top=c, bottom=r).  The tops weakly increase; under equal tops the bottoms
weakly increase ('weak' ordering) or weakly decrease ('dec' ordering).
Each bottom in turn is inserted into P, by row or by column bumping, and
its top is recorded in Q at the square P grew by.  Tableaux are tuples of
rows.  The column-insertion variants build the transposed pair.
"""

from dataclasses import dataclass

ORDERINGS = ("weak", "dec")


# ---------------------------------------------------------------------------
# the two-rowed array and its two orderings

@dataclass(frozen=True)
class TwoRowedArray:
    pairs: tuple          # ((top, bottom), ...)
    ordering: str         # 'weak' | 'dec'

    def __post_init__(self):
        if self.ordering not in ORDERINGS:
            raise ValueError(f"unknown ordering {self.ordering!r}; choose "
                             f"from {ORDERINGS}")
        pairs = tuple(tuple(pair) for pair in self.pairs)
        for pair in pairs:
            for x in pair:
                if type(x) is not int:
                    raise ValueError(f"{x!r} in {pair!r} is not an integer")
        for (a1, b1), (a2, b2) in zip(pairs, pairs[1:]):
            if a1 > a2:
                raise ValueError("top entries must be weakly increasing")
            if a1 == a2 and self.ordering == "weak" and b1 > b2:
                raise ValueError("bottoms under equal tops must weakly "
                                 "increase")
            if a1 == a2 and self.ordering == "dec" and b1 < b2:
                raise ValueError("bottoms under equal tops must decrease")
        object.__setattr__(self, "pairs", pairs)


def biword(entries, ordering: str = "weak") -> TwoRowedArray:
    """The two-rowed array of the entries {(col, row): m} of a filling, in
    the ``ordering``."""
    pairs = [cell for cell, m in entries.items() for _ in range(m)]
    if ordering == "dec":
        pairs.sort(key=lambda cr: (cr[0], -cr[1]))
    else:
        pairs.sort()
    return TwoRowedArray(tuple(pairs), ordering)


# ---------------------------------------------------------------------------
# row and column bumping

def _rows(rows):
    return tuple(tuple(row) for row in rows)


def row_insert(rows, x):
    """Row insertion: x displaces the leftmost entry of the first row that
    is greater than x, which goes on to the next row the same way, until
    an entry ends a row.  Returns (new rows, (row, col)), the 1-based
    square the tableau grew by."""
    rows = [list(row) for row in rows]
    for i, row in enumerate(rows):
        for j, y in enumerate(row):
            if y > x:
                row[j], x = x, y
                break
        else:
            row.append(x)
            return _rows(rows), (i + 1, len(row))
    rows.append([x])
    return _rows(rows), (len(rows), 1)


def column_insert(rows, x):
    """Column insertion: x displaces the topmost entry of the first column
    that is at least x, which goes on to the next column the same way,
    until an entry ends a column.  Returns what ``row_insert`` returns."""
    rows = [list(row) for row in rows]
    j = 0
    while True:
        column = [row[j] for row in rows if len(row) > j]
        for i, y in enumerate(column):
            if y >= x:
                rows[i][j], x = x, y
                break
        else:
            i = len(column)
            if i == len(rows):
                rows.append([])
            rows[i].append(x)
            return _rows(rows), (i + 1, j + 1)
        j += 1


def transpose_tableau(rows):
    """The tableau reflected in its main diagonal."""
    if not rows:
        return ()
    return tuple(tuple(row[j] for row in rows if len(row) > j)
                 for j in range(len(rows[0])))


# ---------------------------------------------------------------------------
# recording, and the four strip variants

# each strip variant's ordering and bumping
VARIANTS = {"rsk": ("weak", row_insert),
            "dual-rsk": ("weak", column_insert),
            "rsk-prime": ("dec", row_insert),
            "dual-rsk-prime": ("dec", column_insert)}


def insertion_pair(array: TwoRowedArray, variant: str):
    """The variant's pair (P, Q) of the array, built as the transposed pair
    for the column-insertion variants: each bottom is inserted into P, and
    its top is recorded in Q at the square P grew by."""
    ordering, insert = VARIANTS[variant]
    if array.ordering != ordering:
        raise ValueError(f"{variant} insertion expects the {ordering} "
                         f"ordering")
    p, q = (), []
    for top, bottom in array.pairs:
        p, (i, j) = insert(p, bottom)
        if i > len(q):
            q.append([])
        if len(q[i - 1]) != j - 1:
            raise ValueError("recording square is not at the end of its row")
        q[i - 1].append(top)
    return p, _rows(q)


def _shape_at_most(rows, y):
    """The shape of the entries at most y of a tableau whose rows and
    columns weakly increase."""
    return tuple(n for n in (sum(1 for x in row if x <= y) for row in rows)
                 if n)


def border_chain(entries, variant: str, q_cols: int, p_rows: int) -> list:
    """The border labels of the growth diagram of a filling of the p_rows x
    q_cols rectangle, read along R^q_cols D^p_rows: the shapes of Q's
    entries at most x for x = 0..q_cols, then those of P's entries at most
    y for y = p_rows - 1 down to 0.  The column-insertion variants build
    the transposed pair, which is transposed back first."""
    ordering, insert = VARIANTS[variant]
    p, q = insertion_pair(biword(entries, ordering), variant)
    if insert is column_insert:
        p, q = transpose_tableau(p), transpose_tableau(q)
    return ([_shape_at_most(q, x) for x in range(q_cols + 1)]
            + [_shape_at_most(p, y) for y in range(p_rows - 1, -1, -1)])
