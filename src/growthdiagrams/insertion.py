"""The border labels of a growth diagram on a Ferrers shape, computed by
Schensted insertion and inverted by deletion: the library's one insertion
engine.  A tableau is a list of rows, each a list of entries, changed in
place.

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
bottom row up.  The tests check both directions against a textbook RSK of
two-rowed arrays with a bump loop of its own (``tests/rsk_oracle.py``).
"""

from bisect import bisect_left, bisect_right


def _insert(rows, x, bump):
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


def _unbump(rows, i, bump):
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
