"""Brute-force counts and plain reference versions that the tests check the
library against; nothing in ``src/`` calls them."""

from itertools import accumulate

from growthdiagrams.correspondences import all_matchings, cross
from growthdiagrams.enumeration import all_fillings
from growthdiagrams.fillings import ZERO_ONE, Filling, chain_spec, longest_chain
from growthdiagrams.local_rules import get_variant
from growthdiagrams.shapes import FerrersShape


def count_noncrossing_matchings(n: int) -> int:
    """Matchings of {1..2n} with no 2-crossing, counted by brute force."""
    return sum(cross(m.as_set_partition()) <= 1 for m in all_matchings(n))


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
