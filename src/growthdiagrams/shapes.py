"""Ferrers shapes in French notation, plus stack polyominoes.

A Ferrers shape is a left- and bottom-justified arrangement of unit cells
whose row lengths, read from the bottom up, are weakly decreasing.  Cells
are addressed as (col, row), both 1-based, with row 1 at the bottom.

The right/up boundary of a shape is encoded as a word over {D, R}, traced
from the top-left end to the bottom-right end: R moves one cell to the
right, D moves one cell down.
"""

import os
from dataclasses import dataclass, field
from functools import cached_property

from .partitions import (_check_n, conjugate, int_tuple, make_partition,
                         parse_int)

DEFAULT_HARD_WALL = 10 ** 7


class InstanceTooLarge(Exception):
    """Raised when an enumeration generates more than ``budget_limit()``
    items, or a shape's text asks for a row, or a stack's text for a
    column, longer than that."""


def budget_limit() -> int:
    """The most fillings or set partitions one enumeration may generate,
    and the longest row or column a shape's or stack's text may ask for
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


def _column_cells(col_heights):
    """Cells of bottom-justified columns, column-major (col, then row, ascending)."""
    return [(c, r) for c, height in enumerate(col_heights, 1)
            for r in range(1, height + 1)]


@dataclass(frozen=True)
class FerrersShape:
    """Row lengths from the bottom up (weakly decreasing, positive)."""

    rows: tuple[int, ...]
    # derived from rows once; equality, hashing and repr use rows alone
    col_heights: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rows", make_partition(self.rows))
        object.__setattr__(self, "col_heights", conjugate(self.rows))

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return self.rows[0] if self.rows else 0

    @property
    def n_cells(self) -> int:
        return sum(self.rows)

    def col_height(self, c: int) -> int:
        return self.col_heights[c - 1] if 1 <= c <= len(self.col_heights) else 0

    def __contains__(self, cell) -> bool:
        c, r = cell
        return 1 <= r <= self.n_rows and 1 <= c <= self.rows[r - 1]

    def cells(self):
        """All cells in column-major order (col, then row, ascending)."""
        return _column_cells(self.col_heights)

    @cached_property
    def word(self) -> str:
        """The boundary word, computed once per shape."""
        out = []
        x = 0
        for length in reversed(self.rows):
            out.append("R" * (length - x))
            out.append("D")
            x = length
        return "".join(out)

    def transpose(self) -> "FerrersShape":
        return FerrersShape(self.col_heights)

    def is_symmetric(self) -> bool:
        return self.rows == self.col_heights

    def __str__(self) -> str:
        return self.word or "(empty)"


def parse_word(word: str):
    """Decode a D/R reading word into (rows, n_cols).

    ``rows`` gives the row lengths from the bottom up and keeps the
    zero-length top rows of leading D steps; ``n_cols`` counts every R
    step, trailing ones included.
    """
    lengths_top_down = []
    x = 0
    for step in word:
        if step == "R":
            x += 1
        elif step == "D":
            lengths_top_down.append(x)
        else:
            raise ValueError(f"boundary word may only contain D and R: {word!r}")
    return tuple(reversed(lengths_top_down)), x


def shape_from_word(word: str) -> FerrersShape:
    """Decode a D/R boundary word.

    Zero-length rows (D steps before any R) and zero-height columns
    (R steps after the last D) are normalized away.
    """
    return FerrersShape(parse_word(word)[0])


def shape_from_text(text: str) -> FerrersShape:
    """Read a shape given either as a boundary word or as 'h1,h2,...' row
    lengths; a row longer than ``budget_limit()`` cells is refused with
    InstanceTooLarge before the shape is built."""
    text = text.strip()
    if not text:
        return FerrersShape(())
    if set(text) <= {"D", "R"}:
        return shape_from_word(text)
    rows = sorted((parse_int(x, text) for x in text.split(",")), reverse=True)
    # a row of k digits asks for up to 10 ** k columns, so the row length,
    # not the text, bounds the work of building the shape
    wall = budget_limit()
    if rows[0] > wall:
        raise InstanceTooLarge(f"shape {text!r} has a row of more than "
                               f"{wall} cells")
    return FerrersShape(tuple(rows))


def staircase(n: int) -> FerrersShape:
    """Triangular shape with n-1 cells in the bottom row down to 1 at the top."""
    _check_n(n, "a staircase needs")
    return FerrersShape(tuple(range(n - 1, 0, -1)))


@dataclass(frozen=True)
class StackPolyomino:
    """Columns of cells, bottom-justified, with unimodal column heights."""

    col_heights: tuple[int, ...]

    def __post_init__(self):
        h = int_tuple(self.col_heights)
        if any(x <= 0 for x in h):
            raise ValueError(f"column heights must be positive: {h}")
        if h:
            peak = h.index(max(h))
            rising, falling = h[: peak + 1], h[peak:]
            if any(a > b for a, b in zip(rising, rising[1:])) or \
               any(a < b for a, b in zip(falling, falling[1:])):
                raise ValueError(f"column heights must be unimodal: {h}")
        object.__setattr__(self, "col_heights", h)

    @property
    def n_cols(self) -> int:
        return len(self.col_heights)

    @property
    def n_rows(self) -> int:
        return max(self.col_heights, default=0)

    @property
    def n_cells(self) -> int:
        return sum(self.col_heights)

    def __contains__(self, cell) -> bool:
        c, r = cell
        return 1 <= c <= self.n_cols and 1 <= r <= self.col_heights[c - 1]

    def cells(self):
        return _column_cells(self.col_heights)

    def sort_columns(self) -> FerrersShape:
        """Rearrange the columns into decreasing height order."""
        heights = tuple(sorted(self.col_heights, reverse=True))
        return FerrersShape(conjugate(heights))

    def __str__(self) -> str:
        return ",".join(str(h) for h in self.col_heights)


def stack_from_text(text: str) -> StackPolyomino:
    """Read a stack polyomino given as 'h1,h2,...' column heights; a column
    taller than ``budget_limit()`` cells is refused with InstanceTooLarge
    before the polyomino is built."""
    heights = tuple(parse_int(x, text) for x in text.strip().split(","))
    # as for a shape's rows: a height of k digits asks for up to 10 ** k cells
    wall = budget_limit()
    if max(heights) > wall:
        raise InstanceTooLarge(f"stack {text!r} has a column of more than "
                               f"{wall} cells")
    return StackPolyomino(heights)
