"""Growth diagrams on Ferrers shapes.

A growth diagram assigns a partition label to every lattice corner of a
shape so that each cell obeys the local rules of its variant.  Labels are
kept in a dict keyed by corner coordinates (x, y): corner (x, y) is the
point x cells from the left and y cells up from the bottom.

The reading word may carry extra leading D steps and trailing R steps
beyond the normalized boundary word of the shape; these encode zero-length
rows at the top and zero-height columns at the right, which contribute
extra border corners (used e.g. when a staircase is read with a word of
length 2n).
"""

import json
from dataclasses import dataclass, field
from itertools import accumulate

from .fillings import Filling, filling_class, in_class, int_lists
from .local_rules import get_variant
from .partitions import (checked_partition, conjugate, differs_by_one_square,
                         make_partition)
from .shapes import FerrersShape, parse_word

EMPTY = ()


# Frames repeat heavily on small diagrams, so label_diagram and reconstruct
# look the local rules up in one memo there, keyed by (variant, direction,
# frame).  It holds only results of calls that returned, so every distinct
# frame goes once through the full checked rule, and it stops growing at
# MEMO_MAX_ENTRIES.  Diagrams over MEMO_MAX_CELLS cells rarely repeat a frame
# and bypass it.  The rules in local_rules.VARIANT_TABLE stay uncached.
MEMO_MAX_CELLS = 64
MEMO_MAX_ENTRIES = 4096
_MEMO = {}


def _rule(v, direction: str, n_cells: int):
    """The variant's forward or backward rule, through the memo for a diagram
    of at most MEMO_MAX_CELLS cells."""
    rule = getattr(v, direction)
    if n_cells > MEMO_MAX_CELLS:
        return rule
    variant = v.name

    def memoised(*frame):
        key = (variant, direction, frame)
        out = _MEMO.get(key)
        if out is None:
            out = rule(*frame)
            if len(_MEMO) < MEMO_MAX_ENTRIES:
                _MEMO[key] = out
        return out
    return memoised


def trace_corners(rows, n_cols: int):
    """The corner points visited by the reading word that ``parse_word``
    decodes into (rows, n_cols), top-left to bottom-right."""
    pts, x = [], 0
    for y in range(len(rows), -1, -1):
        width = rows[y - 1] if y else n_cols
        pts.extend((i, y) for i in range(x, width + 1))
        x = width
    return pts


@dataclass(frozen=True)
class GrowthTableau:
    """A sequence of partitions read along a boundary word."""

    word: str
    seq: tuple
    variant: str = "standard"

    def __post_init__(self):
        parse_word(self.word)
        object.__setattr__(self, "seq", tuple(make_partition(p) for p in self.seq))
        if len(self.seq) != len(self.word) + 1:
            raise ValueError(
                f"need {len(self.word) + 1} partitions for word {self.word!r}, "
                f"got {len(self.seq)}")

    def validate_steps(self):
        v = get_variant(self.variant)
        for i, step in enumerate(self.word):
            prev, nxt = self.seq[i], self.seq[i + 1]
            if not v.step_ok(step, prev, nxt):
                raise ValueError(
                    f"step {i + 1} ({step}) from {prev} to {nxt} is not a valid "
                    f"{self.variant} step")

    def conjugate(self) -> "GrowthTableau":
        return _trusted_tableau(self.word, tuple(map(conjugate, self.seq)),
                                get_variant(self.variant).conjugate)


def _trusted_tableau(word: str, seq: tuple, variant: str) -> GrowthTableau:
    """A GrowthTableau of labels the growth layer computed itself, which are
    partitions already and match the word; outside input goes through the
    checking constructor instead."""
    t = object.__new__(GrowthTableau)
    object.__setattr__(t, "word", word)
    object.__setattr__(t, "seq", seq)
    object.__setattr__(t, "variant", variant)
    return t


def tableau_to_json(t: GrowthTableau) -> str:
    return json.dumps({"word": t.word, "seq": [list(p) for p in t.seq],
                       "variant": t.variant})


def tableau_from_json(text: str) -> GrowthTableau:
    data = json.loads(text)
    if not (isinstance(data, dict) and isinstance(data.get("word"), str)
            and int_lists(data.get("seq"))
            and isinstance(data.get("variant", ""), str)):
        raise ValueError('a growth tableau is a JSON object {"word": "<D/R '
                         'word>", "seq": [[parts], ...], "variant": "<name>"}')
    return GrowthTableau(data["word"], tuple(tuple(p) for p in data["seq"]),
                         data.get("variant", "standard"))


@dataclass
class GrowthDiagram:
    word: str
    row_lens: tuple          # bottom-up, may include zero-length top rows
    n_cols: int
    variant: str
    filling: Filling
    labels: dict = field(default_factory=dict)

    def label(self, x: int, y: int):
        return self.labels[(x, y)]

    def corners(self):
        out = []
        for y in range(len(self.row_lens) + 1):
            width = self.n_cols if y == 0 else self.row_lens[y - 1]
            out.extend((x, y) for x in range(width + 1))
        return out


def _checked_variant(filling: Filling, variant: str):
    """The variant, once the filling is known to be in its class."""
    v = get_variant(variant)
    if not in_class(filling, v.filling_class):
        raise ValueError(
            f"{variant} rules need a {v.filling_class} filling, got "
            f"{filling_class(filling)}")
    return v


def label_diagram(filling: Filling, variant: str = "standard",
                  word: str | None = None,
                  bottom=None, left=None) -> GrowthDiagram:
    """Propagate corner labels across a filled shape.

    ``bottom`` and ``left`` give the labels of the corners along the bottom
    and left sides (defaulting to empty partitions everywhere); nontrivial
    boundary labels are only supported for the standard rules.
    """
    v = _checked_variant(filling, variant)
    shape = filling.shape
    if word is None:
        word, rows, n_cols = shape.word, shape.rows, shape.n_cols
    else:
        rows, n_cols = parse_word(word)
        if checked_partition(rows) != shape.rows:
            raise ValueError(
                f"word {word!r} traces {FerrersShape(rows)}, not {shape}")

    if bottom is None and left is None:
        labels = dict.fromkeys(
            [(x, 0) for x in range(n_cols + 1)]
            + [(0, y) for y in range(1, len(rows) + 1)], EMPTY)
    else:
        labels = _boundary_labels(filling, variant, rows, n_cols, bottom, left)
    forward = _rule(v, "forward", shape.n_cells)
    entries = filling.entries
    # padding rows and columns hold no cells, so the shape's cells are
    # exactly the cells of the padded grid
    for c, r in shape.cells():
        labels[(c, r)] = forward(labels[(c - 1, r - 1)], labels[(c, r - 1)],
                                 labels[(c - 1, r)], entries.get((c, r), 0))
    return GrowthDiagram(word, rows, n_cols, variant, filling, labels)


def _boundary_labels(filling, variant, rows, n_cols, bottom, left) -> dict:
    """The checked labels of the bottom and left corners, given explicitly
    (a missing side is all empty)."""
    shape = filling.shape
    bottom = [EMPTY] * (n_cols + 1) if bottom is None else list(bottom)
    left = [EMPTY] * (len(rows) + 1) if left is None else list(left)
    if len(bottom) != n_cols + 1 or len(left) != len(rows) + 1:
        raise ValueError("boundary label sequences have the wrong length")
    bottom = [make_partition(p) for p in bottom]
    left = [make_partition(p) for p in left]
    if bottom[0] != left[0]:
        raise ValueError("bottom-left corner labelled inconsistently")
    nontrivial = any(p != EMPTY for p in bottom + left)
    if nontrivial and variant != "standard":
        raise ValueError("nontrivial boundary labels need the standard rules")

    for x in range(1, n_cols + 1):
        prev, cur = bottom[x - 1], bottom[x]
        if not (prev == cur or differs_by_one_square(cur, prev)):
            raise ValueError(f"bottom labels at {x - 1},{x} differ by more "
                             "than one square")
        if prev != cur and any(filling.entry(x, r)
                               for r in range(1, shape.col_height(x) + 1)):
            raise ValueError(f"bottom labels change under occupied column {x}")
    for y in range(1, len(rows) + 1):
        prev, cur = left[y - 1], left[y]
        if not (prev == cur or differs_by_one_square(cur, prev)):
            raise ValueError(f"left labels at {y - 1},{y} differ by more "
                             "than one square")
        if prev != cur and any(filling.entry(c, y)
                               for c in range(1, rows[y - 1] + 1)):
            raise ValueError(f"left labels change beside occupied row {y}")

    labels = {(x, 0): bottom[x] for x in range(n_cols + 1)}
    labels.update({(0, y): left[y] for y in range(len(rows) + 1)})
    return labels


def border_tableau(diagram: GrowthDiagram) -> GrowthTableau:
    """Read the labels along the right/up boundary, top-left to bottom-right.

    The labels are taken as ``label_diagram`` made them, without checking
    them again."""
    labels = diagram.labels
    seq = tuple(labels[pt] for pt in trace_corners(diagram.row_lens, diagram.n_cols))
    return _trusted_tableau(diagram.word, seq, diagram.variant)


def reconstruct(word: str, tableau, variant: str | None = None):
    """Run the backward rules from a border tableau.

    ``tableau`` is a GrowthTableau (read with its own variant unless
    ``variant`` is given) or a raw sequence of partitions.  Returns
    (filling, bottom labels, left labels); the boundary labels are what the
    backward pass leaves on the bottom and left sides.
    """
    if not isinstance(tableau, GrowthTableau):
        t = GrowthTableau(word, tableau, variant or "standard")
    elif word != tableau.word or variant not in (None, tableau.variant):
        t = GrowthTableau(word, tableau.seq, variant or tableau.variant)
    else:
        t = tableau
    t.validate_steps()
    v = get_variant(t.variant)
    rows, n_cols = parse_word(word)
    shape = FerrersShape(rows)

    labels = dict(zip(trace_corners(rows, n_cols), t.seq))
    backward = _rule(v, "backward", shape.n_cells)
    entries = {}
    # reversed column-major order: corner (c, r-1) comes from column c+1 and
    # corner (c-1, r) from cell (c, r+1), so both are known at cell (c, r)
    for c, r in reversed(shape.cells()):
        rho, m = backward(labels[(c, r - 1)], labels[(c - 1, r)],
                          labels[(c, r)])
        labels[(c - 1, r - 1)] = rho
        if m:
            entries[(c, r)] = m
    filling = Filling(shape, entries)
    bottom = [labels[(x, 0)] for x in range(n_cols + 1)]
    left = [labels[(0, y)] for y in range(len(rows) + 1)]
    return filling, bottom, left


def growth_tableau(filling: Filling, variant: str = "standard",
                   word: str | None = None, bottom=None, left=None) -> GrowthTableau:
    """Shorthand: label the diagram and read off the border."""
    return border_tableau(label_diagram(filling, variant, word, bottom, left))


# ---------------------------------------------------------------------------
# blow-up and shrink-back

def _refine(lines, down):
    """Split each coarse line into one refined line per token it holds
    (at least one).

    ``lines`` lists the tokens of each coarse line in order; ``down``
    assigns them from the last refined line of their block to the first.
    Returns the blocks (first refined line, number of refined lines),
    1-based, and the refined line of each token.
    """
    blocks, fine, base = [], {}, 0
    for tokens in lines:
        n = max(1, len(tokens))
        blocks.append((base + 1, n))
        fine.update(zip(reversed(tokens) if down else tokens,
                        range(base + 1, base + n + 1)))
        base += n
    return tuple(blocks), fine


def blow_up(filling: Filling, variant: str):
    """Expand a filling into a partial permutation filling of a refined shape.

    An entry m becomes m crosses, each in a refined row and column of its
    own.  Returns (refined filling, row_blocks, col_blocks) where the
    blocks map each original line to (first refined line, number of
    refined lines), 1-based.
    """
    v = _checked_variant(filling, variant)
    if v.right == "1":
        raise ValueError(f"blow-up needs a strip variant, not {variant!r}")
    # a line whose step is a vertical strip takes its crosses top-left to
    # bottom-right, any other line bottom-left to top-right; the crosses of
    # one entry rise to the right only where neither step is a vertical strip
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


def shrink_back(fine_diagram: GrowthDiagram, row_blocks, col_blocks) -> dict:
    """Corner labels of the coarse diagram, read off a refined diagram at the
    crossings of the block boundaries."""
    labels = fine_diagram.labels
    col_base = [0, *accumulate(n for _, n in col_blocks)]
    row_base = [0, *accumulate(n for _, n in row_blocks)]
    return {(x, y): labels[(fx, fy)]
            for y, fy in enumerate(row_base) for x, fx in enumerate(col_base)
            if (fx, fy) in labels}
