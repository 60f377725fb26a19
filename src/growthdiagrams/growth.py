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
from functools import cached_property
from itertools import accumulate
from types import MappingProxyType

from .fillings import Filling, filling_class, in_class, int_lists
from .local_rules import get_variant
from .partitions import conjugate, differs_by_one_square, make_partition
from .shapes import FerrersShape, parse_word

EMPTY = ()


# Small diagrams repeat themselves: few shapes, few frames, few labels.  So
# for a reading word of at most MEMO_MAX_CELLS cells the growth layer keeps
# in one memo, keyed by kind, the sweep plan of a decoded word ("sweep",
# word), the local rules (variant, "forward"/"backward", *frame), the border
# step checks (variant, "step", step, prev, nxt) and label conjugates
# ("conjugate", p).  It holds only results of calls that returned, so every
# distinct input goes once through the full checked code, and it stops
# growing at MEMO_MAX_ENTRIES.  Larger diagrams rarely repeat a frame and
# bypass it.
# The rules in local_rules.VARIANT_TABLE stay uncached.
MEMO_MAX_CELLS = 64
MEMO_MAX_ENTRIES = 4096
_MEMO = {}


def _memoised(fn, tag: tuple, small: bool):
    """``fn`` through the memo under keys ``tag + args`` when ``small``."""
    if not small:
        return fn

    def call(*args):
        key = tag + args
        out = _MEMO.get(key)
        if out is None:
            out = fn(*args)
            if len(_MEMO) < MEMO_MAX_ENTRIES:
                _MEMO[key] = out
        return out
    return call


def _rule(v, direction: str, small: bool):
    """The variant's forward or backward rule, through the memo for a small
    diagram."""
    return _memoised(getattr(v, direction), (v.name, direction), small)


def trace_corners(rows, n_cols: int):
    """The corner points visited by the reading word that ``parse_word``
    decodes into (rows, n_cols), top-left to bottom-right."""
    pts, x = [], 0
    for y in range(len(rows), -1, -1):
        width = rows[y - 1] if y else n_cols
        pts.extend((i, y) for i in range(x, width + 1))
        x = width
    return pts


class _SweepPlan:
    """Everything a sweep along one reading word needs that depends on the
    word alone.  Only the decoded word is computed up front; the rest is
    computed on first use and then kept with the plan.  The sweeps walk the
    cells column by column from the shape's column heights: a list of the
    cells would cost a tuple per cell in every stored plan."""

    def __init__(self, word: str, rows, n_cols: int):
        self.word, self.rows, self.n_cols = word, rows, n_cols
        self.small = sum(rows) <= MEMO_MAX_CELLS

    @cached_property
    def shape(self) -> FerrersShape:
        return FerrersShape(self.rows)

    @cached_property
    def corners(self):
        """The border corners, top-left to bottom-right."""
        return trace_corners(self.rows, self.n_cols)

    @cached_property
    def empty_boundary(self) -> dict:
        """Empty labels on the bottom and left corners, to be copied."""
        return dict.fromkeys(
            [(x, 0) for x in range(self.n_cols + 1)]
            + [(0, y) for y in range(1, len(self.rows) + 1)], EMPTY)


def _sweep_plan(word: str, shape: FerrersShape | None = None) -> _SweepPlan:
    """The plan of a reading word, from the memo for a small one.  ``shape``
    may be given when ``word`` is its own word, and is then used as is.

    Only a plan decoded from the word is stored.  One made from a given
    shape decodes nothing, so storing it would save little, and such shapes
    (refined ones from ``blow_up``, say) often recur too rarely to pay for
    their memory."""
    key = ("sweep", word)
    plan = _MEMO.get(key)
    if plan is None and shape is not None:
        plan = _SweepPlan(word, shape.rows, shape.n_cols)
        plan.shape = shape
    elif plan is None:
        plan = _SweepPlan(word, *parse_word(word))
        if plan.small and len(_MEMO) < MEMO_MAX_ENTRIES:
            _MEMO[key] = plan
    return plan


def _trusted(cls, **values):
    """An instance of a frozen dataclass made of values the growth layer
    computed itself (labels are partitions already, and match the word);
    outside input goes through the checking constructor instead."""
    obj = object.__new__(cls)
    obj.__dict__.update(values)
    return obj


@dataclass(frozen=True)
class GrowthTableau:
    """A sequence of partitions read along a boundary word."""

    word: str
    seq: tuple
    variant: str = "standard"

    def __post_init__(self):
        _sweep_plan(self.word)
        object.__setattr__(self, "seq", tuple(make_partition(p) for p in self.seq))
        if len(self.seq) != len(self.word) + 1:
            raise ValueError(
                f"need {len(self.word) + 1} partitions for word {self.word!r}, "
                f"got {len(self.seq)}")

    def validate_steps(self):
        _check_steps(self, _sweep_plan(self.word))

    def conjugate(self) -> "GrowthTableau":
        conj = _memoised(conjugate, ("conjugate",),
                         _sweep_plan(self.word).small)
        return _trusted(GrowthTableau, word=self.word,
                        seq=tuple(map(conj, self.seq)),
                        variant=get_variant(self.variant).conjugate)


def _check_steps(t: GrowthTableau, plan: _SweepPlan):
    """Raise unless every border step of t is a step of its variant."""
    v = get_variant(t.variant)
    step_ok = _memoised(v.step_ok, (v.name, "step"), plan.small)
    seq = t.seq
    for i, step in enumerate(t.word):
        prev, nxt = seq[i], seq[i + 1]
        if not step_ok(step, prev, nxt):
            raise ValueError(
                f"step {i + 1} ({step}) from {prev} to {nxt} is not a valid "
                f"{t.variant} step")


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


@dataclass(frozen=True)
class GrowthDiagram:
    """Corner labels of a labelled filling; ``labels`` is read-only.

    The constructor checks that ``row_lens``, ``n_cols`` and the filling's
    shape are what ``word`` traces, that ``labels`` holds exactly the
    corners of ``corners()``, and every label; ``label_diagram`` builds its
    diagrams without checking again.  ``labels`` is a view of a private
    dict, which the growth layer reads directly: a lookup through the view
    costs more.
    """

    word: str
    row_lens: tuple          # bottom-up, may include zero-length top rows
    n_cols: int
    variant: str
    filling: Filling
    labels: MappingProxyType = field(default_factory=dict)

    def __post_init__(self):
        get_variant(self.variant)
        plan = _sweep_plan(self.word)
        if (tuple(self.row_lens), self.n_cols) != (plan.rows, plan.n_cols):
            raise ValueError(
                f"word {self.word!r} traces rows {plan.rows} and "
                f"{plan.n_cols} columns, not {tuple(self.row_lens)} and "
                f"{self.n_cols}")
        if self.filling.shape != plan.shape:
            raise ValueError(f"word {self.word!r} traces {plan.shape}, not "
                             f"{self.filling.shape}")
        if self.labels.keys() != set(self.corners()):
            raise ValueError(f"labels must cover exactly the corners of "
                             f"word {self.word!r}")
        labels = {xy: make_partition(p) for xy, p in self.labels.items()}
        object.__setattr__(self, "_plan", plan)
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "row_lens", plan.rows)
        object.__setattr__(self, "labels", MappingProxyType(labels))

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
        plan = _sweep_plan(shape.word, shape)
    else:
        plan = _sweep_plan(word)
        if plan.shape != shape:
            raise ValueError(f"word {word!r} traces {plan.shape}, not {shape}")

    if bottom is None and left is None:
        labels = plan.empty_boundary.copy()
    else:
        labels = _boundary_labels(filling, variant, plan.rows, plan.n_cols,
                                  bottom, left)
    forward = _rule(v, "forward", plan.small)
    entries = filling.entries
    # column-major order; padding rows and columns hold no cells, so the
    # shape's cells are exactly the cells of the padded grid.  Going up a
    # column, a cell's rho and mu are the nu and lam of the cell below.
    for c, height in enumerate(plan.shape.col_heights, 1):
        rho, mu = labels[(c - 1, 0)], labels[(c, 0)]
        for r in range(1, height + 1):
            nu = labels[(c - 1, r)]
            mu = labels[(c, r)] = forward(rho, mu, nu, entries.get((c, r), 0))
            rho = nu
    return _trusted(GrowthDiagram, word=plan.word, row_lens=plan.rows,
                    n_cols=plan.n_cols, variant=variant, filling=filling,
                    labels=MappingProxyType(labels), _labels=labels,
                    _plan=plan)


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

    The labels were checked when the diagram was made, and are not checked
    again."""
    seq = tuple(map(diagram._labels.__getitem__, diagram._plan.corners))
    return _trusted(GrowthTableau, word=diagram.word, seq=seq,
                    variant=diagram.variant)


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
    plan = _sweep_plan(word)
    _check_steps(t, plan)
    backward = _rule(get_variant(t.variant), "backward", plan.small)

    labels = dict(zip(plan.corners, t.seq))
    entries = {}
    # reversed column-major order: corner (c, r-1) comes from column c+1 and
    # corner (c-1, r) from cell (c, r+1), so both are known at cell (c, r).
    # Going down a column, a cell's lam and nu are the mu and rho of the
    # cell above.
    heights = plan.shape.col_heights
    for c in range(len(heights), 0, -1):
        top = heights[c - 1]
        lam, nu = labels[(c, top)], labels[(c - 1, top)]
        for r in range(top, 0, -1):
            mu = labels[(c, r - 1)]
            rho, m = backward(mu, nu, lam)
            labels[(c - 1, r - 1)] = rho
            if m:
                entries[(c, r)] = m
            lam, nu = mu, rho
    # the backward rules only write positive int entries into the shape
    filling = _trusted(Filling, shape=plan.shape, entries=entries)
    bottom = [labels[(x, 0)] for x in range(plan.n_cols + 1)]
    left = [labels[(0, y)] for y in range(len(plan.rows) + 1)]
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
    labels = fine_diagram._labels
    col_base = [0, *accumulate(n for _, n in col_blocks)]
    row_base = [0, *accumulate(n for _, n in row_blocks)]
    return {(x, y): labels[(fx, fy)]
            for y, fy in enumerate(row_base) for x, fx in enumerate(col_base)
            if (fx, fy) in labels}
