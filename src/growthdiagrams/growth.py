"""Growth diagrams on Ferrers shapes.

A growth diagram assigns a partition label to every lattice corner of a
shape so that each cell obeys the local rules of its variant.  Corner
(x, y) is the point x cells from the left and y cells up from the bottom.
The sweeps keep the labels in one flat list, column by column: corner
(x, y) sits at position ``start[x] + y`` of the word's sweep plan, so the
left side's corners come first and the two corner lines of a cell's
sides are consecutive runs of the list.  A ``GrowthDiagram`` shows the
labels as a dict keyed by (x, y).

The reading word may carry extra leading D steps and trailing R steps
beyond the normalized boundary word of the shape; these encode zero-length
rows at the top and zero-height columns at the right, which contribute
extra border corners (used e.g. when a staircase is read with a word of
length 2n).
"""

import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate, chain
from types import MappingProxyType

from .fillings import (MEMO_MAX_CELLS, MEMO_MAX_ENTRIES, Filling, _trusted,
                       filling_class, in_class, int_lists)
from .local_rules import get_variant
from .partitions import conjugate, make_partition
from .shapes import FerrersShape, parse_word

EMPTY = ()


# Small diagrams repeat themselves: few shapes, few frames, few labels.  So
# for a reading word of at most MEMO_MAX_CELLS cells the growth layer
# memoises each variant's local rules and step checks (_small_rules), label
# conjugates and the sweep plans of decoded words (_PLANS), among them the
# words blow_up spells for its refined shapes.  A plan keeps its word's
# flat layout: the column starts, the border positions and the corner keys
# in flat order, whose (x, y) tuples all small plans share from
# _COLUMN_KEYS, so a stored plan holds ints and pointers but no key of its
# own.  The sweeps pass labels through themselves, so a frame that only
# passes a label through never reaches a rule or its cache.  lru_cache
# stores no exception, so every distinct input goes once through the full
# checked code; each cache and _PLANS hold at most MEMO_MAX_ENTRIES
# entries.  Larger diagrams rarely repeat a frame and bypass them all.
# The rules in local_rules.VARIANT_TABLE stay uncached.
_PLANS = {}
# _COLUMN_KEYS[x][y] is the key (x, y), made once for all small plans.  A
# wider or taller plan extends a column into a new tuple: a tuple once read
# never changes.
_COLUMN_KEYS = []
_small_conjugate = lru_cache(MEMO_MAX_ENTRIES)(conjugate)


@lru_cache(maxsize=None)
def _small_rules(v):
    """The forward rule, backward rule and step check of variant ``v``,
    memoised for small diagrams.  Keyed by the variant object, which
    hashes by identity: VARIANT_TABLE holds one per variant, and a
    replaced row gets caches of its own."""
    memo = lru_cache(MEMO_MAX_ENTRIES)
    return memo(v.forward), memo(v.backward), memo(v.step_ok)


def _rules(v, small: bool):
    """(forward, backward, step_ok) of ``v``, memoised for a small diagram."""
    return _small_rules(v) if small else (v.forward, v.backward, v.step_ok)


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
    computed on first use and then kept with the plan."""

    def __init__(self, word: str, rows, n_cols: int):
        self.word, self.rows, self.n_cols = word, rows, n_cols
        self.small = sum(rows) <= MEMO_MAX_CELLS

    @cached_property
    def shape(self) -> FerrersShape:
        return FerrersShape(self.rows)

    @cached_property
    def start(self) -> list:
        """The flat position of corner (x, 0) for x = 0..n_cols, then the
        number of corners.  Column 0 holds a corner per row and one below
        them, column x > 0 one per cell and one below, so a zero-height
        column of a padded word holds its bottom corner only."""
        shape = self.shape
        heights = (len(self.rows), *shape.col_heights,
                   *(0,) * (self.n_cols - shape.n_cols))
        return list(accumulate((h + 1 for h in heights), initial=0))

    @cached_property
    def keys(self) -> tuple:
        """The corner keys (x, y) in the order of the flat labels: from
        _COLUMN_KEYS for a small plan, made anew for a large one, whose
        plan lives for one call."""
        start = self.start
        sizes = [b - a for a, b in zip(start, start[1:])]
        if not self.small:
            return tuple((x, y) for x, n in enumerate(sizes)
                         for y in range(n))
        for x, n in enumerate(sizes):
            if x == len(_COLUMN_KEYS):
                _COLUMN_KEYS.append(())
            col = _COLUMN_KEYS[x]
            if n > len(col):
                _COLUMN_KEYS[x] = col + tuple((x, y)
                                              for y in range(len(col), n))
        return tuple(chain.from_iterable(
            col[:n] for col, n in zip(_COLUMN_KEYS, sizes)))

    @cached_property
    def border(self) -> list:
        """The flat positions of the border corners, top-left to
        bottom-right."""
        start = self.start
        return [start[x] + y for x, y in trace_corners(self.rows, self.n_cols)]


def _sweep_plan(word: str, shape: FerrersShape | None = None) -> _SweepPlan:
    """The plan of a reading word, from _PLANS for a small one.  ``shape``
    may be given when ``word`` is its own word, and is then used as is.

    Only a plan decoded from the word is stored.  One made from a given
    shape decodes nothing, so storing it would save little.  ``blow_up``
    spells the word of each refined shape, so a small refined shape and its
    plan are stored, and found here when its filling is labelled."""
    plan = _PLANS.get(word)
    if plan is None and shape is not None:
        plan = _SweepPlan(word, shape.rows, shape.n_cols)
        plan.shape = shape
    elif plan is None:
        plan = _SweepPlan(word, *parse_word(word))
        if plan.small and len(_PLANS) < MEMO_MAX_ENTRIES:
            _PLANS[word] = plan
    return plan


def _forward_sweep(plan: _SweepPlan, labels: list, entries, v):
    """Label every cell's top-right corner in ``labels``, the flat labels
    whose bottom and left corners are set, from the filling's ``entries``
    with the rules of variant ``v``.

    The cells go column by column, bottom to top; padding rows and columns
    hold no cells.  Going up a column, a cell's rho and mu are the nu and
    lam of the cell below.  An empty cell with rho = mu (lam = nu) or
    rho = nu (lam = mu) passes its label through here: it checks the one
    edge it copies, unless that edge is verified, and both its new edges are
    then verified too.  left_ok[r] flags the left edge of row r, below_ok
    the bottom edge of the cell; the left and bottom boundaries start
    verified, as they are empty or _boundary_labels checked them.  Any
    other frame goes through the full rule, and leaves its new edges to the
    next cell that sees them."""
    forward, _, step_ok = _rules(v, plan.small)
    start = plan.start
    left_ok = [True] * (len(plan.rows) + 1)
    for c in range(1, len(start) - 1):
        # corner (c - 1, r) is at p + r and corner (c, r) at q + r
        p, q = start[c - 1], start[c]
        rho, mu = labels[p], labels[q]
        below_ok = True
        for r in range(1, start[c + 1] - q):
            nu = labels[p + r]
            m = entries.get((c, r), 0)
            if not m and rho == mu and (left_ok[r] or step_ok("D", nu, rho)):
                mu = nu
                left_ok[r] = below_ok = True
            elif not m and rho == nu and (below_ok or step_ok("R", rho, mu)):
                left_ok[r] = below_ok = True
            else:
                mu = forward(rho, mu, nu, m)
                left_ok[r] = below_ok = False
            # mu now holds lam, the mu of the cell above
            labels[q + r] = mu
            rho = nu


def _backward_sweep(plan: _SweepPlan, seq, v):
    """The flat labels and the entries that the rules of variant ``v``
    recover from ``seq``, the border labels, once its steps are checked.

    The cells go column by column from the right, top to bottom: corner
    (c, r-1) comes from column c+1 and corner (c-1, r) from cell (c, r+1),
    so both are known at cell (c, r).  Going down a column, a cell's lam
    and nu are the mu and rho of the cell above.  As in _forward_sweep, a
    cell with lam = mu (rho = nu) or lam = nu (rho = mu) passes its label
    through here, checking the edge it copies unless that edge is verified.
    right_ok[r] flags the right edge of row r, above_ok the top edge of the
    cell; the border edges (the top of each column, and its right edges
    above the next column) start verified, as their steps were checked."""
    _, backward, step_ok = _rules(v, plan.small)
    _check_steps(plan.word, seq, step_ok, v.name)
    start = plan.start
    labels = [EMPTY] * start[-1]
    for i, p in zip(plan.border, seq):
        labels[i] = p
    entries = {}
    right_ok = [True] * (len(plan.rows) + 1)
    for c in range(len(start) - 2, 0, -1):
        p, q = start[c - 1], start[c]
        top = start[c + 1] - q - 1
        lam, nu = labels[q + top], labels[p + top]
        above_ok = True
        for r in range(top, 0, -1):
            mu = labels[q + r - 1]
            if lam == mu and (above_ok or step_ok("R", nu, lam)):
                right_ok[r] = above_ok = True
            elif lam == nu and (right_ok[r] or step_ok("D", lam, mu)):
                nu = mu
                right_ok[r] = above_ok = True
            else:
                nu, m = backward(mu, nu, lam)
                if m:
                    entries[(c, r)] = m
                right_ok[r] = above_ok = False
            # nu now holds rho, the nu of the cell below
            labels[p + r - 1] = nu
            lam = mu
    return labels, entries


@dataclass(frozen=True)
class GrowthTableau:
    """A sequence of partitions read along a boundary word.

    The constructor keeps the sweep plan of the word it decodes, as
    ``label_diagram``'s tableaux keep their diagram's, so that no method
    decodes the word again."""

    word: str
    seq: tuple
    variant: str = "standard"

    def __post_init__(self):
        get_variant(self.variant)
        object.__setattr__(self, "_plan", _sweep_plan(self.word))
        object.__setattr__(self, "seq", tuple(make_partition(p) for p in self.seq))
        if len(self.seq) != len(self.word) + 1:
            raise ValueError(
                f"need {len(self.word) + 1} partitions for word {self.word!r}, "
                f"got {len(self.seq)}")

    def validate_steps(self):
        _check_steps(self.word, self.seq,
                     _rules(get_variant(self.variant), self._plan.small)[2],
                     self.variant)

    def conjugate(self) -> "GrowthTableau":
        conj = _small_conjugate if self._plan.small else conjugate
        return _trusted(GrowthTableau, word=self.word,
                        seq=tuple(map(conj, self.seq)),
                        variant=get_variant(self.variant).conjugate,
                        _plan=self._plan)


def _check_steps(word: str, seq, step_ok, variant: str):
    """Raise unless every step of ``seq`` along ``word`` passes
    ``step_ok``, the step check of ``variant``."""
    for i, step in enumerate(word):
        prev, nxt = seq[i], seq[i + 1]
        if not step_ok(step, prev, nxt):
            raise ValueError(
                f"step {i + 1} ({step}) from {prev} to {nxt} is not a valid "
                f"{variant} step")


def tableau_to_json(t: GrowthTableau) -> str:
    return json.dumps({"word": t.word, "seq": [list(p) for p in t.seq],
                       "variant": t.variant})


def tableau_from_json(text: str, variant: str = "standard") -> GrowthTableau:
    """The tableau of a JSON object; one that names no variant is read with
    ``variant``."""
    data = json.loads(text)
    if not (isinstance(data, dict) and isinstance(data.get("word"), str)
            and int_lists(data.get("seq"))
            and isinstance(data.get("variant", ""), str)):
        raise ValueError('a growth tableau is a JSON object {"word": "<D/R '
                         'word>", "seq": [[parts], ...], "variant": "<name>"}')
    return GrowthTableau(data["word"], tuple(tuple(p) for p in data["seq"]),
                         data.get("variant", variant))


@dataclass(frozen=True)
class GrowthDiagram:
    """Corner labels of a labelled filling; ``labels`` is read-only.

    The constructor checks that ``row_lens``, ``n_cols`` and the filling's
    shape are what ``word`` traces, that ``labels`` holds exactly the
    corners of ``corners()``, and every label; ``label_diagram`` builds its
    diagrams without checking again.  The growth layer reads the labels
    from a private flat list in the plan's corner layout instead.
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
        object.__setattr__(self, "_flat", list(map(labels.__getitem__,
                                                   plan.keys)))
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
    """The variant, once the filling is known to be of a Ferrers shape and
    in the variant's class."""
    v = get_variant(variant)
    if not isinstance(filling.shape, FerrersShape):
        raise ValueError(f"growth diagrams need a Ferrers shape, not "
                         f"{type(filling.shape).__name__} {filling.shape}")
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
        flat = [EMPTY] * plan.start[-1]
    else:
        flat = _boundary_labels(filling, variant, plan, bottom, left)
    _forward_sweep(plan, flat, filling.entries, v)
    labels = dict(zip(plan.keys, flat))
    return _trusted(GrowthDiagram, word=plan.word, row_lens=plan.rows,
                    n_cols=plan.n_cols, variant=variant, filling=filling,
                    labels=MappingProxyType(labels), _flat=flat, _plan=plan)


def _boundary_labels(filling, variant, plan, bottom, left) -> list:
    """Flat labels holding the checked labels of the bottom and left
    corners, given explicitly (a missing side is all empty).  The sweep
    takes their edges as checked here, and does not check them again."""
    shape, rows, n_cols = filling.shape, plan.rows, plan.n_cols
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

    step_ok = get_variant("standard").step_ok
    for x in range(1, n_cols + 1):
        prev, cur = bottom[x - 1], bottom[x]
        if not step_ok("R", prev, cur):
            raise ValueError(f"bottom labels at {x - 1},{x} differ by more "
                             "than one square")
        if prev != cur and any(filling.entry(x, r)
                               for r in range(1, shape.col_height(x) + 1)):
            raise ValueError(f"bottom labels change under occupied column {x}")
    for y in range(1, len(rows) + 1):
        prev, cur = left[y - 1], left[y]
        if not step_ok("D", cur, prev):
            raise ValueError(f"left labels at {y - 1},{y} differ by more "
                             "than one square")
        if prev != cur and any(filling.entry(c, y)
                               for c in range(1, rows[y - 1] + 1)):
            raise ValueError(f"left labels change beside occupied row {y}")

    # column 0 is the left side, and corner (x, 0) sits at start[x]
    flat = left + [EMPTY] * (plan.start[-1] - len(left))
    for i, p in zip(plan.start, bottom):
        flat[i] = p
    return flat


def border_tableau(diagram: GrowthDiagram) -> GrowthTableau:
    """Read the labels along the right/up boundary, top-left to bottom-right.

    The labels were checked when the diagram was made, and are not checked
    again."""
    seq = tuple(map(diagram._flat.__getitem__, diagram._plan.border))
    return _trusted(GrowthTableau, word=diagram.word, seq=seq,
                    variant=diagram.variant, _plan=diagram._plan)


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
    # a small word's plan is decoded and stored, for label_diagram to find;
    # a large one is the tableau's own
    plan = _sweep_plan(word) if t._plan.small else t._plan
    labels, entries = _backward_sweep(plan, t.seq, get_variant(t.variant))
    # the backward rules only write positive int entries into the shape
    filling = _trusted(Filling, shape=plan.shape, entries=entries)
    bottom = [labels[i] for i in plan.start[:-1]]
    return filling, bottom, labels[:len(plan.rows) + 1]


def conjugate_swap(filling: Filling, variant: str) -> Filling:
    """The filling that the conjugate variant's backward rules reconstruct
    from the conjugate of ``filling``'s border tableau under ``variant``,
    ``reconstruct(t.word, t.conjugate())[0]`` for ``t = growth_tableau(
    filling, variant)``, in one pass over one plan, the plan of the shape's
    word.  The conjugated border is step-checked for the conjugate variant,
    as ``reconstruct`` checks a tableau."""
    v = _checked_variant(filling, variant)
    plan = _sweep_plan(filling.shape.word)
    labels = [EMPTY] * plan.start[-1]
    _forward_sweep(plan, labels, filling.entries, v)
    conj = _small_conjugate if plan.small else conjugate
    seq = [conj(labels[i]) for i in plan.border]
    entries = _backward_sweep(plan, seq, get_variant(v.conjugate))[1]
    return _trusted(Filling, shape=filling.shape, entries=entries)


def growth_tableau(filling: Filling, variant: str = "standard",
                   word: str | None = None, bottom=None, left=None) -> GrowthTableau:
    """Shorthand: label the diagram and read off the border."""
    return border_tableau(label_diagram(filling, variant, word, bottom, left))


# ---------------------------------------------------------------------------
# blow-up and shrink-back

def _blocks(counts):
    """The blocks (first refined line, number of refined lines), 1-based,
    of coarse lines holding ``counts`` crosses each, one refined line per
    cross (at least one per coarse line), and the last refined line of
    each block after a leading 0."""
    blocks, ends = [], [0]
    for n in counts:
        blocks.append((ends[-1] + 1, n or 1))
        ends.append(ends[-1] + (n or 1))
    return tuple(blocks), ends


def blow_up(filling: Filling, variant: str):
    """Expand a filling into a partial permutation filling of a refined shape.

    An entry m becomes m crosses, each in a refined row and column of its
    own.  Returns (refined filling, row_blocks, col_blocks) where the
    blocks map each original line to (first refined line, number of
    refined lines), 1-based.  A refined shape of at most MEMO_MAX_CELLS
    cells is the shape of its word's stored plan.
    """
    v = _checked_variant(filling, variant)
    if v.right == "1":
        raise ValueError(f"blow-up needs a strip variant, not {variant!r}")
    # a line gives its entries, left to right in a row and bottom to top in
    # a column, m refined lines each in turn: from the first refined line
    # of its block on, or from the last one back where the line's step is
    # a vertical strip.  The crosses of one entry rise to the right only
    # where neither step is a vertical strip.
    rows_down, cols_down = v.down == "V", v.right == "V"
    shape = filling.shape
    entries = sorted(filling.entries.items())
    row_n, col_n = [0] * shape.n_rows, [0] * shape.n_cols
    for (c, r), m in entries:
        row_n[r - 1] += m
        col_n[c - 1] += m
    row_blocks, row_ends = _blocks(row_n)
    col_blocks, col_ends = _blocks(col_n)

    # the refined column of the cross in each refined row (0: none), and
    # the crosses each coarse line has placed so far
    fine_col = [0] * (row_ends[-1] + 1)
    row_used, col_used = [0] * shape.n_rows, [0] * shape.n_cols
    for (c, r), m in entries:
        i, k = row_used[r - 1], col_used[c - 1]
        row_used[r - 1], col_used[c - 1] = i + m, k + m
        # the entry's refined rows are r0 + 1 .. r0 + m, its columns
        # c0 + 1 .. c0 + m
        r0 = row_ends[r] - i - m if rows_down else row_ends[r - 1] + i
        c0 = col_ends[c] - k - m if cols_down else col_ends[c - 1] + k
        cols = range(c0 + 1, c0 + m + 1)
        for fr, fc in zip(range(r0 + 1, r0 + m + 1),
                          reversed(cols) if rows_down or cols_down else cols):
            fine_col[fr] = fc

    # the refined shape's word: each coarse row, top down, as its block of
    # equally long refined rows
    word, x = [], 0
    for length, (_, n) in zip(reversed(shape.rows), reversed(row_blocks)):
        word.append("R" * (col_ends[length] - x) + "D" * n)
        x = col_ends[length]
    # one cross per refined row and column, each in the shape by
    # construction, so the filling is not checked again
    fine = _trusted(Filling, shape=_sweep_plan("".join(word)).shape,
                    entries={(c, r): 1 for r, c in enumerate(fine_col) if c})
    return fine, row_blocks, col_blocks


def _block_ends(blocks, count: int, lines: str):
    """The last refined line of each block after a leading 0, once the
    blocks are known to tile refined lines 1..count in order."""
    ends = [0]
    for first, n in blocks:
        if first != ends[-1] + 1 or n < 1:
            break
        ends.append(ends[-1] + n)
    else:
        if ends[-1] == count:
            return ends
    raise ValueError(f"{lines} blocks {tuple(blocks)} do not tile the "
                     f"refined diagram's {count} {lines}s")


def shrink_back(fine_diagram: GrowthDiagram, row_blocks, col_blocks) -> dict:
    """Corner labels of the coarse diagram, read off a refined diagram at the
    crossings of the block boundaries."""
    rows, n_cols = fine_diagram.row_lens, fine_diagram.n_cols
    row_ends = _block_ends(row_blocks, len(rows), "row")
    col_ends = _block_ends(col_blocks, n_cols, "column")
    flat, start = fine_diagram._flat, fine_diagram._plan.start
    out = {}
    for y, fy in enumerate(row_ends):
        # the crossings on refined corner line fy that are corners
        width = rows[fy - 1] if fy else n_cols
        for x, fx in enumerate(col_ends):
            if fx > width:
                break
            out[(x, y)] = flat[start[fx] + fy]
    return out
