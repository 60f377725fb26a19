"""Growth diagrams on Ferrers shapes.

A growth diagram assigns a partition label to every lattice corner of a
shape so that each cell obeys the local rules of its variant.  Corner
(x, y) is the point x cells from the left and y cells up from the bottom.
``label_diagram`` alone makes a ``GrowthDiagram``, from a filling by the
local rules, so a diagram's labels are always its filling's growth.
The sweeps keep the labels in one flat list, column by column: corner
(x, y) sits at position ``start[x] + y`` of the word's sweep plan, so the
left side's corners come first and the two corner lines of a cell's
sides are consecutive runs of the list.  Each sweep walks a per-plan
table of columns, the columns' flat starts and the keys of their cells,
and reads a cell's row and entry through the shared key.  A diagram
shows the labels as a dict keyed by (x, y), which it builds from the
list when it is first read.  The sweeps pass labels through themselves
and hand every other frame to the variant's rules, memoised below for
small diagrams, whose kernels check the frame's edges as they compute
it; each edge a rule frame leaves is tested once.  A swap of a small
filling runs no sweep: it folds memoised column steps over its
``fillings._weights`` code with a code map that ``_shape_swap`` sets
up.

A plan of more than MEMO_MAX_CELLS cells with empty boundary labels needs
no sweep for its border.  The paper's equivalence of growth diagrams and
Schensted insertion/deletion (Krattenthaler, arXiv:math/0510676;
Chen-Deng-Du-Stanley-Yan, arXiv:math/0501230) gives the border by
insertion and the filling back by deletion, in time that grows with the
entries rather than the cells (see ``insertion``).  So ``label_diagram``
takes such a diagram's border from ``insertion_border`` and runs the
forward sweep only when the corner labels are first read (``labels``,
``==``, ``label()``, ``shrink_back``); ``reconstruct`` and a swap past
the memo recover a filling by ``deletion_entries`` from a checked border
that starts and ends at the empty partition (a swap in ``_swap_entries``),
and ``reconstruct`` runs the backward sweep only for other borders.

The reading word may carry extra leading D steps and trailing R steps
beyond the normalized boundary word of the shape; these encode zero-length
rows at the top and zero-height columns at the right, which contribute
extra border corners (used e.g. when a staircase is read with a word of
length 2n).
"""

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, chain
from types import MappingProxyType

from .fillings import (ARBITRARY, Filling, _code, _code_entries, _trusted,
                       _weights, filling_class, in_class, int_lists)
from .insertion import deletion_entries, insertion_border
from .local_rules import get_variant
from .partitions import conjugate, make_partition
from .shapes import FerrersShape, parse_word

EMPTY = ()


# Small diagrams repeat themselves: few shapes, few frames, few labels.  So
# for a reading word of at most MEMO_MAX_CELLS cells the growth layer
# memoises each variant's local rules and step tests (_small_rules), label
# conjugates and the sweep plans of the words (_PLANS), decoded or built
# from a filling's shape, among them the words blow_up spells for its
# refined shapes.  A plan keeps its word's flat layout: the column starts,
# the border positions, the sweeps' column walks and the corner keys in
# flat order, whose (x, y) tuples all small plans share from _COLUMN_KEYS,
# so a stored plan holds ints and pointers but no key of its own.  The
# sweeps pass labels through themselves, so a frame that only passes a
# label through never reaches a rule or its cache.  lru_cache stores no
# exception, so every distinct input goes once through the full checked
# code; each cache and _PLANS hold at most MEMO_MAX_ENTRIES entries.
# Larger diagrams rarely repeat a frame and bypass them all: their sweeps
# call the rules themselves.  The rules in local_rules.VARIANT_TABLE stay
# uncached.  The swaps keep a memo of whole columns (see _shape_swap).
MEMO_MAX_CELLS = 64
MEMO_MAX_ENTRIES = 4096
_PLANS = {}
# _COLUMN_KEYS[x][y] is the key (x, y), made once for all small plans.  A
# wider or taller plan extends a column into a new tuple: a tuple once read
# never changes.
_COLUMN_KEYS = []
_small_conjugate = lru_cache(MEMO_MAX_ENTRIES)(conjugate)


@lru_cache(maxsize=None)
def _small_rules(v):
    """The forward rule, backward rule, step check and right and down step
    tests of variant ``v``, memoised for small diagrams.  Keyed by the
    variant object, which hashes by identity: VARIANT_TABLE holds one per
    variant, and a replaced row gets caches of its own."""
    memo = lru_cache(MEMO_MAX_ENTRIES)
    return (memo(v.forward), memo(v.backward), memo(v.step_ok),
            memo(v.right_ok), memo(v.down_ok))


def _rules(v, small: bool):
    """(forward, backward, step_ok, right_ok, down_ok) of ``v``, memoised
    for a small diagram."""
    if small:
        return _small_rules(v)
    return v.forward, v.backward, v.step_ok, v.right_ok, v.down_ok


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
    word alone: the flat layout and, per sweep, a walk of the columns with
    their flat starts and cell keys.  Only the decoded word is computed up
    front; the rest is computed on first use and then kept with the plan.
    A sweep builds the walks but not ``keys``, which only the label dicts
    read."""

    def __init__(self, word: str, rows, n_cols: int):
        self.word, self.rows, self.n_cols = word, rows, n_cols
        self.small = sum(rows) <= MEMO_MAX_CELLS

    @cached_property
    def shape(self) -> FerrersShape:
        return FerrersShape(self.rows)

    @cached_property
    def heights(self) -> list:
        """The height of each column, column 0 (the left side) holding one
        cell per row, so that a zero-length top row of a padded word counts
        there; a zero-height column of a padded word has height 0."""
        shape = self.shape
        return [len(self.rows), *shape.col_heights,
                *(0,) * (self.n_cols - shape.n_cols)]

    @cached_property
    def start(self) -> list:
        """The flat position of corner (x, 0) for x = 0..n_cols, then the
        number of corners: a column holds one corner per cell and one
        below them."""
        return list(accumulate((h + 1 for h in self.heights), initial=0))

    def _columns(self) -> list:
        """The corner keys (x, 0), (x, 1), ... of each column x, going up:
        prefixes of the shared _COLUMN_KEYS tuples for a small plan, which
        extends them where they are too short, and a large plan's own."""
        if not self.small:
            return self._own_columns
        sizes = [h + 1 for h in self.heights]
        for x, n in enumerate(sizes):
            if x == len(_COLUMN_KEYS):
                _COLUMN_KEYS.append(())
            col = _COLUMN_KEYS[x]
            if n > len(col):
                _COLUMN_KEYS[x] = col + tuple((x, y)
                                              for y in range(len(col), n))
        return [col[:n] for col, n in zip(_COLUMN_KEYS, sizes)]

    @cached_property
    def _own_columns(self) -> list:
        """A large plan's corner keys, column by column, made once: the plan
        lives for one call, and its walks and ``keys`` share them."""
        return [tuple((x, y) for y in range(h + 1))
                for x, h in enumerate(self.heights)]

    @cached_property
    def keys(self) -> tuple:
        """The corner keys (x, y) in the order of the flat labels."""
        return tuple(chain.from_iterable(self._columns()))

    @cached_property
    def forward_walk(self) -> list:
        """The forward sweep's walk: for each column c from 1 to the right,
        the flat starts of columns c - 1 and c and the keys of the column's
        cells (c, 1), (c, 2), ..., going up."""
        start, columns = self.start, self._columns()
        return [(start[c - 1], start[c], columns[c][1:])
                for c in range(1, len(columns))]

    @cached_property
    def backward_walk(self) -> list:
        """The backward sweep's walk: for each column c from the right to 1,
        the flat starts of columns c - 1 and c, the column's top row and the
        keys of its cells (c, top), ..., (c, 1), going down."""
        start, columns = self.start, self._columns()
        return [(start[c - 1], start[c], len(columns[c]) - 1,
                 columns[c][:0:-1])
                for c in range(len(columns) - 1, 0, -1)]

    @cached_property
    def border(self) -> list:
        """The flat positions of the border corners, top-left to
        bottom-right."""
        start = self.start
        return [start[x] + y for x, y in trace_corners(self.rows, self.n_cols)]


def _sweep_plan(word: str, shape: FerrersShape | None = None) -> _SweepPlan:
    """The plan of a reading word, from _PLANS for a small one.  ``shape``
    may be given when ``word`` is its own word, and is then used as is.

    A small plan is stored under its word, decoded or built from a given
    shape, while _PLANS holds fewer than MEMO_MAX_ENTRIES words.
    ``blow_up`` spells the word of each refined shape, so a small refined
    shape and its plan are stored, and found here when its filling is
    labelled."""
    plan = _PLANS.get(word)
    if plan is None:
        if shape is None:
            plan = _SweepPlan(word, *parse_word(word))
        else:
            plan = _SweepPlan(word, shape.rows, shape.n_cols)
            plan.shape = shape
        if plan.small and len(_PLANS) < MEMO_MAX_ENTRIES:
            _PLANS[word] = plan
    return plan


def _forward_sweep(plan: _SweepPlan, labels: list, entries, v):
    """Label every cell's top-right corner in ``labels``, the flat labels
    whose bottom and left corners are set, from the filling's ``entries``
    with the rules of variant ``v``.

    The cells go column by column, bottom to top, along the plan's forward
    walk; padding rows and columns hold no cells.  A cell's row is read off its
    key and its entry looked up with it.  Going up a column, a cell's rho and
    mu are the nu and lam of the cell below.  Each edge is tested once, by the
    first cell that sees it, unless it is verified: left_ok[r] flags the left
    edge of row r, below_ok the bottom edge of the cell, and the left and
    bottom boundaries start verified, as they are empty or _boundary_labels
    checked them.  An empty cell with rho = mu (lam = nu) or rho = nu (lam =
    mu) passes its label through here: it tests the one edge it copies, unless
    that edge is verified or trivial, and both its new edges are then verified
    too.  Any other frame is a rule frame, and goes to the rule, memoised on a
    small diagram, which checks both its input edges as it computes lam.  A
    rule frame leaves its new edges to the next cell that sees them."""
    forward, _, _, is_right, is_down = _rules(v, plan.small)
    left_ok = [True] * (len(plan.rows) + 1)
    for p, q, cells in plan.forward_walk:
        # corner (c - 1, r) is at p + r and corner (c, r) at q + r
        rho, mu = labels[p], labels[q]
        below_ok = True
        for cell in cells:
            r = cell[1]
            nu = labels[p + r]
            m = entries.get(cell, 0)
            if not m and rho == mu and (left_ok[r] or nu == rho
                                         or is_down(nu, rho)):
                mu = nu
                left_ok[r] = below_ok = True
            elif not m and rho == nu and (below_ok or is_right(mu, rho)):
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

    The cells go column by column from the right, top to bottom, along the
    plan's backward walk, and an entry is stored under the cell's key: corner
    (c, r-1) comes from column c+1 and corner (c-1, r) from cell (c, r+1), so
    both are known at cell (c, r).  Going down a column, a cell's lam and nu
    are the mu and rho of the cell above.  As in _forward_sweep, a cell with
    lam = mu (rho = nu) or lam = nu (rho = mu) passes its label through here,
    testing the edge it copies unless that edge is verified, and a rule frame
    goes to the rule, memoised on a small diagram, which checks both its input
    edges.  right_ok[r] flags the right edge of row r, above_ok the top edge of
    the cell; the border edges (the top of each column, and its right edges
    above the next column) start verified, as their steps were checked."""
    _, backward, step_ok, is_right, is_down = _rules(v, plan.small)
    _check_steps(plan.word, seq, step_ok, v.name)
    labels = [EMPTY] * plan.start[-1]
    for i, p in zip(plan.border, seq):
        labels[i] = p
    entries = {}
    right_ok = [True] * (len(plan.rows) + 1)
    for p, q, top, cells in plan.backward_walk:
        lam, nu = labels[q + top], labels[p + top]
        above_ok = True
        for cell in cells:
            r = cell[1]
            mu = labels[q + r - 1]
            if lam == mu and (above_ok or lam == nu or is_right(lam, nu)):
                right_ok[r] = above_ok = True
            elif lam == nu and (right_ok[r] or is_down(lam, mu)):
                nu = mu
                right_ok[r] = above_ok = True
            else:
                nu, m = backward(mu, nu, lam)
                if m:
                    entries[cell] = m
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
    ``step_ok``, the step check of ``variant``.  A step between equal
    labels is valid of every kind, and is not tested."""
    for i, step in enumerate(word):
        prev, nxt = seq[i], seq[i + 1]
        if prev != nxt and not step_ok(step, prev, nxt):
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


@dataclass(frozen=True, init=False)
class GrowthDiagram:
    """Corner labels of a labelled filling; ``labels`` is read-only.

    Only ``label_diagram`` makes diagrams, so the labels are always the
    growth of the filling under the variant's rules; the class has no
    public constructor.  The growth layer reads the labels from a private
    flat list in the plan's corner layout, and a diagram builds its
    ``labels`` from that list the first time they are read, ``==`` and
    ``repr`` included, so that a diagram only passed on to
    ``border_tableau`` or ``shrink_back`` never builds them.  A diagram
    whose border ``label_diagram`` took from insertion keeps that border,
    and fills the flat list by the forward sweep when it is first read.
    """

    word: str
    row_lens: tuple          # bottom-up, may include zero-length top rows
    n_cols: int
    variant: str
    filling: Filling
    labels: MappingProxyType

    def __getattr__(self, name):
        # called only for an attribute the instance lacks: the labels of a
        # diagram from label_diagram, until they are first read, and the
        # flat labels of one whose border came from insertion
        if name == "labels":
            value = MappingProxyType(dict(zip(self._plan.keys, self._flat)))
        elif name == "_flat":
            plan = self._plan
            value = [EMPTY] * plan.start[-1]
            _forward_sweep(plan, value, self.filling.entries,
                           get_variant(self.variant))
        else:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, name, value)
        return value

    def __hash__(self):
        # equal diagrams share these fields, and the labels are not built
        return hash((self.word, self.variant, self.filling))

    def label(self, x: int, y: int):
        return self.labels[(x, y)]

    def corners(self):
        return [(x, y) for y, width in enumerate((self.n_cols, *self.row_lens))
                for x in range(width + 1)]


def _checked_variant(filling: Filling, variant: str):
    """The variant, once the filling is known to be of a Ferrers shape and
    in the variant's class."""
    v = get_variant(variant)
    _check_ferrers(filling.shape)
    if not in_class(filling, v.filling_class):
        raise ValueError(
            f"{variant} rules need a {v.filling_class} filling, got "
            f"{filling_class(filling)}")
    return v


def _check_ferrers(shape):
    """Refuse a shape that is not a Ferrers shape, with one line."""
    if not isinstance(shape, FerrersShape):
        raise ValueError(f"growth diagrams need a Ferrers shape, not "
                         f"{type(shape).__name__} {shape}")


def label_diagram(filling: Filling, variant: str = "standard",
                  word: str | None = None,
                  bottom=None, left=None) -> GrowthDiagram:
    """Propagate corner labels across a filled shape.

    ``bottom`` and ``left`` give the labels of the corners along the bottom
    and left sides (defaulting to empty partitions everywhere); nontrivial
    boundary labels are only supported for the standard rules.

    A plan of more than MEMO_MAX_CELLS cells with no boundary labels given
    takes its border labels from ``insertion_border``, and its diagram
    runs the forward sweep only when its corner labels are first read.
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
        if not plan.small:
            seq = tuple(insertion_border(plan.heights, filling.entries,
                                         v.right, v.down))
            return _trusted(GrowthDiagram, word=plan.word,
                            row_lens=plan.rows, n_cols=plan.n_cols,
                            variant=variant, filling=filling, _seq=seq,
                            _plan=plan)
        flat = [EMPTY] * plan.start[-1]
    else:
        flat = _boundary_labels(filling, variant, plan, bottom, left)
    _forward_sweep(plan, flat, filling.entries, v)
    return _trusted(GrowthDiagram, word=plan.word, row_lens=plan.rows,
                    n_cols=plan.n_cols, variant=variant, filling=filling,
                    _flat=flat, _plan=plan)


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
    if "_seq" in diagram.__dict__:
        seq = diagram._seq
    else:
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
    v, seq = get_variant(t.variant), t.seq
    if plan.small or seq[0] or seq[-1]:
        labels, entries = _backward_sweep(plan, seq, v)
        bottom = [labels[i] for i in plan.start[:-1]]
        left = labels[:len(plan.rows) + 1]
    else:
        # a valid border from and to the empty partition leaves empty
        # boundary labels
        _check_steps(plan.word, seq, v.step_ok, v.name)
        entries = deletion_entries(plan.heights, seq, v.right, v.down)
        bottom = [EMPTY] * len(plan.heights)
        left = [EMPTY] * (len(plan.rows) + 1)
    # the backward rules and deletion only write positive int entries into
    # the shape
    filling = _trusted(Filling, shape=plan.shape, entries=entries)
    return filling, bottom, left


def conjugate_swap(filling: Filling, variant: str) -> Filling:
    """The filling that the conjugate variant's backward rules reconstruct
    from the conjugate of ``filling``'s border tableau under ``variant``,
    ``reconstruct(t.word, t.conjugate())[0]`` for ``t = growth_tableau(
    filling, variant)``: ``_shape_swap``'s map of its code on a shape of at
    most MEMO_MAX_CELLS cells, ``_swap_entries`` of its entries past it."""
    v = _checked_variant(filling, variant)
    shape, entries = filling.shape, filling.entries
    plan = _sweep_plan(shape.word)
    if not plan.small:
        return _trusted(Filling, shape=shape, entries=_swap_entries(
            plan, v, get_variant(v.conjugate), entries))
    # an image entry is at most the entry sum below and left of it, the size
    # of a border label, and at most 1 in a 0-1 class, which the swap keeps
    bits = (max(sum(entries.values()), 1).bit_length()
            if v.filling_class == ARBITRARY else 1)
    cells, weights = _cell_weights(shape, bits)
    image = _shape_swap(shape, variant, bits, plan)(_code(entries, weights))
    return _trusted(Filling, shape=shape,
                    entries=_code_entries(image, cells, bits))


def _swap_entries(plan: _SweepPlan, v, back, entries) -> dict:
    """The swap past the memo: what deletion under ``back``, the conjugate
    of variant ``v``, recovers from the conjugated border that insertion
    under ``v`` gives ``entries``, once its steps are checked."""
    seq = list(map(conjugate, insertion_border(plan.heights, entries,
                                               v.right, v.down)))
    _check_steps(plan.word, seq, back.step_ok, back.name)
    return deletion_entries(plan.heights, seq, back.right, back.down)


@lru_cache(MEMO_MAX_ENTRIES)
def _cell_weights(shape, bits: int):
    """A small shape's cells and their ``_weights``, kept for
    ``conjugate_swap``; callers only read them."""
    cells = shape.cells()
    return cells, _weights(cells, bits)


def _shape_swap(shape: FerrersShape, variant: str, bits: int, plan=None):
    """``conjugate_swap`` on the fillings of one Ferrers shape, whose sweep
    plan the caller may give, as a map of codes with the weights
    ``_weights(shape.cells(), bits)``; an image with an entry too large for
    a digit has no code (None).  The entries are not checked against the
    variant's class: the callers map only fillings in it.  A small shape's
    map is stored in ``_SWAPS``, which only this function reads, and which
    is emptied before it would hold more than SWAPS_MAX_MAPS maps; past the
    memo each call sets up a new one."""
    v = get_variant(variant)
    back = get_variant(v.conjugate)
    plan = plan or _sweep_plan(shape.word)
    if not plan.small:
        return _code_map(shape, plan, v, back, bits)
    key = plan.word, v, back, _small_conjugate, bits
    swap = _SWAPS.get(key)
    if swap is None:
        if len(_SWAPS) >= SWAPS_MAX_MAPS:
            _SWAPS.clear()
        swap = _SWAPS[key] = _code_map(shape, plan, v, back, bits)
    return swap


def _code_map(shape, plan, v, back, bits: int):
    """A new code map of ``_shape_swap``.  Up to MEMO_MAX_CELLS cells it
    folds ``_fold_steps`` over the columns, left to right, then right to
    left from an empty column right of the shape; a refused border step
    goes to ``_check_steps`` with the whole conjugated border, so that the
    error names the first one.  Past them it calls ``_swap_entries``."""
    if not plan.small:
        cells = shape.cells()
        weights = _weights(cells, bits)

        def swap(code):
            image = _swap_entries(plan, v, back,
                                  _code_entries(code, cells, bits))
            if max(image.values(), default=0) >> bits == 0:
                return _code(image, weights)
        return swap

    heights = shape.col_heights
    forward, backward = _fold_steps(v, back, bits)
    conj, step_ok = _small_conjugate, _small_rules(back)[2]
    cuts, id_bits, id_mask = _CUTS, _ID_BITS, _ID_MASK
    starts = [bits * n for n in accumulate(heights, initial=0)]
    # each column's (shift, mask, height), and the backward fold's shifts
    columns = [(shift, (1 << bits * h) - 1, h)
               for shift, h in zip(starts, heights)]
    back_shifts = [0, *reversed(starts[:-1])]
    # the empty column 0, and each column's lowest border row
    first, lows = (heights[0] if heights else 0), [*heights, 0]

    def swap(code):
        vid, ids = first, [first]
        for shift, mask, h in columns:
            # a column without entries is keyed by the cut's id alone
            cut, digits = cuts[vid][h], code >> shift & mask
            vid = forward[digits << id_bits | cut if digits else cut]
            ids.append(vid)
        image = right = 0
        try:
            for left, shift in zip(reversed(ids), back_shifts):
                value = backward[left << id_bits | right]
                if value < 0:
                    image = None
                    break
                right = value & id_mask
                image |= value >> id_bits << shift
        except _Refused:
            _check_steps(plan.word, [conj(p) for vid, h in zip(ids, lows)
                                     for p in _VECTORS[vid][h:][::-1]],
                         step_ok, back.name)
            raise
        if _FULL:
            _clear_fold_memo()
        return image
    return swap


# The fold's memo, which all small shapes share.  A vector, the labels of a
# column from row 0 up, has an int id: _VECTORS[i] is vector i, _VECTOR_IDS
# maps it back, and _CUTS[i][h], for a column of a forward fold, is the id
# of its rows 0..h.  Ids 0 to MEMO_MAX_CELLS are the empty columns, which
# stay.  _FOLD_STEPS holds each rule set's step tables, whose keys and
# values are ints with an id in the low _ID_BITS bits.  One count,
# _FOLD_ENTRIES, holds the entries of them all, the vectors and every rule
# set's forward and backward steps; only _vector_id and _Steps add to it.
# A swap that brings it to FOLD_MAX_ENTRIES empties the memo when it is
# done.  An entry stands for a whole column and keeps about 100 bytes; a
# verify-count pass of the benchmark adds about 14,700 (13,388 steps and
# 1,338 vectors), so the bound lets a whole pass fit.
FOLD_MAX_ENTRIES = 16384
_SEEDS = MEMO_MAX_CELLS + 1
_VECTORS = [(EMPTY,) * (h + 1) for h in range(_SEEDS)]
_VECTOR_IDS = {vector: i for i, vector in enumerate(_VECTORS)}
_CUTS = [range(h + 1) for h in range(_SEEDS)]
_FOLD_STEPS = {}
_FOLD_ENTRIES = 0
_FULL = False
# one swap adds fewer than 8 * _SEEDS vectors
_ID_BITS = (FOLD_MAX_ENTRIES + 9 * _SEEDS).bit_length()
_ID_MASK = (1 << _ID_BITS) - 1
# The code maps of _shape_swap, keyed by word and rule set, live apart from
# the tables they read, which a held map refills.  A verify-count pass sets
# up about 400 maps and reads most of them for one shape; storing them all
# kept about 1 MB more at its peak, so _SWAPS holds at most 64.  It is
# emptied when full rather than closed: a closed dict would set up a new
# map on every call for a shape that came after the 64th, 4 us of a 12 us
# conjugate_swap on a 21-cell staircase.
SWAPS_MAX_MAPS = 64
_SWAPS = {}


class _Refused(ValueError):
    """The conjugate variant refuses a step of the conjugated border."""


def _clear_fold_memo():
    """Empty every table of the fold's memo but the empty columns, and its
    count."""
    global _FOLD_ENTRIES, _FULL
    del _VECTORS[_SEEDS:], _CUTS[_SEEDS:]
    _VECTOR_IDS.clear()
    _VECTOR_IDS.update(zip(_VECTORS, range(_SEEDS)))
    for tables in _FOLD_STEPS.values():
        for table in tables:
            table.clear()
    _FOLD_ENTRIES, _FULL = 0, False


def _vector_id(labels: tuple) -> int:
    """The id of a vector, given to it, and counted, if it has none."""
    global _FOLD_ENTRIES, _FULL
    i = _VECTOR_IDS.get(labels)
    if i is None:
        i = _VECTOR_IDS[labels] = len(_VECTORS)
        _VECTORS.append(labels)
        _CUTS.append(None)
        _FOLD_ENTRIES += 1
        _FULL = _FOLD_ENTRIES >= FOLD_MAX_ENTRIES
    return i


def _column_id(labels: tuple) -> int:
    """The id of a column of a forward fold, with the ids of its cuts."""
    i = _vector_id(labels)
    if _CUTS[i] is None:
        _CUTS[i] = tuple(_vector_id(labels[:h])
                         for h in range(1, len(labels) + 1))
    return i


class _Steps(dict):
    """A step table, which computes a missing value with ``step`` and
    counts it."""

    def __init__(self, step):
        super().__init__()
        self.step = step

    def __missing__(self, key):
        global _FOLD_ENTRIES, _FULL
        value = self[key] = self.step(key)
        _FOLD_ENTRIES += 1
        _FULL = _FOLD_ENTRIES >= FOLD_MAX_ENTRIES
        return value


def _fold_steps(v, back, bits: int):
    """The forward and backward step tables of the fold from variant ``v``
    to its conjugate ``back``, kept per rule set and conjugate function, as
    ``_small_rules`` keeps the rules.  A missing step runs the memoised
    rules on every frame of its column, which check both input edges."""
    conj = _small_conjugate
    rule_set = v, back, conj, bits
    if rule_set in _FOLD_STEPS:
        return _FOLD_STEPS[rule_set]
    forward_rule = _small_rules(v)[0]
    _, backward_rule, step_ok = _small_rules(back)[:3]
    digit = (1 << bits) - 1

    def forward_step(key):
        """The column's id from the left column's id, cut to the column's
        height h, and the column's digits."""
        left, digits = _VECTORS[key & _ID_MASK], key >> _ID_BITS
        h, column = len(left) - 1, [EMPTY]
        for r in range(1, h + 1):
            column.append(forward_rule(left[r - 1], column[-1], left[r],
                                       digits >> bits * (r - 1) & digit))
        return _column_id(tuple(column))

    def backward_step(key):
        """The left column's id in the conjugate diagram and the right
        column's digits (-1 if one overflows), from the left column's id
        in the forward diagram and the right column's in the conjugate one.
        The left column's rows from the right column's height h up are on
        the border: they are conjugated and step-checked first."""
        left, right = _VECTORS[key >> _ID_BITS], _VECTORS[key & _ID_MASK]
        h = len(right) - 1
        lam, nu = right[h], conj(left[h])
        if nu != lam and not step_ok("R", nu, lam):
            raise _Refused("the conjugated border has a refused step")
        column = [EMPTY] * h
        column.append(nu)
        for p in left[h + 1:]:
            p = conj(p)
            if p != column[-1] and not step_ok("D", p, column[-1]):
                raise _Refused("the conjugated border has a refused step")
            column.append(p)
        digits = 0
        for r in range(h, 0, -1):
            mu = right[r - 1]
            nu, m = backward_rule(mu, nu, lam)
            if m > digit:
                return -1
            column[r - 1], lam = nu, mu
            digits |= m << bits * (r - 1)
        i = _vector_id(tuple(column))
        # a column without entries gives the id itself, which the memo holds
        return digits << _ID_BITS | i if digits else i

    tables = _FOLD_STEPS[rule_set] = (_Steps(forward_step),
                                      _Steps(backward_step))
    return tables


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
