"""Fillings of shapes with nonnegative integers, chain statistics, and a
brute-force oracle for Greene-style invariants.

A filling stores only its nonzero entries, keyed by (col, row).  Three
nested classes of fillings appear throughout:

* ``arbitrary``          -- any nonnegative entries,
* ``zero-one``           -- entries 0/1,
* ``partial-permutation``-- entries 0/1 with at most one 1 per row and column.

Chains are described by a :class:`ChainSpec`, keyed by its two-letter
compass code.  The first letter gives the vertical relation (N = weakly
above, n = strictly above, S = weakly below, s = strictly below), the
second the horizontal one (E = weakly right, e = strictly right).
:func:`longest_chain` finds the longest chain with one longest-path pass;
the tests check it against an exhaustive search over all chains.
"""

import json
from dataclasses import dataclass, field

from .shapes import shape_from_word

ARBITRARY = "arbitrary"
ZERO_ONE = "zero-one"
PARTIAL_PERMUTATION = "partial-permutation"


class InstanceTooLarge(Exception):
    """Raised when a brute-force computation exceeds its safety budget."""


@dataclass(frozen=True)
class Filling:
    shape: object
    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for (c, r), v in self.entries.items():
            v = int(v)
            if v < 0:
                raise ValueError(f"negative entry at ({c},{r})")
            if v == 0:
                continue
            if (c, r) not in self.shape:
                raise ValueError(f"cell ({c},{r}) outside shape {self.shape}")
            clean[(c, r)] = v
        object.__setattr__(self, "entries", clean)

    def entry(self, c: int, r: int) -> int:
        return self.entries.get((c, r), 0)

    @property
    def entry_sum(self) -> int:
        return sum(self.entries.values())

    def cells(self):
        """Cells carrying a nonzero entry, in column-major order."""
        return sorted(self.entries)

    def __eq__(self, other):
        return (isinstance(other, Filling)
                and self.shape == other.shape and self.entries == other.entries)

    def __hash__(self):
        return hash((self.shape, tuple(sorted(self.entries.items()))))


def filling_class(f: Filling) -> str:
    """The strictest of the three filling classes that f belongs to."""
    return next(cls for cls in (PARTIAL_PERMUTATION, ZERO_ONE, ARBITRARY)
                if in_class(f, cls))


def in_class(f: Filling, cls: str) -> bool:
    """Whether f belongs to the class cls (the classes are nested)."""
    if cls == ARBITRARY:
        return True
    if cls not in (ZERO_ONE, PARTIAL_PERMUTATION):
        raise ValueError(f"unknown filling class {cls!r}")
    entries = f.entries
    if any(v > 1 for v in entries.values()):
        return False
    if cls == ZERO_ONE:
        return True
    return (len({c for c, _ in entries}) == len(entries)
            == len({r for _, r in entries}))


def transpose_filling(f: Filling) -> Filling:
    shape = f.shape.transpose()
    return Filling(shape, {(r, c): v for (c, r), v in f.entries.items()})


def filling_to_json(f: Filling) -> str:
    return json.dumps({
        "shape": f.shape.word,
        "entries": [[c, r, v] for (c, r), v in sorted(f.entries.items())],
    })


def int_lists(value, length=None) -> bool:
    """True if value is a JSON list of lists of integers (each of the given
    length, if one is given)."""
    return isinstance(value, list) and all(
        isinstance(item, list) and length in (None, len(item))
        and all(type(x) is int for x in item) for item in value)


def filling_from_json(text: str) -> Filling:
    data = json.loads(text)
    if not (isinstance(data, dict) and isinstance(data.get("shape"), str)
            and int_lists(data.get("entries"), 3)):
        raise ValueError('a filling is a JSON object {"shape": "<D/R word>", '
                         '"entries": [[col, row, value], ...]}')
    shape = shape_from_word(data["shape"])
    return Filling(shape, {(c, r): v for c, r, v in data["entries"]})


# ---------------------------------------------------------------------------
# chain specifications

@dataclass(frozen=True)
class ChainSpec:
    code: str                            # two-letter compass code, e.g. 'NE'
    length_mode: str = "count"           # count | entry-sum | entry-multiplicity
    require_rectangle: bool = False
    # the code's relations, derived once; equality, hashing and repr use the
    # fields above.  A step from a to b rises by at least min_rise rows
    # (upward for N/n, downward for S/s) and moves right by at least min_run
    # columns.
    upward: bool = field(init=False, repr=False, compare=False)
    min_rise: int = field(init=False, repr=False, compare=False)
    min_run: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if (len(self.code) != 2 or self.code[0] not in "NnSs"
                or self.code[1] not in "Ee"):
            raise ValueError(f"bad chain code {self.code!r}")
        if self.length_mode not in ("count", "entry-sum", "entry-multiplicity"):
            raise ValueError(f"bad length mode {self.length_mode!r}")
        v, h = self.code
        object.__setattr__(self, "upward", v in "Nn")
        object.__setattr__(self, "min_rise", int(v in "ns"))
        object.__setattr__(self, "min_run", int(h == "e"))

    def step_ok(self, a, b) -> bool:
        """May cell b follow cell a in a chain?"""
        (ca, ra), (cb, rb) = a, b
        rise = rb - ra if self.upward else ra - rb
        return ((ca, ra) != (cb, rb) and rise >= self.min_rise
                and cb - ca >= self.min_run)


def chain_spec(code: str, length_mode: str = "count",
               require_rectangle: bool = False) -> ChainSpec:
    """Build a ChainSpec from a two-letter compass code like 'NE' or 'se'."""
    return ChainSpec(code, length_mode, require_rectangle)


def _sorted_cells(cells, spec: ChainSpec):
    """The cells in an order of which every chain is a subsequence."""
    if spec.upward:
        return sorted(cells)
    return sorted(cells, key=lambda cr: (cr[0], -cr[1]))


def longest_chain(f: Filling, spec: ChainSpec) -> int:
    """Length of the longest single chain of the given flavor.

    With ``require_rectangle`` the bounding rectangle of the chain must lie
    inside the shape.  For a single chain the multiset mode coincides with
    plain counting.

    A chain's bounding box is spanned by its two ends, so one longest-path
    pass decides it: for each cell, the longest chain to it from each
    earlier start cell.  O(k^3) in the k nonzero cells.
    """
    cells = _sorted_cells(f.entries, spec)
    entry_sum = spec.length_mode == "entry-sum"
    upward, min_rise, min_run = spec.upward, spec.min_rise, spec.min_run
    # both shape kinds are bottom-justified columns, so a box fits when
    # every column it spans reaches its top row
    heights = f.shape.col_heights if spec.require_rectangle else None
    best = 0
    # from_start[j][s]: the longest chain from cells[s] to cells[j]
    from_start = []
    for j, (c1, r1) in enumerate(cells):
        weight = f.entries[(c1, r1)] if entry_sum else 1
        here = {j: weight}
        # the earlier cells, which are all distinct from this one
        for (c0, r0), ends in zip(cells, from_start):
            if ((r1 - r0 if upward else r0 - r1) >= min_rise
                    and c1 - c0 >= min_run):
                for s, value in ends.items():
                    if value + weight > here.get(s, 0):
                        here[s] = value + weight
        from_start.append(here)
        for s, value in here.items():
            if value > best:
                c0, r0 = cells[s]
                if heights is None or min(heights[c0 - 1:c1]) >= max(r0, r1):
                    best = value
    return best


# the exhaustive oracle refuses instances beyond these limits
ORACLE_MAX_CELLS = 16
ORACLE_MAX_ENTRY_SUM = 8
ORACLE_MAX_K = 3


def greene_oracle(f: Filling, spec: ChainSpec, k: int, corner=None) -> int:
    """Maximal total length of a collection of k chains, by exhaustive search.

    The collection semantics depend on the length mode:

    * ``count``: k chains, maximizing the cardinality of the union of their
      cells (equivalently: the largest cell set decomposable into k chains);
    * ``entry-sum``: k pairwise disjoint chains, maximizing the sum of the
      entries they cover;
    * ``entry-multiplicity``: k chains where a cell with entry e may appear
      in up to e of them, maximizing the cardinality of the multiset union.

    ``corner=(x, y)`` restricts attention to the cells weakly left of
    column x and weakly below row y.  This search is deliberately
    independent of the growth-diagram machinery; it is the reference
    implementation the fast invariants are tested against.
    """
    region = list(f.entries)
    if corner is not None:
        x, y = corner
        region = [(c, r) for (c, r) in region if c <= x and r <= y]
    if (f.shape.n_cells > ORACLE_MAX_CELLS or f.entry_sum > ORACLE_MAX_ENTRY_SUM
            or k > ORACLE_MAX_K):
        raise InstanceTooLarge(
            f"oracle budget exceeded (cells={f.shape.n_cells}, "
            f"sum={f.entry_sum}, k={k})")
    cells = _sorted_cells(region, spec)

    if spec.length_mode == "entry-multiplicity":
        caps = [min(f.entry(c, r), k) for c, r in cells]
        gain = [1] * len(cells)
    elif spec.length_mode == "entry-sum":
        caps = [1] * len(cells)
        gain = [f.entry(c, r) for c, r in cells]
    else:
        caps = [1] * len(cells)
        gain = [1] * len(cells)

    best = 0

    def search(idx, lasts, value):
        nonlocal best
        if value + sum(gain[idx:]) * max(caps[idx:], default=1) <= best:
            return
        if idx == len(cells):
            best = max(best, value)
            return
        cell = cells[idx]
        nonempty = [j for j in range(k)
                    if lasts[j] is not None and spec.step_ok(lasts[j], cell)]
        empties = [j for j in range(k) if lasts[j] is None]
        base = [()]
        for j in nonempty:
            base.extend(sub + (j,) for sub in list(base) if len(sub) < caps[idx])
        # empty chains are interchangeable, so only prefixes of them are used
        choices = []
        for sub in base:
            for t in range(min(caps[idx] - len(sub), len(empties)) + 1):
                choices.append(sub + tuple(empties[:t]))
        for subset in choices:
            new_lasts = list(lasts)
            for j in subset:
                new_lasts[j] = cell
            search(idx + 1, tuple(new_lasts), value + gain[idx] * len(subset))

    search(0, tuple([None] * k), 0)
    return best
