"""Set partitions and matchings, their fillings and tableau sequences,
and the chain-statistic swapping maps built from growth diagrams.

Set partitions of {1, ..., n} are encoded as fillings of the triangular
shape with n-1 cells in the bottom row: a pair (i, j) of the standard
representation (i < j, consecutive elements of a block) puts a cross in
column i and in the j-th row counted from above, i.e. internal row
n + 1 - j.  Nestings of the partition then become strictly up-right
(``ne``) chains of the filling, and crossings become strictly down-right
(``se``) chains whose bounding rectangle lies in the shape: the
rectangle's top-right cell (i_k, n + 1 - j_1) is in the staircase exactly
when i_k < j_1.

The enhanced statistics read the same two chains in the filling of the
hesitating shape.  That is the staircase with an extra diagonal cell
(i, n + 1 - i) whenever i is a singleton or the middle element of a block,
and a singleton puts a cross in its diagonal cell.  There the rectangle's
top-right cell is in the shape exactly when i_k <= j_1, the enhanced
crossing condition.  No statistic reads a growth label, so the
statistic-swapping bijections are checked against them; the T4-T6
verifiers read the same chains as T2's ``NE`` and ``SE`` specs do.

Each tableau is the border of its filling read along one D/R word, with
one step pair per element i of 1..n: "DR" (delete, then add) except where
the shape has the extra diagonal cell of i, which turns the pair into "RD"
(add, then delete).  So the vacillating tableau is read along "DR" * n, the
hesitating tableau along "DR" or "RD" for each i, and the oscillating
tableau of a matching of 1..2n along "DR" * 2n with every other label
dropped.

Both conjugations are the standard swap of the partition's filling
(``swap_chain_statistics``): conjugating every label of the vacillating
or hesitating tableau and running the backward rules is exactly the swap
of the staircase or hesitating filling.  A matching is conjugated as the
set partition it is.  Only the encoders of the tableaux live here; the
decoders are kept in the tests, as the reference the swap is checked
against.
"""

from dataclasses import dataclass

from .fillings import Filling, _trusted, chain_spec, longest_chain
from .growth import (GrowthTableau, _sweep_plan, border_tableau,
                     conjugate_swap, growth_tableau, label_diagram)
from .partitions import _check_n, make_partition, parse_int

# the chains of a k-crossing and of a k-nesting, in either filling
_CROSSING = chain_spec("se", require_rectangle=True)
_NESTING = chain_spec("ne")


@dataclass(frozen=True)
class SetPartition:
    n: int
    blocks: tuple  # tuple of sorted tuples, sorted by minimum

    def __post_init__(self):
        _check_n(self.n, "a set partition needs")
        blocks = [tuple(sorted(b)) for b in self.blocks]
        if not all(blocks):
            raise ValueError(f"a set partition of 1..{self.n} has an empty block")
        blocks = tuple(sorted(blocks, key=lambda b: b[0]))
        seen = [x for b in blocks for x in b]
        if sorted(seen) != list(range(1, self.n + 1)):
            raise ValueError(f"blocks {blocks} do not partition 1..{self.n}")
        object.__setattr__(self, "blocks", blocks)

    def __str__(self) -> str:
        return " | ".join(" ".join(str(x) for x in b) for b in self.blocks)


def parse_set_partition(text: str, n: int | None = None) -> SetPartition:
    blocks = tuple(tuple(parse_int(x, text) for x in part.split())
                   for part in text.split("|")) if text.strip() else ()
    if n is None:
        n = max((x for b in blocks for x in b), default=0)
    return SetPartition(n, blocks)


def all_set_partitions(n: int):
    """All set partitions of {1..n}, by recursive block insertion."""
    _check_n(n, "set partitions need")
    if n == 0:
        yield SetPartition(0, ())
        return
    for p in all_set_partitions(n - 1):
        yield SetPartition(n, p.blocks + ((n,),))
        for i in range(len(p.blocks)):
            blocks = list(p.blocks)
            blocks[i] = blocks[i] + (n,)
            yield SetPartition(n, tuple(blocks))


def standard_representation(p: SetPartition):
    """Pairs of consecutive elements within blocks."""
    return sorted((b[i], b[i + 1]) for b in p.blocks for i in range(len(b) - 1))


def cross(p: SetPartition) -> int:
    """The largest k of a k-crossing of p."""
    return longest_chain(setpartition_to_filling(p), _CROSSING)


def nest(p: SetPartition) -> int:
    """The largest k of a k-nesting of p."""
    return longest_chain(setpartition_to_filling(p), _NESTING)


def enhanced_cross(p: SetPartition) -> int:
    """The largest k of an enhanced k-crossing of p."""
    return longest_chain(_hesitating(p.n, _crosses(p))[1], _CROSSING)


def enhanced_nest(p: SetPartition) -> int:
    """The largest k of an enhanced k-nesting of p."""
    return longest_chain(_hesitating(p.n, _crosses(p))[1], _NESTING)


def min_max_blocks(p: SetPartition):
    """The sets of block minima and block maxima."""
    return (frozenset(b[0] for b in p.blocks), frozenset(b[-1] for b in p.blocks))


# ---------------------------------------------------------------------------
# vacillating tableaux

def _crosses(p: SetPartition) -> dict:
    """A cross in column i, row n + 1 - j for each pair (i, j) of p."""
    return {(i, p.n + 1 - j): 1 for i, j in standard_representation(p)}


def setpartition_to_filling(p: SetPartition) -> Filling:
    # the staircase is the shape of its word's sweep plan, which is stored
    # for a small n, so one shape serves every partition of that n
    return _trusted(Filling, shape=_sweep_plan(_tableau_word(p.n)).shape,
                    entries=_crosses(p))


def filling_to_setpartition(f: Filling, n: int) -> SetPartition:
    """The partition whose pairs are the crosses of f, a staircase or
    hesitating filling; a cross in a diagonal cell is a singleton."""
    succ = {}
    for i, j in ((c, n + 1 - r) for (c, r) in f.entries):
        if i == j:
            continue
        if i in succ:
            raise ValueError(f"element {i} linked twice")
        succ[i] = j
    starts = set(range(1, n + 1)) - set(succ.values())
    blocks = []
    for s in sorted(starts):
        block = [s]
        while block[-1] in succ:
            block.append(succ[block[-1]])
        blocks.append(tuple(block))
    return SetPartition(n, tuple(blocks))


def _tableau_word(n: int, extended=()) -> str:
    """The reading word of a set partition's growth diagram: "DR" for each
    element of 1..n, and "RD" instead for each element in ``extended``."""
    return "".join("RD" if i in extended else "DR" for i in range(1, n + 1))


def setpartition_to_vacillating(p: SetPartition) -> GrowthTableau:
    """The sequence of 2n+1 partitions read along the staircase boundary."""
    return growth_tableau(setpartition_to_filling(p), word=_tableau_word(p.n))


def min_max_from_vacillating(t: GrowthTableau, n: int | None = None):
    """Read off the block minima and maxima directly from the tableau:
    i is a minimum iff nothing is deleted at step 2i-1, a maximum iff
    nothing is added at step 2i."""
    if n is None:
        n = (len(t.seq) - 1) // 2
    minima = frozenset(i for i in range(1, n + 1)
                       if t.seq[2 * i - 2] == t.seq[2 * i - 1])
    maxima = frozenset(i for i in range(1, n + 1)
                       if t.seq[2 * i - 1] == t.seq[2 * i])
    return minima, maxima


# ---------------------------------------------------------------------------
# pairs (P, T): partial tableau along the bottom boundary

@dataclass(frozen=True)
class PartialTableau:
    """Rows of distinct positive integers, increasing along rows and columns."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        for r in rows:
            if any(a >= b for a, b in zip(r, r[1:])):
                raise ValueError(f"row {r} not increasing")
        for a, b in zip(rows, rows[1:]):
            if len(b) > len(a):
                raise ValueError("rows do not form a partition shape")
            if any(x >= y for x, y in zip(a, b)):
                raise ValueError("columns not increasing")
        entries = [x for r in rows for x in r]
        if len(set(entries)) != len(entries):
            raise ValueError("repeated entry")
        object.__setattr__(self, "rows", rows)

    @property
    def entries(self):
        return frozenset(x for r in self.rows for x in r)

    def shape_at(self, bound: int):
        """Shape formed by the entries <= bound."""
        return make_partition(sum(1 for x in r if x <= bound) for r in self.rows)


def pair_to_vacillating(p: SetPartition, t: PartialTableau) -> GrowthTableau:
    """Growth of the partition filling with the chain of t along the bottom.

    The entries of t must be block maxima of p.
    """
    maxima = min_max_blocks(p)[1]
    if not t.entries <= maxima:
        raise ValueError("tableau entries must be block maxima of the partition")
    n = p.n
    bottom = [t.shape_at(x) for x in range(n + 1)]
    diagram = label_diagram(setpartition_to_filling(p), "standard",
                            word=_tableau_word(n), bottom=bottom)
    return border_tableau(diagram)


# ---------------------------------------------------------------------------
# hesitating tableaux

def _hesitating(n: int, crosses):
    """The hesitating word and filling of the partition of 1..n with the
    staircase ``crosses``, each of which links a head i to a tail j: a
    singleton (neither) adds a filled diagonal cell (i, n + 1 - i), and a
    middle element (both) an empty one."""
    heads, tails = {c for c, _ in crosses}, {n + 1 - r for _, r in crosses}
    extended = {i for i in range(1, n + 1) if (i in heads) == (i in tails)}
    word = _tableau_word(n, extended)
    entries = {**crosses, **{(i, n + 1 - i): 1 for i in extended - heads}}
    # as for the staircase, a small word's stored plan shares its shape
    return word, _trusted(Filling, shape=_sweep_plan(word).shape,
                          entries=entries)


def setpartition_to_hesitating(p: SetPartition) -> GrowthTableau:
    word, f = _hesitating(p.n, _crosses(p))
    return growth_tableau(f, word=word)


# ---------------------------------------------------------------------------
# matchings and oscillating tableaux

@dataclass(frozen=True)
class Matching:
    """A perfect matching of {1, ..., 2n}, as sorted pairs."""

    n: int
    pairs: tuple

    def __post_init__(self):
        _check_n(self.n, "a matching needs")
        pairs = tuple(sorted(tuple(sorted(p)) for p in self.pairs))
        for p in pairs:
            if len(p) != 2:
                raise ValueError(f"matching block {p} is not a pair")
        seen = [x for p in pairs for x in p]
        if sorted(seen) != list(range(1, 2 * self.n + 1)):
            raise ValueError(f"pairs {pairs} do not match up 1..{2 * self.n}")
        object.__setattr__(self, "pairs", pairs)

    def __str__(self) -> str:
        return " ".join(f"{a}-{b}" for a, b in self.pairs)

    def as_set_partition(self) -> SetPartition:
        return SetPartition(2 * self.n, self.pairs)


def matching_to_oscillating(m: Matching) -> GrowthTableau:
    """Drop the odd-indexed terms of the vacillating tableau of the matching."""
    vac = setpartition_to_vacillating(m.as_set_partition())
    seq = vac.seq[::2]
    return GrowthTableau("D" * (2 * m.n), seq)


# ---------------------------------------------------------------------------
# statistic-swapping bijections

# the forward variant of each mode of swap_chain_statistics
_SWAP_FORWARD = {"standard": "standard", "nes1": "rsk",
                 "nes1-inverse": "dual-rsk-prime", "nes2": "dual-rsk",
                 "nes2-inverse": "rsk-prime"}


def swap_chain_statistics(f: Filling, mode: str = "standard") -> Filling:
    """Map a filling to one with the up-chain and down-chain statistics
    exchanged, by conjugating every border label.

    * ``standard``: partial permutation fillings, same rules both ways;
    * ``nes1``: arbitrary fillings; forward with the rsk rules, backward
      with the dual-rsk-prime rules;
    * ``nes2``: 0/1 fillings; forward with the dual-rsk rules, backward
      with the rsk-prime rules;
    * ``nes1-inverse`` / ``nes2-inverse``: the inverse directions.
    """
    if mode not in _SWAP_FORWARD:
        raise ValueError(f"unknown mode {mode!r}; choose from "
                         f"{tuple(_SWAP_FORWARD)}")
    return conjugate_swap(f, _SWAP_FORWARD[mode])


def conjugate_set_partition(p: SetPartition) -> SetPartition:
    """Exchange cross and nest by the standard swap of p's filling, which
    conjugates its vacillating tableau."""
    f = swap_chain_statistics(setpartition_to_filling(p))
    return filling_to_setpartition(f, p.n)


def conjugate_set_partition_enhanced(p: SetPartition) -> SetPartition:
    """Exchange enhanced cross and nest by the standard swap of p's
    hesitating filling, which conjugates its hesitating tableau."""
    f = swap_chain_statistics(_hesitating(p.n, _crosses(p))[1])
    return filling_to_setpartition(f, p.n)
