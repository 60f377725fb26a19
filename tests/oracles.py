"""Brute-force counts that the tests check the library against; nothing in
``src/`` calls them."""

from growthdiagrams.correspondences import all_matchings, cross
from growthdiagrams.enumeration import all_fillings
from growthdiagrams.fillings import ZERO_ONE, chain_spec, longest_chain


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
