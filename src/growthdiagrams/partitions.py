"""Integer partitions as tuples of weakly decreasing positive parts.

Partitions are stored without trailing zeros; reading a part beyond the
length of the tuple yields 0.  Containment is coordinatewise.
"""

from operator import ge, sub

_ZERO_ONE = frozenset((0, 1))
_INT = frozenset((int,))


def int_tuple(values) -> tuple[int, ...]:
    """``values`` as a tuple, which must hold ints only (not bools)."""
    t = tuple(values)
    if not _INT.issuperset(map(type, t)):
        bad = next(x for x in t if type(x) is not int)
        raise ValueError(f"{bad!r} in {t} is not an integer")
    return t


def _check_n(n, needs: str):
    """Raise unless n is an int >= 0 (a bool is not, by int_tuple's rule)."""
    if type(n) is not int or n < 0:
        raise ValueError(f"{needs} an integer n >= 0, got {n!r}")


def parse_int(token: str, text: str) -> int:
    """The integer ``token`` of the input ``text``."""
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{token!r} in {text!r} is not an integer") from None


def make_partition(parts) -> tuple[int, ...]:
    """Normalize an iterable of int parts into a partition tuple.

    Trailing zeros are stripped.  Raises ValueError if a part is not an
    int, the parts are not weakly decreasing or contain a negative entry.
    """
    return checked_partition(int_tuple(parts))


def checked_partition(parts) -> tuple[int, ...]:
    """``make_partition`` for a list or tuple whose parts are already ints."""
    n = len(parts)
    while n and parts[n - 1] == 0:
        n -= 1
    p = tuple(parts[:n])
    if not all(map(ge, p, p[1:])):
        raise ValueError(f"parts not weakly decreasing: {p}")
    if p and p[-1] < 0:
        raise ValueError(f"negative part in {p}")
    return p


def part(p: tuple[int, ...], i: int) -> int:
    """The i-th part (1-based); 0 beyond the length of the partition."""
    return p[i - 1] if 1 <= i <= len(p) else 0


def size(p: tuple[int, ...]) -> int:
    return sum(p)


def conjugate(p: tuple[int, ...]) -> tuple[int, ...]:
    """Transpose the diagram: row lengths become column heights."""
    if not p:
        return ()
    return tuple(sum(1 for x in p if x >= i) for i in range(1, p[0] + 1))


def contains(outer: tuple[int, ...], inner: tuple[int, ...]) -> bool:
    """True if the diagram of ``inner`` fits inside ``outer``."""
    return len(inner) <= len(outer) and all(map(ge, outer, inner))


def is_horizontal_strip(outer: tuple[int, ...], inner: tuple[int, ...]) -> bool:
    """True if outer/inner is a horizontal strip (at most one square per column).

    Equivalently: outer_i >= inner_i >= outer_{i+1} for all i.
    """
    return (len(inner) <= len(outer) <= len(inner) + 1
            and all(map(ge, outer, inner)) and all(map(ge, inner, outer[1:])))


def is_vertical_strip(outer: tuple[int, ...], inner: tuple[int, ...]) -> bool:
    """True if outer/inner is a vertical strip (at most one square per row).

    Equivalently: outer_i - inner_i is 0 or 1 for all i.
    """
    k = len(inner)
    # the rows of outer below inner are weakly decreasing, so they are all
    # single squares when the first of them is
    return (k <= len(outer) and _ZERO_ONE.issuperset(map(sub, outer, inner))
            and (len(outer) == k or outer[k] == 1))


def differs_by_one_square(bigger: tuple[int, ...], smaller: tuple[int, ...]) -> bool:
    return contains(bigger, smaller) and size(bigger) == size(smaller) + 1


def to_compact(p: tuple[int, ...]) -> str:
    """Digit-string display form; the empty partition renders as 'e'."""
    if not p:
        return "e"
    if p[0] > 9:
        return to_brackets(p)
    return "".join(str(x) for x in p)


def to_brackets(p: tuple[int, ...]) -> str:
    return "[" + ",".join(str(x) for x in p) + "]"


def parse_partition(text: str) -> tuple[int, ...]:
    """Parse either the compact digit form ('21', 'e') or '[2,1]'."""
    text = text.strip()
    if text in ("e", "", "[]"):
        return ()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ValueError(f"unbalanced brackets in {text!r}")
        return make_partition(parse_int(x, text)
                              for x in text[1:-1].split(","))
    if not text.isdigit():
        raise ValueError(f"cannot parse partition {text!r}")
    return make_partition(int(c) for c in text)


def partitions_of(n: int, max_part: int | None = None):
    """Yield all partitions of n in lexicographically decreasing order."""
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(max_part, n)
    for first in range(top, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest
