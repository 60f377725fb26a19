"""The strip predicates and local rules against a part-by-part reference.

The reference below reads every partition one part at a time through
``part()``, exactly as the rules are defined, with no padding and no
shortcuts.  The library's versions must agree with it on every frame:
the same output where the reference returns, and a ValueError exactly
where the reference raises one.  Exhaustive over all partitions of size
at most 6, then a Hypothesis property on long partitions.
"""

import hashlib
import json
from itertools import count, product
from pathlib import Path
from types import FunctionType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthdiagrams.local_rules import VARIANT_TABLE, VARIANTS, get_variant
from growthdiagrams.partitions import (conjugate, contains, is_horizontal_strip,
                                       is_vertical_strip, partitions_of)

# ---------------------------------------------------------------------------
# reference: partition operations


def ref_make_partition(parts):
    p = tuple(int(x) for x in parts)
    while p and p[-1] == 0:
        p = p[:-1]
    for a, b in zip(p, p[1:]):
        if b > a:
            raise ValueError(f"parts not weakly decreasing: {p}")
    if p and p[-1] < 0:
        raise ValueError(f"negative part in {p}")
    return p


def part(p, i):
    return p[i - 1] if 1 <= i <= len(p) else 0


def ref_contains(outer, inner):
    return all(part(outer, i) >= part(inner, i) for i in range(1, len(inner) + 1))


def ref_is_horizontal_strip(outer, inner):
    n = max(len(outer), len(inner))
    return all(part(outer, i) >= part(inner, i) >= part(outer, i + 1)
               for i in range(1, n + 1))


def ref_is_vertical_strip(outer, inner):
    n = max(len(outer), len(inner))
    return all(part(outer, i) - part(inner, i) in (0, 1) for i in range(1, n + 1)) \
        and ref_contains(outer, inner)


def ref_differs_by_one_square(bigger, smaller):
    return ref_contains(bigger, smaller) and sum(bigger) == sum(smaller) + 1


def ref_add_square_in_row(p, k):
    parts = list(p) + [0] * (k - len(p))
    parts[k - 1] += 1
    return ref_make_partition(parts)


def ref_diff_row(bigger, smaller):
    for i in count(1):
        a, b = part(bigger, i), part(smaller, i)
        if a != b:
            if a != b + 1 or not ref_differs_by_one_square(bigger, smaller):
                raise ValueError(f"{bigger} and {smaller} do not differ by one square")
            return i
        if i > len(bigger) and i > len(smaller):
            raise ValueError(f"{bigger} and {smaller} are equal")


def ref_union(mu, nu):
    n = max(len(mu), len(nu))
    return ref_make_partition(max(part(mu, i), part(nu, i)) for i in range(1, n + 1))


def ref_intersect(mu, nu):
    n = min(len(mu), len(nu))
    return ref_make_partition(min(part(mu, i), part(nu, i)) for i in range(1, n + 1))


# ---------------------------------------------------------------------------
# reference: the ten local rules


def _ref_small_step(bigger, smaller):
    if not (bigger == smaller or ref_differs_by_one_square(bigger, smaller)):
        raise ValueError("not a step of <= 1 square")


def _ref_strip(kind, outer, inner):
    test = ref_is_horizontal_strip if kind == "H" else ref_is_vertical_strip
    if not test(outer, inner):
        raise ValueError(f"{outer}/{inner} is not a {kind} strip")


def ref_forward_standard(rho, mu, nu, m):
    if m not in (0, 1):
        raise ValueError("standard rules need a 0/1 entry")
    _ref_small_step(mu, rho)
    _ref_small_step(nu, rho)
    if m:
        if not (rho == mu == nu):
            raise ValueError("cross in a cell whose corners are not all equal")
        return ref_add_square_in_row(rho, 1)
    if rho == mu == nu:
        return rho
    if rho == mu != nu:
        return nu
    if rho == nu != mu:
        return mu
    if mu != nu:
        return ref_union(mu, nu)
    return ref_add_square_in_row(mu, ref_diff_row(mu, rho) + 1)


def ref_backward_standard(mu, nu, lam):
    _ref_small_step(lam, mu)
    _ref_small_step(lam, nu)
    if lam == mu == nu:
        return lam, 0
    if lam == mu != nu:
        return nu, 0
    if lam == nu != mu:
        return mu, 0
    if mu != nu:
        return ref_intersect(mu, nu), 0
    k = ref_diff_row(lam, mu)
    if k == 1:
        return mu, 1
    parts = list(mu)
    parts[k - 2] -= 1
    return ref_make_partition(parts), 0


def ref_forward_rsk(rho, mu, nu, m):
    if m < 0:
        raise ValueError("negative entry")
    _ref_strip("H", mu, rho)
    _ref_strip("H", nu, rho)
    lam = []
    carry = m
    i = 1
    while True:
        li = max(part(mu, i), part(nu, i)) + carry
        if li == 0:
            break
        lam.append(li)
        carry = min(part(mu, i), part(nu, i)) - part(rho, i)
        i += 1
    return ref_make_partition(lam)


def ref_backward_rsk(mu, nu, lam):
    _ref_strip("H", lam, mu)
    _ref_strip("H", lam, nu)
    rho = [0] * len(lam)
    carry = 0
    for i in range(len(lam), 0, -1):
        rho[i - 1] = min(part(mu, i), part(nu, i)) - carry
        carry = part(lam, i) - max(part(mu, i), part(nu, i))
    return ref_make_partition(rho), carry


def ref_forward_dual_rsk(rho, mu, nu, m):
    if m not in (0, 1):
        raise ValueError("dual rules need a 0/1 entry")
    _ref_strip("H", mu, rho)
    _ref_strip("V", nu, rho)
    lam = []
    carry = m
    i = 1
    while True:
        li = max(part(mu, i) + carry, part(nu, i))
        if li == 0:
            break
        lam.append(li)
        carry = min(part(mu, i) + carry, part(nu, i)) - part(rho, i)
        i += 1
    return ref_make_partition(lam)


def ref_backward_dual_rsk(mu, nu, lam):
    _ref_strip("V", lam, mu)
    _ref_strip("H", lam, nu)
    rho = [0] * len(lam)
    carry = 0
    for i in range(len(lam), 0, -1):
        rho[i - 1] = min(part(mu, i), part(nu, i) - carry)
        carry = part(lam, i) - max(part(mu, i), part(nu, i) - carry)
    return ref_make_partition(rho), carry


def ref_forward_rsk_prime(rho, mu, nu, m):
    _ref_strip("V", mu, rho)
    _ref_strip("H", nu, rho)
    return ref_forward_dual_rsk(rho, nu, mu, m)


def ref_backward_rsk_prime(mu, nu, lam):
    _ref_strip("H", lam, mu)
    _ref_strip("V", lam, nu)
    return ref_backward_dual_rsk(nu, mu, lam)


def ref_forward_dual_rsk_prime(rho, mu, nu, m):
    if m < 0:
        raise ValueError("negative entry")
    _ref_strip("V", mu, rho)
    _ref_strip("V", nu, rho)
    lam = []
    carry = m
    i = 1
    while True:
        equal = 1 if part(rho, i) == part(mu, i) == part(nu, i) else 0
        used = min(equal, carry)
        li = max(part(mu, i), part(nu, i)) + used
        if li == 0:
            break
        lam.append(li)
        carry = carry - used + min(part(mu, i), part(nu, i)) - part(rho, i)
        i += 1
    return ref_make_partition(lam)


def ref_backward_dual_rsk_prime(mu, nu, lam):
    _ref_strip("V", lam, mu)
    _ref_strip("V", lam, nu)
    rho = [0] * len(lam)
    carry = 0
    for i in range(len(lam), 0, -1):
        equal = 1 if part(mu, i) == part(nu, i) == part(lam, i) else 0
        rho[i - 1] = min(part(mu, i), part(nu, i)) - min(equal, carry)
        carry = carry - min(equal, carry) + part(lam, i) - max(part(mu, i), part(nu, i))
    return ref_make_partition(rho), carry


REFERENCE = {
    "standard": (ref_forward_standard, ref_backward_standard),
    "rsk": (ref_forward_rsk, ref_backward_rsk),
    "dual-rsk": (ref_forward_dual_rsk, ref_backward_dual_rsk),
    "rsk-prime": (ref_forward_rsk_prime, ref_backward_rsk_prime),
    "dual-rsk-prime": (ref_forward_dual_rsk_prime, ref_backward_dual_rsk_prime),
}

# entries tried on every forward frame: negative, 0/1, and beyond 0/1
ENTRIES = (-1, 0, 1, 2, 3)


def outcome(fn, *args):
    """fn's result, or ValueError if it raises one."""
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def assert_predicates_agree(outer, inner):
    assert contains(outer, inner) == ref_contains(outer, inner), (outer, inner)
    assert is_horizontal_strip(outer, inner) == \
        ref_is_horizontal_strip(outer, inner), (outer, inner)
    assert is_vertical_strip(outer, inner) == \
        ref_is_vertical_strip(outer, inner), (outer, inner)


def assert_forward_agrees(name, rho, mu, nu, m):
    """Forward on (rho, mu, nu, m) agrees with the reference; where it
    succeeds, both backward rules take its output back to (rho, m).
    Returns the forward outcome."""
    v = get_variant(name)
    ref_forward, ref_backward = REFERENCE[name]
    lam = outcome(v.forward, rho, mu, nu, m)
    assert lam == outcome(ref_forward, rho, mu, nu, m), (name, rho, mu, nu, m)
    if lam is not ValueError:
        assert v.backward(mu, nu, lam) == ref_backward(mu, nu, lam) == (rho, m)
    return lam


def assert_backward_agrees(name, mu, nu, lam):
    assert outcome(get_variant(name).backward, mu, nu, lam) == \
        outcome(REFERENCE[name][1], mu, nu, lam), (name, mu, nu, lam)


SMALL = [p for n in range(7) for p in partitions_of(n)]


@pytest.mark.parametrize("name", VARIANTS)
def test_variant_table_holds_the_plain_rules(name):
    """The growth layer memoises the rules outside VARIANT_TABLE, so the
    comparisons in this file run the rules themselves, uncached: the plain
    functions that ``local_rules._variant`` builds, not a cache over them."""
    v = VARIANT_TABLE[name]
    for rule, kind in ((v.forward, "forward"), (v.backward, "backward")):
        assert type(rule) is FunctionType
        assert rule.__qualname__ == f"_variant.<locals>.{kind}"


def test_strip_predicates_match_reference_exhaustively():
    for outer, inner in product(SMALL, repeat=2):
        assert_predicates_agree(outer, inner)


@pytest.mark.parametrize("name", VARIANTS)
def test_rules_match_reference_exhaustively(name):
    """Every triple of small partitions, as a backward frame and as a
    forward frame with each entry in ENTRIES."""
    admissible = 0
    for a, b, c in product(SMALL, repeat=3):
        assert_backward_agrees(name, a, b, c)
        for m in ENTRIES:
            admissible += assert_forward_agrees(name, a, b, c, m) is not ValueError
    assert admissible > 0


# Each rule's result or ValueError text on every frame of partitions of
# size at most 5, entries -1..2 forward, as a digest per (variant,
# direction).  The digests were recorded from the rules as they stood
# before their one-walk kernels, so that the kernels keep every result and
# every message of the rules they replaced.
RULE_DIGESTS = Path(__file__).resolve().parent / "golden" / "rule_digests.json"
DIGEST_PARTITIONS = [p for n in range(6) for p in partitions_of(n)]


def rule_digest(name, direction):
    rule = getattr(get_variant(name), direction)
    h = hashlib.sha256()
    for a, b, c in product(DIGEST_PARTITIONS, repeat=3):
        for args in ([(a, b, c, m) for m in range(-1, 3)]
                     if direction == "forward" else [(a, b, c)]):
            try:
                out = repr(rule(*args))
            except ValueError as exc:
                out = f"ValueError: {exc}"
            h.update(f"{args!r} -> {out}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", VARIANTS)
def test_rules_match_their_golden_digests(name):
    golden = json.loads(RULE_DIGESTS.read_text())
    for direction in ("forward", "backward"):
        assert rule_digest(name, direction) == golden[name][direction], \
            (name, direction)


# ---------------------------------------------------------------------------
# long partitions


@st.composite
def long_partitions(draw, max_len=30):
    n = draw(st.integers(0, max_len))
    parts = draw(st.lists(st.integers(1, 40), min_size=n, max_size=n))
    return tuple(sorted(parts, reverse=True))


@st.composite
def grown(draw, rho):
    """A partition above rho: a horizontal strip, a vertical strip, a
    single square, rho itself, or any partition at all."""
    kind = draw(st.sampled_from(("H", "V", "square", "same", "any")))
    if kind == "same":
        return rho
    if kind == "any":
        return draw(long_partitions())
    if kind == "square":
        rows = [i for i in range(len(rho) + 1)
                if i == 0 or rho[i - 1] > (rho[i] if i < len(rho) else 0)]
        k = draw(st.sampled_from(rows))
        return tuple(x + (i == k) for i, x in enumerate(rho + (0,)) if x + (i == k))
    base = rho if kind == "H" else conjugate(rho)
    out = []
    for i, x in enumerate(base + (0,)):
        top = base[i - 1] if i else x + 5
        out.append(draw(st.integers(x, top)))
    strip = tuple(x for x in out if x)
    return strip if kind == "H" else conjugate(strip)


@st.composite
def frames(draw):
    rho = draw(long_partitions())
    return rho, draw(grown(rho)), draw(grown(rho)), draw(st.integers(-1, 4))


@settings(max_examples=300, deadline=None)
@given(frames())
def test_rules_match_reference_on_long_partitions(frame):
    rho, mu, nu, m = frame
    for outer, inner in ((mu, rho), (nu, rho), (mu, nu), (nu, mu)):
        assert_predicates_agree(outer, inner)
    for name in VARIANTS:
        lam = assert_forward_agrees(name, rho, mu, nu, m)
        assert_backward_agrees(name, mu, nu, rho)
        if lam is not ValueError:
            # lam with one more square in its first row, or in a new last row
            wider = (lam[0] + 1,) + lam[1:] if lam else (1,)
            assert_backward_agrees(name, mu, nu, wider)
            assert_backward_agrees(name, mu, nu, lam + (1,))
