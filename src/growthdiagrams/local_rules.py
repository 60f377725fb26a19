"""Local growth rules for the cells of a growth diagram.

Each cell of a diagram has four corner labels

        nu -- lam
        |      |
        rho -- mu

together with a cell entry m (for the standard rules a 0/1 cross marker).
The forward rule computes lam from (rho, mu, nu, m); the backward rule
recovers (rho, m) from (mu, nu, lam).  Five rule sets are provided:

* ``standard``       -- partial permutation fillings, chains of partitions
                        growing by at most one square per step;
* ``rsk``            -- arbitrary entries, horizontal strips in both
                        directions;
* ``dual-rsk``       -- 0/1 entries, horizontal strips rightward and
                        vertical strips downward;
* ``rsk-prime``      -- 0/1 entries, the reflection of dual-rsk;
* ``dual-rsk-prime`` -- arbitrary entries, vertical strips both ways.

Every variant's rules share one checked frame, built from its row of
``VARIANT_TABLE``: the entry is checked against the filling class (0 or 1
for the two 0/1 classes, nonnegative for arbitrary fillings), and the
frame goes to the variant's forward or backward kernel.  A kernel makes
one walk over the parts of its three corner labels, reading 0 past the
end of a shorter one: in that walk it checks both input edges against the
variant's step kinds (mu/rho and lam/nu are right steps, nu/rho and
lam/mu down steps), builds the result part by part, exactly as in the
rule's defining description rather than through bumping, and checks that
the result is a partition.  A kernel returns None when a check fails; only
then does the rule run the step tests, to raise the message of the edge
that fails.  A ``Variant`` also exposes its right and down step tests, for
the sweeps of ``growth``: they pass labels through themselves, testing
the edge they copy, and hand every other frame to the rule.
"""

from dataclasses import dataclass
from itertools import zip_longest
from math import inf

from .fillings import ARBITRARY, PARTIAL_PERMUTATION, ZERO_ONE
from .partitions import (differs_by_one_square, is_horizontal_strip,
                         is_vertical_strip)

VARIANTS = ("standard", "rsk", "dual-rsk", "rsk-prime", "dual-rsk-prime")


def _small_step(bigger, smaller):
    """True if bigger is smaller or smaller plus one square."""
    return bigger == smaller or differs_by_one_square(bigger, smaller)


# step kinds: the test of a step, called as test(outer, inner), and what a
# step that fails it is not
_STEP_TESTS = {"1": _small_step, "H": is_horizontal_strip,
               "V": is_vertical_strip}
_STEP_NAMES = {"1": "a step of <= 1 square", "H": "a horizontal strip",
               "V": "a vertical strip"}


# The kernels.  A forward kernel walks (rho, mu, nu) from the first row
# down, a backward kernel (mu, nu, lam) from the last row of lam up.  In
# each row they check the row's parts of both input edges: outer/inner is
# a horizontal strip when inner_i <= outer_i <= inner_(i-1), a vertical
# strip when inner_i <= outer_i <= inner_i + 1, and a step of at most one
# square when it is a vertical strip that differs in one row at most.
# The strip kernels build the result one part per row, each checked
# against the part before it, so that it is weakly decreasing with no
# trailing zero; the standard kernels build it from mu with one list edit,
# checked against its neighbour.  A kernel returns None when a check
# fails.  The standard forward kernel raises on a cross in a cell whose
# corners differ, once its walk has found both edges valid.  Each kernel
# returns the label it passes through when only one side grows:
# forward, an empty cell with rho = mu gives lam = nu and one with rho =
# nu gives lam = mu; backward, lam = nu gives (rho, m) = (mu, 0) and lam =
# mu gives (nu, 0).

def _forward_standard(rho, mu, nu, m):
    # the one row (0-based) where mu, and the one where nu, exceeds rho
    ka = kb = -1
    for i, (r, a, b) in enumerate(zip_longest(rho, mu, nu, fillvalue=0)):
        if a != r:
            if a != r + 1 or ka >= 0:
                return None
            ka = i
        if b != r:
            if b != r + 1 or kb >= 0:
                return None
            kb = i
    if m:
        if ka >= 0 or kb >= 0:
            raise ValueError("cross in a cell whose corners are not all equal")
        return (rho[0] + 1,) + rho[1:] if rho else (1,)
    if kb < 0:
        return mu
    if ka < 0:
        return nu
    # lam is mu plus the square nu added, or, when both added a square in
    # the same row, plus a square in the row below it
    k = kb if ka != kb else kb + 1
    lam = list(mu)
    if k < len(lam):
        lam[k] += 1
        if k and lam[k] > lam[k - 1]:
            return None
    else:
        lam.append(1)
    return tuple(lam)


def _backward_standard(mu, nu, lam):
    # the one row (0-based) where lam exceeds mu, and the one where it
    # exceeds nu
    ka = kb = -1
    for i, (c, a, b) in enumerate(zip_longest(lam, mu, nu, fillvalue=0)):
        if c != a:
            if c != a + 1 or ka >= 0:
                return None
            ka = i
        if c != b:
            if c != b + 1 or kb >= 0:
                return None
            kb = i
    if kb < 0:
        return mu, 0
    if ka < 0:
        return nu, 0
    if ka == kb == 0:
        return mu, 1
    # rho is mu less the square nu lost, or, when both lost a square in the
    # same row, less a square in the row above it
    k = kb if ka != kb else kb - 1
    rho = list(mu)
    rho[k] -= 1
    if k + 1 < len(rho) and rho[k] < rho[k + 1]:
        return None
    if not rho[k]:
        rho.pop()
    return tuple(rho), 0


def _rows_up(mu, nu, lam):
    """The rows (lam_i, mu_i, nu_i) from the last row of lam up, mu and nu
    read as 0 past their ends; None if mu or nu is longer than lam."""
    n = len(lam)
    if len(mu) > n or len(nu) > n:
        return None
    return zip(reversed(lam), reversed(mu + (0,) * (n - len(mu))),
               reversed(nu + (0,) * (n - len(nu))))


def _partition_up(rho):
    """The partition whose parts ``rho`` lists from the last row up, once
    each part is known to be at least the one before it and at least 0."""
    del rho[:rho.count(0)]
    rho.reverse()
    return tuple(rho)


def _forward_rsk(rho, mu, nu, m):
    """mu/rho and nu/rho horizontal strips."""
    lam = []
    carry = m
    above = top = inf   # the parts of rho and lam in the row above
    for r, a, b in zip_longest(rho, mu, nu, fillvalue=0):
        if not (r <= a <= above and r <= b <= above):
            return None
        if a < b:
            a, b = b, a
        a += carry
        if a > top:
            return None
        lam.append(a)
        top, above, carry = a, r, b - r
    # the carry left below the longer of mu and nu fills one more row
    if carry > top:
        return None
    if carry:
        lam.append(carry)
    return tuple(lam)


def _backward_rsk(mu, nu, lam):
    """lam/mu and lam/nu horizontal strips."""
    rows = _rows_up(mu, nu, lam)
    if rows is None:
        return None
    rho = []
    carry = below = low = 0   # the parts of lam and rho in the row below
    for c, a, b in rows:
        if not (below <= a <= c and below <= b <= c):
            return None
        if a < b:
            a, b = b, a
        b -= carry
        if b < low:
            return None
        rho.append(b)
        below, low, carry = c, b, c - a
    return _partition_up(rho), carry


def _forward_dual_rsk(rho, mu, nu, m):
    """mu/rho a horizontal strip, nu/rho a vertical strip."""
    lam = []
    carry = m
    above = top = inf
    for r, a, b in zip_longest(rho, mu, nu, fillvalue=0):
        if not (r <= a <= above and r <= b <= r + 1):
            return None
        a += carry
        if a < b:
            a, b = b, a
        if a > top:
            return None
        lam.append(a)
        top, above, carry = a, r, b - r
    if carry > top:
        return None
    if carry:
        lam.append(carry)
    return tuple(lam)


def _backward_dual_rsk(mu, nu, lam):
    """lam/mu a vertical strip, lam/nu a horizontal strip."""
    rows = _rows_up(mu, nu, lam)
    if rows is None:
        return None
    rho = []
    carry = below = low = 0
    for c, a, b in rows:
        if not (a <= c <= a + 1 and below <= b <= c):
            return None
        b -= carry
        if a < b:
            a, b = b, a
        if b < low:
            return None
        rho.append(b)
        below, low, carry = c, b, c - a
    return _partition_up(rho), carry


# rsk-prime is the reflection of dual-rsk in the diagonal: mu and nu swap
# roles

def _forward_rsk_prime(rho, mu, nu, m):
    return _forward_dual_rsk(rho, nu, mu, m)


def _backward_rsk_prime(mu, nu, lam):
    return _backward_dual_rsk(nu, mu, lam)


def _forward_dual_rsk_prime(rho, mu, nu, m):
    """mu/rho and nu/rho vertical strips.  Where rho, mu and nu are equal
    in a row, the carry, if any, puts one square there; in every other
    row lam is one square longer than rho, and the carry grows by one
    when both mu and nu are."""
    lam = []
    carry = m
    top = inf
    for r, a, b in zip_longest(rho, mu, nu, fillvalue=0):
        if a == r == b:
            if carry:
                carry -= 1
                r += 1
        else:
            if a == r:
                if b != r + 1:
                    return None
            elif a != r + 1 or not r <= b <= a:
                return None
            elif b == a:
                carry += 1
            r += 1
        # r is now lam's part
        if r > top:
            return None
        lam.append(r)
        top = r
    # below the longer of mu and nu all three corners are empty, so the
    # carry (which can exceed m) comes out one square per row
    if carry:
        if top < 1:
            return None
        lam.extend([1] * carry)
    return tuple(lam)


def _backward_dual_rsk_prime(mu, nu, lam):
    """lam/mu and lam/nu vertical strips.  Where mu, nu and lam are equal
    in a row, a carry from below, if any, takes one square from rho there;
    in every other row rho is one square shorter than lam, and the carry
    grows by one when both mu and nu are."""
    rows = _rows_up(mu, nu, lam)
    if rows is None:
        return None
    rho = []
    carry = low = 0
    for c, a, b in rows:
        if a == c == b:
            if carry:
                carry -= 1
                c -= 1
        else:
            if a == c:
                if b != c - 1:
                    return None
            elif a != c - 1 or not a <= b <= c:
                return None
            elif b == a:
                carry += 1
            c -= 1
        # c is now rho's part
        if c < low:
            return None
        rho.append(c)
        low = c
    return _partition_up(rho), carry


@dataclass(frozen=True, eq=False)
class Variant:
    """Bundle of local rules plus the step shapes they produce.

    ``right`` and ``down`` give the kind of a border step: a right step
    grows its label, a down step shrinks it, by at most one square
    (``"1"``), a horizontal strip (``"H"``) or a vertical strip (``"V"``).
    ``conjugate`` names the variant whose tableaux are the conjugates of
    this variant's.  ``forward`` and ``backward`` are the checked rules.
    A variant equals and hashes as itself alone, so the growth layer's
    caches find it without hashing its fields.
    """

    name: str
    forward: object
    backward: object
    filling_class: str
    right: str
    down: str
    conjugate: str

    @property
    def right_ok(self):
        """The test of a right step, called as right_ok(outer, inner)."""
        return _STEP_TESTS[self.right]

    @property
    def down_ok(self):
        """The test of a down step, called as down_ok(outer, inner)."""
        return _STEP_TESTS[self.down]

    def step_ok(self, step, prev, nxt) -> bool:
        """Whether prev -> nxt is a valid border step ``"R"`` or ``"D"``."""
        if step == "R":
            return self.right_ok(nxt, prev)
        return self.down_ok(prev, nxt)


def _variant(name, filling_class, right, down, conjugate, kernels) -> Variant:
    """The variant whose rules check the entry against ``filling_class``
    and run ``kernels`` (the forward and the backward kernel), which check
    the frame against the step kinds ``right`` and ``down``.  Where a
    kernel refuses a frame, the step tests find the edge it refuses."""
    zero_one = filling_class != ARBITRARY
    entry = "a 0/1" if zero_one else "a nonnegative"
    right_ok, down_ok = _STEP_TESTS[right], _STEP_TESTS[down]
    right_name, down_name = _STEP_NAMES[right], _STEP_NAMES[down]
    forward_kernel, backward_kernel = kernels

    def forward(rho, mu, nu, m):
        if (m not in (0, 1)) if zero_one else m < 0:
            raise ValueError(f"{name} rules need {entry} entry, got {m}")
        lam = forward_kernel(rho, mu, nu, m)
        if lam is not None:
            return lam
        if not right_ok(mu, rho):
            raise ValueError(f"mu/rho = {mu}/{rho} is not {right_name}")
        if not down_ok(nu, rho):
            raise ValueError(f"nu/rho = {nu}/{rho} is not {down_name}")
        raise ValueError(f"{name} rules give no partition lam from "
                         f"rho, mu, nu, m = {rho}, {mu}, {nu}, {m}")

    def backward(mu, nu, lam):
        out = backward_kernel(mu, nu, lam)
        if out is not None:
            return out
        if not down_ok(lam, mu):
            raise ValueError(f"lam/mu = {lam}/{mu} is not {down_name}")
        if not right_ok(lam, nu):
            raise ValueError(f"lam/nu = {lam}/{nu} is not {right_name}")
        raise ValueError(f"{name} rules give no partition rho from "
                         f"mu, nu, lam = {mu}, {nu}, {lam}")

    return Variant(name, forward, backward, filling_class, right, down,
                   conjugate)


VARIANT_TABLE = {v.name: v for v in (
    _variant("standard", PARTIAL_PERMUTATION, "1", "1", "standard",
             (_forward_standard, _backward_standard)),
    _variant("rsk", ARBITRARY, "H", "H", "dual-rsk-prime",
             (_forward_rsk, _backward_rsk)),
    _variant("dual-rsk", ZERO_ONE, "H", "V", "rsk-prime",
             (_forward_dual_rsk, _backward_dual_rsk)),
    _variant("rsk-prime", ZERO_ONE, "V", "H", "dual-rsk",
             (_forward_rsk_prime, _backward_rsk_prime)),
    _variant("dual-rsk-prime", ARBITRARY, "V", "V", "rsk",
             (_forward_dual_rsk_prime, _backward_dual_rsk_prime)),
)}


def get_variant(name: str) -> Variant:
    try:
        return VARIANT_TABLE[name]
    except KeyError:
        raise ValueError(f"unknown variant {name!r}; choose from {VARIANTS}") from None
