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
for the two 0/1 classes, nonnegative for arbitrary fillings) and the frame
against the row's step kinds (mu/rho and lam/nu are right steps, nu/rho
and lam/mu down steps).  Every checked frame then goes to the variant's
own carry, the frames that only pass a label through included.  The
sweeps of ``growth`` pass labels through themselves, and hand a rule such
a frame only when its edge check fails, for the rule to raise.  The carry
rules operate on one part index at a time, exactly as in their defining
descriptions, rather than through bumping; each walks its corner labels
in step, padded with zeros to a common length.
"""

from dataclasses import dataclass

from .fillings import ARBITRARY, PARTIAL_PERMUTATION, ZERO_ONE
from .partitions import (add_square_in_row, checked_partition, diff_row,
                         differs_by_one_square, intersect, is_horizontal_strip,
                         is_vertical_strip, union)

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


def _padded(p, n):
    """The parts of p followed by zeros, n in all (n >= len(p))."""
    return p + (0,) * (n - len(p))


# The carries.  Each gets a checked frame, and returns the label it passes
# through when only one side grows: forward, an empty cell with rho = mu
# gives lam = nu and one with rho = nu gives lam = mu; backward, lam = nu
# gives (rho, m) = (mu, 0) and lam = mu gives (nu, 0).

def _forward_standard_carry(rho, mu, nu, m):
    if m:
        if not (rho == mu == nu):
            raise ValueError("cross in a cell whose corners are not all equal")
        return add_square_in_row(rho, 1)
    if mu != nu:
        return union(mu, nu)
    if rho == mu:
        return checked_partition(mu)
    # rho != mu = nu: both grew in the same row k; push to row k + 1
    return add_square_in_row(mu, diff_row(mu, rho) + 1)


def _backward_standard_carry(mu, nu, lam):
    if mu != nu:
        return intersect(mu, nu), 0
    if lam == mu:
        return checked_partition(mu), 0
    # mu = nu, both strictly below lam
    k = diff_row(lam, mu)
    if k == 1:
        return mu, 1
    parts = list(mu)
    parts[k - 2] -= 1
    return checked_partition(parts), 0


def _forward_rsk_carry(rho, mu, nu, m):
    # the carry left below the longer of mu and nu fills one more row
    n = max(len(mu), len(nu)) + 1
    lam = []
    carry = m
    for r, a, b in zip(_padded(rho, n), _padded(mu, n), _padded(nu, n)):
        if a < b:
            a, b = b, a
        lam.append(a + carry)
        carry = b - r
    return checked_partition(lam)


def _backward_rsk_carry(mu, nu, lam):
    n = len(lam)
    rho = []
    carry = 0
    for c, a, b in zip(reversed(lam), reversed(_padded(mu, n)),
                       reversed(_padded(nu, n))):
        if a < b:
            a, b = b, a
        rho.append(b - carry)
        carry = c - a
    rho.reverse()
    return checked_partition(rho), carry


def _forward_dual_carry(rho, mu, nu, m):
    """The dual-rsk carry: mu/rho horizontal, nu/rho vertical."""
    n = max(len(mu), len(nu)) + 1
    lam = []
    carry = m
    for r, a, b in zip(_padded(rho, n), _padded(mu, n), _padded(nu, n)):
        a += carry
        if a < b:
            a, b = b, a
        lam.append(a)
        carry = b - r
    return checked_partition(lam)


def _backward_dual_carry(mu, nu, lam):
    """The dual-rsk carry: lam/mu vertical, lam/nu horizontal."""
    n = len(lam)
    rho = []
    carry = 0
    for c, a, b in zip(reversed(lam), reversed(_padded(mu, n)),
                       reversed(_padded(nu, n))):
        b -= carry
        if a < b:
            a, b = b, a
        rho.append(b)
        carry = c - a
    rho.reverse()
    return checked_partition(rho), carry


def _forward_dual_rsk_prime_carry(rho, mu, nu, m):
    n = max(len(mu), len(nu))
    lam = []
    carry = m
    for r, a, b in zip(_padded(rho, n), _padded(mu, n), _padded(nu, n)):
        used = 1 if carry and r == a == b else 0
        if a < b:
            a, b = b, a
        lam.append(a + used)
        carry += b - r - used
    # below the longer of mu and nu all three corners are empty, so the
    # carry (which can exceed m) comes out one square per row
    lam.extend([1] * carry)
    return checked_partition(lam)


def _backward_dual_rsk_prime_carry(mu, nu, lam):
    n = len(lam)
    rho = []
    carry = 0
    for c, a, b in zip(reversed(lam), reversed(_padded(mu, n)),
                       reversed(_padded(nu, n))):
        used = 1 if carry and a == b == c else 0
        if a < b:
            a, b = b, a
        rho.append(b - used)
        carry += c - a - used
    rho.reverse()
    return checked_partition(rho), carry


@dataclass(frozen=True, eq=False)
class Variant:
    """Bundle of local rules plus the step shapes they produce.

    ``right`` and ``down`` give the kind of a border step: a right step
    grows its label, a down step shrinks it, by at most one square
    (``"1"``), a horizontal strip (``"H"``) or a vertical strip (``"V"``).
    ``conjugate`` names the variant whose tableaux are the conjugates of
    this variant's.  A variant equals and hashes as itself alone, so the
    growth layer's caches find it without hashing its fields.
    """

    name: str
    forward: object
    backward: object
    filling_class: str
    right: str
    down: str
    conjugate: str

    def step_ok(self, step, prev, nxt) -> bool:
        """Whether prev -> nxt is a valid border step ``"R"`` or ``"D"``."""
        if step == "R":
            return _STEP_TESTS[self.right](nxt, prev)
        return _STEP_TESTS[self.down](prev, nxt)


def _variant(name, filling_class, right, down, conjugate, carries) -> Variant:
    """The variant whose rules check the entry against ``filling_class``
    and the frame against the step kinds ``right`` and ``down``, and then
    run ``carries`` (the forward and the backward carry)."""
    zero_one = filling_class != ARBITRARY
    entry = "a 0/1" if zero_one else "a nonnegative"
    right_ok, down_ok = _STEP_TESTS[right], _STEP_TESTS[down]
    right_name, down_name = _STEP_NAMES[right], _STEP_NAMES[down]
    forward_carry, backward_carry = carries

    def forward(rho, mu, nu, m):
        if (m not in (0, 1)) if zero_one else m < 0:
            raise ValueError(f"{name} rules need {entry} entry, got {m}")
        if not right_ok(mu, rho):
            raise ValueError(f"mu/rho = {mu}/{rho} is not {right_name}")
        if not down_ok(nu, rho):
            raise ValueError(f"nu/rho = {nu}/{rho} is not {down_name}")
        return forward_carry(rho, mu, nu, m)

    def backward(mu, nu, lam):
        if not down_ok(lam, mu):
            raise ValueError(f"lam/mu = {lam}/{mu} is not {down_name}")
        if not right_ok(lam, nu):
            raise ValueError(f"lam/nu = {lam}/{nu} is not {right_name}")
        return backward_carry(mu, nu, lam)

    return Variant(name, forward, backward, filling_class, right, down,
                   conjugate)


VARIANT_TABLE = {v.name: v for v in (
    _variant("standard", PARTIAL_PERMUTATION, "1", "1", "standard",
             (_forward_standard_carry, _backward_standard_carry)),
    _variant("rsk", ARBITRARY, "H", "H", "dual-rsk-prime",
             (_forward_rsk_carry, _backward_rsk_carry)),
    _variant("dual-rsk", ZERO_ONE, "H", "V", "rsk-prime",
             (_forward_dual_carry, _backward_dual_carry)),
    # the reflection of dual-rsk in the diagonal: mu and nu swap roles
    _variant("rsk-prime", ZERO_ONE, "V", "H", "dual-rsk",
             (lambda rho, mu, nu, m: _forward_dual_carry(rho, nu, mu, m),
              lambda mu, nu, lam: _backward_dual_carry(nu, mu, lam))),
    _variant("dual-rsk-prime", ARBITRARY, "V", "V", "rsk",
             (_forward_dual_rsk_prime_carry, _backward_dual_rsk_prime_carry)),
)}

forward_standard = VARIANT_TABLE["standard"].forward
backward_standard = VARIANT_TABLE["standard"].backward
forward_rsk = VARIANT_TABLE["rsk"].forward
backward_rsk = VARIANT_TABLE["rsk"].backward
forward_dual_rsk_prime = VARIANT_TABLE["dual-rsk-prime"].forward
backward_dual_rsk_prime = VARIANT_TABLE["dual-rsk-prime"].backward


def get_variant(name: str) -> Variant:
    try:
        return VARIANT_TABLE[name]
    except KeyError:
        raise ValueError(f"unknown variant {name!r}; choose from {VARIANTS}") from None
