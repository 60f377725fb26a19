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

The carry-based rules operate on one part index at a time, exactly as in
their defining descriptions, rather than through bumping.  Each walks its
corner labels in step, padded with zeros to a common length once the frame
checks have passed.  Before that walk, a frame in which only one side grows
returns at once, still after the frame checks: forward, an empty cell with
rho = mu gives lam = nu and one with rho = nu gives lam = mu; backward,
lam = nu gives (rho, m) = (mu, 0) and lam = mu gives (nu, 0).  On large
sparse fillings most frames are of this kind.
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


def _check_small_step(bigger, smaller, who):
    if not _small_step(bigger, smaller):
        raise ValueError(f"{who}: {bigger} / {smaller} is not a step of <= 1 square")


def forward_standard(rho, mu, nu, m):
    """Forward rule for partial permutation fillings.

    The six defining cases are mutually exclusive; the frame conditions
    (mu and nu each contain rho and exceed it by at most one square, and a
    cross forces rho = mu = nu) are checked eagerly.
    """
    if m not in (0, 1):
        raise ValueError(f"standard rules need a 0/1 entry, got {m}")
    _check_small_step(mu, rho, "mu/rho")
    _check_small_step(nu, rho, "nu/rho")
    if m:
        if not (rho == mu == nu):
            raise ValueError("cross in a cell whose corners are not all equal")
        return add_square_in_row(rho, 1)
    if rho == mu == nu:
        return rho
    if rho == mu != nu:
        return nu
    if rho == nu != mu:
        return mu
    if mu != nu:
        return union(mu, nu)
    # rho != mu = nu: both grew in the same row k; push to row k + 1
    k = diff_row(mu, rho)
    return add_square_in_row(mu, k + 1)


def backward_standard(mu, nu, lam):
    """Inverse of the standard forward rule: returns (rho, m)."""
    _check_small_step(lam, mu, "lam/mu")
    _check_small_step(lam, nu, "lam/nu")
    if lam == mu == nu:
        return lam, 0
    if lam == mu != nu:
        return nu, 0
    if lam == nu != mu:
        return mu, 0
    if mu != nu:
        return intersect(mu, nu), 0
    # mu = nu, both strictly below lam
    k = diff_row(lam, mu)
    if k == 1:
        return mu, 1
    parts = list(mu)
    parts[k - 2] -= 1
    return checked_partition(parts), 0


def _padded(p, n):
    """The parts of p followed by zeros, n in all (n >= len(p))."""
    return p + (0,) * (n - len(p))


def _other_side(corner, mu, nu):
    """In a frame whose corner equals mu or nu, the other one of the two
    (nu or mu); None when it equals neither."""
    if corner == mu:
        return checked_partition(nu)
    if corner == nu:
        return checked_partition(mu)
    return None


def forward_rsk(rho, mu, nu, m):
    """Carry rule with horizontal strips in both directions."""
    if m < 0:
        raise ValueError("negative entry")
    if not is_horizontal_strip(mu, rho):
        raise ValueError(f"mu/rho = {mu}/{rho} not a horizontal strip")
    if not is_horizontal_strip(nu, rho):
        raise ValueError(f"nu/rho = {nu}/{rho} not a horizontal strip")
    if not m and (lam := _other_side(rho, mu, nu)) is not None:
        return lam
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


def backward_rsk(mu, nu, lam):
    if not is_horizontal_strip(lam, mu):
        raise ValueError(f"lam/mu = {lam}/{mu} not a horizontal strip")
    if not is_horizontal_strip(lam, nu):
        raise ValueError(f"lam/nu = {lam}/{nu} not a horizontal strip")
    if (rho := _other_side(lam, mu, nu)) is not None:
        return rho, 0
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
    """lam for a checked dual-rsk frame (mu/rho horizontal, nu/rho vertical)."""
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
    """(rho, m) for a checked dual-rsk frame (lam/mu vertical, lam/nu
    horizontal)."""
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


def forward_dual_rsk(rho, mu, nu, m):
    """Carry rule: horizontal strips rightward, vertical strips downward."""
    if m not in (0, 1):
        raise ValueError(f"dual rules need a 0/1 entry, got {m}")
    if not is_horizontal_strip(mu, rho):
        raise ValueError(f"mu/rho = {mu}/{rho} not a horizontal strip")
    if not is_vertical_strip(nu, rho):
        raise ValueError(f"nu/rho = {nu}/{rho} not a vertical strip")
    if not m and (lam := _other_side(rho, mu, nu)) is not None:
        return lam
    return _forward_dual_carry(rho, mu, nu, m)


def backward_dual_rsk(mu, nu, lam):
    if not is_vertical_strip(lam, mu):
        raise ValueError(f"lam/mu = {lam}/{mu} not a vertical strip")
    if not is_horizontal_strip(lam, nu):
        raise ValueError(f"lam/nu = {lam}/{nu} not a horizontal strip")
    if (rho := _other_side(lam, mu, nu)) is not None:
        return rho, 0
    return _backward_dual_carry(mu, nu, lam)


def forward_rsk_prime(rho, mu, nu, m):
    """Reflection of the dual rule in the diagonal: mu and nu swap roles."""
    if m not in (0, 1):
        raise ValueError(f"dual rules need a 0/1 entry, got {m}")
    if not is_vertical_strip(mu, rho):
        raise ValueError(f"mu/rho = {mu}/{rho} not a vertical strip")
    if not is_horizontal_strip(nu, rho):
        raise ValueError(f"nu/rho = {nu}/{rho} not a horizontal strip")
    if not m and (lam := _other_side(rho, mu, nu)) is not None:
        return lam
    return _forward_dual_carry(rho, nu, mu, m)


def backward_rsk_prime(mu, nu, lam):
    if not is_horizontal_strip(lam, mu):
        raise ValueError(f"lam/mu = {lam}/{mu} not a horizontal strip")
    if not is_vertical_strip(lam, nu):
        raise ValueError(f"lam/nu = {lam}/{nu} not a vertical strip")
    if (rho := _other_side(lam, mu, nu)) is not None:
        return rho, 0
    return _backward_dual_carry(nu, mu, lam)


def forward_dual_rsk_prime(rho, mu, nu, m):
    """Carry rule with vertical strips in both directions."""
    if m < 0:
        raise ValueError("negative entry")
    if not is_vertical_strip(mu, rho):
        raise ValueError(f"mu/rho = {mu}/{rho} not a vertical strip")
    if not is_vertical_strip(nu, rho):
        raise ValueError(f"nu/rho = {nu}/{rho} not a vertical strip")
    if not m and (lam := _other_side(rho, mu, nu)) is not None:
        return lam
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


def backward_dual_rsk_prime(mu, nu, lam):
    if not is_vertical_strip(lam, mu):
        raise ValueError(f"lam/mu = {lam}/{mu} not a vertical strip")
    if not is_vertical_strip(lam, nu):
        raise ValueError(f"lam/nu = {lam}/{nu} not a vertical strip")
    if (rho := _other_side(lam, mu, nu)) is not None:
        return rho, 0
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


# border step tests by strip kind, each called as test(outer, inner)
_STEP_TESTS = {"1": _small_step, "H": is_horizontal_strip,
               "V": is_vertical_strip}


@dataclass(frozen=True)
class Variant:
    """Bundle of local rules plus the step shapes they produce.

    ``right`` and ``down`` give the kind of a border step: a right step
    grows its label, a down step shrinks it, by at most one square
    (``"1"``), a horizontal strip (``"H"``) or a vertical strip (``"V"``).
    ``conjugate`` names the variant whose tableaux are the conjugates of
    this variant's.
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


VARIANT_TABLE = {
    "standard": Variant("standard", forward_standard, backward_standard,
                        PARTIAL_PERMUTATION, "1", "1", "standard"),
    "rsk": Variant("rsk", forward_rsk, backward_rsk, ARBITRARY,
                   "H", "H", "dual-rsk-prime"),
    "dual-rsk": Variant("dual-rsk", forward_dual_rsk, backward_dual_rsk,
                        ZERO_ONE, "H", "V", "rsk-prime"),
    "rsk-prime": Variant("rsk-prime", forward_rsk_prime, backward_rsk_prime,
                         ZERO_ONE, "V", "H", "dual-rsk"),
    "dual-rsk-prime": Variant("dual-rsk-prime", forward_dual_rsk_prime,
                              backward_dual_rsk_prime, ARBITRARY,
                              "V", "V", "rsk"),
}


def get_variant(name: str) -> Variant:
    try:
        return VARIANT_TABLE[name]
    except KeyError:
        raise ValueError(f"unknown variant {name!r}; choose from {VARIANTS}") from None
