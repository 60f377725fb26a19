"""The local rules, exercised cell by cell.

The forward/backward pairs are checked as exact inverses over randomly
generated admissible corner configurations for every variant.
"""

import random

import pytest

from growthdiagrams.local_rules import VARIANT_TABLE, get_variant
from growthdiagrams.partitions import (conjugate, contains,
                                       is_horizontal_strip, is_vertical_strip,
                                       make_partition, partitions_of)

STANDARD, RSK, DUAL_RSK_PRIME = (VARIANT_TABLE[name] for name in
                                 ("standard", "rsk", "dual-rsk-prime"))


def test_forward_standard_cases():
    assert STANDARD.forward((), (), (), 0) == ()
    assert STANDARD.forward((), (), (), 1) == (1,)
    assert STANDARD.forward((1,), (2,), (1, 1), 0) == (2, 1)      # union
    assert STANDARD.forward((1,), (1,), (2,), 0) == (2,)          # F2
    assert STANDARD.forward((1,), (2,), (2,), 0) == (2, 1)        # F5
    assert STANDARD.forward((2,), (2, 1), (2, 1), 0) == (2, 1, 1)  # F5 in row 3


def test_forward_standard_rejects_bad_input():
    with pytest.raises(ValueError):
        STANDARD.forward((), (1,), (), 1)     # cross needs equal corners
    with pytest.raises(ValueError):
        STANDARD.forward((), (2,), (), 0)     # jump of two squares


def test_backward_standard_cases():
    assert STANDARD.backward((), (), ()) == ((), 0)
    assert STANDARD.backward((1,), (1,), (2,)) == ((1,), 1)
    assert STANDARD.backward((2,), (1, 1), (2, 1)) == ((1,), 0)
    assert STANDARD.backward((2, 1), (2, 1), (2, 2)) == ((1, 1), 0)


def test_forward_rsk_spot_values():
    assert RSK.forward((), (), (1,), 2) == (3,)
    assert RSK.forward((1,), (3,), (3,), 0) == (3, 2)
    assert RSK.forward((), (), (), 3) == (3,)


def test_backward_rsk_spot_values():
    assert RSK.backward((), (1,), (3,)) == ((), 2)
    assert RSK.backward((3,), (3,), (3, 2)) == ((1,), 0)


def test_dual_rsk_prime_inverse_of_stack():
    # an entry of 3 in a single cell becomes a column of height 3
    assert DUAL_RSK_PRIME.forward((), (), (), 3) == (1, 1, 1)
    assert DUAL_RSK_PRIME.backward((), (), (1, 1, 1)) == ((), 3)


def random_partition(rng, max_total=8):
    parts = []
    total = rng.randint(0, max_total)
    while total > 0:
        x = rng.randint(1, total)
        parts.append(x)
        total -= x
    return make_partition(sorted(parts, reverse=True))


def grow_step(rng, p, kind):
    """A random partition one admissible step above p."""
    q = list(p) + [0]
    if kind == "square":
        choices = [i for i in range(len(q))
                   if (i == 0 or q[i - 1] > q[i])]
        if rng.random() < 0.3:
            return p
        i = rng.choice(choices)
        q[i] += 1
        return make_partition(q)
    if kind == "hstrip":
        out = []
        prev = 10 ** 9
        for i in range(len(q)):
            lo = q[i]
            hi = min(prev, q[i - 1] if i else 10 ** 9)
            out.append(rng.randint(lo, min(hi, lo + 3)))
            prev = q[i]
        return make_partition(out)
    # vstrip: conjugate trick
    return conjugate(grow_step(rng, conjugate(p), "hstrip"))


STEP_KIND = {"standard": "square", "rsk": "hstrip", "dual-rsk": "hstrip",
             "rsk-prime": "vstrip", "dual-rsk-prime": "vstrip"}
NU_KIND = {"standard": "square", "rsk": "hstrip", "dual-rsk": "vstrip",
           "rsk-prime": "hstrip", "dual-rsk-prime": "vstrip"}


@pytest.mark.parametrize("name", sorted(VARIANT_TABLE))
def test_forward_backward_inverse(name):
    v = get_variant(name)
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(400):
        rho = random_partition(rng)
        mu = grow_step(rng, rho, STEP_KIND[name])
        nu = grow_step(rng, rho, NU_KIND[name])
        if name == "standard":
            if not (mu == rho or sum(mu) == sum(rho) + 1):
                continue
            m = rng.randint(0, 1) if rho == mu == nu else 0
        elif v.filling_class == "zero-one":
            m = rng.randint(0, 1)
        else:
            m = rng.randint(0, 3)
        lam = v.forward(rho, mu, nu, m)
        assert v.backward(mu, nu, lam) == (rho, m), (name, rho, mu, nu, m, lam)


@pytest.mark.parametrize("name", sorted(VARIANT_TABLE))
def test_forward_output_steps(name):
    """lam sits above both mu and nu by the variant's strip types."""
    v = get_variant(name)
    rng = random.Random(1 + (hash(name) & 0xFFFF))
    checks = {"square": lambda big, small: contains(big, small)
              and sum(big) - sum(small) <= 1,
              "hstrip": is_horizontal_strip,
              "vstrip": is_vertical_strip}
    for _ in range(200):
        rho = random_partition(rng)
        mu = grow_step(rng, rho, STEP_KIND[name])
        nu = grow_step(rng, rho, NU_KIND[name])
        if name == "standard":
            if not (mu == rho or sum(mu) == sum(rho) + 1):
                continue
            m = rng.randint(0, 1) if rho == mu == nu else 0
        elif v.filling_class == "zero-one":
            m = rng.randint(0, 1)
        else:
            m = rng.randint(0, 3)
        lam = v.forward(rho, mu, nu, m)
        # the step above mu is of the nu/rho type and vice versa
        assert checks[NU_KIND[name]](lam, mu), (name, rho, mu, nu, m, lam)
        assert checks[STEP_KIND[name]](lam, nu), (name, rho, mu, nu, m, lam)


@pytest.mark.parametrize("name", sorted(VARIANT_TABLE))
def test_zero_step_is_every_kind(name):
    """The border check and the sweeps' pass-through cells skip the test
    of a step between equal labels, which every step kind allows."""
    v = get_variant(name)
    for n in range(9):
        for p in partitions_of(n):
            assert v.step_ok("R", p, p) and v.step_ok("D", p, p), p
