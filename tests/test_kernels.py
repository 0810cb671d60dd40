"""Permutation kernels checked against direct enumeration and small cases."""

from __future__ import annotations

import random

from rp2cover import kernels

from helpers import all_images, brute_orbits


def random_images(d, rng):
    return tuple(rng.sample(range(1, d + 1), d))


def test_orbits_match_reachability_reference():
    rng = random.Random(99)
    for d in (2, 3, 5, 7):
        for _ in range(20):
            gens = [random_images(d, rng) for _ in range(2)]
            assert kernels.orbits(gens, d) == brute_orbits(gens, d)


def test_cycles_cover_all_points_exactly_once():
    for p in all_images(4):
        seen = sorted(x for cyc in kernels.cycles_of(p) for x in cyc)
        assert seen == [1, 2, 3, 4]


def test_alpha_extension_small_facts():
    # two sheets, one gamma orbit, alpha swapping: connected but the
    # orientation flip across the swap contradicts itself
    labels = kernels.component_labels([(2, 1)], 2)
    assert kernels.alpha_extension(labels, (2, 1), 2) == (True, False)
    # two singleton orbits joined by a swap: connected and orientable
    labels = kernels.component_labels([(1, 2)], 2)
    assert labels == (1, 2)
    assert kernels.alpha_extension(labels, (2, 1), 2) == (True, True)
    # identity alpha on one orbit: a flip inside a component
    labels = kernels.component_labels([(2, 1)], 2)
    assert kernels.alpha_extension(labels, (1, 2), 2) == (True, False)
