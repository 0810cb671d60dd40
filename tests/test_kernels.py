"""Permutation kernels checked against direct enumeration and small cases."""

from __future__ import annotations

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rp2cover import kernels
from rp2cover.perm import canonical_of_type

from helpers import all_images, brute_orbits


def random_images(d, rng):
    return tuple(rng.sample(range(1, d + 1), d))


def test_orbits_match_reachability_reference():
    rng = random.Random(99)
    for d in (2, 3, 5, 7):
        for _ in range(20):
            gens = [random_images(d, rng) for _ in range(2)]
            labels = kernels.component_labels(gens, d)
            want = {x: orbit[0] for orbit in brute_orbits(gens, d) for x in orbit}
            assert labels == tuple(want[x] for x in range(1, d + 1))


def test_cycles_cover_all_points_exactly_once():
    for p in all_images(4):
        seen = sorted(x for cyc in kernels.cycles_of(p) for x in cyc)
        assert seen == [1, 2, 3, 4]


def test_alpha_extension_small_facts():
    # two sheets, one gamma orbit, alpha swapping: connected but the
    # orientation flip across the swap contradicts itself
    orbits, n = kernels.orbit_index([(2, 1)], 2)
    assert kernels.alpha_extension(orbits, n, (2, 1)) == (True, False)
    # two singleton orbits joined by a swap: connected and orientable
    orbits, n = kernels.orbit_index([(1, 2)], 2)
    assert (orbits, n) == ((0, 1), 2)
    assert kernels.alpha_extension(orbits, n, (2, 1)) == (True, True)
    # identity alpha on one orbit: a flip inside a component
    orbits, n = kernels.orbit_index([(2, 1)], 2)
    assert kernels.alpha_extension(orbits, n, (1, 2)) == (True, False)


def test_pair_conjugator_and_block_translates_small_facts():
    # the canonical involution pair of degree 4 and its conjugate by (1 2)
    p, q = (2, 1, 4, 3), (4, 3, 2, 1)
    lam = (2, 1, 3, 4)
    moved = (kernels.conjugate(p, lam), kernels.conjugate(q, lam))
    got = kernels.pair_conjugator(moved, (p, q), 4)
    assert [kernels.conjugate(g, got) for g in moved] == [p, q]
    # an intransitive pair is not conjugate to a transitive one
    assert kernels.pair_conjugator((p, p), (p, q), 4) is None
    assert kernels.block_translates((p, q), (1, 3)) == (((1, 3), (2, 4)), None)
    # the 4-cycle moves {1, 2} onto {2, 3}, which overlaps it
    assert kernels.block_translates(((2, 3, 4, 1),), (1, 2)) == (None, ((2, 3), (1, 2)))


def _alpha_extension_from_labels(labels, alpha, d):
    """`alpha_extension` as it was when it numbered the orbits of the
    component labels itself on every call, kept as the reference."""
    index = {}
    for lb in labels:
        if lb not in index:
            index[lb] = len(index)
    n = len(index)
    parent = list(range(n))
    par = [0] * n

    def find(x):
        p = 0
        while parent[x] != x:
            p ^= par[x]
            x = parent[x]
        return x, p

    consistent = True
    comps = n
    for x in range(1, d + 1):
        a = index[labels[x - 1]]
        b = index[labels[alpha[x - 1] - 1]]
        ra, pa = find(a)
        rb, pb = find(b)
        if ra == rb:
            if pa == pb:
                consistent = False
        else:
            parent[rb] = ra
            par[rb] = pa ^ pb ^ 1
            comps -= 1
    return comps == 1, consistent


# The orbit labelling as it was when it called a full-compression find
# twice per point and generator.
def _uf_find(parent, x):
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def _component_labels_two_finds(gens, d):
    """Orbit labels for the group generated by gens.

    Returns a tuple of length d where entry i is the minimal point of the
    orbit containing point i+1.
    """
    parent = list(range(d + 1))
    for g in gens:
        for x in range(1, d + 1):
            rx = _uf_find(parent, x)
            ry = _uf_find(parent, g[x - 1])
            if rx != ry:
                if rx < ry:
                    parent[ry] = rx
                else:
                    parent[rx] = ry
    return tuple(_uf_find(parent, x) for x in range(1, d + 1))


@st.composite
def _generator_lists(draw):
    """Up to 4 generators of degree at most 40.  Each one either is any
    permutation or maps every block of a drawn set partition onto itself,
    so the group ranges from transitive to one with many orbits."""
    d = draw(st.integers(1, 40))
    points = draw(st.permutations(range(1, d + 1)))
    cuts = sorted(draw(st.sets(st.integers(1, d - 1)))) if d > 1 else []
    blocks = [points[i:j] for i, j in zip([0, *cuts], [*cuts, d])]
    gens = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            gens.append(tuple(draw(st.permutations(range(1, d + 1)))))
            continue
        images = [0] * d
        for blk in blocks:
            for x, y in zip(blk, draw(st.permutations(blk))):
                images[x - 1] = y
        gens.append(tuple(images))
    return gens, d


@settings(max_examples=300, deadline=None)
@given(_generator_lists())
def test_component_labels_match_the_two_find_version(case):
    gens, d = case
    assert kernels.component_labels(gens, d) == _component_labels_two_finds(gens, d)


def test_component_labels_of_no_generators_are_the_points():
    assert kernels.component_labels([], 5) == (1, 2, 3, 4, 5)


@settings(max_examples=300, deadline=None)
@given(_generator_lists())
@example(([], 1))
@example(([(1,)], 1))
@example(([], 4))
def test_is_transitive_matches_the_orbit_count(case):
    gens, d = case
    assert kernels.is_transitive(gens, d) == (kernels.orbit_count(gens, d) == 1)


@settings(max_examples=300, deadline=None)
@given(_generator_lists(), st.randoms(use_true_random=False))
def test_alpha_extension_matches_the_label_version(case, rng):
    gens, d = case
    orbits, n = kernels.orbit_index(gens, d)
    labels = kernels.component_labels(gens, d)
    assert n == len(set(labels))
    assert orbits == tuple(sorted(set(labels)).index(lb) for lb in labels)
    for _ in range(3):
        alpha = random_images(d, rng)
        want = _alpha_extension_from_labels(labels, alpha, d)
        assert kernels.alpha_extension(orbits, n, alpha) == want


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40).flatmap(lambda d: st.permutations(range(1, d + 1))))
def test_cycle_lengths_match_the_cycle_tuples(images):
    images = tuple(images)
    want = tuple(sorted((len(c) for c in kernels.cycles_of(images)), reverse=True))
    assert kernels.cycle_lengths(images) == want
    _assert_canonical_frame(images)


def test_cycle_lengths_of_every_small_permutation():
    for d in range(1, 6):
        for p in all_images(d):
            want = tuple(sorted((len(c) for c in kernels.cycles_of(p)), reverse=True))
            assert kernels.cycle_lengths(p) == want
            _assert_canonical_frame(p)


def _assert_canonical_frame(p):
    lam, cycle_type = kernels.canonical_frame(p)
    assert cycle_type == kernels.cycle_lengths(p)
    assert kernels.conjugate(p, lam) == canonical_of_type(len(p), cycle_type).images


@settings(max_examples=300, deadline=None)
@given(_generator_lists().filter(lambda case: case[0]))
@example(([(1, 2, 3, 4, 5), (2, 3, 4, 5, 1)], 5))  # gamma_1 the identity: d labels
@example(([(1, 2, 3), (1, 2, 3)], 3))
@example(([(2, 1, 3, 4), (1, 2, 4, 3)], 4))  # intransitive
@example(([(1,)], 1))
@example(([(1,), (1,)], 1))
def test_transitivity_from_the_first_generators_cycles_matches_the_orbit_count(case):
    gens, d = case
    lengths, labels = kernels.cycle_lengths(gens[0], labels=True)
    assert lengths == kernels.cycle_lengths(gens[0])
    assert labels == kernels.component_labels(gens[:1], d)
    assert kernels.is_transitive(gens[1:], d, labels) == (kernels.orbit_count(gens, d) == 1)
