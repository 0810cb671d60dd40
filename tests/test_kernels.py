"""Permutation kernels checked against direct enumeration and small cases."""

from __future__ import annotations

import random
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rp2cover import kernels
from rp2cover.perm import canonical_of_type

from helpers import (
    all_images,
    brute_block_systems,
    brute_closed_partition,
    brute_elements,
    brute_minimal_block,
    brute_orbits,
)


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
@example(([(1, 2, 3, 4, 5), (2, 3, 4, 5, 1)], 5))
@example(([(2, 1, 3, 4), (1, 2, 4, 3)], 4))  # intransitive
@example(([(1,), (1,)], 1))
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


def _random_group(d, rng):
    """1-3 generators of degree d of one of three kinds: any permutations
    (most often transitive), permutations that map the blocks of a system
    of equal blocks onto each other (transitive or not), or permutations
    that keep every part of a set partition (intransitive)."""
    points = rng.sample(range(1, d + 1), d)
    kind = rng.randrange(3)
    if kind == 1:
        size = rng.choice([b for b in range(1, d + 1) if d % b == 0])
        parts = [points[i : i + size] for i in range(0, d, size)]
    elif kind == 2:
        cuts = sorted(rng.sample(range(1, d), rng.randint(1, d - 1)))
        parts = [points[i:j] for i, j in zip([0, *cuts], [*cuts, d])]
    gens = []
    for _ in range(rng.randint(1, 3)):
        if kind == 0:
            gens.append(tuple(rng.sample(range(1, d + 1), d)))
            continue
        images = [0] * (d + 1)
        # kind 1 moves block i onto block order[i]; kind 2 keeps each part
        order = rng.sample(range(len(parts)), len(parts)) if kind == 1 else range(len(parts))
        for part, j in zip(parts, order):
            for u, v in zip(part, rng.sample(parts[j], len(part))):
                images[u] = v
        gens.append(tuple(images[1:]))
    return gens


def test_block_labels_match_the_brute_closure():
    # None exactly when the closed partition has a class of more than d/2
    # points, and the labels of that partition otherwise; for a transitive
    # group that is the finest block system joining x with ys, and x's
    # class the minimal block through x and y
    rng = random.Random(27)
    seen = Counter()
    for d in range(2, 10):
        for _ in range(60):
            gens = _random_group(d, rng)
            transitive = kernels.is_transitive(gens, d)
            systems = brute_block_systems(gens, d) if transitive else None
            elements = brute_elements(gens, d) if transitive and d <= 6 else None
            x = rng.randint(1, d)
            others = [y for y in range(1, d + 1) if y != x]
            seeds = [(y,) for y in others]
            seeds += [tuple(rng.sample(others, rng.randint(2, d - 1))) for _ in range(3) if d > 2]
            # for each proper one-point closure the loop appends the union
            # of x's class with each of the first two such classes before
            # it, as the joins of `oracle.block_systems` take them
            classes = []
            for ys in seeds:
                got = kernels.block_labels(gens, d, x, ys)
                want = brute_closed_partition(gens, d, x, ys)
                too_big = max(Counter(want[1:]).values()) > d // 2
                assert (got is None) == too_big, (gens, x, ys)
                if not too_big:
                    assert got == want, (gens, x, ys)
                seen[transitive, len(ys) > 1, got is None] += 1
                if got is not None and len(ys) == 1:
                    mates = {z for z in others if got[z] == got[x]}
                    seeds += [tuple(sorted(mates | c)) for c in classes[:2]]
                    classes.append(mates)
                if not transitive:
                    continue
                joined = [s for s in systems if all(s[y] == s[x] for y in ys)]
                if got is None:
                    assert not joined, (gens, x, ys)
                else:
                    assert got == min(joined, key=lambda s: s.count(s[x])), (gens, x, ys)
                if elements is not None and len(ys) == 1:
                    block = brute_minimal_block(elements, d, x, ys[0])
                    assert kernels.minimal_block(gens, d, x, ys[0]) == block
                    if got is not None:
                        assert block == tuple(z for z in range(1, d + 1) if got[z] == got[x])
    # every kind of case occurs: transitive or not, one seed or several,
    # a proper partition or None
    assert len(seen) == 8, seen
