"""Orbits, blocks, primitivity, and conjugators, cross-checked by enumeration."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rp2cover import kernels
from rp2cover.groups import (
    GeneratedGroup,
    NotABlockError,
    block_system_from,
    conjugator,
    group_of,
    imprimitivity_block,
    is_primitive,
    is_transitive,
    pair_conjugator,
)
from rp2cover.kernels import _uf_find
from rp2cover.perm import Permutation, parse_permutation
from rp2cover.realize import canonical_involution_pair

from helpers import (
    all_images,
    brute_elements,
    brute_minimal_block,
    is_block_under,
    random_perm,
    stabilizer_is_maximal,
)
from test_fold_chain_reference import conjugator as old_conjugator


def test_orbits_and_transitivity():
    G = group_of(Permutation.from_cycles(5, [(1, 2)]), Permutation.from_cycles(5, [(3, 4, 5)]))
    assert kernels.component_labels(G.generator_images(), 5) == (1, 1, 3, 3, 3)
    assert not is_transitive(G)
    H = group_of(Permutation.from_cycles(5, [(1, 2, 3, 4, 5)]))
    assert kernels.component_labels(H.generator_images(), 5) == (1, 1, 1, 1, 1)
    assert is_transitive(H)


def test_minimal_block_in_a_cyclic_group():
    C = group_of(Permutation.from_cycles(4, [(1, 2, 3, 4)]))
    assert kernels.minimal_block(C.generator_images(), 4, 1, 3) == (1, 3)
    assert kernels.minimal_block(C.generator_images(), 4, 1, 2) == (1, 2, 3, 4)
    assert imprimitivity_block(C) == (1, 3)
    assert not is_primitive(C)


def test_blocks_of_the_canonical_involution_pair():
    p, q = canonical_involution_pair(6)
    G = group_of(p, q)
    assert kernels.minimal_block(G.generator_images(), 6, 1, 3) == (1, 3, 5)
    assert block_system_from(G, (1, 3, 5)) == ((1, 3, 5), (2, 4, 6))
    # the adjacent pair happens to be a block too; the deterministic scan
    # finds it first
    assert imprimitivity_block(G) == (1, 2)
    assert not is_primitive(G)
    assert len(brute_elements(G.generator_images(), 6)) == 6


def test_block_system_rejects_non_blocks():
    C = group_of(Permutation.from_cycles(4, [(1, 2, 3, 4)]))
    with pytest.raises(NotABlockError):
        block_system_from(C, (1, 2))
    assert block_system_from(C, (1, 3)) == ((1, 3), (2, 4))


def test_transitive_group_with_long_cycle_is_primitive():
    G = group_of(
        Permutation.from_cycles(6, [(1, 2, 3, 4, 5)]), Permutation.from_cycles(6, [(5, 6)])
    )
    assert is_transitive(G)
    assert is_primitive(G)
    assert imprimitivity_block(G) is None
    assert len(brute_elements(G.generator_images(), 6)) == 720


def test_minimal_block_matches_subset_scan():
    rng = random.Random(21)
    checked = 0
    while checked < 15:
        d = rng.choice([4, 5, 6])
        gens = [random_perm(d, rng) for _ in range(2)]
        G = group_of(*gens)
        if not is_transitive(G):
            continue
        checked += 1
        full = brute_elements([g.images for g in gens], d)
        for y in range(2, d + 1):
            got = kernels.minimal_block(G.generator_images(), d, 1, y)
            assert is_block_under(full, got)
            assert got == brute_minimal_block(full, d, 1, y)


def _old_minimal_block(gens, d, x, y):
    """`kernels.minimal_block` before it stopped at a class of more than
    d/2 points, kept verbatim as the reference."""
    parent = list(range(d + 1))

    def union(a, b):
        ra = _uf_find(parent, a)
        rb = _uf_find(parent, b)
        if ra == rb:
            return None
        if rb < ra:
            ra, rb = rb, ra
        parent[rb] = ra
        return ra, rb

    queue = []
    first = union(x, y)
    if first is not None:
        queue.append(first)
    while queue:
        a, b = queue.pop()
        for g in gens:
            merged = union(g[a - 1], g[b - 1])
            if merged is not None:
                queue.append(merged)
    rx = _uf_find(parent, x)
    return tuple(z for z in range(1, d + 1) if _uf_find(parent, z) == rx)


@st.composite
def _transitive_generators(draw):
    """1-3 generators of a transitive group of degree 2..12.

    Half of the draws preserve the system of consecutive blocks of a
    random size dividing d (then relabelled), so that proper blocks, and
    the classes of at most d/2 points they need, are common.
    """
    d = draw(st.integers(2, 12))
    k = draw(st.integers(1, 3))
    size = draw(st.sampled_from([b for b in range(1, d + 1) if d % b == 0]))
    m = d // size
    gens = []
    for _ in range(k):
        if draw(st.booleans()):
            blocks = draw(st.permutations(range(m)))
            inner = [draw(st.permutations(range(size))) for _ in range(m)]
            gens.append(
                tuple(blocks[i] * size + inner[i][j] + 1 for i in range(m) for j in range(size))
            )
        else:
            gens.append(tuple(draw(st.permutations(range(1, d + 1)))))
    relabel = draw(st.permutations(range(1, d + 1)))
    gens = [tuple(relabel[g[relabel.index(x)] - 1] for x in range(1, d + 1)) for g in gens]
    if not kernels.is_transitive(gens, d):
        # a d-cycle through the relabelled points joins every orbit
        gens.append(tuple(relabel[(relabel.index(x) + 1) % d] for x in range(1, d + 1)))
    return d, gens


@settings(max_examples=400, deadline=None)
@given(_transitive_generators(), st.data())
def test_minimal_block_matches_the_unstopped_refinement(case, data):
    d, gens = case
    assert kernels.is_transitive(gens, d)
    x = data.draw(st.integers(1, d))
    for y in range(1, d + 1):
        if y != x:
            assert kernels.minimal_block(gens, d, x, y) == _old_minimal_block(gens, d, x, y)


def test_primitivity_agrees_with_stabilizer_maximality():
    cases = [
        group_of(*canonical_involution_pair(4)),
        group_of(*canonical_involution_pair(6)),
        group_of(Permutation.from_cycles(4, [(1, 2, 3, 4)])),
        group_of(Permutation.from_cycles(5, [(1, 2, 3, 4, 5)])),
        group_of(Permutation.from_cycles(6, [(1, 2, 3, 4, 5, 6)])),
        group_of(Permutation.from_cycles(4, [(1, 2, 3, 4)]), Permutation.from_cycles(4, [(1, 2)])),
        group_of(
            Permutation.from_cycles(6, [(1, 2, 3, 4, 5)]), Permutation.from_cycles(6, [(5, 6)])
        ),
        group_of(
            parse_permutation("(1 2 3 4)", 4), parse_permutation("(1 2)(3 4)", 4)
        ),
    ]
    for G in cases:
        want = is_primitive(G)
        for x in range(1, G.degree + 1):
            assert stabilizer_is_maximal(G, x) == want


def test_stabilizer_maximality_requires_transitivity():
    G = group_of(Permutation.from_cycles(4, [(1, 2)]))
    with pytest.raises(ValueError):
        stabilizer_is_maximal(G, 1)
    with pytest.raises(ValueError):
        imprimitivity_block(G)


def test_group_validation():
    with pytest.raises(ValueError):
        GeneratedGroup(3, ())
    with pytest.raises(ValueError):
        GeneratedGroup(3, (Permutation((1, 2, 3, 4)),))


def test_conjugator_on_matching_types():
    rng = random.Random(31)
    for _ in range(50):
        p = random_perm(7, rng)
        lam = random_perm(7, rng)
        q = p.conjugate(lam)
        mu = conjugator(p, q)
        assert mu is not None
        assert p.conjugate(mu) == q
        assert mu == old_conjugator(p, q)
    # every pair of one cycle type up to degree 6
    for d in range(1, 7):
        by_type = {}
        for images in all_images(d):
            by_type.setdefault(kernels.cycle_lengths(images), []).append(Permutation(images))
        for perms in by_type.values():
            for p in perms:
                for q in perms:
                    assert conjugator(p, q) == old_conjugator(p, q)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_conjugator_matches_the_reference(data):
    draw = data.draw
    d = draw(st.integers(1, 40))
    p = _perm_of(draw, d)
    q = p.conjugate(_perm_of(draw, d)) if draw(st.booleans()) else _perm_of(draw, d)
    assert conjugator(p, q) == old_conjugator(p, q)


def test_conjugator_none_on_type_mismatch():
    p, q = Permutation.from_cycles(4, [(1, 2)]), Permutation.from_cycles(4, [(1, 2, 3)])
    assert conjugator(p, q) is None


def test_pair_conjugator_round_trip():
    rng = random.Random(41)
    canon = canonical_involution_pair(8)
    for _ in range(20):
        lam = random_perm(8, rng)
        moved = (canon[0].conjugate(lam), canon[1].conjugate(lam))
        mu = pair_conjugator(moved, canon)
        assert mu is not None
        assert moved[0].conjugate(mu) == canon[0]
        assert moved[1].conjugate(mu) == canon[1]


def test_pair_conjugator_none_when_impossible():
    canon = canonical_involution_pair(4)
    other = (Permutation.from_cycles(4, [(1, 2)]), Permutation.from_cycles(4, [(3, 4)]))
    assert pair_conjugator(other, canon) is None


def _old_block_system_from(G, block):
    """`block_system_from` before it called `kernels.block_translates`,
    kept verbatim as the reference."""
    if not is_transitive(G):
        raise ValueError("group is not transitive")
    d = G.degree
    start = tuple(sorted(block))
    if not start or any(not 1 <= x <= d for x in start):
        raise ValueError(f"block must be a non-empty subset of 1..{d}")
    seen = {start}
    point_to_block = {x: start for x in start}
    queue = [start]
    while queue:
        b = queue.pop()
        for g in G.generator_images():
            image = tuple(sorted(g[x - 1] for x in b))
            if image in seen:
                continue
            for x in image:
                if x in point_to_block:
                    raise NotABlockError(
                        f"translate {image} overlaps {point_to_block[x]}"
                    )
            seen.add(image)
            for x in image:
                point_to_block[x] = image
            queue.append(image)
    return tuple(sorted(seen))


def _old_pair_conjugator(pair, target):
    """`pair_conjugator` before it called `kernels.pair_conjugator`, kept
    verbatim as the reference."""
    a, b = pair
    c, e = target
    d = a.degree
    if {b.degree, c.degree, e.degree} != {d}:
        raise ValueError("degree mismatch")
    gens_from = (a.images, b.images)
    gens_to = (c.images, e.images)
    for t in range(1, d + 1):
        mu = [0] * (d + 1)
        mu[1] = t
        used = {t}
        queue = [1]
        ok = True
        while queue and ok:
            x = queue.pop()
            for gf, gt in zip(gens_from, gens_to):
                y = gf[x - 1]
                v = gt[mu[x] - 1]
                if mu[y]:
                    if mu[y] != v:
                        ok = False
                        break
                else:
                    if v in used:
                        ok = False
                        break
                    mu[y] = v
                    used.add(v)
                    queue.append(y)
        if ok and all(mu[1:]):
            lam = Permutation(tuple(mu[1:])).inverse()
            if a.conjugate(lam) == c and b.conjugate(lam) == e:
                return lam
    return None


def _outcome(fn, *args):
    try:
        return "returned", fn(*args)
    except (ValueError, NotABlockError) as e:
        return type(e), str(e)


def _perm_of(draw, d):
    return Permutation(tuple(draw(st.permutations(range(1, d + 1)))))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_block_system_from_matches_the_reference(data):
    draw = data.draw
    d = draw(st.integers(1, 10))
    if draw(st.booleans()):
        # a group preserving consecutive blocks of a size dividing d, so
        # that proper blocks occur
        size = draw(st.sampled_from([b for b in range(1, d + 1) if d % b == 0]))
        m = d // size
        gens = []
        for _ in range(draw(st.integers(1, 3))):
            blocks = draw(st.permutations(range(m)))
            inner = [draw(st.permutations(range(size))) for _ in range(m)]
            gens.append(
                Permutation(
                    tuple(blocks[i] * size + inner[i][j] + 1 for i in range(m) for j in range(size))
                )
            )
    else:
        gens = [_perm_of(draw, d) for _ in range(draw(st.integers(1, 3)))]
    G = group_of(*gens)
    choice = draw(st.sampled_from(["minimal", "subset", "outside"]))
    if choice == "minimal" and d > 1:
        x, y = draw(st.lists(st.integers(1, d), min_size=2, max_size=2, unique=True))
        block = kernels.minimal_block(G.generator_images(), d, x, y)
    elif choice == "outside":
        block = draw(st.lists(st.integers(0, d + 1), max_size=3))
    else:
        block = draw(st.lists(st.integers(1, d), min_size=1, max_size=d, unique=True))
    assert _outcome(block_system_from, G, block) == _outcome(_old_block_system_from, G, block)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pair_conjugator_matches_the_reference(data):
    draw = data.draw
    d = draw(st.integers(1, 10))
    if draw(st.booleans()) and d >= 4 and d % 2 == 0:
        pair = canonical_involution_pair(d)
    else:
        pair = (_perm_of(draw, d), _perm_of(draw, d))
    kind = draw(st.sampled_from(["conjugate", "random", "other_degree"]))
    if kind == "conjugate":
        lam = _perm_of(draw, d)
        target = (pair[0].conjugate(lam), pair[1].conjugate(lam))
    elif kind == "random":
        target = (_perm_of(draw, d), _perm_of(draw, d))
    else:
        target = (pair[0], _perm_of(draw, d + 1))
    got = _outcome(pair_conjugator, pair, target)
    assert got == _outcome(_old_pair_conjugator, pair, target)
    if kind == "conjugate" and kernels.is_transitive([g.images for g in pair], d):
        # a transitive pair always has a conjugator onto its conjugate
        assert got[1] is not None
