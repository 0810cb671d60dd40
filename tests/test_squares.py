"""Square roots in symmetric groups, checked against full enumeration."""

from __future__ import annotations

import random
from collections import defaultdict
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rp2cover.oracle import _roots_of
from rp2cover.perm import Permutation, canonical_of_type
from rp2cover.squares import (
    RootCapExceeded,
    _interleave,
    _root_cycle_odd,
    all_square_roots,
    is_square,
    iter_square_roots,
    sqrt,
    sqrt_odd_cycle,
)

from helpers import all_perms, partitions_of, random_perm


def brute_square_types(d):
    """Cycle types that occur as beta * beta, by squaring everything."""
    out = set()
    for b in all_perms(d):
        out.add((b * b).cycle_type())
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7])
def test_is_square_matches_brute_force(d):
    squares = brute_square_types(d)
    for parts in partitions_of(d):
        rep = canonical_of_type(d, parts)
        assert is_square(rep) == (tuple(sorted(parts, reverse=True)) in squares), parts


def test_is_square_examples():
    assert is_square(Permutation.from_cycles(4, [(1, 2), (3, 4)]))
    assert not is_square(Permutation.from_cycles(4, [(1, 2)]))
    assert is_square(Permutation.identity(6))
    assert is_square(Permutation.from_cycles(5, [(1, 2, 3, 4, 5)]))
    assert not is_square(Permutation.from_cycles(6, [(1, 2, 3, 4, 5, 6)]))


@pytest.mark.parametrize("r", list(range(1, 100, 2)))
def test_sqrt_odd_cycle_squares_back(r):
    cycle = tuple(range(1, r + 1))
    root = sqrt_odd_cycle(cycle, r)
    assert root * root == canonical_of_type(r, (r,)) if r > 1 else root.is_identity()
    # the root moves no point outside the cycle
    assert root.cycle_type()[0] == r


def test_sqrt_odd_cycle_on_scattered_points():
    root = sqrt_odd_cycle((2, 5, 9), 9)
    target = Permutation.from_cycles(9, [(2, 5, 9)])
    assert root * root == target


def test_sqrt_odd_cycle_rejects_even_length():
    with pytest.raises(ValueError):
        sqrt_odd_cycle((1, 2, 3, 4), 4)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7])
def test_sqrt_soundness_per_type(d):
    squares = brute_square_types(d)
    for parts in partitions_of(d):
        rep = canonical_of_type(d, parts)
        root = sqrt(rep)
        if tuple(sorted(parts, reverse=True)) in squares:
            assert root is not None
            assert root * root == rep
        else:
            assert root is None


def test_sqrt_on_random_squares():
    rng = random.Random(17)
    for _ in range(60):
        b = random_perm(8, rng)
        p = b * b
        root = sqrt(p)
        assert root is not None
        assert root * root == p


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_all_square_roots_matches_brute_force(d):
    by_perm = defaultdict(set)
    for b in all_perms(d):
        by_perm[(b * b).images].add(b.images)
    for p in all_perms(d):
        roots = all_square_roots(p)
        assert len(roots) == len(set(roots)), "duplicate root"
        assert {r.images for r in roots} == by_perm.get(p.images, set())
        for r in roots:
            assert r * r == p


def test_all_square_roots_examples():
    assert len(all_square_roots(Permutation.identity(3))) == 4
    roots = all_square_roots(Permutation.from_cycles(3, [(1, 2, 3)]))
    assert [str(r) for r in roots] == ["(1 3 2)"]
    assert all_square_roots(Permutation.from_cycles(4, [(1, 2)])) == []
    double = Permutation.from_cycles(4, [(1, 2), (3, 4)])
    assert Permutation.from_cycles(4, [(1, 3, 2, 4)]) in all_square_roots(double)


def test_all_square_roots_is_deterministic():
    p = Permutation.from_cycles(6, [(1, 2), (3, 4), (5, 6)])
    first = [r.images for r in all_square_roots(p)]
    second = [r.images for r in all_square_roots(p)]
    assert first == second


def test_root_cap():
    with pytest.raises(RootCapExceeded):
        all_square_roots(Permutation.identity(8), cap=10)
    # generous cap leaves the result unchanged
    e = Permutation.identity(4)
    assert all_square_roots(e, cap=10**6) == all_square_roots(e)


def test_roots_of_identity_are_involutions_and_odd_regulars():
    # beta^2 = id forces cycles of length 1 or 2
    for r in all_square_roots(Permutation.identity(5)):
        assert set(r.cycle_type()) <= {1, 2}


def _old_all_square_roots(p, cap=None):
    """`all_square_roots` as it was before `iter_square_roots`, kept verbatim
    (but for its docstring) as the reference for the order of the roots."""
    if not is_square(p):
        return []
    by_len: dict[int, list[tuple[int, ...]]] = {}
    for c in p.cycles():
        by_len.setdefault(len(c), []).append(c)

    lengths = sorted(by_len)
    roots: list[Permutation] = []
    chosen: list[tuple[int, ...]] = []

    def emit():
        if cap is not None and len(roots) >= cap:
            raise RootCapExceeded(f"more than {cap} square roots")
        roots.append(Permutation.from_cycles(p.degree, list(chosen)))

    def per_length(li: int):
        if li == len(lengths):
            emit()
            return
        n = lengths[li]
        group = by_len[n]
        allow_single = n % 2 == 1

        def assemble(remaining: tuple[int, ...]):
            if not remaining:
                per_length(li + 1)
                return
            first = remaining[0]
            rest = remaining[1:]
            if allow_single:
                c = group[first]
                if n > 1:
                    chosen.append(_root_cycle_odd(c))
                    assemble(rest)
                    chosen.pop()
                else:
                    assemble(rest)
            for j, other in enumerate(rest):
                tail = rest[:j] + rest[j + 1 :]
                for offset in range(n):
                    chosen.append(_interleave(group[first], group[other], offset))
                    assemble(tail)
                    chosen.pop()

        assemble(tuple(range(len(group))))

    per_length(0)
    return roots


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 9])
def test_root_order_is_unchanged(d):
    rng = random.Random(40 + d)
    for parts in partitions_of(d):
        p = canonical_of_type(d, parts)
        lam = random_perm(d, rng)
        for q in (p, p.conjugate(lam)):
            want = _old_all_square_roots(q)
            assert list(iter_square_roots(q)) == want, parts
            assert all_square_roots(q) == want


def test_root_cap_counts_like_the_old_enumeration():
    p = Permutation.identity(6)  # 76 involutions
    assert all_square_roots(p, cap=76) == _old_all_square_roots(p, cap=76)
    for cap in (0, 1, 75):
        with pytest.raises(RootCapExceeded):
            all_square_roots(p, cap=cap)
        with pytest.raises(RootCapExceeded):
            _old_all_square_roots(p, cap=cap)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8])
def test_oracle_roots_match_all_square_roots(d):
    # the oracle's scans read roots as image tuples through `_roots_of`
    rng = random.Random(80 + d)
    for parts in partitions_of(d):
        p = canonical_of_type(d, parts)
        for q in (p, p.conjugate(random_perm(d, rng))):
            want = tuple(r.images for r in all_square_roots(q))
            assert want == tuple(r.images for r in _old_all_square_roots(q))
            assert _roots_of(q.images, len(want)) == want, parts
            if want:
                with pytest.raises(RootCapExceeded):
                    _roots_of(q.images, len(want) - 1)
                with pytest.raises(RootCapExceeded):
                    all_square_roots(q, cap=len(want) - 1)


def test_iter_square_roots_is_lazy_and_not_recursive():
    # 3000 cycles of one length: far past the recursion limit for a
    # search that recurses once per cycle, and about 10^4000 roots
    d = 6000
    p = Permutation.from_cycles(d, [(x, x + 1) for x in range(1, d, 2)])
    first = list(islice(iter_square_roots(p), 3))
    assert len(first) == 3
    assert len(set(first)) == 3
    for r in first:
        assert r * r == p
    assert next(iter_square_roots(Permutation.identity(d))).is_identity()


def _old_sqrt(p: Permutation) -> Permutation | None:
    """`sqrt` as it was before it took the first root of
    `iter_square_roots`, kept as the reference."""
    if not is_square(p):
        return None
    by_len: dict[int, list[tuple[int, ...]]] = {}
    for c in p.cycles():
        by_len.setdefault(len(c), []).append(c)
    root_cycles = []
    for n in sorted(by_len):
        group = by_len[n]
        if n % 2 == 1:
            for c in group:
                if n > 1:
                    root_cycles.append(_root_cycle_odd(c))
        else:
            for i in range(0, len(group), 2):
                root_cycles.append(_interleave(group[i], group[i + 1], 0))
    return Permutation.from_cycles(p.degree, root_cycles)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 30).flatmap(lambda d: st.permutations(range(1, d + 1))))
def test_sqrt_matches_the_old_builder(images):
    p = Permutation(tuple(images))
    for q in (p, p * p):
        assert sqrt(q) == _old_sqrt(q)
