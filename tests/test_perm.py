"""Permutation arithmetic against brute-force references."""

from __future__ import annotations

import random

import pytest

from rp2cover.perm import Permutation, canonical_of_type, format_cycles, parse_permutation

from helpers import all_perms, partitions_of, random_perm


def test_composition_is_left_to_right():
    p = Permutation.from_cycles(4, [(1, 2), (3, 4)])
    q = Permutation.from_cycles(4, [(2, 3), (4, 1)])
    assert str(p * q) == "(1 3)(2 4)"
    # x^(pq) = (x^p)^q pointwise
    rng = random.Random(1)
    for _ in range(50):
        a, b = random_perm(5, rng), random_perm(5, rng)
        for x in range(1, 6):
            assert (a * b).apply(x) == b.apply(a.apply(x))


def test_squaring_a_three_cycle():
    r = Permutation.from_cycles(3, [(1, 2, 3)])
    assert str(r * r) == "(1 3 2)"


def test_identity_behaviour():
    e = Permutation.identity(4)
    assert e.is_identity()
    assert str(e) == "()"
    p = Permutation.from_cycles(4, [(1, 3, 2)])
    assert p * e == p
    assert e * p == p
    assert p * p.inverse() == e


def test_inverse_by_table():
    rng = random.Random(2)
    for _ in range(50):
        p = random_perm(6, rng)
        inv = p.inverse()
        for x in range(1, 7):
            assert inv.apply(p.apply(x)) == x


def test_conjugation_relabels_cycles():
    p = Permutation.from_cycles(3, [(1, 2)])
    lam = Permutation.from_cycles(3, [(1, 3)])
    assert str(p.conjugate(lam)) == "(2 3)"
    # lam * p * lam^-1 spelled out
    assert p.conjugate(lam) == lam * p * lam.inverse()


def test_conjugation_preserves_type_and_products():
    rng = random.Random(3)
    for _ in range(50):
        p, q, lam = (random_perm(6, rng) for _ in range(3))
        assert p.conjugate(lam).cycle_type() == p.cycle_type()
        assert (p * q).conjugate(lam) == p.conjugate(lam) * q.conjugate(lam)


def test_cycle_round_trips():
    for p in all_perms(4):
        assert Permutation.from_cycles(4, p.cycles()) == p
        assert parse_permutation(format_cycles(p), 4) == p
    rng = random.Random(4)
    for _ in range(40):
        p = random_perm(7, rng)
        assert Permutation.from_cycles(7, p.cycles()) == p
        assert parse_permutation(str(p), 7) == p


def test_cycle_type_is_sorted_partition():
    for p in all_perms(4):
        t = p.cycle_type()
        assert sum(t) == 4
        assert list(t) == sorted(t, reverse=True)


def test_defect_counts_cycles():
    assert Permutation.from_cycles(4, [(1, 2, 3)]).defect() == 2
    assert Permutation.identity(5).defect() == 0
    assert Permutation.from_cycles(6, [(1, 2), (3, 4, 5, 6)]).defect() == 4


def test_defect_parity_is_a_homomorphism():
    rng = random.Random(5)
    for _ in range(100):
        p, q = random_perm(6, rng), random_perm(6, rng)
        assert (p * q).defect() % 2 == (p.defect() + q.defect()) % 2


def test_canonical_of_type_layout():
    p = canonical_of_type(6, (3, 2, 1))
    assert str(p) == "(1 2 3)(4 5)"
    assert p.cycle_type() == (3, 2, 1)
    q = canonical_of_type(5, (1, 4))
    assert str(q) == "(1 2 3 4)"
    with pytest.raises(ValueError):
        canonical_of_type(5, (3, 3))


def test_canonical_of_type_covers_all_types():
    for d in (1, 4, 6):
        for parts in partitions_of(d):
            assert canonical_of_type(d, parts).cycle_type() == tuple(
                sorted(parts, reverse=True)
            )


def test_apply_and_degree():
    p = Permutation.from_cycles(5, [(2, 4)])
    assert p.degree == 5
    assert p.apply(2) == 4
    assert p.apply(1) == 1


def test_validation_rejects_bad_images():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 2, 1))
    with pytest.raises(ValueError):
        Permutation(())


def test_from_cycles_rejects_bad_cycles():
    with pytest.raises(ValueError):
        Permutation.from_cycles(3, [(1, 4)])
    with pytest.raises(ValueError):
        Permutation.from_cycles(4, [(1, 2), (2, 3)])


def test_degree_mismatch_is_an_error():
    with pytest.raises(ValueError):
        Permutation.identity(3) * Permutation.identity(4)
    with pytest.raises(ValueError):
        Permutation.identity(3).conjugate(Permutation.identity(4))


def test_parse_permutation_forms():
    assert parse_permutation("(1 2)(3 4)", 5).images == (2, 1, 4, 3, 5)
    assert parse_permutation("(1,2)(3,4)", 4) == parse_permutation("(1 2)(3 4)", 4)
    assert parse_permutation("()", 3) == Permutation.identity(3)
    assert parse_permutation("  (2 3) ", 3) == Permutation.from_cycles(3, [(2, 3)])
    for bad in ["(1 2", "1 2)", "(x)", "()()", "(1 2)(2 3)"]:
        with pytest.raises(ValueError):
            parse_permutation(bad, 4)
