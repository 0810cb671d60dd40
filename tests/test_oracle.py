"""Exhaustive small-degree searches, checked against direct enumeration."""

from __future__ import annotations

import itertools
import math
import random
import re
from collections import Counter, defaultdict

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rp2cover import kernels, oracle
from rp2cover.branch import BranchData, Partition, is_admissible
from rp2cover.groups import group_of, is_primitive, is_transitive
from rp2cover.oracle import (
    BoundsExceededError,
    SearchBounds,
    class_images,
    classify_by_search,
    expected_transitive_pair_total,
    find_imprimitive_witness,
    find_primitive_witness,
    first_witness,
    involution_pair_survey,
    iter_relation_pairs,
    tuple_survey,
)
from rp2cover.perm import Permutation, canonical_of_type
from rp2cover.realize import (
    Verdict,
    _build_witness,
    canonical_involution_pair,
    classify,
    verify_witness,
)
from rp2cover.squares import iter_root_images, min_root_cycles

from helpers import (
    admissible_data,
    all_images,
    brute_block_systems,
    character,
    class_size,
    data_of,
    every_row_order,
    exists_realization,
    partitions_of,
    random_perm,
    relation_tuple_count,
)


# ---------------------------------------------------------------------------
# conjugacy class enumeration


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7])
def test_class_images_counts_match_direct_enumeration(d):
    by_type = Counter()
    for images in all_images(d):
        by_type[Permutation(images).cycle_type()] += 1
    for parts, count in by_type.items():
        cls = class_images(d, parts)
        assert len(cls) == count
        assert len(set(cls)) == count
        for images in cls:
            assert Permutation(images).cycle_type() == parts


def test_class_images_examples():
    assert len(class_images(4, (2, 2))) == 3
    assert len(class_images(5, (3, 1, 1))) == 20
    assert class_images(3, (1, 1, 1)) == ((1, 2, 3),)


def _no_class(*args):
    raise AssertionError("a class was enumerated")


def test_class_images_refuses_a_class_above_the_cap_before_building_it(monkeypatch):
    oracle.class_images.cache_clear()
    monkeypatch.setattr(oracle, "MAX_CLASS_SIZE", 19)
    monkeypatch.setattr(oracle, "_permutations", _no_class)
    message = "^the class of \\[3,1,1\\] at degree 5 has 20 elements, more than the class-size cap 19$"
    with pytest.raises(BoundsExceededError, match=message):
        class_images(5, (3, 1, 1))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7])
def test_class_size_cap_reads_the_size_of_the_class(d, monkeypatch):
    # a cap admits a class exactly as large as itself, and refuses one larger
    sizes = {tuple(parts): len(class_images(d, tuple(parts))) for parts in partitions_of(d)}
    for parts, size in sizes.items():
        monkeypatch.setattr(oracle, "MAX_CLASS_SIZE", size)
        oracle._require_class_within_cap(d, parts)
        monkeypatch.setattr(oracle, "MAX_CLASS_SIZE", size - 1)
        with pytest.raises(BoundsExceededError, match=f" has {size} elements"):
            oracle._require_class_within_cap(d, parts)


def test_class_size_cap_admits_the_largest_classes_the_scans_build():
    # [9,1] is the largest class of degree 10 and [2^7] the pair survey's
    # class at degree 14; [11,1] at degree 12 would hold 43,545,600 tuples
    for d, parts in ((10, (9, 1)), (14, (2,) * 7)):
        oracle._require_class_within_cap(d, parts)
    assert class_size(10, (9, 1)) == max(class_size(10, p) for p in partitions_of(10))
    with pytest.raises(BoundsExceededError, match=" has 43545600 elements"):
        oracle._require_class_within_cap(12, (11, 1))


def _old_class_images(d, parts):
    """`class_images` before it took chosen points out by index, kept
    verbatim (without its cache) as the reference for the order."""
    if sum(parts) != d:
        raise ValueError("cycle type must partition the degree")
    out = []
    imgs = list(range(d + 1))

    def rec(avail, rem):
        if not avail:
            out.append(tuple(imgs[1:]))
            return
        x = avail[0]
        rest = avail[1:]
        tried = set()
        for i, length in enumerate(rem):
            if length in tried:
                continue
            tried.add(length)
            rem2 = rem[:i] + rem[i + 1 :]
            if length == 1:
                rec(rest, rem2)
                continue
            for combo in itertools.permutations(rest, length - 1):
                imgs[x] = combo[0]
                for a, b in zip(combo, combo[1:]):
                    imgs[a] = b
                imgs[combo[-1]] = x
                chosen = set(combo)
                rec(tuple(p for p in rest if p not in chosen), rem2)
                imgs[x] = x
                for a in combo:
                    imgs[a] = a

    rec(tuple(range(1, d + 1)), tuple(sorted(parts, reverse=True)))
    return tuple(out)


@pytest.mark.parametrize(
    "d, parts",
    [(d, parts) for d in range(1, 9) for parts in partitions_of(d)]
    # past d = 8: types that place 1-cycles and 2-cycles without a call and
    # end on a last cycle of several lengths
    + [
        (sum(parts), parts)
        for parts in [
            (2,) * 5,
            (3, 3, 2, 1),
            (4, 3, 2, 1),
            (3, 3, 2, 2),
            (5, 5),
            (2, 2, 2, 1, 1, 1, 1),
            (10,),
        ]
    ],
)
def test_class_images_keeps_the_reference_order(d, parts):
    # `tuple_survey`'s sample and the odd-degree witnesses depend on it.
    # Uncached: the class of (10,) alone holds 9! image tuples
    assert class_images.__wrapped__(d, parts) == _old_class_images(d, parts)


# ---------------------------------------------------------------------------
# existence searches


def test_reduced_and_unreduced_search_agree():
    for data in admissible_data([2, 3, 4], max_rows=3):
        red = exists_realization(data, first_row_reduced=True)
        full = exists_realization(data, first_row_reduced=False)
        assert red == full


def test_reduced_search_spot_check_degree_five():
    for text in ("d=5; [5],[2,2,1]", "d=5; [3,1,1],[3,1,1]", "d=5; [2,2,1],[2,2,1]"):
        data = data_of(text)
        assert exists_realization(data, first_row_reduced=True) == exists_realization(
            data, first_row_reduced=False
        )


def test_realizable_iff_admissible_in_small_degrees():
    seen = 0
    for d in (2, 3, 4, 5):
        for rows in _row_multisets(d, 3):
            data = data_of(f"d={d}; " + ",".join(rows))
            seen += 1
            assert exists_realization(data) == is_admissible(data).ok
    assert seen > 100


def _row_multisets(d, max_rows):
    from itertools import combinations_with_replacement

    rows = [
        "[" + ",".join(map(str, parts)) + "]"
        for parts in partitions_of(d)
        if parts != tuple([1] * d)
    ]
    for s in range(1, max_rows + 1):
        for combo in combinations_with_replacement(rows, s):
            yield combo


def test_search_classification_matches_closed_form():
    for data in admissible_data([2, 4, 6], max_rows=SearchBounds().max_rows):
        want = classify(data).verdict
        got = classify_by_search(data).verdict
        assert got == want, data.to_text()


def test_closed_form_matches_primitive_search_above_the_defect_filter():
    # criterion 1 and the census script stop at total defect 2d; every
    # admissible multiset of 2 to 4 rows from [8], [7,1] and [4,4] reaches
    # past it
    bounds = SearchBounds(max_degree=8, max_rows=4)
    rows = [Partition((8,)), Partition((7, 1)), Partition((4, 4))]
    checked = above = 0
    for s in range(2, 5):
        for combo in itertools.combinations_with_replacement(rows, s):
            data = BranchData(8, combo)
            if not is_admissible(data).ok:
                continue
            checked += 1
            above += data.total_defect() > 16
            witness = find_primitive_witness(data, bounds)
            realizable = classify(data).verdict is Verdict.INDECOMPOSABLE_REALIZABLE
            assert realizable == (witness is not None), data.to_text()
            if witness is not None:
                assert verify_witness(data, witness).all_ok, data.to_text()
    assert (checked, above) == (19, 15)


def test_search_classification_tags_are_empty():
    got = classify_by_search(data_of("d=3; [3],[3]"))
    assert got.verdict is Verdict.INDECOMPOSABLE_REALIZABLE
    assert got.case is None and got.reason is None


@pytest.mark.parametrize("text", ["d=4; [2,2],[2,2]", "d=6; [2,2,2],[2,2,2]"])
def test_only_decomposable_search_scans_once(text, monkeypatch):
    scans = []
    scan = oracle._walk_pairs

    def counted(*args, **kwargs):
        scans.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(oracle, "_walk_pairs", counted)
    got = classify_by_search(data_of(text))
    assert got.verdict is Verdict.ONLY_DECOMPOSABLE
    assert len(scans) == 1


def test_searches_never_read_the_plain_pair_stream(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a search read _relation_pairs")

    monkeypatch.setattr(oracle, "_relation_pairs", refused)
    for text in ("d=4; [2,2],[2,2]", "d=5; [3,1,1],[2,2,1],[2,2,1]", "d=6; [3,2,1],[2,2,2]"):
        data = data_of(text)
        oracle.find_primitive_witness(data)
        oracle.find_imprimitive_witness(data)
        exists_realization(data)
        exists_realization(data, first_row_reduced=False)
        oracle.first_witness(data, first_row_reduced=False)
        classify_by_search(data)


# ---------------------------------------------------------------------------
# tuple survey


def test_tuple_survey_frozen_counts():
    s = tuple_survey(data_of("d=4; [2,2],[2,2]"))
    assert s.degree == 4
    assert s.rows == ((2, 2), (2, 2))
    assert s.first_row_reduced
    assert s.relation_pairs == 14
    assert s.intransitive == 4
    assert s.orientable_excluded == 2
    assert s.transitive_imprimitive == 8
    assert s.transitive_primitive == 0
    assert s.sample is not None


def test_tuple_survey_consistency():
    for text in ("d=4; [3,1],[2,2]", "d=4; [4],[4]", "d=3; [3],[3]"):
        s = tuple_survey(data_of(text))
        assert (
            s.intransitive
            + s.orientable_excluded
            + s.transitive_imprimitive
            + s.transitive_primitive
            == s.relation_pairs
        )


@pytest.mark.parametrize("d", range(1, 8))
def test_characters_are_orthonormal(d):
    # the Murnaghan-Nakayama characters of S_d are the irreducible ones:
    # orthonormal over the classes, chi(1) > 0, the trivial and sign
    # characters among them
    parts = partitions_of(d)
    for lam in parts:
        for nu in parts:
            inner = sum(class_size(d, mu) * character(lam, mu) * character(nu, mu) for mu in parts)
            assert inner == (math.factorial(d) if lam == nu else 0), (lam, nu)
        assert character(lam, (1,) * d) > 0
    for mu in parts:
        assert character((d,), mu) == 1
        assert character((1,) * d, mu) == (-1) ** (d - len(mu))


# two transpositions of 1..12 leave at least 10 orbits, and a root of their
# product has at least 5 cycles, so joins at most 7 orbits: the orbit bound
# settles every tuple
_TWO_TRANSPOSITIONS_12 = "d=12; " + ",".join(["[2" + ",1" * 10 + "]"] * 2)

# the tuple surveys whose counts tier-1 pins: (data, first row reduced,
# pinned relation_pairs or None where only other counts are pinned)
_PINNED_SURVEYS = [
    ("d=4; [2,2],[2,2]", True, 14),
    ("d=4; [2,2],[2,2]", False, 42),
    ("d=4; [2,2],[2,2],[2,2]", True, 34),
    ("d=4; [2,2],[2,2],[2,2],[2,2]", True, 110),
    ("d=6; [3,3],[3,1,1,1]", True, None),
    # the tuple scans of the oracle-scan benchmark, as perfbench/pinned.json
    # pins them
    ("d=5; [3,2],[2,2,1],[2,1,1,1]", True, 312),
    ("d=5; [5],[5]", False, 1536),
    ("d=5; [4,1],[3,2],[2,2,1]", True, 576),
    ("d=6; [3,3],[2,2,1,1],[2,2,1,1]", True, 4374),
    ("d=6; [4,1,1],[3,3],[2,2,2]", True, 1536),
    ("d=6; [6],[6]", True, 312),
    ("d=6; [3,2,1],[3,2,1]", True, 312),
    # the raised-bound pins (RAISED_BOUND_SURVEYS)
    ("d=8; [4,4],[4,4]", True, 4112),
    ("d=10; [2,2,2,2,2],[2,2,2,2,2]", True, 22680),
    ("d=9; [3,3,3],[3,3,3]", True, 10808),
    ("d=8; [4,4],[2,2,2,2],[2,2,2,2]", True, 30500),
    ("d=9; [9],[3,3,3]", True, 4976),
    (_TWO_TRANSPOSITIONS_12, True, 261312),
]


def _character_count(data, reduced):
    rows = [r.parts for r in data.rows]
    count = relation_tuple_count(data.degree, rows)
    return count if reduced else count * class_size(data.degree, rows[0])


@pytest.mark.parametrize("text, reduced, pinned", _PINNED_SURVEYS)
def test_relation_pairs_match_the_character_count(text, reduced, pinned):
    data = data_of(text)
    bounds = SearchBounds(max_degree=12)  # admits the raised-bound pins
    got = tuple_survey(data, bounds, first_row_reduced=reduced).relation_pairs
    assert got == _character_count(data, reduced)
    if pinned is not None:
        assert got == pinned


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_relation_pairs_match_the_character_count_on_small_data(d):
    for data in every_row_order(admissible_data([d], max_rows=3)):
        got = tuple_survey(data).relation_pairs
        assert got == _character_count(data, True), data.to_text()


def test_found_witnesses_verify():
    data = data_of("d=4; [3,1],[2,2]")
    w = find_primitive_witness(data)
    assert w is not None
    cert = verify_witness(data, w)
    assert cert.all_ok

    data2 = data_of("d=4; [2,2],[2,2]")
    assert find_primitive_witness(data2) is None
    w2 = find_imprimitive_witness(data2)
    assert w2 is not None
    cert2 = verify_witness(data2, w2)
    assert cert2.relation_ok and cert2.transitive and cert2.nonorientable
    assert not cert2.primitive


def test_primitive_existence_examples():
    assert find_primitive_witness(data_of("d=6; [3,2,1],[2,2,2]")) is not None
    assert find_primitive_witness(data_of("d=6; [2,2,2],[2,2,2]")) is None
    assert find_primitive_witness(data_of("d=4; [2,2]")) is None


# ---------------------------------------------------------------------------
# primitivity decision


# (data, first row reduced, bounds): the tuple scans of the oracle-scan
# benchmark, and one d=8 scan with many imprimitive groups
DECISION_SCANS = [
    ("d=5; [3,2],[2,2,1],[2,1,1,1]", True, None),
    ("d=5; [5],[5]", False, None),
    ("d=5; [4,1],[3,2],[2,2,1]", True, None),
    ("d=6; [3,3],[2,2,1,1],[2,2,1,1]", True, None),
    ("d=6; [4,1,1],[3,3],[2,2,2]", True, None),
    ("d=6; [6],[6]", True, None),
    ("d=6; [3,2,1],[3,2,1]", True, None),
    ("d=8; [4,4],[4,4]", True, SearchBounds(max_degree=8)),
]


def _is_prime(d):
    return d > 1 and all(d % p for p in range(2, math.isqrt(d) + 1))


def _test_of(d, gammas, prefix=None):
    """`oracle._primitivity` on these gammas, with the facts the walk
    derives for them, or None at a prime degree, where the walk asks
    nothing: None when every transitive pair with these gammas is
    primitive, otherwise the test of alpha.  `prefix` is the record of
    the rows before the last, built here unless it is given."""
    if _is_prime(d):
        return None
    parts = kernels.cycle_lengths(kernels.product_of(gammas, d))
    return oracle._primitivity(d, gammas, parts, prefix or oracle._Prefix(gammas[:-1], d))


def _decided_pairs(data, bounds=None, *, first_row_reduced=True):
    """The pairs of `iter_relation_pairs`, in its order, each with the
    oracle's primitivity decision: (gammas, alpha, transitive, orientable,
    primitive), primitive None unless the pair is connected and
    nonorientable.  Each tuple's decision reads the facts `_square_tuples`
    yields for it, as the walk's does."""
    bounds = bounds or SearchBounds()
    oracle._require_in_bounds(data, bounds)
    d = data.degree
    prime = _is_prime(d)
    candidates = oracle._row_candidates(data, first_row_reduced)
    for gammas, prod, parts, _, orbits, n, prefix in oracle._square_tuples(
        candidates, d, bounds.root_cap
    ):
        test = None if prime else oracle._primitivity(d, gammas, parts, prefix)
        for alpha in iter_root_images(kernels.inverse(prod)):
            transitive, orientable = kernels.alpha_extension(orbits, n, alpha)
            primitive = None
            if transitive and not orientable:
                primitive = test is None or test(alpha)
            yield gammas, alpha, transitive, orientable, primitive


def _route(gammas, d):
    """Which rule of `oracle._primitivity` settles pairs with these gammas."""
    if _is_prime(d):
        return "prime"
    if kernels.is_transitive(gammas[:-1], d):
        return "transitive_prefix"
    if kernels.cycle_lengths(kernels.product_of(gammas, d)) == (d - 1, 1):
        return "two_transitive"
    seeds = [y for y in range(2, d + 1) if len(kernels.minimal_block(gammas, d, 1, y)) < d]
    transitive = kernels.is_transitive(gammas, d)
    if not seeds:
        return "gammas_primitive" if transitive else "gammas_orbit_over_half"
    if len(seeds) < d - 1:
        return "narrowed_seeds"
    return "all_seeds_transitive" if transitive else "all_seeds_intransitive"


def test_primitivity_decision_matches_the_group():
    """The oracle's decision equals `is_primitive` on every connected
    nonorientable pair, and the scans reach each of its routes."""
    routes = Counter()
    for text, reduced, bounds in DECISION_SCANS:
        data = data_of(text)
        d = data.degree
        for gammas, alpha, _, _, primitive in _decided_pairs(
            data, bounds, first_row_reduced=reduced
        ):
            if primitive is None:
                continue
            w = _build_witness(d, gammas, alpha)
            want = is_primitive(w.group())
            assert primitive == want, (text, w.to_dict())
            route = _route(gammas, d)
            if route == "gammas_primitive":
                assert is_primitive(group_of(*w.gammas)), (text, w.to_dict())
            routes[route if route in ("prime", "two_transitive") else f"{route}:{want}"] += 1
    assert set(routes) == {
        "prime",
        "transitive_prefix:True",
        "transitive_prefix:False",
        "two_transitive",
        "gammas_primitive:True",
        "gammas_orbit_over_half:True",
        "narrowed_seeds:True",
        "narrowed_seeds:False",
        "all_seeds_intransitive:True",
        "all_seeds_intransitive:False",
        "all_seeds_transitive:False",
    }


@st.composite
def _transitive_pairs(draw, min_degree=6):
    """Gammas and alpha of degree min_degree..9 generating a transitive group.

    Each permutation either is any permutation, or maps the blocks of a
    drawn block system onto each other, or maps every part of a drawn set
    partition onto itself, so the group and <gammas> range from primitive
    to imprimitive and from transitive to intransitive.
    """
    d = draw(st.integers(min_degree, 9))
    size = draw(st.sampled_from([k for k in range(2, d) if d % k == 0] or [1]))
    points = draw(st.permutations(range(1, d + 1)))
    blocks = [points[i : i + size] for i in range(0, d, size)]
    cuts = sorted(draw(st.sets(st.integers(1, d - 1), max_size=3)))
    parts = [points[i:j] for i, j in zip([0, *cuts], [*cuts, d])]

    def perm():
        kind = draw(st.sampled_from(["any", "blocks", "parts"]))
        if kind == "any":
            return tuple(draw(st.permutations(range(1, d + 1))))
        images = [0] * d
        if kind == "blocks":
            targets = draw(st.permutations(blocks))
            for blk, target in zip(blocks, targets):
                for x, y in zip(blk, draw(st.permutations(target))):
                    images[x - 1] = y
        else:
            for part in parts:
                for x, y in zip(part, draw(st.permutations(part))):
                    images[x - 1] = y
        return tuple(images)

    gammas = tuple(perm() for _ in range(draw(st.integers(1, 3))))
    alpha = perm()
    assume(kernels.is_transitive([alpha, *gammas], d))
    return d, gammas, alpha


@settings(max_examples=300, deadline=None)
@given(_transitive_pairs())
def test_primitivity_decision_matches_the_group_on_random_pairs(case):
    d, gammas, alpha = case
    want = is_primitive(group_of(Permutation(alpha), *map(Permutation, gammas)))
    test = _test_of(d, gammas)
    assert (test is None or test(alpha)) == want


@settings(max_examples=300, deadline=None)
@given(_transitive_pairs(min_degree=2))
def test_block_systems_match_every_kept_partition(case):
    d, gammas, alpha = case
    gens = (alpha, *gammas)
    got = oracle.block_systems(gens, d)
    assert len(set(got)) == len(got)
    assert set(got) == brute_block_systems(gens, d)
    if d in (2, 3, 5, 7):
        assert got == []


@pytest.mark.parametrize(
    "orders, count",
    [((4,), 1), ((6,), 2), ((8,), 2), ((9,), 1), ((2, 2), 3), ((2, 4), 6), ((3, 3), 4), ((2, 2, 2), 14)],
)
def test_block_systems_of_regular_abelian_groups(orders, count):
    # an abelian group acting on itself by translation: its block systems
    # are the cosets of its subgroups, `count` of them proper and
    # nontrivial, and most are joins of the minimal ones
    points = list(itertools.product(*map(range, orders)))
    index = {p: i + 1 for i, p in enumerate(points)}
    gens = []
    for axis in range(len(orders)):
        step = [0] * len(orders)
        step[axis] = 1
        gens.append(
            tuple(index[tuple((a + b) % m for a, b, m in zip(p, step, orders))] for p in points)
        )
    d = len(points)
    got = oracle.block_systems(tuple(gens), d)
    assert len(got) == len(set(got)) == count
    assert set(got) == brute_block_systems(gens, d)


def test_block_systems_are_computed_for_transitive_prefixes_only(monkeypatch):
    systems = oracle.block_systems
    calls = Counter()

    def checked(gens, d):
        assert kernels.is_transitive(gens, d), (gens, d)
        calls[d] += 1
        return systems(gens, d)

    monkeypatch.setattr(oracle, "block_systems", checked)
    for text, reduced, bounds in DECISION_SCANS:
        data = data_of(text)
        tuple_survey(data, bounds, first_row_reduced=reduced)
        find_primitive_witness(data, bounds)
        find_imprimitive_witness(data, bounds)
    assert calls[6] > 0


def test_primitivity_decision_drops_the_systems_the_last_gamma_breaks():
    # <(1 2 3 4 5 6)> keeps two block systems; (1 2) keeps neither, and
    # (1 4) keeps the one with blocks {1, 4}, {2, 5}, {3, 6}.  No relation
    # pair shows the difference: an alpha that keeps a system keeps the
    # product, and so the last gamma, in it.
    cycle = Permutation.from_cycles(6, [(1, 2, 3, 4, 5, 6)]).images
    still = Permutation.identity(6).images
    # one record of the rows before the last serves both tuples
    prefix = oracle._Prefix((cycle,), 6)
    broken = (cycle, Permutation.from_cycles(6, [(1, 2)]).images)
    assert _test_of(6, broken, prefix) is None
    kept = (cycle, Permutation.from_cycles(6, [(1, 4)]).images)
    test = _test_of(6, kept, prefix)
    assert test is not None and not test(still)


def test_primitivity_decision_follows_each_gammas_tuple():
    long_cycle = (Permutation.from_cycles(6, [(1, 2, 3, 4, 5)]).images,)
    joined = Permutation.from_cycles(6, [(5, 6)]).images
    pair = tuple(g.images for g in canonical_involution_pair(6))
    still = Permutation.identity(6).images
    # each tuple's test answers for its own gammas, in either order
    cases = [(long_cycle, joined, True), (pair, still, False)]
    for order in (cases, cases[::-1]):
        tests = [(_test_of(6, gammas), alpha, want) for gammas, alpha, want in order]
        for test, alpha, want in tests:
            assert (test is None or test(alpha)) == want


def test_walk_derives_each_tuple_fact_once(monkeypatch):
    # a three-row scan in which some choices of the rows before the last
    # are intransitive: each choice has its transitivity tested once, for
    # the walk and the primitivity decision alike, and no product is
    # formed again but for a settled tuple's witness
    d = 6
    data = data_of("d=6; [3,3],[2,2,1,1],[2,2,1,1]")
    g0 = canonical_of_type(d, (3, 3)).images
    heads = [(g0, g) for g, _ in oracle._centralizer_orbits(g0, class_images(d, (2, 2, 1, 1)))]
    assert not all(kernels.is_transitive(head, d) for head in heads)
    tested, products, settled = [], [], []
    is_transitive, product_of, witness_of = (
        kernels.is_transitive,
        kernels.product_of,
        oracle._witness_of,
    )

    def counted_transitive(gens, d, labels=None):
        tested.append(tuple(gens))
        return is_transitive(gens, d, labels)

    def counted_product(perms, d):
        products.append(tuple(perms))
        return product_of(perms, d)

    def counted_witness(d, gammas, alpha):
        if alpha is None:
            settled.append(gammas)
        return witness_of(d, gammas, alpha)

    monkeypatch.setattr(kernels, "is_transitive", counted_transitive)
    monkeypatch.setattr(kernels, "product_of", counted_product)
    monkeypatch.setattr(oracle, "_witness_of", counted_witness)
    tuple_survey(data)
    assert tested == heads
    assert products == settled
    del tested[:], products[:], settled[:]
    # the first imprimitive pair comes from an intransitive choice, after
    # a transitive one, so the search asks for seeds and stops there
    witness = find_imprimitive_witness(data)
    assert tested == heads[:2] and not is_transitive(tested[-1], d)
    assert tuple(g.images for g in witness.gammas[:-1]) == tested[-1]
    assert products == settled


def _count_block_calls(monkeypatch):
    calls = Counter()
    block = kernels.minimal_block

    def counted(*args):
        calls["minimal_block"] += 1
        return block(*args)

    monkeypatch.setattr(kernels, "minimal_block", counted)
    return calls


def test_primitive_gammas_scan_their_blocks_once(monkeypatch):
    # a tuple whose <gammas> is primitive settles every square root of its
    # product with the d - 1 block scans of <gammas> alone
    d = 6
    alphas = defaultdict(list)
    for gammas, alpha, transitive, orientable in iter_relation_pairs(
        data_of("d=6; [3,3],[2,2,1,1],[2,2,1,1]")
    ):
        if transitive and not orientable:
            alphas[gammas].append(alpha)
    chosen = [
        gammas
        for gammas, roots in alphas.items()
        if len(roots) > 1
        and kernels.cycle_lengths(kernels.product_of(gammas, d)) != (d - 1, 1)
        and kernels.is_transitive(gammas, d)
        and is_primitive(group_of(*map(Permutation, gammas)))
    ]
    assert len(chosen) > 10
    calls = _count_block_calls(monkeypatch)
    for gammas in chosen:
        before = calls["minimal_block"]
        test = _test_of(d, gammas)
        assert all(test is None or test(alpha) for alpha in alphas[gammas])
        assert calls["minimal_block"] - before <= d - 1


def test_prime_degree_scan_runs_no_block_scan(monkeypatch):
    calls = _count_block_calls(monkeypatch)
    s = tuple_survey(data_of("d=5; [3,2],[2,2,1],[2,1,1,1]"))
    assert s.transitive_primitive > 0
    assert calls["minimal_block"] == 0
    assert classify_by_search(data_of("d=5; [5],[5]")).witness is not None
    assert calls["minimal_block"] == 0


def test_product_certificate_skips_the_block_scan(monkeypatch):
    # every connected nonorientable pair of this datum multiplies to a
    # 5-cycle with one fixed point
    calls = _count_block_calls(monkeypatch)
    s = tuple_survey(data_of("d=6; [3,3],[3,1,1,1]"))
    assert s.transitive_primitive == 18
    assert s.transitive_imprimitive == 0
    assert calls["minimal_block"] == 0


# Whole survey dicts at raised bounds: the first two as the scan computed
# them when every square root ran the full block scan, the last three as
# it computed them when every pair was decided by block scans over the
# seeds of its gammas.  The counts and the sample witness pin both the
# primitivity decision and the order of the roots.  The first row of
# "d=9; [3,3,3],[3,3,3]" is intransitive, so its pairs still take the seed
# scan; the d = 8 three-row survey and "d=9; [9],[3,3,3]" are decided by
# the block systems of a transitive prefix.  The d = 12 dict is as the scan
# computed it when it walked every root of every tuple.
RAISED_BOUND_SURVEYS = {
    "d=10; [2,2,2,2,2],[2,2,2,2,2]": {
        "degree": 10,
        "rows": [[2, 2, 2, 2, 2], [2, 2, 2, 2, 2]],
        "first_row_reduced": True,
        "relation_pairs": 22680,
        "intransitive": 18072,
        "orientable_excluded": 0,
        "transitive_imprimitive": 4608,
        "transitive_primitive": 0,
        "sample": {
            "degree": 10,
            "gammas": ["(1 2)(3 4)(5 6)(7 8)(9 10)", "(1 2)(3 4)(5 6)(7 8)(9 10)"],
            "alpha": "(2 3)(4 5)(6 7)(8 9)",
        },
    },
    "d=8; [4,4],[4,4]": {
        "degree": 8,
        "rows": [[4, 4], [4, 4]],
        "first_row_reduced": True,
        "relation_pairs": 4112,
        "intransitive": 256,
        "orientable_excluded": 80,
        "transitive_imprimitive": 1216,
        "transitive_primitive": 2560,
        "sample": {
            "degree": 8,
            "gammas": ["(1 2 3 4)(5 6 7 8)", "(1 2 3 5)(4 6 7 8)"],
            "alpha": "(1 2 8 4 6 7 3 5)",
        },
    },
    "d=9; [3,3,3],[3,3,3]": {
        "degree": 9,
        "rows": [[3, 3, 3], [3, 3, 3]],
        "first_row_reduced": True,
        "relation_pairs": 10808,
        "intransitive": 2420,
        "orientable_excluded": 0,
        "transitive_imprimitive": 3042,
        "transitive_primitive": 5346,
        "sample": {
            "degree": 9,
            "gammas": ["(1 2 3)(4 5 6)(7 8 9)", "(1 2 3)(4 5 7)(6 8 9)"],
            "alpha": "(1 4 2 9 3 7)(5 8 6)",
        },
    },
    "d=8; [4,4],[2,2,2,2],[2,2,2,2]": {
        "degree": 8,
        "rows": [[4, 4], [2, 2, 2, 2], [2, 2, 2, 2]],
        "first_row_reduced": True,
        "relation_pairs": 30500,
        "intransitive": 0,
        "orientable_excluded": 164,
        "transitive_imprimitive": 9856,
        "transitive_primitive": 20480,
        "sample": {
            "degree": 8,
            "gammas": ["(1 2 3 4)(5 6 7 8)", "(1 2)(3 4)(5 6)(7 8)", "(1 2)(3 6)(4 5)(7 8)"],
            "alpha": "(1 3 4 8 5 7 2 6)",
        },
    },
    "d=9; [9],[3,3,3]": {
        "degree": 9,
        "rows": [[9], [3, 3, 3]],
        "first_row_reduced": True,
        "relation_pairs": 4976,
        "intransitive": 0,
        "orientable_excluded": 0,
        "transitive_imprimitive": 332,
        "transitive_primitive": 4644,
        "sample": {
            "degree": 9,
            "gammas": ["(1 2 3 4 5 6 7 8 9)", "(1 2 3)(4 5 6)(7 8 9)"],
            "alpha": "(1 6 2 4 9 5 7 3 8)",
        },
    },
    _TWO_TRANSPOSITIONS_12: {
        "degree": 12,
        "rows": [[2] + [1] * 10, [2] + [1] * 10],
        "first_row_reduced": True,
        "relation_pairs": 261312,
        "intransitive": 261312,
        "orientable_excluded": 0,
        "transitive_imprimitive": 0,
        "transitive_primitive": 0,
        "sample": None,
    },
}


@pytest.mark.parametrize("text", sorted(RAISED_BOUND_SURVEYS))
def test_raised_bound_surveys_are_unchanged(text):
    got = tuple_survey(data_of(text), SearchBounds(max_degree=12)).to_dict()
    assert got == RAISED_BOUND_SURVEYS[text]


def test_orbit_bound_settles_tuples_without_their_roots(monkeypatch):
    # no root of the d = 12 survey is enumerated, and its count comes from
    # the class function, which the cap still bounds
    def no_roots(*args):
        raise AssertionError("a root was enumerated")

    monkeypatch.setattr(oracle, "_roots_of", no_roots)
    monkeypatch.setattr(oracle, "iter_root_images", no_roots)
    data = data_of(_TWO_TRANSPOSITIONS_12)
    got = tuple_survey(data, SearchBounds(max_degree=12)).to_dict()
    assert got == RAISED_BOUND_SURVEYS[_TWO_TRANSPOSITIONS_12]
    # the identity of 1..12 has 140,152 roots, the most of any product here
    with pytest.raises(BoundsExceededError, match="^more than 140151 square roots$"):
        tuple_survey(data, SearchBounds(max_degree=12, root_cap=140151))
    tuple_survey(data, SearchBounds(max_degree=12, root_cap=140152))


def test_root_cap_refuses_before_any_root_is_drawn(monkeypatch):
    # the first tuple (g0, g0) has the identity of 1..12 as its product,
    # 140,152 roots and 6 orbits, so the orbit bound does not settle it;
    # every scan refuses at its product type's count, drawing no root
    def no_roots(*args):
        raise AssertionError("a root was drawn")

    monkeypatch.setattr(oracle, "iter_root_images", no_roots)
    monkeypatch.setattr(oracle, "_roots_of", no_roots)
    data = data_of("d=12; [2,2,2,2,2,2],[2,2,2,2,2,2]")
    bounds = SearchBounds(max_degree=12, root_cap=100000)
    for scan in (
        tuple_survey,
        find_primitive_witness,
        find_imprimitive_witness,
        first_witness,
        exists_realization,
    ):
        with pytest.raises(BoundsExceededError, match="^more than 100000 square roots$"):
            scan(data, bounds)


def _drained(pairs):
    """The pairs a stream yields, in order, and the text of the refusal
    that ends it, or None."""
    seen = []
    try:
        for pair in pairs:
            seen.append(pair)
    except BoundsExceededError as e:
        return seen, str(e)
    return seen, None


# one-orbit tuples, tuples with several orbits, the CLI's root-cap
# datum, and two three-row scans; every one refuses some caps and not
# others, and the first refuses only after it has yielded pairs
@pytest.mark.parametrize(
    "text",
    [
        "d=5; [5],[5]",
        "d=4; [2,2],[2,2]",
        "d=6; [2,2,2],[2,2,2]",
        "d=5; [3,1,1],[2,2,1],[2,2,1]",
        "d=6; [3,3],[2,2,1,1],[2,2,1,1]",
    ],
)
def test_relation_pairs_exceed_the_root_cap_as_the_reference_does(text):
    # the plain stream refuses a product type by its count, at the first
    # tuple of that type, where the reference refused while drawing its
    # roots: the same pairs come first, and the refusal reads the same.
    # (test_tuple_survey_reference imports this module, so its reference
    # is imported here, once both are loaded.)
    from test_tuple_survey_reference import iter_relation_pairs as reference

    data = data_of(text)
    refused = set()
    for cap in range(1, 101):
        bounds = SearchBounds(root_cap=cap)
        want = _drained(reference(data, bounds))
        assert _drained(iter_relation_pairs(data, bounds)) == want, cap
        refused.add(want[1] is not None)
    assert refused == {True, False}


@pytest.mark.parametrize("d", [4, 5, 6, 7])
def test_orbit_bound_settles_only_intransitive_tuples(d):
    # over every pair of row types, whether a relation pair exists or not:
    # every root of a tuple the bound settles is intransitive, and the
    # bound settles some tuple
    settled = 0
    for first, second in itertools.product(partitions_of(d), repeat=2):
        candidates = [(canonical_of_type(d, first).images,), class_images(d, second)]
        tuples = oracle._square_tuples(candidates, d, SearchBounds().root_cap)
        for _, prod, parts, _, orbits, n, _ in tuples:
            if n - 1 <= d - min_root_cycles(parts):
                continue
            settled += 1
            for alpha in iter_root_images(kernels.inverse(prod)):
                assert not kernels.alpha_extension(orbits, n, alpha)[0], (first, second)
    assert settled


# ---------------------------------------------------------------------------
# centralizer-orbit reduction of the tuple survey


def _full_tuple_survey(data, bounds=None, *, first_row_reduced=True):
    """`tuple_survey` as it was before the second row was reduced to one
    element per centralizer orbit, kept as the reference: every element
    of every class after the first row is enumerated, and every pair is
    counted one at a time."""
    total = intrans = orient = imprim = prim = 0
    sample = None
    for gammas, alpha, transitive, orientable, primitive in _decided_pairs(
        data, bounds, first_row_reduced=first_row_reduced
    ):
        total += 1
        if not transitive:
            intrans += 1
            continue
        if orientable:
            orient += 1
            continue
        if sample is None:
            sample = _build_witness(data.degree, gammas, alpha)
        if primitive:
            prim += 1
        else:
            imprim += 1
    return oracle.TupleSurvey(
        degree=data.degree,
        rows=tuple(r.parts for r in data.rows),
        first_row_reduced=first_row_reduced,
        relation_pairs=total,
        intransitive=intrans,
        orientable_excluded=orient,
        transitive_imprimitive=imprim,
        transitive_primitive=prim,
        sample=sample,
    )


# the tuple scans of the oracle-scan benchmark and the primitivity scans
_SURVEY_SCANS = sorted(
    {(text, reduced, bounds) for text, reduced, bounds in DECISION_SCANS}
    | {(text, True, bounds) for text, _, bounds in DECISION_SCANS},
    key=str,
)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_reduced_survey_matches_the_full_scan_on_small_data(d):
    for data in every_row_order(admissible_data([d], max_rows=3)):
        want = _full_tuple_survey(data).to_dict()
        assert tuple_survey(data).to_dict() == want, data.to_text()


@pytest.mark.parametrize("text, reduced, bounds", _SURVEY_SCANS)
def test_reduced_survey_matches_the_full_scan_on_benchmark_data(text, reduced, bounds):
    data = data_of(text)
    got = tuple_survey(data, bounds, first_row_reduced=reduced).to_dict()
    assert got == _full_tuple_survey(data, bounds, first_row_reduced=reduced).to_dict()


@pytest.mark.parametrize(
    "text", ["d=4; [2,2],[2,2]", "d=6; [3,3],[2,2,1,1],[2,2,1,1]", "d=5; [3,1,1],[2,2,1],[2,2,1]"]
)
@pytest.mark.parametrize("cap", [1, 5, 10, 20, 50, 100])
def test_reduced_survey_exceeds_the_root_cap_as_the_full_scan_does(text, cap):
    data, bounds = data_of(text), SearchBounds(root_cap=cap)
    try:
        want = _full_tuple_survey(data, bounds).to_dict()
    except BoundsExceededError as e:
        with pytest.raises(BoundsExceededError, match=f"^{re.escape(str(e))}$"):
            tuple_survey(data, bounds)
    else:
        assert tuple_survey(data, bounds).to_dict() == want


def _brute_centralizer(g, d):
    return [c for c in all_images(d) if kernels.compose(c, g) == kernels.compose(g, c)]


@pytest.mark.parametrize("d", range(1, 8))
def test_centralizer_orbits_partition_each_class(d):
    for first in partitions_of(d):
        g0 = canonical_of_type(d, first).images
        cent = _brute_centralizer(g0, d)
        order = math.prod(k**m * math.factorial(m) for k, m in Counter(first).items())
        assert len(cent) == order
        for second in partitions_of(d):
            cls = class_images(d, second)
            where = {g: i for i, g in enumerate(cls)}
            orbits = [(rep, size()) for rep, size in oracle._centralizer_orbits(g0, cls)]
            assert sum(size for _, size in orbits) == len(cls)
            assert [where[rep] for rep, _ in orbits] == sorted(where[rep] for rep, _ in orbits)
            for rep, size in orbits:
                assert order % size == 0
                orbit = {kernels.conjugate(rep, c) for c in cent}
                assert len(orbit) == size
                assert min(map(where.get, orbit)) == where[rep]


def test_centralizer_orbits_are_found_as_the_scan_reaches_them(monkeypatch):
    # a scan that stops at the first representative has read the class no
    # further and searched no orbit, so it has not built the generators of
    # C(g0) either; a size asked for searches that one orbit
    d = 6
    g0 = canonical_of_type(d, (2, 2, 1, 1)).images
    cls = class_images(d, (2, 2, 1, 1))
    read, built = [], []
    conjugators = oracle._centralizer_conjugators

    def reading():
        for g in cls:
            read.append(g)
            yield g

    def counted(g):
        built.append(g)
        return conjugators(g)

    monkeypatch.setattr(oracle, "_centralizer_conjugators", counted)
    orbits = oracle._centralizer_orbits(g0, reading())
    rep, size = next(orbits)
    assert rep == cls[0] and read == [cls[0]] and not built
    assert size() == len({kernels.conjugate(rep, c) for c in _brute_centralizer(g0, d)})
    assert read == [cls[0]] and len(built) == 1
    rest = [(g, size()) for g, size in orbits]
    assert len(rest) > 1 and len(built) == 1 and read == list(cls)


@pytest.mark.parametrize("d, max_rows", [(2, 3), (3, 3), (4, 3), (5, 2)])
def test_reduced_survey_scales_to_the_unreduced_counts(d, max_rows):
    counts = (
        "relation_pairs",
        "intransitive",
        "orientable_excluded",
        "transitive_imprimitive",
        "transitive_primitive",
    )
    for data in every_row_order(admissible_data([d], max_rows)):
        if data.rows_count < 2:
            continue
        red = tuple_survey(data).to_dict()
        full = tuple_survey(data, first_row_reduced=False).to_dict()
        scale = len(class_images(d, data.rows[0].parts))
        assert [red[k] * scale for k in counts] == [full[k] for k in counts], data.to_text()
        assert red["sample"] == full["sample"], data.to_text()


def test_reduced_survey_scans_one_second_row_per_centralizer_orbit(monkeypatch):
    calls = Counter()
    extension = kernels.alpha_extension

    def counted(*args):
        calls["alpha_extension"] += 1
        return extension(*args)

    monkeypatch.setattr(kernels, "alpha_extension", counted)
    s = tuple_survey(data_of("d=6; [3,3],[2,2,1,1],[2,2,1,1]"))
    assert s.relation_pairs == 4374
    assert calls["alpha_extension"] < s.relation_pairs / 4


def test_survey_settles_connected_tuples_without_walking_their_roots(monkeypatch):
    # every gamma_1 of `d=5; [5],[5]` is a 5-cycle, so each tuple is
    # connected before gamma_2 is chosen, and d = 5 is prime: every tuple
    # is settled by its product type's root count, with no orbit index and
    # no per-root extension
    calls = Counter()
    for name in ("orbit_index", "alpha_extension"):
        def counted(*args, _name=name, _fn=getattr(kernels, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(kernels, name, counted)
    s = tuple_survey(data_of("d=5; [5],[5]"), first_row_reduced=False)
    assert s.relation_pairs == s.transitive_primitive == 1536
    assert calls == Counter()
    # an intransitive prefix still takes the per-root path
    s = tuple_survey(data_of("d=6; [3,3],[2,2,1,1],[2,2,1,1]"))
    assert s.relation_pairs == 4374
    assert calls["orbit_index"] > 0
    assert calls["alpha_extension"] > 0


# ---------------------------------------------------------------------------
# involution pair survey


def test_pair_survey_degree_four():
    s = involution_pair_survey(4)
    assert not s.first_fixed
    assert s.scanned_pairs == 9
    assert s.transitive_pairs == 6
    assert s.total_transitive_pairs == 6
    assert s.all_conjugate_to_canonical
    assert s.products_all_two_half_cycles
    assert s.blocks_all_valid


def test_pair_survey_degree_six():
    s = involution_pair_survey(6)
    assert s.scanned_pairs == 225
    assert s.transitive_pairs == 120
    assert s.total_transitive_pairs == 120
    assert s.all_conjugate_to_canonical
    assert s.products_all_two_half_cycles
    assert s.blocks_all_valid


def test_pair_survey_first_fixed_reduction_scales_back():
    full = involution_pair_survey(6)
    reduced = involution_pair_survey(6, SearchBounds(max_degree=4))
    assert reduced.first_fixed
    assert reduced.scanned_pairs < full.scanned_pairs
    assert reduced.total_transitive_pairs == full.total_transitive_pairs == 120


def test_pair_survey_total_is_factorial_quotient():
    import math

    for d in (4, 6, 8):
        assert expected_transitive_pair_total(d) == math.factorial(d) // d
    s = involution_pair_survey(8, SearchBounds(max_degree=8))
    assert s.total_transitive_pairs == expected_transitive_pair_total(8) == 5040


def test_pair_survey_rejects_bad_degree():
    for d in (2, 3, 5, 7):
        with pytest.raises(ValueError):
            involution_pair_survey(d)
        with pytest.raises(ValueError):
            expected_transitive_pair_total(d)


def test_pair_survey_respects_degree_bound():
    with pytest.raises(BoundsExceededError):
        involution_pair_survey(10)


# whole survey dicts as computed when the survey still built `Permutation`
# and group objects per pair: (degree, max_degree) -> to_dict()
PAIR_SURVEYS = {
    (4, 6): dict(degree=4, first_fixed=False, scanned_pairs=9, transitive_pairs=6,
                 total_transitive_pairs=6),
    (6, 6): dict(degree=6, first_fixed=False, scanned_pairs=225, transitive_pairs=120,
                 total_transitive_pairs=120),
    (8, 6): dict(degree=8, first_fixed=True, scanned_pairs=105, transitive_pairs=48,
                 total_transitive_pairs=5040),
    (8, 8): dict(degree=8, first_fixed=False, scanned_pairs=11025, transitive_pairs=5040,
                 total_transitive_pairs=5040),
    (10, 8): dict(degree=10, first_fixed=True, scanned_pairs=945, transitive_pairs=384,
                  total_transitive_pairs=362880),
    (6, 4): dict(degree=6, first_fixed=True, scanned_pairs=15, transitive_pairs=8,
                 total_transitive_pairs=120),
}
_ALL_HOLD = dict(
    all_conjugate_to_canonical=True, products_all_two_half_cycles=True, blocks_all_valid=True
)


@pytest.mark.parametrize("key", sorted(PAIR_SURVEYS, key=str))
def test_pair_survey_dicts_are_unchanged(key):
    d, max_degree = key
    got = involution_pair_survey(d, SearchBounds(max_degree=max_degree))
    assert got.to_dict() == {**PAIR_SURVEYS[key], **_ALL_HOLD}


def test_pair_survey_tests_transitivity_once_per_pair_on_image_tuples(monkeypatch):
    # the walk alone decides transitivity: one walk per pair, no orbit labels
    calls = Counter()
    is_transitive = kernels.is_transitive
    walk = oracle._walk_relabeling
    post_init = Permutation.__post_init__

    def counted(gens, d):
        calls["is_transitive"] += 1
        return is_transitive(gens, d)

    def walked(pair, target, d):
        calls["walk"] += 1
        return walk(pair, target, d)

    def built(self):
        calls["Permutation"] += 1
        post_init(self)

    monkeypatch.setattr(kernels, "is_transitive", counted)
    monkeypatch.setattr(oracle, "_walk_relabeling", walked)
    monkeypatch.setattr(Permutation, "__post_init__", built)
    s = involution_pair_survey(6)
    assert calls["is_transitive"] == 0
    assert calls["walk"] == s.scanned_pairs == 225
    # only the canonical pair itself
    assert calls["Permutation"] == 2


class NotABlockError(ValueError):
    """A set claimed to be a block has overlapping distinct translates."""


def _old_block_system_from(G, block):
    """The former `groups.block_system_from`: all translates of a block,
    sorted, or NotABlockError when two of them overlap.  Kept verbatim as
    the reference for the survey's block test."""
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
    """The former `groups.pair_conjugator`: the first lam, by lam^-1(1) =
    1, 2, ..., d, that conjugates pair onto target elementwise, propagated
    along both generators, or None.  Kept verbatim as the reference for the
    survey's relabeling."""
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


@pytest.mark.parametrize("d", [4, 6, 8])
def test_pair_survey_checks_agree_with_the_references(d):
    # every ordered pair of fixed-point-free involutions, transitive or
    # not, against the canonical pair, the canonical pair relabelled by
    # (1 2), and an intransitive target
    p, q = canonical_involution_pair(d)
    swap = Permutation.from_cycles(d, [(1, 2)])
    targets = ((p, q), (p.conjugate(swap), q.conjugate(swap)), (p, p))
    found = Counter()
    for pair in itertools.product(class_images(d, (2,) * (d // 2)), repeat=2):
        transitive = kernels.is_transitive(pair, d)
        perms = tuple(map(Permutation, pair))
        for i, target in enumerate(targets):
            closed_early, lam = oracle._walk_relabeling(
                pair, tuple(g.images for g in target), d
            )
            # the walk closes early exactly on the intransitive pairs,
            # whatever the target
            assert closed_early is (not transitive), (pair, i)
            old = _old_pair_conjugator(perms, target)
            assert lam == (None if old is None else old.images), (pair, i)
            if lam is None:
                continue
            half = lam[::2]
            try:
                _old_block_system_from(group_of(*perms), half)
                want = True
            except NotABlockError:
                want = False
            assert oracle._is_half_block(pair, half) is want, (pair, i)
            found[transitive, i, want] += 1
    total = expected_transitive_pair_total(d)
    # each transitive pair is relabelled onto both transitive targets and
    # never onto the intransitive one.  The canonical target's odd points
    # are a block; the relabelled target's are not, except at d = 4, where
    # the pair generates the Klein four-group and any two points are a block
    assert found == {(True, 0, True): total, (True, 1, d == 4): total}


@pytest.mark.parametrize("d", [4, 5, 6])
def test_pair_survey_relabeling_is_checked(d):
    # involutions with fixed points, whose walks may repeat a point or
    # visit every point without the pair being conjugate to the target:
    # a relabeling is returned only when it is a bijection that conjugates
    # the pair onto the target
    invs = [p for p in all_images(d) if all(p[p[x] - 1] == x + 1 for x in range(d))]
    targets = [tuple(g.images for g in canonical_involution_pair(d))] if d % 2 == 0 else []
    outcomes = Counter()
    for pair in itertools.product(invs, repeat=2):
        # with fixed points the walk may return to 1 after any number of
        # steps, the last p step before step d included
        x, returns = 1, set()
        for k in range(d - 1):
            x = pair[k % 2][x - 1]
            if x == 1:
                returns.add(k)
        for target in (pair, *targets):
            closed_early, lam = oracle._walk_relabeling(pair, target, d)
            assert closed_early is bool(returns)
            outcomes["returns at step d - 2", d - 2 in returns] += 1
            # a walk back at 1 before step d repeats 1: no bijection
            assert not (closed_early and lam is not None)
            outcomes[lam is not None] += 1
            if lam is not None:
                assert sorted(lam) == list(range(1, d + 1))
                assert all(kernels.conjugate(g, lam) == h for g, h in zip(pair, target))
    assert outcomes[True] and outcomes[False]
    assert outcomes["returns at step d - 2", True]


@pytest.mark.parametrize("d", [8, 40])
def test_pair_survey_relabeling_round_trip(d):
    # random conjugates of the canonical pair walk back onto it
    rng = random.Random(41)
    canon = tuple(g.images for g in canonical_involution_pair(d))
    for _ in range(20):
        lam = random_perm(d, rng).images
        moved = tuple(kernels.conjugate(g, lam) for g in canon)
        closed_early, mu = oracle._walk_relabeling(moved, canon, d)
        assert not closed_early
        assert mu is not None
        assert tuple(kernels.conjugate(g, mu) for g in moved) == canon
        assert oracle._is_half_block(moved, mu[::2])


def _survey_with(monkeypatch, attr, value, d=6):
    monkeypatch.setattr(oracle, attr, value)
    return involution_pair_survey(d).to_dict()


def test_pair_survey_flags_conjugacy_failure(monkeypatch):
    # an intransitive target: no transitive pair is conjugate to it
    p, _ = canonical_involution_pair(6)
    got = _survey_with(monkeypatch, "canonical_involution_pair", lambda d: (p, p))
    assert got == {
        **PAIR_SURVEYS[(6, 6)], **_ALL_HOLD, "all_conjugate_to_canonical": False
    }


def test_pair_survey_flags_product_failure(monkeypatch):
    # the product of every pair read as its first involution, of type
    # [2, 2, 2].  The survey forms each product itself and reads its type
    # with `kernels.cycle_lengths`, once per transitive pair
    calls = Counter()

    def first_involution_type(p, labels=False):
        calls["cycle_lengths"] += 1
        return (2, 2, 2)

    monkeypatch.setattr(kernels, "cycle_lengths", first_involution_type)
    got = involution_pair_survey(6).to_dict()
    assert got == {
        **PAIR_SURVEYS[(6, 6)], **_ALL_HOLD, "products_all_two_half_cycles": False
    }
    assert calls["cycle_lengths"] == got["transitive_pairs"]


def test_pair_survey_flags_block_failure(monkeypatch):
    # the canonical pair relabelled by (1 2): still a conjugate, so every
    # conjugator exists, but the odd points are no block of its group
    p, q = canonical_involution_pair(6)
    swap = Permutation.from_cycles(6, [(1, 2)])
    moved = (p.conjugate(swap), q.conjugate(swap))
    with pytest.raises(NotABlockError):
        _old_block_system_from(group_of(*moved), (1, 3, 5))
    got = _survey_with(monkeypatch, "canonical_involution_pair", lambda d: moved)
    assert got == {**PAIR_SURVEYS[(6, 6)], **_ALL_HOLD, "blocks_all_valid": False}


# ---------------------------------------------------------------------------
# bounds enforcement


def test_search_bounds_defaults():
    b = SearchBounds()
    assert (b.max_degree, b.max_rows) == (6, 4)


def test_degree_bound_enforced():
    with pytest.raises(BoundsExceededError):
        exists_realization(data_of("d=8; [8],[8]"))


def test_rows_bound_enforced():
    rows = ",".join(["[2,1]"] * 5)
    with pytest.raises(BoundsExceededError):
        exists_realization(data_of(f"d=3; {rows}"))


def test_root_cap_enforced():
    tight = SearchBounds(root_cap=1)
    with pytest.raises(BoundsExceededError):
        exists_realization(data_of("d=4; [2,2],[2,2]"), tight)


def test_loose_bounds_open_larger_degrees():
    wide = SearchBounds(max_degree=8)
    assert exists_realization(data_of("d=7; [7],[7]"), wide)


def _benchmark_data():
    """The data of the benchmark's oracle scans, read from perfbench/workloads.py."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.OracleScan.TUPLE_SCANS, workloads.ClassifyBatch.ODD


def test_roots_cache_is_bounded_and_never_evicts_in_default_scans():
    assert oracle._roots_of.cache_info().maxsize is not None
    tuple_scans, odd_lines = _benchmark_data()
    # each tuple scan starts cold, as every `rp2cover oracle` process does
    for text, reduced in tuple_scans:
        oracle._roots_of.cache_clear()
        oracle.class_images.cache_clear()
        tuple_survey(data_of(text), first_row_reduced=reduced)
        info = oracle._roots_of.cache_info()
        # a miss per distinct product and no more: nothing was evicted
        assert info.misses == info.currsize < info.maxsize, (text, info)
    # a batch file's odd lines share one process and one cache
    oracle._roots_of.cache_clear()
    for text in odd_lines * 2:
        classify(data_of(text))
    info = oracle._roots_of.cache_info()
    assert info.misses == info.currsize < info.maxsize, info
    oracle._roots_of.cache_clear()
