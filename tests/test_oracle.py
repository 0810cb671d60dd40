"""Exhaustive small-degree searches, checked against direct enumeration."""

from __future__ import annotations

from collections import Counter, defaultdict

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rp2cover import kernels, oracle
from rp2cover.branch import is_admissible
from rp2cover.groups import group_of, is_primitive
from rp2cover.oracle import (
    BoundsExceededError,
    SearchBounds,
    class_images,
    classify_by_search,
    exists_primitive_realization,
    exists_realization,
    expected_transitive_pair_total,
    find_imprimitive_witness,
    find_primitive_witness,
    involution_pair_survey,
    iter_relation_pairs,
    tuple_survey,
)
from rp2cover.perm import Permutation
from rp2cover.realize import Verdict, canonical_involution_pair, classify, verify_witness

from helpers import admissible_data, all_images, data_of, partitions_of


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


def test_search_classification_tags_are_empty():
    got = classify_by_search(data_of("d=3; [3],[3]"))
    assert got.verdict is Verdict.INDECOMPOSABLE_REALIZABLE
    assert got.case is None and got.reason is None


@pytest.mark.parametrize("text", ["d=4; [2,2],[2,2]", "d=6; [2,2,2],[2,2,2]"])
def test_only_decomposable_search_scans_once(text, monkeypatch):
    scans = []
    scan = oracle.iter_relation_pairs

    def counted(*args, **kwargs):
        scans.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(oracle, "iter_relation_pairs", counted)
    got = classify_by_search(data_of(text))
    assert got.verdict is Verdict.ONLY_DECOMPOSABLE
    assert len(scans) == 1


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
    assert exists_primitive_realization(data_of("d=6; [3,2,1],[2,2,2]"))
    assert not exists_primitive_realization(data_of("d=6; [2,2,2],[2,2,2]"))
    assert not exists_primitive_realization(data_of("d=4; [2,2]"))


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


def _route(decide, gammas, d):
    """Which rule of `_Primitivity` settles pairs with these gammas."""
    if decide.prime:
        return "prime"
    if kernels.cycle_lengths(kernels.product_of(gammas, d)) == (d - 1, 1):
        return "two_transitive"
    seeds = decide.seeds(gammas)
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
        decide = oracle._Primitivity(d)
        for gammas, alpha, transitive, orientable in iter_relation_pairs(
            data, bounds, first_row_reduced=reduced
        ):
            if not transitive or orientable:
                continue
            w = oracle._witness_of(d, gammas, alpha)
            want = is_primitive(w.group())
            assert decide(gammas, alpha) == want, (text, w.to_dict())
            route = _route(decide, gammas, d)
            if route == "gammas_primitive":
                assert is_primitive(group_of(*w.gammas)), (text, w.to_dict())
            routes[route if route in ("prime", "two_transitive") else f"{route}:{want}"] += 1
    assert set(routes) == {
        "prime",
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
def _transitive_pairs(draw):
    """Gammas and alpha of degree 6..9 generating a transitive group.

    Each permutation either is any permutation, or maps the blocks of a
    drawn block system onto each other, or maps every part of a drawn set
    partition onto itself, so the group and <gammas> range from primitive
    to imprimitive and from transitive to intransitive.
    """
    d = draw(st.integers(6, 9))
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
    assert oracle._Primitivity(d)(gammas, alpha) == want


def test_primitivity_decision_follows_each_gammas_tuple():
    long_cycle = (Permutation.from_cycles(6, [(1, 2, 3, 4, 5)]).images,)
    joined = Permutation.from_cycles(6, [(5, 6)]).images
    pair = tuple(g.images for g in canonical_involution_pair(6))
    still = Permutation.identity(6).images
    decide = oracle._Primitivity(6)
    assert decide(long_cycle, joined) and not decide(pair, still)
    decide = oracle._Primitivity(6)
    assert not decide(pair, still) and decide(long_cycle, joined)


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
        decide = oracle._Primitivity(d)
        before = calls["minimal_block"]
        assert all(decide(gammas, alpha) for alpha in alphas[gammas])
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


# Whole survey dicts at raised bounds, as the scan computed them when every
# square root ran the full block scan; the counts and the sample witness
# pin both the primitivity decision and the order of the roots.
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
}


@pytest.mark.parametrize("text", sorted(RAISED_BOUND_SURVEYS))
def test_raised_bound_surveys_are_unchanged(text):
    got = tuple_survey(data_of(text), SearchBounds(max_degree=10)).to_dict()
    assert got == RAISED_BOUND_SURVEYS[text]


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
    reduced = involution_pair_survey(6, first_fixed=True)
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
