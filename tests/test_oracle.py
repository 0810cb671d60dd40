"""Exhaustive small-degree searches, checked against direct enumeration."""

from __future__ import annotations

from collections import Counter

import pytest

from rp2cover import kernels, oracle
from rp2cover.branch import is_admissible
from rp2cover.groups import is_primitive
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
            if d == 5:
                routes["prime"] += 1
            elif kernels.cycle_lengths(kernels.product_of(gammas, d)) == (d - 1, 1):
                routes["two_transitive"] += 1
            else:
                routes[f"block_scan:{want}"] += 1
    assert set(routes) == {"prime", "two_transitive", "block_scan:True", "block_scan:False"}


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
