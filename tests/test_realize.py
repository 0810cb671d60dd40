"""Classification, witness construction, and certificate checks."""

from __future__ import annotations

import random

import pytest

from rp2cover import oracle
from rp2cover import realize as realize_module
from rp2cover.branch import BranchData, Partition
from rp2cover.perm import Permutation, from_cycles, parse_permutation
from rp2cover.realize import (
    Case,
    Certificate,
    Classification,
    EngineDefect,
    HurwitzWitness,
    NotRealizableError,
    PairGoal,
    Reason,
    SearchExhausted,
    Verdict,
    assemble_pair,
    canonical_involution_pair,
    classify,
    realize_decomposable_search,
    realize_indecomposable,
    verify_witness,
)

from helpers import admissible_data, data_of


# ---------------------------------------------------------------------------
# classification


CLASSIFY_TABLE = [
    ("d=2; [2],[2]", Verdict.INDECOMPOSABLE_REALIZABLE, Case.DEGREE_TWO, None),
    (
        "d=6; [3,2,1],[2,2,2]",
        Verdict.INDECOMPOSABLE_REALIZABLE,
        Case.SOME_ROW_NOT_ALL_TWOS,
        None,
    ),
    (
        "d=6; [2,2,2],[2,2,2],[2,2,2],[2,2,2]",
        Verdict.INDECOMPOSABLE_REALIZABLE,
        Case.BIG_DEGREE_MANY_ROWS,
        None,
    ),
    (
        "d=4; [2,2],[2,2]",
        Verdict.ONLY_DECOMPOSABLE,
        None,
        Reason.DEGREE_FOUR_ALL_TWOS,
    ),
    (
        "d=4; [2,2],[2,2],[2,2]",
        Verdict.ONLY_DECOMPOSABLE,
        None,
        Reason.DEGREE_FOUR_ALL_TWOS,
    ),
    (
        "d=4; [2,2],[2,2],[2,2],[2,2]",
        Verdict.ONLY_DECOMPOSABLE,
        None,
        Reason.DEGREE_FOUR_ALL_TWOS,
    ),
    (
        "d=6; [2,2,2],[2,2,2]",
        Verdict.ONLY_DECOMPOSABLE,
        None,
        Reason.TWO_ALL_TWOS_ROWS,
    ),
    ("d=6; [2,2,2],[2,2,2],[2,2,2]", Verdict.NOT_ADMISSIBLE, None, None),
    ("d=5; [3,1,1]", Verdict.NOT_ADMISSIBLE, None, None),
    ("d=3; [3],[3]", Verdict.INDECOMPOSABLE_REALIZABLE, None, None),
    ("d=7; [7],[7]", Verdict.UNKNOWN, None, None),
]


@pytest.mark.parametrize("text,verdict,case,reason", CLASSIFY_TABLE)
def test_classify_table(text, verdict, case, reason):
    got = classify(data_of(text))
    assert got.verdict is verdict
    assert got.case is case
    assert got.reason is reason


def test_verdict_and_tag_values():
    assert Verdict.NOT_ADMISSIBLE.value == "not_admissible"
    assert Verdict.INDECOMPOSABLE_REALIZABLE.value == "indecomposable_realizable"
    assert Verdict.ONLY_DECOMPOSABLE.value == "only_decomposable"
    assert Verdict.UNKNOWN.value == "unknown"
    assert Case.DEGREE_TWO.value == "degree_two"
    assert Case.SOME_ROW_NOT_ALL_TWOS.value == "some_row_not_all_twos"
    assert Case.BIG_DEGREE_MANY_ROWS.value == "big_degree_many_rows"
    assert Reason.DEGREE_FOUR_ALL_TWOS.value == "degree_four_all_twos"
    assert Reason.TWO_ALL_TWOS_ROWS.value == "two_all_twos_rows"


def test_classify_even_degree_covers_every_admissible_datum():
    for data in admissible_data([4, 6], max_rows=4):
        got = classify(data)
        assert got.verdict in (
            Verdict.INDECOMPOSABLE_REALIZABLE,
            Verdict.ONLY_DECOMPOSABLE,
        )
        if got.verdict is Verdict.ONLY_DECOMPOSABLE:
            assert data.all_rows_all_twos()
            assert got.reason is not None


# ---------------------------------------------------------------------------
# the canonical fixed-point-free involution pair


@pytest.mark.parametrize("d", [4, 6, 8, 10, 12])
def test_canonical_pair_shape(d):
    p, q = canonical_involution_pair(d)
    half = d // 2
    assert p.cycle_type() == (2,) * half
    assert q.cycle_type() == (2,) * half
    prod = p * q
    assert prod.cycle_type() == (half, half)
    from rp2cover.groups import group_of, is_transitive

    assert is_transitive(group_of(p, q))


def test_canonical_pair_degree_four():
    p, q = canonical_involution_pair(4)
    assert str(p) == "(1 2)(3 4)"
    assert str(q) == "(1 4)(2 3)"


@pytest.mark.parametrize("d", [2, 3, 5, 0])
def test_canonical_pair_rejects_bad_degree(d):
    with pytest.raises(ValueError):
        canonical_involution_pair(d)


# ---------------------------------------------------------------------------
# targeted pair assembly


def test_assemble_pair_hits_requested_product_type():
    a, b = assemble_pair((3, 1), (2, 1, 1), PairGoal(orbit_count=1, product_type=(4,)))
    assert a.cycle_type() == (3, 1)
    assert b.cycle_type() == (2, 1, 1)
    assert (a * b).cycle_type() == (4,)


def test_assemble_pair_hits_requested_defect():
    a, b = assemble_pair((2, 2, 2), (2, 2, 2), PairGoal(orbit_count=1, product_defect=4))
    prod = a * b
    assert prod.defect() == 4
    assert prod.cycle_type() in ((5, 1), (4, 2), (3, 3))


def test_assemble_pair_respects_fixed_first_factor():
    ga = parse_permutation("(1 3)(2 5)", 6)
    a, b = assemble_pair(
        (2, 2, 1, 1),
        (3, 2, 1),
        PairGoal(orbit_count=1, product_defect=5),
        gamma_a=ga,
    )
    assert a == ga
    assert b.cycle_type() == (3, 2, 1)
    assert (a * b).cycle_type() == (6,)


def test_assemble_pair_multiple_orbits():
    a, b = assemble_pair((2, 2), (2, 2), PairGoal(orbit_count=2, product_defect=0))
    prod = a * b
    assert prod.is_identity() or prod.cycle_type() == (2, 2)
    import rp2cover.kernels as kernels

    assert kernels.orbit_count([a.images, b.images], 4) == 2


def test_assemble_pair_exhausts_impossible_goal():
    # two disjoint 2-orbits of fixed-point-free involutions force an
    # identity product, so defect 2 cannot happen
    with pytest.raises(SearchExhausted) as info:
        assemble_pair((2, 2), (2, 2), PairGoal(orbit_count=2, product_defect=2))
    assert info.value.complete


def test_assemble_pair_exhausts_parity_impossible_goal():
    # product of two even permutations is even; a 4-cycle is odd
    with pytest.raises(SearchExhausted) as info:
        assemble_pair((2, 2), (2, 2), PairGoal(orbit_count=1, product_type=(4,)))
    assert info.value.complete


def test_assemble_pair_budget_cut_is_flagged_incomplete():
    with pytest.raises(SearchExhausted) as info:
        assemble_pair(
            (2, 2, 2, 2, 1),
            (3, 3, 3),
            PairGoal(orbit_count=1, product_type=(9,)),
            node_budget=3,
        )
    assert not info.value.complete


def test_pair_goal_validation():
    with pytest.raises(ValueError):
        PairGoal(orbit_count=1)
    with pytest.raises(ValueError):
        PairGoal(orbit_count=1, product_defect=2, product_type=(3, 1))
    with pytest.raises(ValueError):
        PairGoal(orbit_count=0, product_defect=2)
    goal = PairGoal(orbit_count=2, product_defect=3)
    assert "2" in goal.describe() and "3" in goal.describe()


# ---------------------------------------------------------------------------
# witness verification


def _klein_witness():
    gammas = (
        parse_permutation("(1 2)(3 4)", 4),
        parse_permutation("(2 3)(4 1)", 4),
    )
    alpha = parse_permutation("(1 2 3 4)", 4)
    return HurwitzWitness(degree=4, gammas=gammas, alpha=alpha)


def test_verify_worked_example():
    data = data_of("d=4; [2,2],[2,2]")
    cert = verify_witness(data, _klein_witness())
    assert cert.relation_ok
    assert cert.row_types_ok
    assert cert.transitive
    assert cert.nonorientable
    assert not cert.primitive
    assert cert.witness_block == (1, 3)
    assert cert.euler_char == 0
    assert not cert.all_ok


def test_verify_orientable_tuple_is_rejected():
    data = data_of("d=4; [2,2],[2,2]")
    w = HurwitzWitness(
        degree=4,
        gammas=(
            parse_permutation("(1 2)(3 4)", 4),
            parse_permutation("(1 2)(3 4)", 4),
        ),
        alpha=parse_permutation("(1 3)(2 4)", 4),
    )
    cert = verify_witness(data, w)
    assert cert.relation_ok
    assert cert.row_types_ok
    assert cert.transitive
    assert not cert.nonorientable
    assert not cert.all_ok


def test_verify_detects_broken_relation():
    data = data_of("d=4; [2,2],[2,2]")
    w = _klein_witness()
    bad = HurwitzWitness(
        degree=4, gammas=w.gammas, alpha=parse_permutation("(1 2)", 4)
    )
    cert = verify_witness(data, bad)
    assert not cert.relation_ok
    assert not cert.all_ok


def test_verify_detects_type_mismatch():
    data = data_of("d=4; [3,1],[2,2]")
    cert = verify_witness(data, _klein_witness())
    assert not cert.row_types_ok
    assert not cert.all_ok


def test_verify_detects_intransitive_tuple():
    data = data_of("d=4; [2,2],[2,2]")
    g = parse_permutation("(1 2)(3 4)", 4)
    w = HurwitzWitness(
        degree=4, gammas=(g, g), alpha=parse_permutation("(1 2)", 4).inverse()
    )
    cert = verify_witness(data, w)
    assert not cert.transitive
    assert not cert.all_ok


def test_verify_row_map_controls():
    data = data_of("d=5; [3,1,1],[2,2,1]")
    ga = parse_permutation("(1 2)(3 4)", 5)
    gb = parse_permutation("(1 2 3)", 5)
    prod = ga * gb
    alpha_sq = prod.inverse()
    # alpha with alpha^2 = (ga*gb)^-1 may not exist here; build from scratch
    w = HurwitzWitness(degree=5, gammas=(ga, gb), alpha=parse_permutation("()", 5))
    cert = verify_witness(data, w, row_map=(1, 0))
    assert cert.row_types_ok
    assert cert.row_permutation_applied == (1, 0)
    with pytest.raises(ValueError):
        verify_witness(data, w, row_map=(0, 0))
    with pytest.raises(ValueError):
        verify_witness(data, w, row_map=(0,))
    del alpha_sq


def test_verify_rejects_row_count_mismatch():
    data = data_of("d=4; [2,2],[2,2],[2,2]")
    with pytest.raises(ValueError):
        verify_witness(data, _klein_witness())


def test_verify_greedy_row_matching():
    data = data_of("d=4; [2,2],[2,2]")
    w = _klein_witness()
    cert = verify_witness(data, w)
    assert cert.row_permutation_applied == (0, 1)


def test_witness_round_trip():
    w = _klein_witness()
    again = HurwitzWitness.from_dict(w.to_dict())
    assert again == w
    d = w.to_dict()
    assert d["degree"] == 4
    assert d["alpha"] == "(1 2 3 4)"
    assert d["gammas"] == ["(1 2)(3 4)", "(1 4)(2 3)"]


def test_certificate_dict_shape():
    data = data_of("d=4; [2,2],[2,2]")
    cert = verify_witness(data, _klein_witness())
    rec = cert.to_dict()
    assert rec["all_ok"] is False
    assert rec["euler_char"] == 0
    assert rec["witness_block"] == [1, 3]


# ---------------------------------------------------------------------------
# full construction


def test_realize_degree_two():
    res = realize_indecomposable(data_of("d=2; [2],[2]"))
    assert res.engine == "degree_two"
    assert res.certificate.all_ok
    assert res.witness.degree == 2


@pytest.mark.parametrize(
    "text",
    [
        "d=4; [3,1],[2,2]",
        "d=6; [3,2,1],[2,2,2]",
        "d=6; [5,1],[2,2,2],[2,2,2]",
        "d=8; [4,3,1],[2,2,2,2],[8]",
        "d=10; [9,1],[2,2,2,2,1,1]",
        "d=12; [6,6],[4,4,2,2],[3,3,3,3]",
    ],
)
def test_realize_general_even_degree(text):
    data = data_of(text)
    res = realize_indecomposable(data)
    assert res.engine == "fold_chain"
    cert = res.certificate
    assert cert.all_ok
    assert cert.euler_char == data.degree - data.total_defect()
    assert cert.primitive and cert.witness_block is None


@pytest.mark.parametrize(
    "text",
    [
        "d=6; [2,2,2],[2,2,2],[2,2,2],[2,2,2]",
        "d=8; [2,2,2,2],[2,2,2,2],[2,2,2,2]",
        "d=12; [2,2,2,2,2,2],[2,2,2,2,2,2],[2,2,2,2,2,2]",
    ],
)
def test_realize_all_twos_rows(text):
    data = data_of(text)
    res = realize_indecomposable(data)
    assert res.engine == "all_twos_chain"
    assert res.certificate.all_ok
    for g, row in zip(res.witness.gammas, data.rows):
        assert g.cycle_type() == row.parts


# every admissible datum of degree 3 or 5 is indecomposably realizable
ODD_TEXTS = [data.to_text() for data in admissible_data([3, 5], 4)]


@pytest.mark.parametrize("text", ODD_TEXTS)
def test_realize_small_odd_degree(text, monkeypatch):
    data = data_of(text)
    scans = []
    scan = oracle.iter_relation_pairs

    def counted(*args, **kwargs):
        scans.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(oracle, "iter_relation_pairs", counted)
    res = realize_indecomposable(data, seed=11)
    assert len(scans) == 1
    monkeypatch.undo()
    assert res.engine == "exhaustive_scan"
    assert res.certificate.all_ok
    # the classifying scan's witness, whatever the seed
    assert res.witness == oracle.find_primitive_witness(data)


def test_classification_witness_is_not_part_of_the_verdict():
    data = data_of("d=5; [5],[3,1,1]")
    cls = classify(data)
    assert cls.witness == oracle.find_primitive_witness(data)
    assert cls == Classification(Verdict.INDECOMPOSABLE_REALIZABLE)
    assert "witness" not in cls.to_dict()
    assert classify(data_of("d=6; [3,2,1],[2,2,2]")).witness is None


def test_fold_stall_is_an_engine_defect(monkeypatch):
    def stall(*args, **kwargs):
        raise realize_module._FoldStall("forced stall")

    monkeypatch.setattr(realize_module, "_fold_chain", stall)
    with pytest.raises(EngineDefect, match="forced stall"):
        realize_indecomposable(data_of("d=6; [3,2,1],[2,2,2]"))


def test_realize_is_deterministic_per_seed():
    data = data_of("d=8; [4,3,1],[2,2,2,2],[8]")
    a = realize_indecomposable(data, seed=5)
    b = realize_indecomposable(data, seed=5)
    assert a.to_dict() == b.to_dict()


def test_realize_result_dict_shape():
    res = realize_indecomposable(data_of("d=6; [3,2,1],[2,2,2]"), seed=3)
    rec = res.to_dict()
    assert rec["engine"] == "fold_chain"
    assert rec["seed"] == 3
    assert rec["certificate"]["all_ok"] is True
    w = HurwitzWitness.from_dict(rec["witness"])
    assert w.degree == 6


def test_realize_refuses_inadmissible():
    with pytest.raises(NotRealizableError) as info:
        realize_indecomposable(data_of("d=4; [2,2]"))
    assert "not_admissible" in str(info.value)


def test_realize_refuses_only_decomposable():
    with pytest.raises(NotRealizableError) as info:
        realize_indecomposable(data_of("d=4; [2,2],[2,2]"))
    assert "only_decomposable" in str(info.value)


def test_realize_refuses_undecided():
    with pytest.raises(NotRealizableError) as info:
        realize_indecomposable(data_of("d=7; [7],[7]"))
    assert "undecided" in str(info.value)


def test_realize_stress_random_admissible():
    rng = random.Random(97)
    degrees = [4, 6, 8, 10]
    done = 0
    while done < 25:
        d = rng.choice(degrees)
        rows = []
        for _ in range(rng.randint(2, 4)):
            parts = []
            left = d
            while left:
                k = rng.randint(1, left)
                parts.append(k)
                left -= k
            parts.sort(reverse=True)
            if all(p == 1 for p in parts):
                parts[0:2] = [2] if len(parts) >= 2 else parts[0:2]
                if sum(parts) != d:
                    continue
            rows.append(Partition(tuple(parts)))
        try:
            data = BranchData(d, tuple(rows))
        except ValueError:
            continue
        c = classify(data)
        if c.verdict is not Verdict.INDECOMPOSABLE_REALIZABLE:
            continue
        res = realize_indecomposable(data, seed=done)
        assert res.certificate.all_ok
        done += 1


# ---------------------------------------------------------------------------
# decomposable constructions for the excluded families


@pytest.mark.parametrize(
    "text",
    [
        "d=4; [2,2],[2,2]",
        "d=4; [2,2],[2,2],[2,2]",
        "d=6; [2,2,2],[2,2,2]",
    ],
)
def test_decomposable_search_on_excluded_families(text):
    data = data_of(text)
    res = realize_decomposable_search(data)
    assert res is not None
    assert res.engine == "decomposable_search"
    cert = res.certificate
    assert cert.relation_ok and cert.row_types_ok
    assert cert.transitive and cert.nonorientable
    assert not cert.primitive
    assert cert.witness_block is not None


def test_decomposable_search_declines_degree_two():
    assert realize_decomposable_search(data_of("d=2; [2],[2]")) is None


def test_decomposable_search_declines_inadmissible():
    assert realize_decomposable_search(data_of("d=4; [2,2]")) is None
