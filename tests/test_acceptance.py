"""Acceptance gates.

Ten end-to-end checks, each printing a single [criterion NN] PASS or FAIL
line. Early criteria register every witness and monodromy group they build;
later criteria re-audit those registries, so invariants are exercised on
real construction output rather than hand-picked samples.
"""

from __future__ import annotations

import io
import math
import random
import time
from collections import Counter
from contextlib import contextmanager
from itertools import combinations_with_replacement

from rp2cover.branch import BranchData, Partition, euler_char_covering, is_admissible
from rp2cover.cli import main
from rp2cover.groups import group_of, is_primitive
from rp2cover.oracle import (
    SearchBounds,
    find_imprimitive_witness,
    find_primitive_witness,
    involution_pair_survey,
    iter_relation_pairs,
    tuple_survey,
)
from rp2cover.perm import Permutation, canonical_of_type
from rp2cover.realize import Verdict, classify, realize_indecomposable, verify_witness
from rp2cover.squares import is_square, sqrt, sqrt_odd_cycle

from helpers import (
    admissible_multisets,
    brute_elements,
    data_of,
    exists_realization,
    nontrivial_partitions,
    stabilizer_is_maximal,
)


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] {label}: FAIL")
        raise
    print(f"[criterion {num:02d}] {label}: PASS")


# Registries filled by early criteria and audited by later ones. Each entry
# in WITNESSES is (data, witness, row_map); GROUPS holds monodromy groups.
WITNESSES = []
GROUPS = []
_GROUP_KEYS = set()


def _register(data, witness, row_map=None):
    WITNESSES.append((data, witness, row_map))
    if witness.degree > 6:
        return
    G = witness.group()
    key = tuple(sorted(brute_elements(G.generator_images(), G.degree)))
    if key not in _GROUP_KEYS:
        _GROUP_KEYS.add(key)
        GROUPS.append(G)


def _ensure_registries():
    if WITNESSES:
        return
    for text in ("d=2; [2],[2]", "d=4; [3,1],[2,2]", "d=6; [3,2,1],[2,2,2]"):
        data = data_of(text)
        res = realize_indecomposable(data)
        _register(data, res.witness, res.certificate.row_permutation_applied)


# ---------------------------------------------------------------------------


def test_criterion_01_classification_matches_exhaustive_search():
    """Closed-form verdict == primitive-witness existence, all even d <= 6."""
    with criterion(1, "classification matches exhaustive search"):
        census = Counter()
        for d in (2, 4, 6):
            for data in admissible_multisets(d, max_rows=4, max_defect=2 * d):
                census[d] += 1
                want = classify(data).verdict
                assert want in (
                    Verdict.INDECOMPOSABLE_REALIZABLE,
                    Verdict.ONLY_DECOMPOSABLE,
                )
                w = find_primitive_witness(data)
                assert (w is not None) == (want is Verdict.INDECOMPOSABLE_REALIZABLE), (
                    data.to_text()
                )
                if w is not None:
                    _register(data, w)
        assert census == {2: 2, 4: 29, 6: 340}


def test_criterion_02_degree_four_all_twos_families():
    """d=4 with t rows of [2,2]: transitive tuples exist, none primitive."""
    with criterion(2, "degree-4 all-twos families are only decomposable"):
        expected = {
            2: (14, 4, 2, 8, 0),
            3: (34, 0, 2, 32, 0),
            4: (110, 4, 2, 104, 0),
        }
        for t, want in expected.items():
            data = data_of("d=4; " + ",".join(["[2,2]"] * t))
            assert classify(data).verdict is Verdict.ONLY_DECOMPOSABLE
            s = tuple_survey(data)
            got = (
                s.relation_pairs,
                s.intransitive,
                s.orientable_excluded,
                s.transitive_imprimitive,
                s.transitive_primitive,
            )
            assert got == want, (t, got)
            assert s.transitive_imprimitive > 0
            w = find_imprimitive_witness(data)
            assert w is not None
            cert = verify_witness(data, w)
            assert cert.relation_ok and cert.transitive and cert.nonorientable
            assert not cert.primitive
            _register(data, w)


def test_criterion_03_two_row_all_twos_never_primitive():
    """Two all-twos rows: every transitive relation tuple is imprimitive."""
    with criterion(3, "two-row all-twos tuples are never primitive"):
        bounds = SearchBounds(max_degree=8)
        expected = {4: (14, 10), 6: (132, 64), 8: (1596, 528)}
        for d, (n_pairs, n_trans) in expected.items():
            row = "[" + ",".join(["2"] * (d // 2)) + "]"
            data = data_of(f"d={d}; {row},{row}")
            pairs = trans = 0
            for gammas, alpha, transitive, _orientable in iter_relation_pairs(
                data, bounds
            ):
                pairs += 1
                if not transitive:
                    continue
                trans += 1
                perms = [Permutation(g) for g in gammas]
                perms.append(Permutation(alpha))
                assert not is_primitive(group_of(*perms)), (d, gammas, alpha)
            assert (pairs, trans) == (n_pairs, n_trans), d


def test_criterion_04_involution_pair_census():
    """Transitive fixed-point-free involution pairs: one conjugacy class,
    products split into two half-length cycles, count is (d-1)!."""
    with criterion(4, "involution pair census"):
        bounds = SearchBounds(max_degree=8)
        expected = {4: (9, 6), 6: (225, 120), 8: (11025, 5040), 10: (945, 384)}
        for d, (scanned, transitive) in expected.items():
            s = involution_pair_survey(d, bounds)
            assert (s.scanned_pairs, s.transitive_pairs) == (scanned, transitive), d
            assert s.total_transitive_pairs == math.factorial(d) // d
            assert s.all_conjugate_to_canonical
            assert s.products_all_two_half_cycles
            assert s.blocks_all_valid
            assert s.first_fixed == (d > bounds.max_degree)


def _random_partition(d, rng):
    while True:
        parts = []
        left = d
        while left:
            k = rng.randint(1, left)
            parts.append(k)
            left -= k
        parts.sort(reverse=True)
        p = tuple(parts)
        if p != (1,) * d:
            return p


def _mixed_instance(d, s, rng):
    while True:
        rows = tuple(Partition(_random_partition(d, rng)) for _ in range(s))
        if all(r.is_all_twos() for r in rows):
            continue
        data = BranchData(d, rows)
        if not is_admissible(data).ok:
            continue
        return data


def criterion_05_instances():
    """The 63 realizable instances of criterion 5, d up to 14."""
    rng = random.Random(20260823)
    instances = []
    for s in (2, 4):
        instances.append(data_of("d=2; " + ",".join(["[2]"] * s)))
    for d, s in ((6, 4), (8, 3), (8, 4), (10, 4), (12, 3), (12, 4), (14, 4)):
        row = "[" + ",".join(["2"] * (d // 2)) + "]"
        instances.append(data_of(f"d={d}; " + ",".join([row] * s)))
    for d in (4, 6, 8, 10, 12, 14):
        for s in (2, 3, 4):
            for _ in range(3):
                instances.append(_mixed_instance(d, s, rng))
    return instances


def test_criterion_05_construction_batch_under_time_budget():
    """63 realizable instances, d up to 14: construct, verify, each < 1 s."""
    with criterion(5, "constructions verified within time budget"):
        instances = criterion_05_instances()
        assert len(instances) == 63
        engines = Counter()
        for i, data in enumerate(instances):
            t0 = time.perf_counter()
            res = realize_indecomposable(data, seed=i)
            elapsed = time.perf_counter() - t0
            assert elapsed <= 1.0, (data.to_text(), elapsed)
            engines[res.engine] += 1
            cert = verify_witness(
                data, res.witness, row_map=res.certificate.row_permutation_applied
            )
            assert cert.all_ok, data.to_text()
            _register(data, res.witness, res.certificate.row_permutation_applied)
        assert engines == {"degree_two": 2, "all_twos_chain": 7, "fold_chain": 54}


def test_criterion_06_square_root_layers():
    """Square detection matches enumeration; odd cycles lift to unique roots."""
    with criterion(6, "square roots of permutations"):
        for r in range(1, 100, 2):
            p = canonical_of_type(r, (r,))
            q = sqrt_odd_cycle(tuple(range(1, r + 1)), r)
            assert q * q == p
        from itertools import permutations as iperm

        for d in range(1, 8):
            square_types = {
                (Permutation(im) * Permutation(im)).cycle_type()
                for im in iperm(range(1, d + 1))
            }
            seen_types = {
                Permutation(im).cycle_type() for im in iperm(range(1, d + 1))
            }
            for t in seen_types:
                p = canonical_of_type(d, t)
                assert is_square(p) == (t in square_types), (d, t)
                root = sqrt(p)
                if t in square_types:
                    assert root is not None and root * root == p
                else:
                    assert root is None


def test_criterion_07_euler_characteristic_identity():
    """Every registered witness satisfies chi = d - nu and the cycle-count
    identity sum_i c(gamma_i) = chi - d(1 - s)."""
    with criterion(7, "Euler characteristic identities on all witnesses"):
        _ensure_registries()
        assert len(WITNESSES) >= 50
        for data, witness, row_map in WITNESSES:
            cert = verify_witness(data, witness, row_map=row_map)
            assert cert.relation_ok and cert.row_types_ok and cert.transitive
            chi = euler_char_covering(data)
            assert cert.euler_char == chi == data.degree - data.total_defect()
            s = data.rows_count
            cycle_total = sum(len(g.cycles()) for g in witness.gammas)
            assert cycle_total == chi - data.degree * (1 - s), data.to_text()


def test_criterion_08_primitivity_equals_stabilizer_maximality():
    """On every registered monodromy group, block-based primitivity agrees
    with point-stabilizer maximality."""
    with criterion(8, "primitivity vs stabilizer maximality"):
        _ensure_registries()
        assert len(GROUPS) >= 10
        for G in GROUPS:
            want = is_primitive(G)
            assert stabilizer_is_maximal(G, 1) == want


def test_criterion_09_small_degree_existence_matches_admissibility():
    """Degrees 2..5, up to 3 rows: a witness exists iff the data is
    admissible, across all 129 multisets."""
    with criterion(9, "existence iff admissibility in small degrees"):
        cases = 0
        for d in (2, 3, 4, 5):
            rows = nontrivial_partitions(d)
            for s in range(1, 4):
                for combo in combinations_with_replacement(rows, s):
                    data = BranchData(d, tuple(Partition(p) for p in combo))
                    cases += 1
                    assert exists_realization(data) == is_admissible(data).ok, (
                        data.to_text()
                    )
        assert cases == 129


def _run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_criterion_10_deterministic_output(tmp_path):
    """Repeated runs are byte-identical: seeded construction, surveys, and
    parallel batch classification."""
    with criterion(10, "deterministic command output"):
        realize_args = (
            "realize", "d=10; [7,2,1],[2,2,2,2,2],[5,5]", "--seed", "9",
            "--format", "json",
        )
        assert _run_cli(*realize_args) == _run_cli(*realize_args)
        survey_args = ("oracle", "d=4; [2,2],[2,2]", "--survey", "--format", "json")
        assert _run_cli(*survey_args) == _run_cli(*survey_args)
        pair_args = ("oracle", "--pair-survey", "6", "--format", "json")
        assert _run_cli(*pair_args) == _run_cli(*pair_args)
        path = tmp_path / "batch.txt"
        path.write_text(
            "d=2; [2],[2]\nd=4; [2,2],[2,2]\nd=6; [3,2,1],[2,2,2]\n"
            "d=7; [7],[7]\nd=8; [4,4],[2,2,2,2],[8]\n",
            encoding="utf-8",
        )
        serial = _run_cli("batch", str(path), "--format", "json")
        parallel = _run_cli("batch", str(path), "--format", "json", "--jobs", "4")
        assert serial == parallel
        assert serial[0] == 0
