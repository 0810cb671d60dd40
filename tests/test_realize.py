"""Classification, witness construction, and certificate checks."""

from __future__ import annotations

import io
import json
import random
import sys
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rp2cover import cli, oracle
from rp2cover import realize as realize_module
from rp2cover.branch import BranchData, Partition, is_admissible
from rp2cover.groups import block_system_from, imprimitivity_block
from rp2cover.perm import Permutation, canonical_of_type, parse_permutation
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
from test_acceptance import _mixed_instance


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


def _involution_type_pairs():
    for d in range(1, 8):
        types = [(2,) * k + (1,) * (d - 2 * k) for k in range(d // 2 + 1)]
        for ta in types:
            for tb in types:
                yield d, ta, tb


@pytest.mark.parametrize("d, ta, tb", list(_involution_type_pairs()))
def test_involution_pair_goals_match_every_pair(d, ta, tb):
    import rp2cover.kernels as kernels
    from helpers import all_images, partitions_of

    ga = canonical_of_type(d, ta)
    met = set()
    for images in all_images(d):
        gb = Permutation(images)
        if gb.cycle_type() != tb:
            continue
        orbits = kernels.orbit_count([ga.images, gb.images], d)
        prod = ga * gb
        met.add((orbits, "type", prod.cycle_type()))
        met.add((orbits, "defect", prod.defect()))
    fa, fb = ta.count(1), tb.count(1)
    for t in range(1, d + 1):
        for ptype in partitions_of(d):
            goal = PairGoal(orbit_count=t, product_type=ptype)
            want = (t, "type", ptype) in met
            assert realize_module._involution_pair_can_meet(goal, d, fa, fb) == want
        for defect in range(d):
            goal = PairGoal(orbit_count=t, product_defect=defect)
            want = (t, "defect", defect) in met
            assert realize_module._involution_pair_can_meet(goal, d, fa, fb) == want


def test_involution_pair_goal_it_cannot_meet_is_refused_without_search():
    # the pair search cannot see that such a goal is out of reach and
    # would spend its whole node budget on it; two all-twos rows folded
    # first meet about d/2 such goals on their ladder
    with pytest.raises(SearchExhausted) as info:
        assemble_pair(
            (2,) * 16, (2,) * 16, PairGoal(orbit_count=1, product_type=(31, 1)),
            node_budget=10,
        )
    assert info.value.complete
    twos = "[" + ",".join(["2"] * 16) + "]"
    data = data_of(f"d=32; {twos},[13,11,5,3],{twos}")
    res = realize_indecomposable(data, seed=136)
    assert res.certificate.all_ok
    assert res.trace[0].goal == PairGoal(orbit_count=1, product_defect=30)


def test_assemble_pair_budget_cut_is_flagged_incomplete():
    with pytest.raises(SearchExhausted) as info:
        assemble_pair(
            (2, 2, 2, 2, 1),
            (3, 3, 3),
            PairGoal(orbit_count=1, product_type=(9,)),
            node_budget=3,
        )
    assert not info.value.complete


def _packs_reference(lengths: Counter, rem: Counter) -> bool:
    """The pair search's packing check as first written: expand both
    multisets and search every placement."""
    items = sorted(
        (n for n, c in lengths.items() if n > 1 for _ in range(c)),
        reverse=True,
    )
    if not items:
        return True
    caps = sorted((n for n, c in rem.items() if c > 0 for _ in range(c)))
    if not caps or items[0] > caps[-1]:
        return False
    dead: set[tuple] = set()

    def place(i: int, free: tuple[int, ...]) -> bool:
        if i == len(items):
            return True
        key = (i, free)
        if key in dead:
            return False
        need = items[i]
        tried = set()
        for k in range(len(free) - 1, -1, -1):
            cap = free[k]
            if cap < need:
                break
            if cap in tried:
                continue
            tried.add(cap)
            rest = free[:k] + ((cap - need,) if cap > need else ()) + free[k + 1 :]
            if place(i + 1, tuple(sorted(rest))):
                return True
        dead.add(key)
        return False

    return place(0, tuple(caps))


def _multiset(max_value, max_count):
    return st.dictionaries(
        st.integers(1, max_value), st.integers(0, max_count), max_size=5
    ).map(lambda m: +Counter(m))


@settings(max_examples=600, deadline=None)
@given(_multiset(9, 4), _multiset(16, 3))
def test_packing_check_matches_full_placement_search(lengths, rem):
    chains = SimpleNamespace(lengths=lengths, count=sum(lengths.values()))
    got = realize_module._PairSearch._packs(chains, rem)
    assert got == _packs_reference(lengths, rem)


@pytest.mark.parametrize(
    "lengths, rem, want",
    [
        # one long cycle plus fixed points: everything goes into the cycle
        ({5: 1, 3: 2, 1: 4}, {12: 1, 1: 4}, True),
        ({5: 1, 3: 2, 1: 4}, {10: 1, 1: 6}, False),
        # uniform chains into uniform cycles
        ({2: 5}, {4: 2, 2: 1}, True),
        ({3: 4}, {5: 3}, False),
        # mixed lengths, several cycles: the placement search decides
        ({4: 1, 3: 2}, {5: 2}, False),
        ({4: 1, 3: 1, 2: 1}, {5: 1, 4: 1}, True),
    ],
)
def test_packing_check_examples(lengths, rem, want):
    lengths, rem = Counter(lengths), Counter(rem)
    chains = SimpleNamespace(lengths=lengths, count=sum(lengths.values()))
    assert realize_module._PairSearch._packs(chains, rem) is want
    assert _packs_reference(lengths, rem) is want


# gamma_b and the seeded node counts recorded from the recursive search
# that rebuilt its candidate list and packing lists at every node; the
# search must visit candidates in the same order.  Unseeded node counts
# are those of the search that skips targets whose joined chain is too
# long (`_FullScanSearch` below tries them too).
PAIR_SEARCH_RECORDS = [
    ((5, 4, 2, 1), (3, 3, 2, 2, 1, 1), dict(product_type=(11, 1)), None, 21,
     "(3 4)(5 6)(7 8 10)(9 11 12)"),
    ((5, 4, 2, 1), (3, 3, 2, 2, 1, 1), dict(product_type=(11, 1)), 3, 40,
     "(1 2 4)(3 12)(5 6 11)(7 8)"),
    ((8, 8), (2,) * 8, dict(product_type=(15, 1)), None, 32,
     "(1 2)(3 5)(4 6)(7 9)(8 11)(10 12)(13 15)(14 16)"),
    ((8, 8), (2,) * 8, dict(product_type=(15, 1)), 5, 64,
     "(1 3)(2 6)(4 16)(5 11)(7 12)(8 10)(9 13)(14 15)"),
    ((6, 3, 1), (4, 4, 2), dict(product_defect=6), None, 43,
     "(1 2)(3 4 5 7)(6 9 10 8)"),
    ((6, 3, 1), (4, 4, 2), dict(orbit_count=2, product_defect=4), 7, 7048,
     "(1 4 3 6)(2 5)(7 10 9 8)"),
    ((4, 3, 3, 2), (5, 4, 2, 1), dict(product_type=(9, 1, 1, 1)), None, 20,
     "(2 3)(4 5 6 7 8)(9 11 12 10)"),
    ((2, 2), (2, 2), dict(product_type=(4,)), None, 10, None),
    ((6, 6), (3, 3, 2, 2, 2), dict(orbit_count=3, product_defect=6), None, 12, None),
]


@pytest.mark.parametrize("ta, tb, goal, seed, nodes, gamma_b", PAIR_SEARCH_RECORDS)
def test_pair_search_visit_order_is_unchanged(ta, tb, goal, seed, nodes, gamma_b):
    goal = PairGoal(**{"orbit_count": 1, **goal})
    rng = random.Random(seed) if seed is not None else None
    search = realize_module._PairSearch(
        canonical_of_type(sum(ta), ta), tb, goal, rng, 300_000
    )
    found = search.run()
    assert search.nodes == nodes
    assert (str(found[1]) if found else None) == gamma_b


def test_pair_search_budget_is_counted_in_nodes():
    search = realize_module._PairSearch(
        canonical_of_type(22, (7, 5, 3, 3, 2, 1, 1)),
        (6, 6, 4, 3, 2, 1),
        PairGoal(orbit_count=1, product_type=(21, 1)),
        None,
        1000,
    )
    with pytest.raises(SearchExhausted) as info:
        search.run()
    assert not info.value.complete
    assert search.nodes == 1001


class _FullScanSearch(realize_module._PairSearch):
    """The pair search with its depth-first loop as it was before the
    search skipped targets: every free target is tried at every level."""

    def _dfs(self) -> bool:
        d = self.d
        stack: list[list] = []
        entered = True
        while True:
            if entered:
                if self.unset == 0:
                    if self._check_complete():
                        return True
                    self._undo(stack[-1][2])
                elif self.rng is None:
                    stack.append([None, 0, 0])
                else:
                    cands = [v for v in range(1, d + 1) if not self.b.prv[v]]
                    self.rng.shuffle(cands)
                    stack.append([cands, 0, 0])
            top = stack[-1]
            cands, pos = top[0], top[1]
            if cands is None:
                v = self.free_next[pos]
                top[1] = v
            elif pos < len(cands):
                v = cands[pos]
                top[1] = pos + 1
            else:
                v = d + 1
            if v > d:
                stack.pop()
                if not stack:
                    return False
                self._undo(stack[-1][2])
                entered = False
                continue
            self.nodes += 1
            if self.nodes > self.node_budget:
                raise SearchExhausted(
                    f"node budget {self.node_budget} exhausted", complete=False
                )
            top[2] = len(self.journal)
            entered = self._apply(len(stack), v)


@st.composite
def _partitions(draw, d):
    parts, left = [], d
    while left:
        parts.append(draw(st.integers(1, left)))
        left -= parts[-1]
    return tuple(sorted(parts, reverse=True))


@st.composite
def _pair_search_cases(draw):
    d = draw(st.integers(2, 8))
    ta, tb = draw(_partitions(d)), draw(_partitions(d))
    if draw(st.booleans()):
        # the orbits and product of some pair of these types: a goal that
        # can be met
        lam = Permutation(tuple(draw(st.permutations(range(1, d + 1)))))
        ga = canonical_of_type(d, ta)
        gb = canonical_of_type(d, tb).conjugate(lam)
        orbits = realize_module.kernels.orbit_count([ga.images, gb.images], d)
        prod = ga * gb
        if draw(st.booleans()):
            goal = PairGoal(orbit_count=orbits, product_type=prod.cycle_type())
        else:
            goal = PairGoal(orbit_count=orbits, product_defect=prod.defect())
    else:
        orbits = draw(st.integers(1, 3))
        if draw(st.booleans()):
            goal = PairGoal(orbit_count=orbits, product_type=draw(_partitions(d)))
        else:
            goal = PairGoal(orbit_count=orbits, product_defect=draw(st.integers(0, d - 1)))
    seed = draw(st.none() | st.integers(0, 99))
    return ta, tb, goal, seed


@settings(max_examples=500, deadline=None)
@given(_pair_search_cases())
def test_target_skip_keeps_the_full_scan_answer(case):
    ta, tb, goal, seed = case

    def search(cls):
        rng = random.Random(seed) if seed is not None else None
        return cls(canonical_of_type(sum(ta), ta), tb, goal, rng, 100_000)

    old = search(_FullScanSearch)
    try:
        old_found = old.run()
    except SearchExhausted:
        return
    new = search(realize_module._PairSearch)
    new_found = new.run()
    assert (new_found and new_found[1]) == (old_found and old_found[1])
    if seed is None:
        assert new.nodes <= old.nodes
    else:
        assert new.nodes == old.nodes


def _search_state(search) -> dict:
    """Every piece of a pair search's state, copied; the Counters as
    dicts, so that a zero entry would make two states differ."""
    state = {
        name: (
            list(c.nxt), list(c.prv), list(c.head_of), list(c.tail_of),
            list(c.len_of), dict(c.lengths), c.count,
        )
        for name, c in (("b", search.b), ("pi", search.pi))
    }
    state.update(
        rem_b=dict(search.rem_b),
        rem_pi=None if search.rem_pi is None else dict(search.rem_pi),
        free=(list(search.free_next), list(search.free_prev)),
        union_find=(list(search.parent), list(search.rank), search.comps),
        unset=search.unset,
        closed_pi=search.closed_pi,
    )
    return state


def _no_zero_counts(search) -> bool:
    ctrs = [search.b.lengths, search.pi.lengths, search.rem_b]
    if search.rem_pi is not None:
        ctrs.append(search.rem_pi)
    return all(0 not in c.values() for c in ctrs)


@settings(max_examples=300, deadline=None)
@given(_pair_search_cases(), st.data())
def test_edge_records_undo_every_change(case, data):
    # walk one path of the search: at each level try every free target,
    # undoing each edge that was kept, then keep one of them and go deeper
    ta, tb, goal, _ = case
    search = realize_module._PairSearch(canonical_of_type(sum(ta), ta), tb, goal, None, 0)
    d = search.d
    path = []  # (journal mark, state) before each edge kept on the path
    for u in range(1, d + 1):
        kept = []
        v = search.free_next[0]
        while v <= d:
            before = _search_state(search)
            mark = len(search.journal)
            if search._apply(u, v):
                assert _no_zero_counts(search)
                assert len(search.journal) == mark + 1
                kept.append(v)
                search._undo(mark)
            assert _search_state(search) == before
            assert _no_zero_counts(search)
            v = search.free_next[v]
        if not kept:
            break
        path.append((len(search.journal), _search_state(search)))
        assert search._apply(u, data.draw(st.sampled_from(kept)))
    # undo several edges at once, back to an earlier mark
    while path:
        i = data.draw(st.integers(0, len(path) - 1))
        mark, state = path[i]
        search._undo(mark)
        assert _search_state(search) == state
        assert _no_zero_counts(search)
        del path[i:]


# The goal ladder as it was when it built every goal up front.
_one_cycle_type = realize_module._one_cycle_type


def _goal_ladder_list(nu_prod: int, nu_row: int, d: int, rem_after: int) -> list[PairGoal]:
    """Candidate goals for a non-final fold, best first.

    When the combined defect is below d the product cannot be transitive,
    so the orbits are made as coarse as possible (one cycle of the product
    per orbit).  Otherwise the fold targets transitivity.  Either way the
    preferred product shape is a single cycle plus fixed points, as long as
    parity allows: that shape always absorbs the next row by attaching its
    cycles to the big one, so later folds never get cornered.  Plain
    defect goals follow as backup, stepping down in twos because the
    product defect parity is forced.
    """
    total = nu_prod + nu_row
    goals: list[PairGoal] = []
    if total < d:
        t = d - total
        goals.append(PairGoal(orbit_count=t, product_type=_one_cycle_type(d, total + 1)))
        goals.append(PairGoal(orbit_count=t, product_defect=total))
        if total >= 2:
            goals.append(PairGoal(orbit_count=t, product_defect=total - 2))
            goals.append(PairGoal(orbit_count=t + 1, product_defect=total - 2))
        return goals
    cap = d - 1 if (total - (d - 1)) % 2 == 0 else d - 2
    # the product defect can still move by at most nu(row) per remaining
    # fold, and the chain must end at defect d - 2
    lo = max(abs(nu_prod - nu_row), (d - 2) - rem_after, 0)
    v = cap
    while v >= lo:
        goals.append(PairGoal(orbit_count=1, product_type=_one_cycle_type(d, v + 1)))
        v -= 2
    v = cap
    while v >= lo:
        goals.append(PairGoal(orbit_count=1, product_defect=v))
        v -= 2
    return goals


def _ladder_grid():
    for d in (2, 3, 4, 5, 6, 7, 8, 11, 16, 33, 64):
        nus = sorted(set(range(0, d, max(1, d // 8))) | {d - 2, d - 1} - {-1})
        for nu_prod in nus:
            for nu_row in nus:
                for rem_after in sorted({0, 1, 2, d // 2, d - 2, d, 2 * d} - {-1}):
                    yield nu_prod, nu_row, d, rem_after


def test_lazy_goal_ladder_yields_the_old_list():
    for args in _ladder_grid():
        assert list(realize_module._goal_ladder(*args)) == _goal_ladder_list(*args)


def test_fold_chain_builds_a_handful_of_goals(monkeypatch):
    # the list-building ladder made about d goals per non-final fold, each
    # with a d-length product type
    built = Counter()
    post_init = PairGoal.__post_init__

    def counted(self):
        built["goals"] += 1
        post_init(self)

    monkeypatch.setattr(PairGoal, "__post_init__", counted)
    res = realize_indecomposable(_mixed_instance(512, 3, random.Random(512)), seed=2)
    assert res.engine == "fold_chain"
    assert built["goals"] <= 6


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
    assert cert.primitive_by == "block_scan"
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
    assert rec["primitive_by"] == "block_scan"


def test_intransitive_witness_with_long_cycle_product_is_not_primitive():
    # gamma * ... = (1 2 3), of type [d-1, 1], but the point 4 is fixed by
    # every generator, so there is no transitivity to certify
    three = parse_permutation("(1 2 3)", 4)
    w = HurwitzWitness(degree=4, gammas=(three,), alpha=three)
    cert = verify_witness(data_of("d=4; [3,1]"), w)
    assert cert.relation_ok
    assert not cert.transitive
    assert not cert.primitive
    assert cert.primitive_by is None
    assert cert.witness_block is None
    assert cert.to_dict()["primitive_by"] is None


def _engine_witnesses():
    rng = random.Random(64)
    for d in (4, 6, 8, 12, 16, 24, 32, 48, 64):
        for s in (2, 3, 4):
            data = _mixed_instance(d, s, rng)
            yield pytest.param(data, d + s, id=f"mixed-d{d}-r{s}")
    for d in (6, 8, 10, 12, 16, 22, 32, 40, 64):
        for s in (3, 4, 5):
            data = BranchData(d, (Partition((2,) * (d // 2)),) * s)
            if classify(data).verdict is Verdict.INDECOMPOSABLE_REALIZABLE:
                yield pytest.param(data, d * s, id=f"twos-d{d}-r{s}")


@pytest.mark.parametrize("data, seed", list(_engine_witnesses()))
def test_two_transitivity_certificate_agrees_with_block_scan(data, seed):
    res = realize_indecomposable(data, seed=seed)
    assert res.engine in ("fold_chain", "all_twos_chain")
    cert = res.certificate
    assert cert.primitive_by == "two_transitive"
    assert cert.primitive
    assert imprimitivity_block(res.witness.group()) is None


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


def test_realize_more_rows_than_the_fold_retry_allowance():
    # s rows take s - 1 folds, so an attempt budget fixed for the whole
    # chain would run out on long data
    data = data_of("d=4; " + ",".join(["[3,1]"] * 302))
    res = realize_indecomposable(data)
    assert res.engine == "fold_chain"
    assert res.certificate.all_ok
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(["realize", data.to_text(), "--format", "json"], out=out, err=err)
    assert code == 0, err.getvalue()
    assert json.loads(out.getvalue())["certificate"]["all_ok"]


def _stack_depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_fold_chain_does_not_recurse_per_row():
    data = data_of("d=4; " + ",".join(["[3,1]"] * 302))
    limit = sys.getrecursionlimit()
    # room for the engine's own calls, but far less than one frame per row
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        res = realize_indecomposable(data)
    finally:
        sys.setrecursionlimit(limit)
    assert res.certificate.all_ok


def test_realize_degree_1024_without_recursion_error():
    data = _mixed_instance(1024, 3, random.Random(1024))
    res = realize_indecomposable(data, seed=1)
    assert res.certificate.all_ok
    assert res.certificate.primitive_by == "two_transitive"
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(["realize", data.to_text(), "--seed", "1"], out=out, err=err)
    assert code == 0


@pytest.mark.parametrize("d", [2048, 4096])
def test_realize_large_all_twos_rows_within_node_budget(d):
    # the full scan tried about d*d/8 targets per fold and ran out of its
    # 300k node budget from d=2048 on
    row = "[" + ",".join(["2"] * (d // 2)) + "]"
    data = data_of(f"d={d}; " + ",".join([row] * 3))
    res = realize_indecomposable(data)
    assert res.engine == "all_twos_chain"
    assert res.certificate.all_ok
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(["realize", data.to_text(), "--format", "json"], out=out, err=err)
    assert code == 0, err.getvalue()
    rec = json.loads(out.getvalue())
    assert rec["engine"] == "all_twos_chain"
    assert rec["certificate"]["all_ok"]


def test_returned_witness_holds_one_object_per_point():
    # results are often kept; ints above 256 would otherwise be copied into
    # every image tuple
    res = realize_indecomposable(_mixed_instance(512, 3, random.Random(512)), seed=2)
    w = res.witness
    images = [x for p in (*w.gammas, w.alpha) for x in p.images]
    assert len({id(x) for x in images}) == w.degree


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


def test_decomposable_search_draws_few_roots_of_an_identity_product(monkeypatch):
    # 20 all-twos rows of degree 20: the alternating tuple multiplies to
    # the identity, which has about 2.4e10 square roots
    data = data_of("d=20; " + ",".join(["[" + ",".join(["2"] * 10) + "]"] * 20))
    drawn = Counter()
    roots = realize_module.iter_square_roots

    def counted(p):
        for r in roots(p):
            drawn[p.images] += 1
            yield r

    monkeypatch.setattr(realize_module, "iter_square_roots", counted)
    res = realize_decomposable_search(data)
    assert res is not None
    assert res.engine == "decomposable_search"
    cert = res.certificate
    assert cert.relation_ok and cert.row_types_ok
    assert cert.transitive and cert.nonorientable and not cert.primitive
    assert tuple(range(1, 21)) in drawn
    assert sum(drawn.values()) <= 10


def _all_twos_data(d, s):
    return BranchData(d, tuple(Partition((2,) * (d // 2)) for _ in range(s)))


def test_decomposable_search_draws_one_root(monkeypatch):
    # three all-twos rows of degree 16: the tuple [g1] * 3, once tried
    # first, drew all 1,680 roots of g1 before [g1, g2, g1] answered
    drawn = []
    roots = realize_module.iter_square_roots

    def counted(p):
        for r in roots(p):
            drawn.append(r)
            yield r

    monkeypatch.setattr(realize_module, "iter_square_roots", counted)
    res = realize_decomposable_search(_all_twos_data(16, 3))
    assert res.engine == "decomposable_search"
    assert not res.certificate.primitive
    assert len(drawn) == 1


def _old_random_class_element(parts: tuple[int, ...], d: int, rng: random.Random):
    base = canonical_of_type(d, parts)
    lam = Permutation(tuple(rng.sample(range(1, d + 1), d)))
    return base.conjugate(lam)


def _old_all_twos_variants(d, s, g1, g2, rng):
    """The candidate tuples `realize_decomposable_search` tried in turn
    before it took one tuple per row parity, kept as the reference."""
    if s % 2 == 0:
        yield [g1 if i % 2 == 0 else g2 for i in range(s)]
        yield [g1, g2] + [g2, g2] * ((s - 2) // 2)
    else:
        yield [g1] * s
        yield [g1, g2] + [g1] * (s - 2)
    half = d // 2
    parts = tuple([2] * half)
    for _ in range(2000):
        yield [_old_random_class_element(parts, d, rng) for _ in range(s)]


def _parity_block(d, s):
    """The block of the witness of s all-twos rows at degree d that the
    proofs in `realize_decomposable_search` name: the odd points for even
    s, the points 0 and 1 mod 4 for odd s."""
    if s % 2 == 0:
        return tuple(range(1, d + 1, 2))
    return tuple(x for x in range(1, d + 1) if x % 4 in (0, 1))


@pytest.mark.parametrize(
    "d, s",
    [
        (d, s)
        for d in range(4, 65, 2)
        for s in range(2, 10)
        if is_admissible(_all_twos_data(d, s)).ok
    ],
)
def test_decomposable_search_takes_the_parity_tuple(d, s):
    data = _all_twos_data(d, s)
    res = realize_decomposable_search(data)
    assert res.engine == "decomposable_search"
    assert not res.certificate.primitive
    assert res.certificate.witness_block is not None
    blocks = block_system_from(res.witness.group(), _parity_block(d, s))
    assert len(blocks) == 2
    if d <= 20:
        g1, g2 = canonical_involution_pair(d)
        for gammas in _old_all_twos_variants(d, s, g1, g2, random.Random(0)):
            old = realize_module._accept(
                data, gammas, None, "decomposable_search", 0, primitive=False
            )
            if old is not None:
                break
        assert res.witness == old.witness


def test_decomposable_search_odd_tuple_up_to_degree_256():
    for d in range(4, 257, 4):
        res = realize_decomposable_search(_all_twos_data(d, 3))
        assert res.engine == "decomposable_search", d
        assert len(block_system_from(res.witness.group(), _parity_block(d, 3))) == 2
