"""The fold chain against the gamma-list fold chain it replaced.

`_fold_chain` below is the earlier engine verbatim, with the `conjugator`
it called: every fold relabeled every gamma absorbed so far onto the
canonical frame, copied the trace and counted orbits over every gamma.
The engine now walks products and relabels each gamma once at the end;
it must return the same gammas and trace on every path, backtracks and
randomized retries included, and do work linear in the row count.
"""

from __future__ import annotations

import random
from collections import Counter
from unittest.mock import patch

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rp2cover import kernels, realize
from rp2cover.branch import BranchData, Partition
from rp2cover.perm import Permutation, canonical_of_type
from rp2cover.realize import (
    _FOLD_ATTEMPT_CAP,
    EngineDefect,
    FoldStep,
    PairGoal,
    SearchExhausted,
    Verdict,
    canonical_involution_pair,
    classify,
    realize_indecomposable,
)

from helpers import data_of


def assemble_pair(*args, **kwargs):
    # looked up at call time, so a test's patch reaches both chains
    return realize.assemble_pair(*args, **kwargs)


def conjugator(p: Permutation, q: Permutation) -> Permutation | None:
    """Some lam with p.conjugate(lam) == q, or None if cycle types differ.

    Aligns the cycle decompositions length by length and maps them onto
    each other pointwise.
    """
    if p.degree != q.degree:
        raise ValueError("degree mismatch")
    if p.cycle_type() != q.cycle_type():
        return None

    def keyed(perm: Permutation):
        return sorted(perm.cycles(), key=lambda c: (len(c), c[0]))

    # lam^-1 maps each cycle of p onto the cycle of q in its place
    inv = [0] * (p.degree + 1)
    for cp, cq in zip(keyed(p), keyed(q)):
        for a, b in zip(cp, cq):
            inv[a] = b
    lam = Permutation(kernels.inverse(inv[1:]))
    assert kernels.conjugate(p.images, lam.images) == q.images
    return lam


def _fold_chain(data, order, rng, start, goals):
    d = data.degree
    rows = [data.rows[j] for j in order]
    folds = len(rows) - len(start)
    cap = folds + _FOLD_ATTEMPT_CAP
    attempts = 0

    def stalled(why: str) -> EngineDefect:
        return EngineDefect(
            f"fold chain stalled on {data.to_text()}: {why}; this contradicts "
            "its classification and indicates an engine bug or undersized budget"
        )

    def fold(gammas, prod, j, trace):
        """The states after absorbing row j, in the order they are tried."""
        nonlocal attempts
        ptype = prod.cycle_type()
        for goal in goals(j, prod):
            cut = False
            for use_rng in (False, True, True):
                if use_rng and not cut:
                    break
                if attempts >= cap:
                    raise stalled("fold goal attempt budget spent")
                attempts += 1
                try:
                    ga, gb = assemble_pair(
                        ptype, rows[j].parts, goal, rng=rng if use_rng else None
                    )
                except SearchExhausted as e:
                    cut = cut or not e.complete
                    continue
                mu = conjugator(prod, ga).images
                nxt = [kernels.conjugate(g, mu) for g in gammas]
                nxt.append(gb.images)
                nprod = Permutation(kernels.compose(ga.images, gb.images))
                step = FoldStep(
                    row=order[j],
                    goal=goal,
                    product_type=nprod.cycle_type(),
                    orbits=kernels.orbit_count(nxt, d),
                )
                yield nxt, nprod, trace + [step]

    prod = Permutation(kernels.product_of(start, d))
    # stack[i] is the generator of fold len(start) + i
    stack = [fold(list(start), prod, len(start), [])]
    while stack:
        got = next(stack[-1], None)
        if got is None:
            stack.pop()
            continue
        gammas, prod, trace = got
        if len(stack) == folds:
            return gammas, trace
        stack.append(fold(gammas, prod, len(start) + len(stack), trace))
    raise stalled("no feasible goal sequence")


def _outcome(chain, data, order, start, goals, seed=0):
    try:
        return chain(data, order, random.Random(seed), start, goals)
    except EngineDefect as e:
        return EngineDefect, str(e)


def _assert_chains_agree(data, order, start, goals, seed=0, fresh=lambda: None):
    """Both chains on one start, the reference's goals reading the cycle
    type off its product; `fresh` resets any patch state before each run."""
    fresh()
    got = _outcome(realize._fold_chain, data, order, start, goals, seed)
    fresh()
    want = _outcome(
        _fold_chain, data, order, start, lambda j, prod: goals(j, prod.cycle_type()), seed
    )
    # pytest's diff of two long gamma lists takes minutes, so name the case
    same = got == want
    assert same, f"the chains differ on {data.to_text()}, order {list(order)}"
    return got


def _assert_ladder_chains_agree(data, seed=0, fresh=lambda: None):
    outcomes = []
    for order in realize._row_orders(data):
        start = [canonical_of_type(data.degree, data.rows[order[0]].parts).images]
        goals = realize._ladder_goals(data, order)
        outcomes.append(_assert_chains_agree(data, order, start, goals, seed, fresh))
    return outcomes


def test_many_rows_of_one_three_cycle():
    for s in (2, 3, 10, 57, 150):
        data = data_of("d=4; " + ",".join(["[3,1]"] * s))
        for gammas, trace in _assert_ladder_chains_agree(data):
            assert len(gammas) == s and len(trace) == s - 1


@st.composite
def _mixed_data(draw):
    """3-12 rows at d = 4..16, each an involution with fixed points one
    time in three, else a random partition."""
    d = 2 * draw(st.integers(2, 8))
    rows = []
    for _ in range(draw(st.integers(3, 12))):
        if draw(st.integers(0, 2)) == 0:
            twos = draw(st.integers(1, d // 2 - 1))
            parts = [2] * twos + [1] * (d - 2 * twos)
        else:
            parts, left = [], d
            while left:
                parts.append(draw(st.integers(1, left)))
                left -= parts[-1]
            assume(max(parts) > 1)
        rows.append(Partition(tuple(sorted(parts, reverse=True))))
    data = BranchData(d, tuple(rows))
    assume(classify(data).verdict is Verdict.INDECOMPOSABLE_REALIZABLE)
    return data, draw(st.integers(0, 99))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_mixed_data())
def test_mixed_data_in_both_row_orders(case):
    data, seed = case
    # a small node budget keeps a cut goal cheap, so the draws whose
    # searches run out of nodes take their randomized retries in moments
    with patch.object(realize, "_DEFAULT_NODE_BUDGET", 20_000):
        _assert_ladder_chains_agree(data, seed)


def test_all_twos_start_from_the_canonical_pair():
    # d/2 even: one or two targets by the parity of the row count; d/2
    # odd: a full cycle, then [d-1, 1]
    for d, targets in (
        (8, [(7, 1)]),
        (8, [(7, 1), (7, 1)]),
        (12, [(11, 1)]),
        (10, [(10,), (9, 1)]),
        (14, [(14,), (13, 1)]),
    ):
        data = data_of(f"d={d}; " + ",".join(["[" + ",".join(["2"] * (d // 2)) + "]"] * 5))
        start = [g.images for g in canonical_involution_pair(d)]
        gammas, trace = _assert_chains_agree(
            data,
            range(2 + len(targets)),
            start,
            lambda j, ptype: [PairGoal(orbit_count=1, product_type=targets[j - 2])],
        )
        assert [t.product_type for t in trace] == targets


def test_randomized_retries_after_a_cut(monkeypatch):
    # every other deterministic search is cut, so the randomized retries run
    assemble = realize.assemble_pair
    calls = Counter()

    def cut_every_other(type_a, type_b, goal, *, rng=None):
        if rng is None:
            calls["plain"] += 1
            if calls["plain"] % 2:
                raise SearchExhausted("cut", complete=False)
        else:
            calls["random"] += 1
        return assemble(type_a, type_b, goal, rng=rng)

    monkeypatch.setattr(realize, "assemble_pair", cut_every_other)
    for text in ("d=4; " + ",".join(["[3,1]"] * 12), "d=8; [4,3,1],[2,2,2,2],[5,1,1,1],[8]"):
        for seed in (0, 7):
            for gammas, trace in _assert_ladder_chains_agree(
                data_of(text), seed, fresh=calls.clear
            ):
                assert len(trace) == len(gammas) - 1
            assert calls["random"]


def test_backtrack_resumes_an_earlier_fold(monkeypatch):
    # the first time fold `late` starts, every goal it tries is refused as
    # impossible, so the chain backtracks into fold late - 1
    assemble = realize.assemble_pair
    state = {}

    def fresh():
        state.update(refuse=False, refused=0, late_entries=0)

    def refusing(type_a, type_b, goal, *, rng=None):
        if state["refuse"]:
            state["refused"] += 1
            raise SearchExhausted("refused", complete=True)
        return assemble(type_a, type_b, goal, rng=rng)

    monkeypatch.setattr(realize, "assemble_pair", refusing)
    for text, late in (
        ("d=4; " + ",".join(["[3,1]"] * 10), 6),
        ("d=8; [4,3,1],[2,2,2,2],[5,1,1,1],[3,3,1,1],[8]", 3),
    ):
        data = data_of(text)
        for order in realize._row_orders(data):
            ladder = realize._ladder_goals(data, order)

            def goals(j, ptype, ladder=ladder, late=late):
                state["late_entries"] += j == late
                state["refuse"] = j == late and state["late_entries"] == 1
                yield from ladder(j, ptype)
                state["refuse"] = False

            start = [canonical_of_type(data.degree, data.rows[order[0]].parts).images]
            got = _assert_chains_agree(data, order, start, goals, fresh=fresh)
            assert got[0] is not EngineDefect
            assert state["refused"] and state["late_entries"] >= 2


def test_orbits_coarser_than_the_product_cycles(monkeypatch):
    # refusing every intransitive goal whose orbits are the product's
    # cycles leaves the ladder's goals with one orbit fewer than cycles, so
    # the trace's orbit counts depend on the labels each fold carries over
    assemble = realize.assemble_pair

    def coarse_only(type_a, type_b, goal, *, rng=None):
        d = sum(type_a)
        cycles = d - goal.product_defect if goal.product_type is None else len(goal.product_type)
        if 1 < goal.orbit_count == cycles:
            raise SearchExhausted("refused", complete=True)
        return assemble(type_a, type_b, goal, rng=rng)

    monkeypatch.setattr(realize, "assemble_pair", coarse_only)
    for text in (
        "d=6; [3,2,1],[2,1,1,1,1],[2,2,1,1],[2,1,1,1,1],[4,2],[5,1],[5,1],[5,1],[2,1,1,1,1]",
        "d=8; " + ",".join(["[3,1,1,1,1,1]"] * 4) + ",[7,1]",
    ):
        (gammas, trace), *_ = _assert_ladder_chains_agree(data_of(text))
        assert any(t.orbits > 1 and t.goal.product_defect is not None for t in trace)


def test_work_is_linear_in_the_row_count(monkeypatch):
    s = 400
    data = data_of("d=4; " + ",".join(["[3,1]"] * s))
    work = Counter()
    conjugate, labels, post_init = (
        kernels.conjugate,
        kernels.component_labels,
        Permutation.__post_init__,
    )
    chain = realize._fold_chain

    def in_chain(*args):
        work["in_chain"] += 1
        try:
            return chain(*args)
        finally:
            work["in_chain"] -= 1

    def counted_conjugate(p, lam):
        work["conjugate"] += work["in_chain"]
        return conjugate(p, lam)

    def counted_labels(gens, d):
        gens = list(gens)
        work["label_gens"] += len(gens) * work["in_chain"]
        return labels(gens, d)

    def counted_post_init(self):
        work["permutations"] += 1
        post_init(self)

    monkeypatch.setattr(realize, "_fold_chain", in_chain)
    monkeypatch.setattr(kernels, "conjugate", counted_conjugate)
    monkeypatch.setattr(kernels, "component_labels", counted_labels)
    monkeypatch.setattr(Permutation, "__post_init__", counted_post_init)
    w = realize_indecomposable(data).witness
    # the chain before relabeled every gamma at every fold: about s^2/2
    assert work["conjugate"] <= 4 * s
    assert work["label_gens"] <= 4 * s
    # assemble_pair's two per fold, one for the first row, and the witness
    assert work["permutations"] <= 2 * s + len({*w.gammas, w.alpha})
