"""`verify_witness` against the verifier as it was on validated permutations.

`_old_verify_witness` and `_old_match_rows` are verbatim copies of the
verifier before it worked on raw image tuples: it read each gamma's cycles
twice, built validated `Permutation`s for the relation check and labelled
every orbit of <gamma> even when <gamma> was transitive.  Random witnesses
with d <= 12 and the mutations the shortcuts could get wrong must give the
same certificate dict.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rp2cover import kernels
from rp2cover import realize as realize_module
from rp2cover.branch import BranchData, Partition
from rp2cover.groups import imprimitivity_block
from rp2cover.perm import Permutation
from rp2cover.realize import Certificate, HurwitzWitness, realize_indecomposable, verify_witness

from helpers import data_of


def _old_verify_witness(data, witness, row_map=None):
    d = data.degree
    if witness.degree != d or len(witness.gammas) != data.rows_count:
        raise ValueError("witness shape does not match branch data")
    if row_map is None:
        row_map = _old_match_rows(data, witness)
        row_types_ok = row_map is not None
        if row_map is None:
            row_map = tuple(range(data.rows_count))
    else:
        row_map = tuple(row_map)
        if sorted(row_map) != list(range(data.rows_count)):
            raise ValueError("row_map must be a permutation of the row indices")
        row_types_ok = all(
            witness.gammas[i].cycle_type() == data.rows[row_map[i]].parts
            for i in range(data.rows_count)
        )

    gamma_imgs = [g.images for g in witness.gammas]
    prod = Permutation(kernels.product_of(gamma_imgs, d))
    relation_ok = prod == (witness.alpha * witness.alpha).inverse()

    alpha_imgs = witness.alpha.images
    orbits, n = kernels.orbit_index(gamma_imgs, d)
    transitive, orientable = kernels.alpha_extension(orbits, n, alpha_imgs)

    block = None
    primitive = False
    primitive_by = None
    if transitive:
        if prod.cycle_type() == (d - 1, 1):
            primitive, primitive_by = True, "two_transitive"
        else:
            block = imprimitivity_block(witness.group())
            primitive, primitive_by = block is None, "block_scan"

    euler = d - sum(g.defect() for g in witness.gammas)
    return Certificate(
        relation_ok=relation_ok,
        row_types_ok=row_types_ok,
        transitive=transitive,
        nonorientable=not orientable,
        primitive=primitive,
        euler_char=euler,
        row_permutation_applied=tuple(row_map),
        witness_block=tuple(block) if block is not None else None,
        primitive_by=primitive_by,
    )


def _old_match_rows(data, witness):
    unused = list(range(data.rows_count))
    out = []
    for g in witness.gammas:
        t = g.cycle_type()
        for j in unused:
            if data.rows[j].parts == t:
                out.append(j)
                unused.remove(j)
                break
        else:
            return None
    return tuple(out)


KINDS = ("random", "relation", "broken_relation", "wrong_row", "intransitive_joined", "orientable")


def _perm_on(draw, points):
    """Random image pairs permuting the given points among themselves."""
    return dict(zip(points, draw(st.permutations(points))))


def _split_perm(draw, d, k):
    """A permutation of 1..d that keeps {1..k} and {k+1..d}."""
    m = _perm_on(draw, list(range(1, k + 1)))
    m.update(_perm_on(draw, list(range(k + 1, d + 1))))
    return tuple(m[x] for x in range(1, d + 1))


def _two_cycles(draw, d, k):
    """A k-cycle on {1..k} times a (d-k)-cycle on {k+1..d}."""
    images = [0] * d
    for points in (range(1, k + 1), range(k + 1, d + 1)):
        ring = draw(st.permutations(points))
        for x, y in zip(ring, ring[1:] + ring[:1]):
            images[x - 1] = y
    return tuple(images)


def _nontrivial(parts, d):
    """Parts as a branch-data row; the identity's type becomes [2, 1^(d-2)]."""
    return Partition.of(parts if parts[0] > 1 else (2,) + (1,) * (d - 2))


@st.composite
def _cases(draw):
    kind = draw(st.sampled_from(KINDS))
    d = draw(st.integers(2, 12))
    s = draw(st.integers(1, 4))
    if kind == "orientable":
        d += d % 2
    elif kind == "wrong_row":
        d = max(d, 3)  # [2] is the only row of degree 2
    k = d // 2 if kind == "orientable" else draw(st.integers(1, d - 1))
    perm = st.permutations(range(1, d + 1)).map(tuple)
    if kind in ("intransitive_joined", "orientable"):
        # <gamma> has the two halves as its orbits
        gammas = [_two_cycles(draw, d, k)] + [_split_perm(draw, d, k) for _ in range(s - 1)]
    else:
        gammas = [draw(perm) for _ in range(s)]
    alpha = draw(perm)
    if kind == "orientable":
        # alpha swaps {1..k} and {k+1..d}, so colouring the halves apart
        # orients every sheet
        low, high = range(1, k + 1), range(k + 1, d + 1)
        ab, ba = draw(st.permutations(high)), draw(st.permutations(low))
        alpha = tuple(ab) + tuple(ba)
    elif kind == "intransitive_joined":
        # alpha takes 1 across the split, so it joins the two halves
        if alpha[0] <= k:
            y = draw(st.integers(k + 1, d))
            j = alpha.index(y)
            a = list(alpha)
            a[0], a[j] = a[j], a[0]
            alpha = tuple(a)
    if kind in ("relation", "broken_relation"):
        # the last gamma closes the relation gamma_1 ... gamma_s = alpha^-2
        rest = kernels.product_of(gammas[:-1], d)
        gammas[-1] = kernels.compose(kernels.inverse(rest), kernels.inverse(kernels.compose(alpha, alpha)))
    if kind == "broken_relation":
        x, y = draw(st.lists(st.integers(1, d), min_size=2, max_size=2, unique=True))
        tau = list(range(1, d + 1))
        tau[x - 1], tau[y - 1] = y, x
        tau = tuple(tau)
        assume(kernels.compose(alpha, tau) != kernels.compose(tau, alpha))
        alpha = kernels.compose(alpha, tau)
    rows = [_nontrivial(kernels.cycle_lengths(g), d) for g in gammas]
    if kind == "wrong_row":
        i = draw(st.integers(0, s - 1))
        other = [p for p in ((d,), (2,) + (1,) * (d - 2)) if Partition.of(p) != rows[i]]
        rows[i] = Partition.of(other[0])
    order = draw(st.permutations(range(s)))
    data = BranchData(d, tuple(rows[j] for j in order))
    # position i of the witness holds the row that is now at order.index(i)
    true_map = tuple(order.index(i) for i in range(s))
    row_map = draw(st.sampled_from([None, true_map, tuple(draw(st.permutations(range(s))))]))
    w = HurwitzWitness(d, tuple(Permutation(g) for g in gammas), Permutation(alpha))
    return kind, data, w, row_map


@settings(max_examples=600, deadline=None)
@given(_cases())
def test_verify_matches_the_old_verifier(case):
    kind, data, w, row_map = case
    got = verify_witness(data, w, row_map=row_map)
    assert got.to_dict() == _old_verify_witness(data, w, row_map=row_map).to_dict()
    gammas = [g.images for g in w.gammas]
    if kind == "relation":
        assert got.relation_ok
    elif kind == "broken_relation":
        assert not got.relation_ok
    elif kind == "wrong_row":
        assert not got.row_types_ok
    elif kind == "intransitive_joined":
        assert got.transitive and not kernels.is_transitive(gammas, data.degree)
    elif kind == "orientable":
        assert got.transitive and not got.nonorientable


def _refuse(*args, **kwargs):
    raise AssertionError("called on a transitive witness")


@pytest.mark.parametrize(
    "text, primitive_by",
    [("d=6; [4,1,1],[3,3],[2,2,2]", "two_transitive"), ("d=4; [2,2],[2,2]", "block_scan")],
)
def test_transitive_witness_builds_no_orbit_labels_and_no_permutation(monkeypatch, text, primitive_by):
    data = data_of(text)
    if primitive_by == "two_transitive":
        w = realize_indecomposable(data, seed=0).witness
    else:
        w = HurwitzWitness.from_dict({"degree": 4, "gammas": ["(1 2)(3 4)", "(2 3)(4 1)"], "alpha": "(1 2 3 4)"})
    assert kernels.is_transitive([g.images for g in w.gammas], data.degree)
    want = _old_verify_witness(data, w).to_dict()
    monkeypatch.setattr(realize_module.kernels, "orbit_index", _refuse)
    monkeypatch.setattr(Permutation, "__init__", _refuse)
    got = verify_witness(data, w).to_dict()
    assert got == want
    assert got["primitive_by"] == primitive_by
