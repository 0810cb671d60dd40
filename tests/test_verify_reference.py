"""`verify_witness` against the verifier as it was on validated permutations.

`_old_verify_witness` and `_old_match_rows` are verbatim copies of the
verifier before it worked on raw image tuples: it read each gamma's cycles
twice, built validated `Permutation`s for the relation check and labelled
every orbit of <gamma> even when <gamma> was transitive.  Random witnesses
with d <= 12 and the mutations the shortcuts could get wrong must give the
same certificate dict, whether the witness is given as built or read back
from its text, whose reader stores each gamma's cycle type.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rp2cover import kernels
from rp2cover import realize as realize_module
from rp2cover.branch import BranchData, Partition
from rp2cover.groups import imprimitivity_block
from rp2cover.perm import Permutation, format_cycles
from rp2cover.realize import (
    Certificate,
    HurwitzWitness,
    realize_decomposable_search,
    realize_indecomposable,
    verify_witness,
)

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


KINDS = (
    "random",
    "relation",
    "broken_relation",
    "wrong_row",
    "intransitive_joined",
    "orientable",
    "fixed_point",
)


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


def _fixing(draw, d, f):
    """A permutation of 1..d that fixes f."""
    m = _perm_on(draw, [x for x in range(1, d + 1) if x != f])
    m[f] = f
    return tuple(m[x] for x in range(1, d + 1))


def _long_cycle_fixing(draw, d, f):
    """A (d-1)-cycle on every point but f."""
    ring = draw(st.permutations([x for x in range(1, d + 1) if x != f]))
    images = list(range(1, d + 1))
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
    elif kind == "fixed_point":
        # every gamma fixes f and the product is a (d-1)-cycle on the rest,
        # so <gamma> has the orbits {f} and the rest; an alpha that keeps
        # the relation fixes f too, so only a broken relation can join f
        f = draw(st.integers(1, d))
        gammas = [_fixing(draw, d, f) for _ in range(s - 1)]
        rest = kernels.product_of(gammas, d)
        gammas.append(kernels.compose(kernels.inverse(rest), _long_cycle_fixing(draw, d, f)))
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
    elif kind == "fixed_point":
        d = data.degree
        assert kernels.cycle_lengths(kernels.product_of(gammas, d)) == (d - 1, 1)
        assert not kernels.is_transitive(gammas, d)
        # at d = 2 the product is the identity, whose square root (1 2)
        # keeps the relation and joins the two points
        assert d == 2 or not got.transitive or not got.relation_ok


@settings(max_examples=400, deadline=None)
@given(_cases())
def test_verify_of_a_witness_read_from_text_matches_the_old_verifier(case):
    # the types the readers store meet the old verifier's walk of the
    # witness as built
    kind, data, w, row_map = case
    read = HurwitzWitness.from_dict(w.to_dict())
    got = verify_witness(data, read, row_map=row_map)
    assert got.to_dict() == _old_verify_witness(data, w, row_map=row_map).to_dict()


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


def _counting(monkeypatch, name):
    """Replace kernels.`name` with a wrapper that records each call's first
    argument; return that record."""
    calls = []
    f = getattr(kernels, name)

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return f(*args, **kwargs)

    monkeypatch.setattr(realize_module.kernels, name, wrapper)
    return calls


@pytest.mark.parametrize(
    "text", ["d=6; [4,1,1],[3,3],[2,2,2]", "d=12; [5,4,2,1],[7,3,1,1],[2,2,2,2,1,1,1,1]"]
)
def test_witness_read_from_text_with_a_long_cycle_product_walks_only_the_product(monkeypatch, text):
    data = data_of(text)
    built = realize_indecomposable(data, seed=0).witness
    rec = built.to_dict()
    alpha = list(built.alpha.images)
    alpha[0], alpha[1] = alpha[1], alpha[0]  # still a permutation, now breaking the relation
    corrupt = dict(rec, alpha=format_cycles(Permutation(tuple(alpha))))
    want = [_old_verify_witness(data, HurwitzWitness.from_dict(r)).to_dict() for r in (rec, corrupt)]
    assert [c["relation_ok"] for c in want] == [True, False]
    for r, w in zip((rec, corrupt), want):
        read = HurwitzWitness.from_dict(r)
        prod = kernels.product_of([g.images for g in read.gammas], data.degree)
        union_finds = _counting(monkeypatch, "is_transitive")
        walks = _counting(monkeypatch, "cycle_lengths")
        assert verify_witness(data, read).to_dict() == w
        assert w["primitive_by"] == "two_transitive"
        assert union_finds == [] and walks == [prod]
        monkeypatch.undo()
    # nor does the verifier store a type on the engine's own permutations
    verify_witness(data, built)
    assert all("_lengths" not in vars(g) for g in built.gammas)


def test_involution_pair_witness_keeps_the_union_find(monkeypatch):
    # its product is two 2-cycles, not [d-1, 1]
    data = data_of("d=4; [2,2],[2,2]")
    w = HurwitzWitness.from_dict({"degree": 4, "gammas": ["(1 2)(3 4)", "(2 3)(4 1)"], "alpha": "(1 2 3 4)"})
    union_finds = _counting(monkeypatch, "is_transitive")
    assert verify_witness(data, w).to_dict() == _old_verify_witness(data, w).to_dict()
    # the block scan runs union-finds of its own after this one
    assert union_finds[0] == [g.images for g in w.gammas]


@pytest.mark.parametrize("d", [256, 512])
def test_two_row_all_twos_witness_at_the_benchmark_degrees(monkeypatch, d):
    # the imprimitive witnesses `verify-mix` stores: the product has two
    # cycles of length d/2, so the union-find over every gamma decides
    # transitivity and the block scan finds the odd points
    twos = ",".join(["2"] * (d // 2))
    data = data_of(f"d={d}; [{twos}],[{twos}]")
    built = realize_decomposable_search(data).witness
    read = HurwitzWitness.from_dict(built.to_dict())
    want = _old_verify_witness(data, built).to_dict()
    assert want["primitive_by"] == "block_scan"
    assert want["witness_block"] == list(range(1, d, 2))
    assert verify_witness(data, built).to_dict() == want
    prod = kernels.product_of([g.images for g in read.gammas], d)
    walks = _counting(monkeypatch, "cycle_lengths")
    assert verify_witness(data, read).to_dict() == want
    assert walks == [prod]
