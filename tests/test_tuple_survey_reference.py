"""The tuple survey and the witness searches against the scans they replaced.

`tuple_survey`, `_relation_pairs`, `iter_relation_pairs`,
`_centralizer_orbits`, `_Primitivity`, `exists_realization`,
`_first_witness` and `classify_by_search` below are the earlier ones
verbatim: every gammas tuple whose product is a square got an orbit
index, every square root of its product was walked and sorted into a
bucket one at a time, and each pair's primitivity was decided by block
scans over the seeds of its gammas.  The centralizer orbits of the
survey's second row were found by one pass over the whole class, and
the witness searches and `exists_realization` walked every element of
every class after the first row.  One walk now serves all of these: it
scans the second row once per centralizer orbit as the scan reaches it,
settles a tuple whose gammas alone decide its buckets with one root
count per product type, tests the transitivity of the rows before the
last once for all the tuples extending them, and when those rows are
transitive decides primitivity from their block systems.  The survey
must return the same dict, `sample` included, the searches the same
witness and verdict, and all of them must refuse the same root caps.
"""

from __future__ import annotations

from itertools import product as _cartesian
import math
import re
from typing import Iterator

import pytest

from rp2cover import kernels, oracle
from rp2cover.branch import BranchData, admissible_defect
from rp2cover.oracle import (
    BoundsExceededError,
    RootCapExceeded,
    SearchBounds,
    TupleSurvey,
    _build_witness,
    _require_in_bounds,
    _roots_of,
    _row_candidates,
)
from rp2cover.realize import Classification, HurwitzWitness, Verdict

import helpers
from helpers import admissible_data, data_of, every_row_order
from test_oracle import RAISED_BOUND_SURVEYS


def _relation_pairs(
    candidates: list[tuple[tuple[int, ...], ...]], d: int, root_cap: int
) -> Iterator[tuple[tuple[tuple[int, ...], ...], tuple[int, ...], bool, bool]]:
    """The relation pairs whose gammas take one candidate from each row, in
    the order of the candidates, the first row outermost; each gammas
    tuple is followed by every square root of its product, in the order of
    `all_square_roots`."""
    rest = candidates[1:]
    for g0 in candidates[0]:
        for tail in _cartesian(*rest):
            gammas = (g0, *tail)
            prod = g0
            for t in tail:
                prod = kernels.compose(prod, t)
            pinv = kernels.inverse(prod)
            if not kernels.is_square_type(pinv):
                continue
            orbits, n = kernels.orbit_index(gammas, d)
            try:
                roots = _roots_of(pinv, root_cap)
            except RootCapExceeded as e:
                raise BoundsExceededError(str(e)) from None
            for alpha in roots:
                transitive, orientable = kernels.alpha_extension(orbits, n, alpha)
                yield gammas, alpha, transitive, orientable


def iter_relation_pairs(
    data: BranchData,
    bounds: SearchBounds | None = None,
    *,
    first_row_reduced: bool = True,
) -> Iterator[tuple[tuple[tuple[int, ...], ...], tuple[int, ...], bool, bool]]:
    """All (gammas, alpha) with matching row types and product alpha^-2.

    Yields raw image tuples plus the two cheap flags: whether the group of
    all the permutations together is transitive, and whether the cycles of
    the gammas admit an orientation that alpha consistently reverses.
    The bounds are checked when it is called.
    """
    bounds = bounds or SearchBounds()
    _require_in_bounds(data, bounds)
    return _relation_pairs(
        _row_candidates(data, first_row_reduced), data.degree, bounds.root_cap
    )


def _centralizer_orbits(
    g0: tuple[int, ...], cls: tuple[tuple[int, ...], ...]
) -> dict[tuple[int, ...], int]:
    """Orbits of the centralizer C(g0) of a canonical element, acting on the
    conjugacy class `cls` by conjugation.

    Returns a dict from the first element of each orbit, in `cls` order,
    to the orbit's size; dict order is `cls` order.  g0 has its cycles on
    consecutive points (`canonical_of_type`), fixed points counting as
    1-cycles, so C(g0) is generated by the rotation of each cycle and the
    swap of each two consecutive cycles of one length.
    """
    d = len(g0)

    def moving(pairs) -> tuple[int, ...]:
        images = list(range(1, d + 1))
        for x, y in pairs:
            images[x - 1] = y
        return tuple(images)

    cycles = kernels.cycles_of(g0)
    gens = [moving(zip(c, c[1:] + c[:1])) for c in cycles if len(c) > 1]
    gens += [
        moving([*zip(a, b), *zip(b, a)])
        for a, b in zip(cycles, cycles[1:])
        if len(a) == len(b)
    ]
    index = {g: i for i, g in enumerate(cls)}
    seen = [False] * len(cls)
    sizes = {}
    for i, g in enumerate(cls):
        if seen[i]:
            continue
        seen[i] = True
        queue = [g]
        size = 0
        while queue:
            p = queue.pop()
            size += 1
            for c in gens:
                j = index[kernels.conjugate(p, c)]
                if not seen[j]:
                    seen[j] = True
                    queue.append(cls[j])
        sizes[g] = size
    return sizes


def exists_realization(
    data: BranchData,
    bounds: SearchBounds | None = None,
    *,
    first_row_reduced: bool = True,
) -> bool:
    """Is there any connected witness with a nonorientable covering surface?"""
    for _, _, transitive, orientable in iter_relation_pairs(
        data, bounds, first_row_reduced=first_row_reduced
    ):
        if transitive and not orientable:
            return True
    return False


class _Primitivity:
    """Is the transitive group G = <alpha, gammas> of a relation pair primitive?

    A prime degree admits no block size but 1 and d.  Otherwise G is
    primitive exactly when the minimal block through {1, y} is all of
    1..d for every y in 2..d.  A block of G containing {1, y} contains the
    minimal <gammas>-block through {1, y} (Dixon & Mortimer, *Permutation
    Groups*, ch. 1), so the first time it is asked about a gammas tuple
    the decision keeps only the seeds y whose <gammas>-block is not all of
    1..d, and every square root of the tuple's product scans only those.
    This holds when <gammas> is intransitive too: a <gammas>-class of more
    than d/2 points lies in a class of G, whose classes all have one size
    dividing d, so that G-block is all of 1..d.  There are no seeds when
    the product has type [d-1, 1], which makes a transitive G
    2-transitive, hence primitive, or when <gammas> is primitive.  One
    instance serves one scan of degree d.
    """

    def __init__(self, d: int):
        self.d = d
        self.prime = d > 1 and all(d % p for p in range(2, math.isqrt(d) + 1))
        self._gammas: tuple[tuple[int, ...], ...] | None = None
        self._seeds: tuple[int, ...] = ()

    def seeds(self, gammas: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
        """The y in 2..d that each alpha must still scan for these gammas."""
        if gammas != self._gammas:
            self._gammas = gammas
            d = self.d
            if kernels.cycle_lengths(kernels.product_of(gammas, d)) == (d - 1, 1):
                self._seeds = ()
            else:
                self._seeds = tuple(
                    y
                    for y in range(2, d + 1)
                    if len(kernels.minimal_block(gammas, d, 1, y)) < d
                )
        return self._seeds

    def __call__(self, gammas: tuple[tuple[int, ...], ...], alpha: tuple[int, ...]) -> bool:
        if self.prime:
            return True
        d = self.d
        gens = (alpha, *gammas)
        return all(
            len(kernels.minimal_block(gens, d, 1, y)) == d for y in self.seeds(gammas)
        )


def _first_witness(
    data: BranchData, bounds: SearchBounds | None, primitive: bool
) -> tuple[HurwitzWitness | None, bool]:
    """First connected nonorientable witness of the scan whose group is
    primitive, or imprimitive, as asked, and whether the scan met any
    connected nonorientable pair at all."""
    is_primitive_pair = _Primitivity(data.degree)
    connected = False
    for gammas, alpha, transitive, orientable in iter_relation_pairs(data, bounds):
        if not transitive or orientable:
            continue
        connected = True
        if is_primitive_pair(gammas, alpha) == primitive:
            return _build_witness(data.degree, gammas, alpha), True
    return None, connected


def classify_by_search(
    data: BranchData, bounds: SearchBounds | None = None
) -> Classification:
    """Settle one branch datum by enumeration alone.

    The case and reason tags of the closed-form rule are left unset; a
    search can tell realizable from not, but not which structural clause
    applied.  A realizable verdict carries the primitive witness found,
    which `realize_indecomposable` returns as it is.
    """
    if not admissible_defect(data.total_defect(), data.degree):
        return Classification(Verdict.NOT_ADMISSIBLE)
    witness, connected = _first_witness(data, bounds, primitive=True)
    if witness is not None:
        return Classification(Verdict.INDECOMPOSABLE_REALIZABLE, witness=witness)
    if connected:
        return Classification(Verdict.ONLY_DECOMPOSABLE)
    raise RuntimeError(
        f"admissible data {data.to_text()} has no witness at all within "
        "bounds; admissible data always has one, so this is a defect"
    )


def tuple_survey(
    data: BranchData,
    bounds: SearchBounds | None = None,
    *,
    first_row_reduced: bool = True,
) -> TupleSurvey:
    """Count every relation pair by connectivity, orientation, primitivity.

    A pair lands in exactly one bucket: disconnected covers first, then
    connected-but-orientable ones (excluded, the base surface forces a
    nonorientable cover or a decomposition through the orientation double
    cover), then connected nonorientable ones split by primitivity.

    With `first_row_reduced` gamma_1 is pinned to the canonical element g0
    of its class, and with two or more rows gamma_2 runs over one element
    per orbit of the centralizer C(g0) on its class, acting by
    conjugation; that element's pairs count as many times as its orbit
    has elements.  Every row after the second and every square root is
    still enumerated in full.  This is exact: conjugating a whole pair by
    c in C(g0) keeps g0, maps the pairs of one gamma_2 bijectively onto
    those of its conjugate, and keeps every bucket.  For the same reason a
    gamma_2 with a connected nonorientable pair has such pairs across its
    whole orbit, so the first one in class order is the first element of
    its orbit, a representative: `sample` is the pair the full scan finds
    first.  Conjugate products also have equally many square roots, so
    the root cap is exceeded, and BoundsExceededError raised, exactly when
    the full scan exceeds it.  `first_row_reduced=False` is the full
    enumeration of every class, the independent reference.
    """
    bounds = bounds or SearchBounds()
    _require_in_bounds(data, bounds)
    candidates = _row_candidates(data, first_row_reduced)
    weight = None
    if first_row_reduced and len(candidates) > 1:
        weight = _centralizer_orbits(candidates[0][0], candidates[1])
        candidates[1] = tuple(weight)
    total = intrans = orient = imprim = prim = 0
    sample = None
    is_primitive_pair = _Primitivity(data.degree)
    for gammas, alpha, transitive, orientable in _relation_pairs(
        candidates, data.degree, bounds.root_cap
    ):
        w = weight[gammas[1]] if weight else 1
        total += w
        if not transitive:
            intrans += w
            continue
        if orientable:
            orient += w
            continue
        if sample is None:
            sample = _build_witness(data.degree, gammas, alpha)
        if is_primitive_pair(gammas, alpha):
            prim += w
        else:
            imprim += w
    return TupleSurvey(
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


# the tuple scans of the oracle-scan benchmark (perfbench/workloads.py)
_BENCHMARK_SCANS = [
    "d=5; [3,2],[2,2,1],[2,1,1,1]",
    "d=5; [5],[5]",
    "d=5; [4,1],[3,2],[2,2,1]",
    "d=6; [3,3],[2,2,1,1],[2,2,1,1]",
    "d=6; [4,1,1],[3,3],[2,2,2]",
    "d=6; [6],[6]",
    "d=6; [3,2,1],[3,2,1]",
]


@pytest.mark.parametrize("reduced", [True, False])
@pytest.mark.parametrize("text", _BENCHMARK_SCANS)
def test_survey_matches_the_reference_on_benchmark_scans(text, reduced):
    data = data_of(text)
    want = tuple_survey(data, first_row_reduced=reduced).to_dict()
    assert oracle.tuple_survey(data, first_row_reduced=reduced).to_dict() == want


@pytest.mark.parametrize("text", sorted(RAISED_BOUND_SURVEYS))
def test_survey_matches_the_reference_at_raised_bounds(text):
    data, bounds = data_of(text), SearchBounds(max_degree=12)
    want = tuple_survey(data, bounds).to_dict()
    assert want == RAISED_BOUND_SURVEYS[text]
    assert oracle.tuple_survey(data, bounds).to_dict() == want


# unreduced d = 5 would take the reference some 15 s
@pytest.mark.parametrize(
    "d, reduced", [(d, True) for d in (2, 3, 4, 5)] + [(d, False) for d in (2, 3, 4)]
)
def test_survey_matches_the_reference_on_small_data(d, reduced):
    for data in every_row_order(admissible_data([d], max_rows=3)):
        want = tuple_survey(data, first_row_reduced=reduced).to_dict()
        got = oracle.tuple_survey(data, first_row_reduced=reduced).to_dict()
        assert got == want, data.to_text()


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_relation_pairs_match_the_reference_on_small_data(d):
    # the stream `iter_relation_pairs` and the witness searches read, pair
    # by pair and in order
    cap = SearchBounds().root_cap
    for data in every_row_order(admissible_data([d], max_rows=3)):
        candidates = _row_candidates(data, True)
        want = list(_relation_pairs(candidates, d, cap))
        assert list(oracle._relation_pairs(candidates, d, cap)) == want, data.to_text()


@pytest.mark.parametrize("text", _BENCHMARK_SCANS)
def test_relation_pairs_match_the_reference_on_benchmark_scans(text):
    data = data_of(text)
    candidates = _row_candidates(data, True)
    cap = SearchBounds().root_cap
    want = list(_relation_pairs(candidates, data.degree, cap))
    assert list(oracle._relation_pairs(candidates, data.degree, cap)) == want


# the first three as in test_oracle.py; every tuple of the last is settled,
# so only the count of its products' roots can meet the cap
@pytest.mark.parametrize(
    "text",
    [
        "d=4; [2,2],[2,2]",
        "d=6; [3,3],[2,2,1,1],[2,2,1,1]",
        "d=5; [3,1,1],[2,2,1],[2,2,1]",
        "d=5; [5],[5]",
    ],
)
@pytest.mark.parametrize("cap", [1, 5, 10, 20, 50, 100])
def test_survey_exceeds_the_root_cap_as_the_reference_does(text, cap):
    data, bounds = data_of(text), SearchBounds(root_cap=cap)
    try:
        want = tuple_survey(data, bounds).to_dict()
    except BoundsExceededError as e:
        with pytest.raises(BoundsExceededError, match=f"^{re.escape(str(e))}$"):
            oracle.tuple_survey(data, bounds)
    else:
        assert oracle.tuple_survey(data, bounds).to_dict() == want


def _witness_dict(witness):
    return None if witness is None else witness.to_dict()


def _outcome(search, data, bounds):
    """What one search answers, as plain data, or the text of its refusal."""
    try:
        got = search(data, bounds)
    except BoundsExceededError as e:
        return "refused", str(e)
    if isinstance(got, Classification):
        return got.to_dict(), _witness_dict(got.witness)
    if isinstance(got, HurwitzWitness):
        return got.to_dict()
    return got


# (live search, its reference), each called as search(data, bounds)
_SEARCHES = [
    (oracle.find_primitive_witness, lambda data, bounds: _first_witness(data, bounds, True)[0]),
    (oracle.find_imprimitive_witness, lambda data, bounds: _first_witness(data, bounds, False)[0]),
    (helpers.exists_realization, exists_realization),
    (oracle.classify_by_search, classify_by_search),
]


def _assert_searches_match(data, bounds=None):
    for live, reference in _SEARCHES:
        want = _outcome(reference, data, bounds)
        assert _outcome(live, data, bounds) == want, (live.__name__, data.to_text())


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_searches_match_the_reference_on_small_data(d):
    for data in every_row_order(admissible_data([d], max_rows=3)):
        _assert_searches_match(data)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_unreduced_existence_matches_the_reference_on_small_data(d):
    for data in every_row_order(admissible_data([d], max_rows=3)):
        want = exists_realization(data, first_row_reduced=False)
        assert helpers.exists_realization(data, first_row_reduced=False) == want, data.to_text()


@pytest.mark.parametrize("text", sorted(RAISED_BOUND_SURVEYS))
def test_searches_match_the_reference_at_raised_bounds(text):
    _assert_searches_match(data_of(text), SearchBounds(max_degree=12))


# a settled primitive tuple first, an orbit-bound tuple first (its first
# product, (1 2)(1 2), is the identity with 76 roots), a scan whose every
# product is odd so that it has no relation pair, walked tuples with one
# and with several orbits, and a three-row scan
@pytest.mark.parametrize(
    "text",
    [
        "d=5; [5],[5]",
        "d=6; [2,1,1,1,1],[2,1,1,1,1]",
        "d=6; [2,1,1,1,1],[2,1,1,1,1],[2,2,2]",
        "d=4; [2,2],[2,2]",
        "d=5; [3,1,1],[2,2,1],[2,2,1]",
        "d=6; [3,3],[2,2,1,1],[2,2,1,1]",
    ],
)
def test_searches_exceed_the_root_cap_as_the_reference_does(text):
    data = data_of(text)
    for cap in range(1, 101):
        _assert_searches_match(data, SearchBounds(root_cap=cap))
