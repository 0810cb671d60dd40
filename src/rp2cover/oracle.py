"""Exhaustive ground truth for small degrees.

The constructive engine in `realize` is fast but intricate; this module is
its slow, obviously-correct counterpart.  Within explicit bounds it
enumerates entire conjugacy classes and every square root outright, so its
answers depend on nothing but the definitions.  It is used to settle
degrees the classification rule does not cover and, in the test suite, to
cross-check everything the engine produces.

Conjugation-invariance of every property checked here means the first
branching permutation can be pinned to the canonical representative of its
class without changing any yes/no answer; `first_row_reduced=False` turns
that reduction off for the scans where true counts matter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from itertools import permutations as _orderings
from itertools import product as _cartesian
from typing import Iterator

from . import kernels
from .branch import BranchData, is_admissible
# is_primitive is not called here; it stays importable from this module
# because perfbench/spans.py looks it up here (WRAP_POINTS)
from .groups import (  # noqa: F401
    NotABlockError,
    block_system_from,
    group_of,
    is_primitive,
    pair_conjugator,
)
from .perm import Permutation, canonical_of_type
from .realize import (
    Classification,
    HurwitzWitness,
    Verdict,
    canonical_involution_pair,
)
# all_square_roots is not called here either; like is_primitive above, it
# stays importable from this module because perfbench/spans.py looks it up
# here (WRAP_POINTS)
from .squares import RootCapExceeded, all_square_roots, iter_root_images  # noqa: F401


@dataclass(frozen=True)
class SearchBounds:
    """Hard limits that keep exhaustive enumeration tractable.

    `max_degree` and `max_rows` bound the branch data a scan accepts (the
    involution-pair survey allows `max_degree` + 2), and `root_cap` bounds
    the square roots enumerated for a single product.
    """

    max_degree: int = 6
    max_rows: int = 4
    root_cap: int = 200_000


class BoundsExceededError(Exception):
    pass


def _require_in_bounds(data: BranchData, bounds: SearchBounds) -> None:
    if data.degree > bounds.max_degree:
        raise BoundsExceededError(
            f"degree {data.degree} exceeds search bound {bounds.max_degree}"
        )
    if data.rows_count > bounds.max_rows:
        raise BoundsExceededError(
            f"{data.rows_count} rows exceed search bound {bounds.max_rows}"
        )


# ---------------------------------------------------------------------------
# conjugacy class enumeration


@lru_cache(maxsize=None)
def class_images(d: int, parts: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Image tuples of every permutation of 1..d with the given cycle type.

    Each cycle is anchored at the smallest point it moves, which makes the
    enumeration duplicate-free.

    >>> len(class_images(4, (2, 2)))
    3
    >>> len(class_images(5, (3, 1, 1)))
    20
    """
    if sum(parts) != d:
        raise ValueError("cycle type must partition the degree")
    out: list[tuple[int, ...]] = []
    imgs = list(range(d + 1))

    def rec(avail: tuple[int, ...], rem: tuple[int, ...]) -> None:
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
            for combo in _orderings(rest, length - 1):
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


@lru_cache(maxsize=None)
def _roots_of(images: tuple[int, ...], cap: int) -> tuple[tuple[int, ...], ...]:
    """Square roots of an image tuple, in the order of `all_square_roots`;
    raises RootCapExceeded when more than cap exist."""
    roots = tuple(islice(iter_root_images(images), cap + 1))
    if len(roots) > cap:
        raise RootCapExceeded(f"more than {cap} square roots")
    return roots


# ---------------------------------------------------------------------------
# relation scans


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
    """
    bounds = bounds or SearchBounds()
    _require_in_bounds(data, bounds)
    d = data.degree
    rows = [r.parts for r in data.rows]
    if first_row_reduced:
        first: tuple[tuple[int, ...], ...] = (canonical_of_type(d, rows[0]).images,)
    else:
        first = class_images(d, rows[0])
    rest = [class_images(d, parts) for parts in rows[1:]]
    for g0 in first:
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
                roots = _roots_of(pinv, bounds.root_cap)
            except RootCapExceeded as e:
                raise BoundsExceededError(str(e)) from None
            for alpha in roots:
                transitive, orientable = kernels.alpha_extension(orbits, n, alpha)
                yield gammas, alpha, transitive, orientable


def _witness_of(d: int, gammas, alpha) -> HurwitzWitness:
    return HurwitzWitness(
        d, tuple(Permutation(g) for g in gammas), Permutation(alpha)
    )


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
            return _witness_of(data.degree, gammas, alpha), True
    return None, connected


def exists_primitive_realization(
    data: BranchData, bounds: SearchBounds | None = None
) -> bool:
    return find_primitive_witness(data, bounds) is not None


def find_primitive_witness(
    data: BranchData, bounds: SearchBounds | None = None
) -> HurwitzWitness | None:
    return _first_witness(data, bounds, primitive=True)[0]


def find_imprimitive_witness(
    data: BranchData, bounds: SearchBounds | None = None
) -> HurwitzWitness | None:
    return _first_witness(data, bounds, primitive=False)[0]


@dataclass(frozen=True)
class TupleSurvey:
    """Bucket counts over every relation pair of one branch datum."""

    degree: int
    rows: tuple[tuple[int, ...], ...]
    first_row_reduced: bool
    relation_pairs: int
    intransitive: int
    orientable_excluded: int
    transitive_imprimitive: int
    transitive_primitive: int
    sample: HurwitzWitness | None

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "rows": [list(r) for r in self.rows],
            "first_row_reduced": self.first_row_reduced,
            "relation_pairs": self.relation_pairs,
            "intransitive": self.intransitive,
            "orientable_excluded": self.orientable_excluded,
            "transitive_imprimitive": self.transitive_imprimitive,
            "transitive_primitive": self.transitive_primitive,
            "sample": self.sample.to_dict() if self.sample else None,
        }


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
    """
    total = intrans = orient = imprim = prim = 0
    sample = None
    is_primitive_pair = _Primitivity(data.degree)
    for gammas, alpha, transitive, orientable in iter_relation_pairs(
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
            sample = _witness_of(data.degree, gammas, alpha)
        if is_primitive_pair(gammas, alpha):
            prim += 1
        else:
            imprim += 1
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


def classify_by_search(
    data: BranchData, bounds: SearchBounds | None = None
) -> Classification:
    """Settle one branch datum by enumeration alone.

    The case and reason tags of the closed-form rule are left unset; a
    search can tell realizable from not, but not which structural clause
    applied.  A realizable verdict carries the primitive witness found,
    which `realize_indecomposable` returns as it is.
    """
    if not is_admissible(data).ok:
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


# ---------------------------------------------------------------------------
# transitive pairs of fixed-point-free involutions


@dataclass(frozen=True)
class InvolutionPairSurvey:
    """Census of transitive pairs of fixed-point-free involutions.

    With `first_fixed` the first involution is pinned to the canonical one
    and `total_transitive_pairs` is scaled by the class size, which is
    exact because the transitive-partner count is the same for every first
    element by conjugation.
    """

    degree: int
    first_fixed: bool
    scanned_pairs: int
    transitive_pairs: int
    total_transitive_pairs: int
    all_conjugate_to_canonical: bool
    products_all_two_half_cycles: bool
    blocks_all_valid: bool

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "first_fixed": self.first_fixed,
            "scanned_pairs": self.scanned_pairs,
            "transitive_pairs": self.transitive_pairs,
            "total_transitive_pairs": self.total_transitive_pairs,
            "all_conjugate_to_canonical": self.all_conjugate_to_canonical,
            "products_all_two_half_cycles": self.products_all_two_half_cycles,
            "blocks_all_valid": self.blocks_all_valid,
        }


def involution_pair_survey(
    d: int,
    bounds: SearchBounds | None = None,
    *,
    first_fixed: bool | None = None,
) -> InvolutionPairSurvey:
    """Check that every transitive involution pair looks like the canonical one.

    For each transitive pair of fixed-point-free involutions: the product
    must be two d/2-cycles, some relabeling must carry the pair onto the
    canonical pair, and the relabeled odd points must form a block of the
    group the pair generates.
    """
    bounds = bounds or SearchBounds()
    if d < 4 or d % 2:
        raise ValueError("need even degree at least 4")
    if d > bounds.max_degree + 2:
        raise BoundsExceededError(
            f"degree {d} exceeds pair-survey bound {bounds.max_degree + 2}"
        )
    if first_fixed is None:
        first_fixed = d > bounds.max_degree
    half = d // 2
    cls = class_images(d, (2,) * half)
    canon = canonical_involution_pair(d)
    firsts = (canon[0].images,) if first_fixed else cls
    odd_points = tuple(range(1, d, 2))

    scanned = 0
    transitive_count = 0
    all_conj = True
    all_products = True
    all_blocks = True
    for pi in firsts:
        p = Permutation(pi)
        for qi in cls:
            scanned += 1
            if not kernels.is_transitive([pi, qi], d):
                continue
            transitive_count += 1
            q = Permutation(qi)
            if kernels.cycle_lengths(kernels.compose(pi, qi)) != (half, half):
                all_products = False
            lam = pair_conjugator((p, q), canon)
            if lam is None:
                all_conj = False
                continue
            block = tuple(sorted(lam.apply(x) for x in odd_points))
            try:
                block_system_from(group_of(p, q), block)
            except NotABlockError:
                all_blocks = False

    if first_fixed:
        total = transitive_count * len(cls)
    else:
        total = transitive_count
    return InvolutionPairSurvey(
        degree=d,
        first_fixed=first_fixed,
        scanned_pairs=scanned,
        transitive_pairs=transitive_count,
        total_transitive_pairs=total,
        all_conjugate_to_canonical=all_conj,
        products_all_two_half_cycles=all_products,
        blocks_all_valid=all_blocks,
    )


def expected_transitive_pair_total(d: int) -> int:
    """Count of ordered transitive fixed-point-free involution pairs.

    All such pairs form one simultaneous conjugacy orbit whose point
    stabilizer is the centralizer of the generated group; that group acts
    regularly, so the orbit has size d! / d.
    """
    if d < 4 or d % 2:
        raise ValueError("need even degree at least 4")
    return math.factorial(d) // d
