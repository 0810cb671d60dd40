"""Exhaustive ground truth for small degrees.

The constructive engine in `realize` is fast but intricate; this module is
its slow, obviously-correct counterpart.  Within explicit bounds it
enumerates conjugacy classes and every square root outright, so its
answers depend on nothing but the definitions.  It is used to settle
degrees the classification rule does not cover and, in the test suite, to
cross-check everything the engine produces.

Conjugation-invariance of every property checked here means the first
branching permutation can be pinned to the canonical representative g0 of
its class without changing any yes/no answer.  Every scan, a tuple survey
or a witness search, reads one walk (`_walk_pairs`), which goes one step
further: it enumerates the second row once per orbit of the centralizer
of g0, and it settles the square roots of a tuple that the gammas alone
decide instead of walking them.  A survey weights each representative by
its orbit size; a search stops at the first pair it wants, the one the
full scan finds first.  `first_row_reduced=False` turns both first-row
reductions off: it enumerates entire classes, and is the reference the
reductions are tested against.  `iter_relation_pairs` is the plain
stream of every pair, which no scan reads.  It takes its gammas tuples
from the generator the walk reads (`_square_tuples`), the one place that
derives a tuple's facts and holds the root cap: each product type's
square-root count is checked at the first tuple of that type, before any
root is drawn, for the walk and the plain stream alike.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import permutations as _permutations
from itertools import product as _cartesian
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from . import kernels
from .branch import BranchData, admissible_defect
# is_primitive is not called here; it stays importable from this module
# because perfbench/spans.py looks it up here (WRAP_POINTS)
from .groups import is_primitive  # noqa: F401
from .perm import canonical_of_type
from .realize import (
    Classification,
    HurwitzWitness,
    Verdict,
    _build_witness,
    canonical_involution_pair,
)
# all_square_roots is not called here either; like is_primitive above, it
# stays importable from this module because perfbench/spans.py looks it up
# here (WRAP_POINTS).  Nor is RootCapExceeded: the verbatim reference scans
# in tests/test_tuple_survey_reference.py import it from here.
from .squares import (  # noqa: F401
    RootCapExceeded,
    _root_images,
    all_square_roots,
    iter_root_images,
    min_root_cycles,
    root_count,
)


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

# The largest class `class_images` enumerates.  An image tuple of degree d
# takes about 8d + 56 bytes, so a class at the cap holds about 150 MB at
# d = 12.  Every class of degree at most 10 lies below it (the largest,
# [9,1], has 403,200 elements), and so does the pair survey's class of
# [2^7] at degree 14 (135,135).
MAX_CLASS_SIZE = 1_000_000


def _require_class_within_cap(d: int, parts: tuple[int, ...]) -> None:
    """Refuse a class larger than `MAX_CLASS_SIZE`, by its closed-form size
    d!/z, where z is the product of k^m * m! over the part lengths k of
    multiplicity m."""
    z = 1
    for k, m in Counter(parts).items():
        z *= k**m * math.factorial(m)
    size = math.factorial(d) // z
    if size > MAX_CLASS_SIZE:
        row = "[" + ",".join(map(str, sorted(parts, reverse=True))) + "]"
        raise BoundsExceededError(
            f"the class of {row} at degree {d} has {size} elements, "
            f"more than the class-size cap {MAX_CLASS_SIZE}"
        )


@lru_cache(maxsize=None)
def class_images(d: int, parts: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Image tuples of every permutation of 1..d with the given cycle type.

    A class larger than `MAX_CLASS_SIZE` is refused with
    BoundsExceededError before any of it is built.

    Each cycle is anchored at the smallest point it moves, which makes the
    enumeration duplicate-free.  The points after the anchor are chosen one
    at a time, each from the points still free in increasing order, and
    leave that pool by index.  A 1-cycle or a 2-cycle is placed without a
    further call.  The last cycle takes every point left, in the orders
    `itertools.permutations` yields them: by position, lexicographically,
    which is the order of the choices one point at a time.

    >>> len(class_images(4, (2, 2)))
    3
    >>> len(class_images(5, (3, 1, 1)))
    20
    """
    if sum(parts) != d:
        raise ValueError("cycle type must partition the degree")
    _require_class_within_cap(d, parts)
    out: list[tuple[int, ...]] = []
    # every point gets its image on the way down to each leaf, so nothing
    # is reset on the way back
    imgs = [0] * d

    def rec(avail: tuple[int, ...], rem: tuple[int, ...]) -> None:
        if not avail:
            out.append(tuple(imgs))
            return
        x = avail[0]
        rest = avail[1:]
        if len(rem) == 1:
            for tail in _permutations(rest):
                prev = x
                for y in tail:
                    imgs[prev - 1] = y
                    prev = y
                imgs[prev - 1] = x
                out.append(tuple(imgs))
            return
        for i, length in enumerate(rem):
            if i and length == rem[i - 1]:
                continue
            others = rem[:i] + rem[i + 1 :]
            if length == 1:
                imgs[x - 1] = x
                rec(rest, others)
            elif length == 2:
                for j, y in enumerate(rest):
                    imgs[x - 1] = y
                    imgs[y - 1] = x
                    rec(rest[:j] + rest[j + 1 :], others)
            else:
                grow(x, x, length - 1, rest, others)

    def grow(x: int, tail: int, k: int, pool: tuple[int, ...], rem: tuple[int, ...]) -> None:
        """Extend the cycle of x past `tail` by k points of `pool`."""
        if not k:
            imgs[tail - 1] = x
            rec(pool, rem)
            return
        for j, y in enumerate(pool):
            imgs[tail - 1] = y
            grow(x, y, k - 1, pool[:j] + pool[j + 1 :], rem)

    rec(tuple(range(1, d + 1)), tuple(sorted(parts, reverse=True)))
    return tuple(out)


# Products whose roots `_roots_of` keeps.  A scan within the default
# bounds meets far fewer distinct products than this, so it never evicts;
# a scan at raised bounds may meet millions, and without a bound would
# hold the roots of every one of them until the process exits.
_ROOTS_CACHE_SIZE = 512


# Square roots of an image tuple, in the order of `all_square_roots`;
# raises RootCapExceeded when more than cap exist.
_roots_of = lru_cache(maxsize=_ROOTS_CACHE_SIZE)(_root_images)


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
    The bounds are checked when it is called.
    """
    bounds = bounds or SearchBounds()
    _require_in_bounds(data, bounds)
    return _relation_pairs(
        _row_candidates(data, first_row_reduced), data.degree, bounds.root_cap
    )


def _row_candidates(
    data: BranchData, first_row_reduced: bool
) -> list[tuple[tuple[int, ...], ...]]:
    """The permutations each row may take: the whole class of its cycle
    type, or for a reduced first row the canonical element alone."""
    d = data.degree
    rows = [r.parts for r in data.rows]
    if first_row_reduced:
        first: tuple[tuple[int, ...], ...] = (canonical_of_type(d, rows[0]).images,)
    else:
        first = class_images(d, rows[0])
    return [first] + [class_images(d, parts) for parts in rows[1:]]


def _relation_pairs(
    candidates: list[tuple[tuple[int, ...], ...]], d: int, root_cap: int
) -> Iterator[tuple[tuple[tuple[int, ...], ...], tuple[int, ...], bool, bool]]:
    """The relation pairs whose gammas take one candidate from each row, in
    the order of the candidates, the first row outermost; each gammas
    tuple is followed by every square root of its product, in the order of
    `all_square_roots`."""
    for gammas, prod, _, _, orbits, n, _ in _square_tuples(candidates, d, root_cap):
        for alpha in _roots_of(kernels.inverse(prod), root_cap):
            transitive, orientable = kernels.alpha_extension(orbits, n, alpha)
            yield gammas, alpha, transitive, orientable


class _Prefix:
    """The rows before the last of a gammas tuple, shared by every tuple
    that extends them: whether they generate a transitive group P, tested
    once, and P's block systems, built when first asked for."""

    def __init__(self, gens: tuple[tuple[int, ...], ...], d: int):
        self.gens = gens
        self.d = d
        self.transitive = kernels.is_transitive(gens, d)

    @cached_property
    def systems(self) -> list[tuple]:
        """(labels, labels[1:], block count, a point besides 1 in 1's
        block) per system of a transitive P (`block_systems`)."""
        return [
            (labels, labels[1:], len(set(labels)) - 1, labels.index(1, 2))
            for labels in block_systems(self.gens, self.d)
        ]


def _square_tuples(
    candidates: list[Iterable[tuple[int, ...]]], d: int, root_cap: int
) -> Iterator[
    tuple[
        tuple[tuple[int, ...], ...],
        tuple[int, ...],
        tuple[int, ...],
        int,
        tuple[int, ...] | None,
        int,
        _Prefix,
    ]
]:
    """Every gammas tuple of one candidate per row whose product is a
    square, in the order of the candidates, the first row outermost, with
    the facts every scan reads off it: (gammas, product, its cycle type,
    k, orbits, n, prefix).  No other place derives them.

    k is the number of square roots of the product, `root_count` of its
    cycle type, counted once per type.  It is held against root_cap at the
    first tuple of each type, before any root is drawn, and
    BoundsExceededError is raised there when it is larger; so one check
    serves every stream.  A count of 0 is the square test: the tuples of
    such a type are passed by.

    prefix is the `_Prefix` of the rows before the last, built once for
    all the tuples extending them, together with their product.  When
    those rows are transitive already, so is every such tuple: orbits is
    then None and n is 1, and no orbit index is built.  Otherwise
    (orbits, n) is `kernels.orbit_index(gammas, d)`.

    The second row is read only as the walk reaches each of its
    candidates, so it may be a one-shot iterator when the first row has
    one candidate: with two rows it is the last row, read once.
    """
    *head, last = candidates
    if len(head) < 2:
        prefixes = _cartesian(*head)
    else:
        prefixes = (
            (a, b, *tail) for a in head[0] for b in head[1] for tail in _cartesian(*head[2:])
        )
    counts: dict[tuple[int, ...], int] = {}
    for gens in prefixes:
        p = reduce(kernels.compose, gens) if gens else kernels.identity(d)
        prefix = _Prefix(gens, d)
        for t in last:
            prod = kernels.compose(p, t)
            parts = kernels.cycle_lengths(prod)
            k = counts.get(parts)
            if k is None:
                k = counts[parts] = root_count(parts)
                if k > root_cap:
                    raise BoundsExceededError(f"more than {root_cap} square roots")
            if not k:
                continue
            gammas = (*gens, t)
            if prefix.transitive:
                yield gammas, prod, parts, k, None, 1, prefix
            else:
                orbits, n = kernels.orbit_index(gammas, d)
                yield gammas, prod, parts, k, orbits, n, prefix


def _centralizer_orbits(
    g0: tuple[int, ...], cls: Iterable[tuple[int, ...]]
) -> Iterator[tuple[tuple[int, ...], Callable[[], int]]]:
    """Orbits of the centralizer C(g0) of a canonical element, acting on the
    conjugacy class `cls` by conjugation, as a scan of `cls` reaches them.

    Yields (g, size) for the first element g of each orbit, in `cls`
    order; size() is the number of elements of g's orbit.  g0 has its
    cycles on consecutive points (`canonical_of_type`), fixed points
    counting as 1-cycles, so C(g0) is generated by the rotation of each
    cycle and the swap of each two consecutive cycles of one length.
    `ahead` holds the conjugates an orbit search found that the scan has
    not reached yet: an element the scan meets outside it is the first of
    its orbit, whose other elements all come later.  Each element leaves
    the set when the scan reaches it.  The orbit of g is searched when
    size is first called or when the scan moves past g, so a caller that
    stops at g has not searched it, and one that stops at the first
    element has not built the generators either.
    """
    conjugators: list | None = None
    ahead: set[tuple[int, ...]] = set()

    def search(g: tuple[int, ...]) -> int:
        nonlocal conjugators
        if conjugators is None:
            conjugators = _centralizer_conjugators(g0)
        ahead.add(g)
        queue = [g]
        size = 0
        while queue:
            p = queue.pop()
            size += 1
            for read, relabel in conjugators:
                q = itemgetter(*read(p))(relabel)
                if q not in ahead:
                    ahead.add(q)
                    queue.append(q)
        ahead.remove(g)
        return size

    for g in cls:
        if g in ahead:
            ahead.remove(g)
            continue
        found: list[int] = []

        def size(g=g, found=found) -> int:
            if not found:
                found.append(search(g))
            return found[0]

        yield g, size
        size()


def _centralizer_conjugators(g0: tuple[int, ...]) -> list:
    """Conjugation by each generator c of C(g0), as `kernels.conjugate(p, c)`
    computes it: p read at the images of c, then relabelled by c^-1,
    which takes a leading 0 so that a point indexes it."""
    d = len(g0)

    def moving(pairs) -> list[int]:
        images = list(range(1, d + 1))
        for x, y in pairs:
            images[x - 1] = y
        return images

    cycles = kernels.cycles_of(g0)
    gens = [moving(zip(c, c[1:] + c[:1])) for c in cycles if len(c) > 1]
    gens += [
        moving([*zip(a, b), *zip(b, a)])
        for a, b in zip(cycles, cycles[1:])
        if len(a) == len(b)
    ]
    return [(itemgetter(*[y - 1 for y in c]), (0, *kernels.inverse(c))) for c in gens]


def block_systems(gens, d: int) -> list[tuple[int, ...]]:
    """Every nontrivial block system of the transitive group <gens>.

    Each system is a tuple of d + 1 labels: entry x, for x in 1..d, is the
    least point of x's block, and entry 0 is 0.  The systems whose block
    through 1 is minimal come from closing the partition that joins 1 and
    y, for each y in 2..d (`kernels.block_labels`); the joins of systems
    found, the closures of the union of two blocks through 1, are added
    until no new one appears.  This finds every system: a block B through
    1 is the join of the minimal blocks through 1 and y over the y in B.
    A closure that meets the trivial system 1..d gives None, and is left
    out.
    """
    found = dict.fromkeys(
        filter(None, (kernels.block_labels(gens, d, 1, (y,)) for y in range(2, d + 1)))
    )
    systems = list(found)
    # a join found on the way is appended, and met with every earlier
    # system in its turn
    for i, labels in enumerate(systems):
        for other in systems[:i]:
            ys = [x for x in range(2, d + 1) if labels[x] == 1 or other[x] == 1]
            joined = kernels.block_labels(gens, d, 1, ys)
            if joined and joined not in found:
                found[joined] = None
                systems.append(joined)
    return systems


def _keeps(system: tuple, g: tuple[int, ...]) -> bool:
    """Does g map each block of a `_Prefix.systems` entry into one block?
    First test 1 and one other point of its block alone."""
    labels, own, k, mate = system
    return labels[g[0]] == labels[g[mate - 1]] and (
        len(set(zip(own, map(labels.__getitem__, g)))) == k
    )


def _primitivity(
    d: int, gammas: tuple[tuple[int, ...], ...], parts: tuple[int, ...], prefix: _Prefix
) -> Callable[[tuple[int, ...]], bool] | None:
    """Is the transitive group G = <alpha, gammas> of a relation pair of
    composite degree d primitive?  Reads the facts `_square_tuples`
    yields for the gammas: the product's cycle type and the record of the
    rows before the last, the prefix.  Returns None when every such G is
    primitive, whatever alpha is, and otherwise the test of alpha.  (A
    prime degree admits no block size but 1 and d; the walk asks nothing
    then.)

    When the prefix generates a transitive group P, a block of G is a
    block of its subgroup P, so the block systems of G are exactly those
    of P that every later generator maps block to block.  The prefix
    lists P's systems once; the gammas keep those their last gamma maps
    block to block, and G is primitive exactly when alpha maps none of the
    survivors block to block.  With no survivor G is primitive whatever
    alpha is.

    Otherwise G is primitive exactly when the minimal block through
    {1, y} is all of 1..d for every y in 2..d.  A block of G containing
    {1, y} contains the minimal <gammas>-block through {1, y} (Dixon &
    Mortimer, *Permutation Groups*, ch. 1), so only the seeds y whose
    <gammas>-block is not all of 1..d are kept, and the test of alpha
    scans only those.  This holds when <gammas> is intransitive too: a
    <gammas>-class of more than d/2 points lies in a class of G, whose
    classes all have one size dividing d, so that G-block is all of 1..d.
    There are no seeds when the product has type [d-1, 1], which makes a
    transitive G 2-transitive, hence primitive, or when <gammas> is
    primitive.
    """
    if prefix.transitive:
        last = gammas[-1]
        systems = [s for s in prefix.systems if _keeps(s, last)]
        if not systems:
            return None
        return lambda alpha: not any(_keeps(s, alpha) for s in systems)
    if parts == (d - 1, 1):
        return None
    seeds = [y for y in range(2, d + 1) if len(kernels.minimal_block(gammas, d, 1, y)) < d]
    if not seeds:
        return None

    def scan(alpha: tuple[int, ...]) -> bool:
        gens = (alpha, *gammas)
        return all(len(kernels.minimal_block(gens, d, 1, y)) == d for y in seeds)

    return scan


# The bucket of a relation pair, in the order `TupleSurvey` lists them; the
# last two hold the connected nonorientable pairs.
_INTRANSITIVE, _ORIENTABLE, _IMPRIMITIVE, _PRIMITIVE = range(4)


def _walk_pairs(
    data: BranchData, bounds: SearchBounds | None, first_row_reduced: bool = True
) -> Iterator[
    tuple[Callable[[], int], tuple[tuple[int, ...], ...], tuple[int, ...] | None, int, int]
]:
    """Every relation pair of the datum in its bucket, the one scan that
    `tuple_survey` and the witness searches read.

    Yields events (w, gammas, alpha, bucket, k) in scan order.  A gammas
    tuple whose buckets the gammas alone decide is settled: one event with
    alpha None and k the number of square roots of its product.  Every
    other tuple yields each square root alpha of its product, in the order
    of `all_square_roots`, with k = 1.  Each event stands for w() pairs
    per unit of k.  The bounds are checked when the walk starts.

    A pair lands in exactly one bucket: disconnected covers first, then
    connected-but-orientable ones (excluded, the base surface forces a
    nonorientable cover or a decomposition through the orientation double
    cover), then connected nonorientable ones split by primitivity.

    With `first_row_reduced` gamma_1 is pinned to the canonical element g0
    of its class, and with two or more rows gamma_2 runs over one element
    per orbit of the centralizer C(g0) on its class, acting by
    conjugation; w() is that element's orbit size, and 1 otherwise, asked
    for only by a caller that needs it (see `_centralizer_orbits`).  Every
    row after the second is still enumerated in full.  This is exact:
    conjugating a whole pair by c in C(g0) keeps g0, maps the pairs of one
    gamma_2 bijectively onto those of its conjugate, and keeps every
    bucket.  For the same reason the gamma_2 with a pair in a given bucket
    form whole orbits, so the first of them in class order is the first
    element of its orbit, a representative: the first event in a bucket is
    the pair the full scan finds first there.  Conjugate products also
    have equally many square roots, so the root cap is exceeded, and
    BoundsExceededError raised, exactly when the full scan exceeds it
    before that pair.

    A tuple is settled primitive when <gammas> is transitive and every
    pair of it is primitive whatever alpha is: d is prime, or
    `_primitivity` returns None.  Then each alpha joins nothing and flips
    nothing, so every pair of the tuple is connected and nonorientable.
    A tuple whose gammas leave n orbits is settled intransitive when
    n - 1 > d - `min_root_cycles` of its product: a root with c cycles
    joins at most d - c orbits, and none has fewer cycles than that.  Any
    other tuple asks `_primitivity` for its test of alpha at its first
    connected nonorientable root.  A settled tuple's count is the number
    of square roots `_square_tuples` gives, which has been held against
    the root cap before any root is drawn, and its first pair is the first
    root of its own product (`_witness_of`).
    """
    bounds = bounds or SearchBounds()
    _require_in_bounds(data, bounds)
    d, cap = data.degree, bounds.root_cap
    candidates = _row_candidates(data, first_row_reduced)
    # the orbit size of the current gamma_2, or 1 without the reduction
    weight: Callable[[], int] = lambda: 1
    if first_row_reduced and len(candidates) > 1:

        def representatives(cls):
            # the orbit search runs as the scan reaches each orbit (see
            # `_square_tuples`), and the pairs of a representative all come
            # before the next one is drawn
            nonlocal weight
            for g, weight in _centralizer_orbits(candidates[0][0], cls):
                yield g

        candidates[1] = representatives(candidates[1])
    # a prime degree admits no block size but 1 and d
    prime = d > 1 and all(d % p for p in range(2, math.isqrt(d) + 1))
    decide = (lambda *facts: None) if prime else _primitivity
    # per product type: the fewest cycles one of its square roots has,
    # counted only once a tuple of that type has more than one orbit
    fewest: dict[tuple[int, ...], int] = {}
    for gammas, prod, parts, k, orbits, n, prefix in _square_tuples(candidates, d, cap):
        # a tuple of several orbits asks for its test only at its first
        # connected nonorientable root, so one whose roots are all
        # intransitive or orientable never pays for a seed scan
        asked = n == 1
        if asked:
            test = decide(d, gammas, parts, prefix)
            if test is None:
                yield weight, gammas, None, _PRIMITIVE, k
                continue
        else:
            low = fewest.get(parts)
            if low is None:
                low = fewest[parts] = min_root_cycles(parts)
            if n - 1 > d - low:
                yield weight, gammas, None, _INTRANSITIVE, k
                continue
        for alpha in _roots_of(kernels.inverse(prod), cap):
            if n != 1:
                transitive, orientable = kernels.alpha_extension(orbits, n, alpha)
                if not transitive:
                    yield weight, gammas, alpha, _INTRANSITIVE, 1
                    continue
                if orientable:
                    yield weight, gammas, alpha, _ORIENTABLE, 1
                    continue
                if not asked:
                    asked = True
                    test = decide(d, gammas, parts, prefix)
            if test is None or test(alpha):
                yield weight, gammas, alpha, _PRIMITIVE, 1
            else:
                yield weight, gammas, alpha, _IMPRIMITIVE, 1


def _witness_of(
    d: int, gammas: tuple[tuple[int, ...], ...], alpha: tuple[int, ...] | None
) -> HurwitzWitness:
    """The pair of a `_walk_pairs` event, for a settled tuple the first
    square root of its product."""
    if alpha is None:
        alpha = next(iter_root_images(kernels.inverse(kernels.product_of(gammas, d))))
    return _build_witness(d, gammas, alpha)


def first_witness(
    data: BranchData,
    bounds: SearchBounds | None = None,
    *,
    primitive: bool = True,
    first_row_reduced: bool = True,
) -> tuple[HurwitzWitness | None, bool]:
    """First connected nonorientable witness of the scan whose group is
    primitive, or imprimitive, as asked, and whether the scan met any
    connected nonorientable pair at all.

    Both answers come from one walk: a witness is itself a connected
    nonorientable pair, and a walk that finds none runs to the end.  With
    `first_row_reduced=False` the walk is the full enumeration of every
    class, and it finds the same pair the reduced walk finds (see
    `_walk_pairs`).
    """
    wanted = _PRIMITIVE if primitive else _IMPRIMITIVE
    connected = False
    for _, gammas, alpha, bucket, _ in _walk_pairs(data, bounds, first_row_reduced):
        if bucket == wanted:
            return _witness_of(data.degree, gammas, alpha), True
        connected = connected or bucket > _ORIENTABLE
    return None, connected


def find_primitive_witness(
    data: BranchData, bounds: SearchBounds | None = None
) -> HurwitzWitness | None:
    return first_witness(data, bounds)[0]


def find_imprimitive_witness(
    data: BranchData, bounds: SearchBounds | None = None
) -> HurwitzWitness | None:
    return first_witness(data, bounds, primitive=False)[0]


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

    The counts are `_walk_pairs`'s events, each adding w() * k pairs to its
    bucket, and `sample` is the pair of the first connected nonorientable
    event: the pair the full scan finds first.  `first_row_reduced=False`
    is the full enumeration of every class, the independent reference.
    """
    counts = [0] * 4
    sample = None
    for w, gammas, alpha, bucket, k in _walk_pairs(data, bounds, first_row_reduced):
        counts[bucket] += w() * k
        if sample is None and bucket > _ORIENTABLE:
            sample = _witness_of(data.degree, gammas, alpha)
    intrans, orient, imprim, prim = counts
    return TupleSurvey(
        degree=data.degree,
        rows=tuple(r.parts for r in data.rows),
        first_row_reduced=first_row_reduced,
        relation_pairs=sum(counts),
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
    if not admissible_defect(data.total_defect(), data.degree):
        return Classification(Verdict.NOT_ADMISSIBLE)
    witness, connected = first_witness(data, bounds)
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


def _walk_relabeling(pair, target, d):
    """Walk pair's first, second, first, ... involution from 1 and read a
    relabeling off the walk: `(closed_early, lam)`.

    `closed_early` is True when the walk returns to 1 before step d; the
    walk stops there and lam is None.  Otherwise lam sends the k-th point
    of the target's walk from 1 to the k-th point of the pair's walk; for
    the canonical target that walk is 1, 2, ..., d.  lam is None unless it
    is a bijection with conjugate(g, lam) == h for g, h of pair, target:
    a walk may repeat a point or pass every point of a pair that is not
    conjugate to the target.

    A pair of fixed-point-free involutions alternates along cycles of even
    length, and the walk first returns to 1 after the length of the cycle
    through 1.  So its walk closes early exactly when the pair is
    intransitive, and a transitive pair is one cycle through all d points.
    """
    p, q = pair
    s, t = target
    # lam[y] is the image of y; lam[0] stays 0, so lam also reads as a map
    # of 0..d fixing 0
    lam = [0] * (d + 1)
    x = y = 1
    # a p step and a q step per turn, each of which may close the walk;
    # then the last step, or the last two, of which only a p step may
    for _ in range((d - 1) // 2):
        lam[y] = x
        x = p[x - 1]
        if x == 1:
            return True, None
        y = s[y - 1]
        lam[y] = x
        x = q[x - 1]
        if x == 1:
            return True, None
        y = t[y - 1]
    lam[y] = x
    if not d % 2:
        x = p[x - 1]
        if x == 1:
            return True, None
        lam[s[y - 1]] = x
    # every entry lies in 0..d, so the d + 1 of them are distinct exactly
    # when lam is a bijection of 1..d
    if len(set(lam)) <= d:
        return False, None
    # conjugate(g, lam) == h, point by point: g(lam(i)) == lam(h(i)), with
    # g and h, like lam, fixing 0
    at_lam = itemgetter(*lam)
    for g, h in zip(pair, target):
        if at_lam((0, *g)) != itemgetter(0, *h)(lam):
            return False, None
    return False, tuple(lam[1:])


def _is_half_block(gens, half):
    """True iff each generator maps the d/2 points `half` onto themselves
    or onto their complement.

    For a set of half the points this decides whether it is a block:
    its translates are then itself and its complement, which never overlap.
    """
    inside = set(half)
    for g in gens:
        image = {g[x - 1] for x in half}
        if image != inside and not image.isdisjoint(inside):
            return False
    return True


def involution_pair_survey(
    d: int, bounds: SearchBounds | None = None
) -> InvolutionPairSurvey:
    """Check that every transitive involution pair looks like the canonical one.

    One alternating walk from 1 (`_walk_relabeling`) decides each ordered
    pair of fixed-point-free involutions: the pair is transitive exactly
    when the walk does not return to 1 before step d, so an intransitive
    pair costs only the length of its cycle through 1.  For each transitive
    pair: the product must be two d/2-cycles, the relabeling read off the
    walk must carry the pair onto the canonical pair, and the points it
    relabels as odd must form a block of the group the pair generates
    (`_is_half_block`).  Above `bounds.max_degree` the first involution is
    fixed (`first_fixed`).
    """
    bounds = bounds or SearchBounds()
    if d < 4 or d % 2:
        raise ValueError("need even degree at least 4")
    if d > bounds.max_degree + 2:
        raise BoundsExceededError(
            f"degree {d} exceeds pair-survey bound {bounds.max_degree + 2}"
        )
    first_fixed = d > bounds.max_degree
    half = d // 2
    cls = class_images(d, (2,) * half)
    canon = tuple(g.images for g in canonical_involution_pair(d))
    firsts = (canon[0],) if first_fixed else cls

    transitive_count = 0
    all_conj = True
    all_products = True
    all_blocks = True
    for pi in firsts:
        # reads the product of pi and a partner, pi first, off the partner
        then_partner = itemgetter(*[x - 1 for x in pi])
        for qi in cls:
            pair = (pi, qi)
            closed_early, lam = _walk_relabeling(pair, canon, d)
            if closed_early:
                continue
            transitive_count += 1
            if kernels.cycle_lengths(then_partner(qi)) != (half, half):
                all_products = False
            if lam is None:
                all_conj = False
                continue
            # the points lam relabels as 1, 3, ..., d-1
            if not _is_half_block(pair, lam[::2]):
                all_blocks = False

    if first_fixed:
        total = transitive_count * len(cls)
    else:
        total = transitive_count
    return InvolutionPairSurvey(
        degree=d,
        first_fixed=first_fixed,
        scanned_pairs=len(firsts) * len(cls),
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
