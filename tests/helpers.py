"""Shared brute-force references for the test suite.

Everything here is written for obviousness, not speed: full enumerations
of symmetric groups, subset scans for blocks, and so on.  Library results
are compared against these on small degrees.  The characters of S_d give
closed-form counts that the enumerations are checked against.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from collections import Counter
from fractions import Fraction

import pytest

from rp2cover.branch import BranchData, Partition, parse_branch_data
from rp2cover.oracle import _ORIENTABLE, SearchBounds, _walk_pairs
from rp2cover.perm import Permutation

# int() refuses strings of more decimal digits than this (0: no limit).
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_int_digit_limit = pytest.mark.skipif(
    INT_DIGITS == 0, reason="this Python has no int() digit limit"
)


def all_images(d):
    """Every image tuple of degree d."""
    return itertools.permutations(range(1, d + 1))


def all_perms(d):
    return [Permutation(t) for t in all_images(d)]


def random_perm(d, rng):
    return Permutation(tuple(rng.sample(range(1, d + 1), d)))


def random_partition(d, rng):
    rest, parts = d, []
    while rest:
        p = rng.randint(1, rest)
        parts.append(p)
        rest -= p
    return tuple(sorted(parts, reverse=True))


def partitions_of(d):
    """All partitions of d in reverse-lexicographic order."""
    out = []

    def rec(rest, mx, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for p in range(min(rest, mx), 0, -1):
            acc.append(p)
            rec(rest - p, p, acc)
            acc.pop()

    rec(d, d, [])
    return out


def nontrivial_partitions(d):
    return [p for p in partitions_of(d) if any(x > 1 for x in p)]


def admissible_data(degrees, max_rows):
    """Every admissible branch datum with the given degrees and row counts.

    Rows are multisets of non-trivial partitions; the order of rows never
    affects admissibility or realizability, so one representative per
    multiset is enough.
    """
    from rp2cover.branch import is_admissible

    out = []
    for d in degrees:
        parts = nontrivial_partitions(d)
        for s in range(1, max_rows + 1):
            for combo in itertools.combinations_with_replacement(parts, s):
                data = BranchData(d, tuple(Partition(c) for c in combo))
                if is_admissible(data).ok:
                    out.append(data)
    return out


def admissible_multisets(d, max_rows, max_defect):
    """Every admissible datum of degree d whose rows form a multiset of at
    most max_rows nontrivial partitions, of total defect at most max_defect;
    by row count, then in `combinations_with_replacement` order."""
    from rp2cover.branch import is_admissible

    rows = nontrivial_partitions(d)
    for s in range(1, max_rows + 1):
        for combo in itertools.combinations_with_replacement(rows, s):
            data = BranchData(d, tuple(Partition(p) for p in combo))
            if data.total_defect() > max_defect:
                continue
            if is_admissible(data).ok:
                yield data


def every_row_order(data_list):
    """Each datum in every distinct order of its rows."""
    seen = set()
    for data in data_list:
        for rows in itertools.permutations(data.rows):
            if rows not in seen:
                seen.add(rows)
                yield type(data)(data.degree, rows)


def data_of(text) -> BranchData:
    return parse_branch_data(text)


def brute_elements(gens, d, cap=100000):
    """Closure of image tuples under composition, as a set."""
    from rp2cover import kernels

    seen = {kernels.identity(d)}
    queue = list(seen)
    while queue:
        u = queue.pop()
        for g in gens:
            v = kernels.compose(u, g)
            if v not in seen:
                if len(seen) >= cap:
                    raise RuntimeError("closure too large for a brute check")
                seen.add(v)
                queue.append(v)
    return seen


def is_block_under(elements_imgs, subset):
    """True iff every translate of subset either equals or misses it."""
    b = frozenset(subset)
    for g in elements_imgs:
        image = frozenset(g[x - 1] for x in b)
        if image != b and image & b:
            return False
    return True


def brute_minimal_block(elements_imgs, d, x, y):
    """Smallest block containing x and y, by scanning all subsets.

    Only usable for small d.  The set of blocks containing a fixed pair is
    closed under intersection, so the minimum is unique.
    """
    best = tuple(range(1, d + 1))
    for r in range(2, d + 1):
        for subset in itertools.combinations(range(1, d + 1), r):
            if x not in subset or y not in subset:
                continue
            if len(subset) < len(best) and is_block_under(elements_imgs, subset):
                best = subset
    return tuple(best)


def brute_block_systems(gens, d):
    """Every partition of 1..d into equal blocks of 2..d-1 points that each
    generator maps block to block, as a set of label tuples: entry x is the
    least point of x's block, and entry 0 is 0.

    Lists every such partition of 1..d, so only usable for small d.
    """

    def partitions(points, size):
        if not points:
            yield []
            return
        first, rest = points[0], points[1:]
        for others in itertools.combinations(rest, size - 1):
            left = [x for x in rest if x not in others]
            for tail in partitions(left, size):
                yield [(first, *others), *tail]

    out = set()
    for size in range(2, d):
        if d % size:
            continue
        for blocks in partitions(list(range(1, d + 1)), size):
            block_sets = {frozenset(b) for b in blocks}
            if all(frozenset(g[x - 1] for x in b) in block_sets for g in gens for b in blocks):
                labels = [0] * (d + 1)
                for b in blocks:
                    for x in b:
                        labels[x] = b[0]
                out.add(tuple(labels))
    return out


def brute_closed_partition(gens, d, x, ys):
    """The least partition of 1..d that joins x with every point of ys and
    that each generator maps class to class, as labels: entry z is the
    least point of z's class, and entry 0 is 0.

    Merges the classes of g(u) and g(v) for every u, v of one class and
    every generator g until nothing changes.
    """
    labels = list(range(d + 1))

    def merge(u, v):
        a, b = sorted((labels[u], labels[v]))
        if a == b:
            return False
        for z in range(1, d + 1):
            if labels[z] == b:
                labels[z] = a
        return True

    for y in ys:
        merge(x, y)
    changed = True
    while changed:
        changed = False
        for g in gens:
            for u, v in itertools.combinations(range(1, d + 1), 2):
                if labels[u] == labels[v] and merge(g[u - 1], g[v - 1]):
                    changed = True
    return tuple(labels)


def brute_orbits(gens, d):
    """Orbit partition as a sorted tuple of sorted tuples."""
    reach = {x: {x} for x in range(1, d + 1)}
    changed = True
    while changed:
        changed = False
        for x in range(1, d + 1):
            for g in gens:
                for y in list(reach[x]):
                    if g[y - 1] not in reach[x]:
                        reach[x].add(g[y - 1])
                        changed = True
    seen = set()
    out = []
    for x in range(1, d + 1):
        rep = min(reach[x])
        if rep not in seen:
            seen.add(rep)
            out.append(tuple(sorted(reach[rep])))
    return tuple(out)


def stabilizer_is_maximal(G, x):
    """True iff the stabilizer S of x is a maximal subgroup of the transitive G.

    That is, S with any element g outside it adjoined generates all of G.
    The group <S, g> depends only on the S-orbit of x^g, so one g per
    S-orbit is tried.  Enumerates G, so only usable for small groups.
    """
    from rp2cover import kernels

    d = G.degree
    if not kernels.is_transitive(G.generator_images(), d):
        raise ValueError("group is not transitive")
    full = brute_elements(G.generator_images(), d)
    stab = [t for t in full if t[x - 1] == x]
    image_of_x = {t[x - 1]: t for t in full}
    return all(
        len(brute_elements(stab + [image_of_x[orbit[0]]], d)) == len(full)
        for orbit in brute_orbits(stab, d)
        if orbit != (x,)
    )


def class_size(d, parts):
    """Number of elements of S_d with cycle type parts."""
    return math.factorial(d) // math.prod(
        k**m * math.factorial(m) for k, m in Counter(parts).items()
    )


@functools.lru_cache(maxsize=None)
def _murnaghan_nakayama(beads, cycles):
    """The character of the partition with beta-set `beads` at the cycle
    type `cycles`: remove a rim hook of length cycles[0] in every way and
    recurse.  On the abacus a rim hook of length r is a bead moved from b
    down to the free position b - r, with sign (-1) ** (beads passed)."""
    if not cycles:
        return 1
    r, rest = cycles[0], cycles[1:]
    total = 0
    for b in beads:
        if b >= r and b - r not in beads:
            passed = sum(1 for c in beads if b - r < c < b)
            total += (-1) ** passed * _murnaghan_nakayama(beads - {b} | {b - r}, rest)
    return total


def character(lam, mu):
    """chi^lam(mu): the irreducible character of S_d indexed by the
    partition lam, at an element of cycle type mu, by the
    Murnaghan-Nakayama rule."""
    n = len(lam)
    beads = frozenset(p + n - 1 - i for i, p in enumerate(lam))
    return _murnaghan_nakayama(beads, tuple(mu))


def relation_tuple_count(d, rows):
    """Relation tuples with the first row pinned: the tuples
    (gamma_2, ..., gamma_s, alpha) with gamma_i of cycle type rows[i-1]
    and gamma_1 gamma_2 ... gamma_s alpha^2 = 1, for one fixed gamma_1 of
    cycle type rows[0].

    It is sum over chi of chi(c_1) prod_{i>=2} |C_i| chi(c_i) / chi(1).
    Summing chi(x g) over g in a class C gives |C| chi(c) chi(x) / chi(1),
    and every character of S_d is real, so an element h has
    sum over chi of chi(h) square roots (Frobenius-Schur).
    """
    total = Fraction(0)
    for lam in partitions_of(d):
        term = Fraction(character(lam, rows[0]))
        dim = character(lam, (1,) * d)
        for parts in rows[1:]:
            term *= Fraction(class_size(d, parts) * character(lam, parts), dim)
        total += term
    if total.denominator != 1:
        raise ArithmeticError(f"non-integral relation count {total}")
    return int(total)


@functools.lru_cache(maxsize=None)
def pair_product_count(d, a, b, p):
    """Pairs (x, y), x of cycle type a and y of type b, whose product xy is
    one fixed z of cycle type p.

    It is |A| |B| / d! times the sum over chi of
    chi(a) chi(b) chi(p) / chi(1) (Frobenius), every character of S_d
    being real.
    """
    total = Fraction(0)
    for lam in partitions_of(d):
        total += Fraction(
            character(lam, a) * character(lam, b) * character(lam, p),
            character(lam, (1,) * d),
        )
    total *= Fraction(class_size(d, a) * class_size(d, b), math.factorial(d))
    if total.denominator != 1:
        raise ArithmeticError(f"non-integral pair count {total}")
    return int(total)


def transitive_pair_count(d, a, b, p):
    """The pairs of `pair_product_count` that generate a transitive group,
    for a product of type [d] or [d-1, 1].

    Every orbit is a union of cycles of the product.  So with a d-cycle as
    product every pair is transitive.  With a [d-1, 1] product z a pair is
    intransitive exactly when x and y both fix z's fixed point; on the
    other d - 1 points they are then a pair of the types a and b less one
    1-cycle each, with a (d-1)-cycle as product.
    """
    a, b, p = (tuple(sorted(t, reverse=True)) for t in (a, b, p))
    count = pair_product_count(d, a, b, p)
    if p == (d,):
        return count
    if p != (d - 1, 1):
        raise ValueError(f"no transitive count for product type {list(p)}")
    if a[-1] == 1 and b[-1] == 1:
        count -= pair_product_count(d - 1, a[:-1], b[:-1], (d - 1,))
    return count


def exists_realization(
    data: BranchData,
    bounds: SearchBounds | None = None,
    *,
    first_row_reduced: bool = True,
) -> bool:
    """Is there any connected witness with a nonorientable covering surface?"""
    return any(
        bucket > _ORIENTABLE
        for _, _, _, bucket, _ in _walk_pairs(data, bounds, first_row_reduced)
    )
