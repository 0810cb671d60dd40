"""Squares and square roots in symmetric groups.

A permutation is a square iff it has an even number of cycles of every
even length.  Roots are built cycle-wise: an odd cycle has exactly one
root supported on its own points, and two cycles of a common length r can
be interleaved into a 2r-cycle in r distinct ways.  Enumerating the ways
of pairing up equal-length cycles (all even-length cycles must pair,
odd-length ones may) yields every square root exactly once.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from . import kernels
from .perm import Permutation


class RootCapExceeded(RuntimeError):
    """Square-root enumeration would exceed the requested cap."""


def is_square(p: Permutation) -> bool:
    """True iff some permutation of the same degree squares to p.

    >>> from .perm import parse_permutation
    >>> is_square(parse_permutation("(1 2)(3 4)", 4))
    True
    >>> is_square(parse_permutation("(1 2)", 4))
    False
    """
    return kernels.is_square_type(p.images)


def _root_cycle_odd(cycle: Sequence[int]) -> tuple[int, ...]:
    """Point order of the root of an odd cycle; see `sqrt_odd_cycle`."""
    r = len(cycle)
    h = (r + 1) // 2
    return tuple(cycle[k // 2] if k % 2 == 0 else cycle[h + k // 2] for k in range(r))


def sqrt_odd_cycle(cycle: Sequence[int], degree: int) -> Permutation:
    """The unique root of an odd cycle supported on the same points.

    For the cycle (a_1 ... a_r) with r odd and h = (r+1)/2 the root is
    (a_1 a_{h+1} a_2 a_{h+2} ... a_r a_h): stepping it twice advances one
    position along the original cycle.

    >>> str(sqrt_odd_cycle((1, 2, 3, 4, 5), 5))
    '(1 4 2 5 3)'
    """
    if len(cycle) % 2 == 0:
        raise ValueError(f"cycle length {len(cycle)} is even")
    return Permutation.from_cycles(degree, [_root_cycle_odd(cycle)])


def _interleave(a: Sequence[int], b: Sequence[int], offset: int) -> tuple[int, ...]:
    """2r-cycle whose square is the pair of r-cycles a and b.

    b enters shifted by offset; the r offsets give the r distinct roots
    supported on these points.
    """
    r = len(a)
    out = []
    for i in range(r):
        out.append(a[i])
        out.append(b[(offset + i) % r])
    return tuple(out)


def sqrt(p: Permutation) -> Permutation | None:
    """A canonical square root, or None when p is not a square.

    This is the first root of `iter_square_roots`: odd cycles take their
    unique self-supported root; even cycles of each length are paired in
    order of minimal element and interleaved.

    >>> from .perm import parse_permutation
    >>> str(sqrt(parse_permutation("(1 2)(3 4)", 4)))
    '(1 3 2 4)'
    """
    return next(iter_square_roots(p), None)


def iter_square_roots(p: Permutation) -> Iterator[Permutation]:
    """Every permutation whose square is p, lazily, in a deterministic order.

    The roots are those of `iter_root_images`, in its order.

    >>> [str(r) for r in iter_square_roots(Permutation.from_cycles(4, [(1, 2), (3, 4)]))]
    ['(1 3 2 4)', '(1 4 2 3)']
    """
    for images in iter_root_images(p.images):
        yield Permutation(images)


def iter_root_images(p: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Image tuples of every square root of the image tuple p, lazily.

    Cycle lengths are taken in ascending order, the first varying slowest.
    Within one length the first unplaced cycle either takes its own root
    (odd lengths only) or pairs with a later cycle of that length, at each
    interleaving offset in turn.  The search keeps its own stack, so the
    number of cycles does not meet the recursion limit, and a caller that
    stops early pays only for the roots it drew.  Each choice writes the
    images of the points it places; a complete root places every point,
    so what earlier branches wrote is always overwritten.

    >>> list(iter_root_images((2, 1, 4, 3)))
    [(3, 4, 2, 1), (4, 3, 1, 2)]
    """
    if not kernels.is_square_type(p):
        return
    by_len: dict[int, list[tuple[int, ...]]] = {}
    for c in kernels.cycles_of(p):
        by_len.setdefault(len(c), []).append(c)
    lengths = sorted(by_len)
    images = list(p)
    # frame: [length index, indices of the cycles of that length still to
    # place, next option to try]
    stack: list[list] = []

    def enter(li: int, remaining: tuple[int, ...]) -> bool:
        """Push the next choice point; False when every cycle is placed."""
        while not remaining:
            li += 1
            if li == len(lengths):
                return False
            remaining = tuple(range(len(by_len[lengths[li]])))
        stack.append([li, remaining, 0])
        return True

    enter(0, tuple(range(len(by_len[lengths[0]]))))
    while stack:
        frame = stack[-1]
        li, remaining, option = frame
        n = lengths[li]
        group = by_len[n]
        single = n % 2
        first, rest = remaining[0], remaining[1:]
        if option == single + len(rest) * n:
            stack.pop()
            continue
        frame[2] = option + 1
        if option < single:
            cycle = _root_cycle_odd(group[first])
            tail = rest
        else:
            j, offset = divmod(option - single, n)
            cycle = _interleave(group[first], group[rest[j]], offset)
            tail = rest[:j] + rest[j + 1 :]
        prev = cycle[-1]
        for x in cycle:
            images[prev - 1] = x
            prev = x
        if not enter(li, tail):
            yield tuple(images)


def all_square_roots(p: Permutation, cap: int | None = None) -> list[Permutation]:
    """Every permutation whose square is p, in the order of `iter_square_roots`.

    Raises RootCapExceeded when more than cap roots exist.

    >>> len(all_square_roots(Permutation.identity(3)))
    4
    """
    roots: list[Permutation] = []
    for root in iter_square_roots(p):
        if cap is not None and len(roots) >= cap:
            raise RootCapExceeded(f"more than {cap} square roots")
        roots.append(root)
    return roots
