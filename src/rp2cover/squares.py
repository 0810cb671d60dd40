"""Squares and square roots in symmetric groups.

A permutation is a square iff it has an even number of cycles of every
even length.  Roots are built cycle-wise: an odd cycle has exactly one
root supported on its own points, and two cycles of a common length r can
be interleaved into a 2r-cycle in r distinct ways.  Enumerating the ways
of pairing up equal-length cycles (all even-length cycles must pair,
odd-length ones may) yields every square root exactly once.

`iter_root_images` is the one enumeration behind `sqrt`,
`all_square_roots` and the oracle's scans.  It walks the permutation once,
grouping its cycles by length, and reads the square test off those
groups.  The roots come in a fixed order: lengths ascending, the first
varying slowest, and within a length the pairings and offsets in turn.
Each choice is written into one image list straight from the cycles.  The
search keeps an explicit stack and yields each root as it completes, so
a caller that stops early pays only for what it drew.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import islice
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


def sqrt(p: Permutation) -> Permutation | None:
    """A canonical square root, or None when p is not a square.

    This is the first root of `iter_root_images`: odd cycles take their
    unique self-supported root; even cycles of each length are paired in
    order of minimal element and interleaved.

    >>> from .perm import parse_permutation
    >>> str(sqrt(parse_permutation("(1 2)(3 4)", 4)))
    '(1 3 2 4)'
    """
    root = next(iter_root_images(p.images), None)
    return None if root is None else Permutation(root)


def iter_root_images(p: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Image tuples of every square root of the image tuple p, lazily.

    One walk of p finds its cycles, each from its least point, and groups
    them by length; p is a square iff every even length has an even number
    of cycles.  Cycle lengths are then taken in ascending order, the first
    varying slowest.  Within one length the first unplaced cycle either
    takes its own root (odd lengths only) or pairs with a later cycle of
    that length, at each interleaving offset in turn.  A length held by one
    odd cycle has a single choice, written once before the search, and an
    odd cycle left alone at the end of its length takes its own root without
    a stack frame; neither changes the order.  Each choice writes the images
    of the points it places straight into one image list, and a complete
    root places every point, so what earlier branches wrote is always
    overwritten.  The search keeps its own stack, so the number of cycles
    does not meet the recursion limit, and a caller that stops early pays
    only for the roots it drew.

    >>> list(iter_root_images((2, 1, 4, 3)))
    [(3, 4, 2, 1), (4, 3, 1, 2)]
    """
    # a fixed point is kept as its point, any other cycle as a list
    q = [0, *p]
    by_len: dict[int, list] = {}
    for s in range(1, len(q)):
        x = q[s]
        if not x:
            continue
        if x == s:
            n, cycle = 1, s
        else:
            cycle = [s]
            while x != s:
                cycle.append(x)
                q[x], x = 0, q[x]
            n = len(cycle)
        by_len.setdefault(n, []).append(cycle)
    images = list(p)
    lengths = []
    for n, cycles in by_len.items():
        if not n % 2 and len(cycles) % 2:
            return
        h = (n + 1) // 2
        if len(cycles) > 1:
            lengths.append(n)
            if n > 1:
                # the cycle a, a rotated by one, and a's own root: a_i maps
                # to a_(i+h), since 2h = n + 1 (odd n only)
                by_len[n] = [(a, a[1:] + a[:1], a[h:] + a[:h]) for a in cycles]
        elif n > 1:
            a = cycles[0]
            for x, y in zip(a, a[h:] + a[:h]):
                images[x - 1] = y
    if not lengths:
        yield tuple(images)
        return
    lengths.sort()
    groups = [by_len[n] for n in lengths]
    last = len(lengths) - 1
    # frame: [next option, length index, cycles of that length still to place]
    stack = [[0, 0, groups[0]]]
    while stack:
        frame = stack[-1]
        option, li, remaining = frame
        n = lengths[li]
        if n == 1:
            a = remaining[0]
            if not option:
                images[a - 1] = a
                tail = remaining[1:]
            elif option == len(remaining):
                stack.pop()
                continue
            else:
                b = remaining[option]
                images[a - 1] = b
                images[b - 1] = a
                tail = remaining[1:option] + remaining[option + 1 :]
        else:
            a, a1, half = remaining[0]
            if option < n % 2:
                for x, y in zip(a, half):
                    images[x - 1] = y
                tail = remaining[1:]
            else:
                # a_i maps to b_(i+offset), which maps to a_(i+1)
                k, offset = divmod(option - n % 2, n)
                k += 1
                if k == len(remaining):
                    stack.pop()
                    continue
                b = remaining[k][0]
                b = b[offset:] + b[:offset]
                for x, y in zip(a, b):
                    images[x - 1] = y
                for x, y in zip(b, a1):
                    images[x - 1] = y
                tail = remaining[1:k] + remaining[k + 1 :]
        frame[0] = option + 1
        while True:
            if len(tail) > 1:
                stack.append([0, li, tail])
                break
            if tail:
                # a lone cycle is odd, and takes its own root
                if n == 1:
                    images[tail[0] - 1] = tail[0]
                else:
                    a, _, half = tail[0]
                    for x, y in zip(a, half):
                        images[x - 1] = y
            if li == last:
                yield tuple(images)
                break
            li += 1
            tail = groups[li]
            n = lengths[li]


def root_count(parts: Sequence[int]) -> int:
    """The number of square roots of a permutation of cycle type parts.

    It is a product over the cycle lengths r, with m the number of
    r-cycles.  A root pairs some of them, 2j say, in (2j - 1)!! ways,
    interleaves each pair in r ways, and gives each cycle left over its
    own root, which only an odd cycle has.  So an odd r counts
    sum over j of C(m, 2j) (2j - 1)!! r^j, and an even r counts
    (m - 1)!! r^(m/2) when m is even and 0 when it is odd.

    >>> root_count((1, 1, 1))
    4
    >>> root_count((2, 2)), root_count((2, 1, 1))
    (2, 0)
    """
    total = 1
    for r, m in Counter(parts).items():
        if r % 2:
            total *= sum(
                math.comb(m, 2 * j) * _pairings(j) * r**j for j in range(m // 2 + 1)
            )
        elif m % 2:
            return 0
        else:
            total *= _pairings(m // 2) * r ** (m // 2)
    return total


def _pairings(j: int) -> int:
    """(2j - 1)!!: the ways to split 2j things into j pairs."""
    return math.factorial(2 * j) // (2**j * math.factorial(j))


def min_root_cycles(parts: Sequence[int]) -> int:
    """The fewest cycles a square root of a square of cycle type parts has.

    Each cycle of a root is one cycle of the square, or two of a common
    length interleaved, so a root with the most pairs has, per length r
    with m r-cycles, ceil(m / 2) of them.

    >>> min_root_cycles((3, 1, 1, 1))
    3
    """
    return sum((m + 1) // 2 for m in Counter(parts).values())


def all_square_roots(p: Permutation, cap: int | None = None) -> list[Permutation]:
    """Every permutation whose square is p, in the order of `iter_root_images`.

    Raises RootCapExceeded when more than cap roots exist.

    >>> len(all_square_roots(Permutation.identity(3)))
    4
    """
    return list(map(Permutation, _root_images(p.images, cap)))


def _root_images(p: tuple[int, ...], cap: int | None) -> tuple[tuple[int, ...], ...]:
    """The roots of `iter_root_images(p)`; raises RootCapExceeded when
    more than cap exist."""
    roots = tuple(islice(iter_root_images(p), None if cap is None else cap + 1))
    if cap is not None and len(roots) > cap:
        raise RootCapExceeded(f"more than {cap} square roots")
    return roots
