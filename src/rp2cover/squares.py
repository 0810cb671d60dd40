"""Squares and square roots in symmetric groups.

A permutation is a square iff it has an even number of cycles of every
even length.  Roots are built cycle-wise: an odd cycle has exactly one
root supported on its own points, and two cycles of a common length r can
be interleaved into a 2r-cycle in r distinct ways.  Enumerating the ways
of pairing up equal-length cycles (all even-length cycles must pair,
odd-length ones may) yields every square root exactly once.
"""

from __future__ import annotations

from typing import Sequence

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

    Odd cycles take their unique self-supported root; even cycles of each
    length are paired in order of minimal element and interleaved.

    >>> from .perm import parse_permutation
    >>> str(sqrt(parse_permutation("(1 2)(3 4)", 4)))
    '(1 3 2 4)'
    """
    if not is_square(p):
        return None
    by_len: dict[int, list[tuple[int, ...]]] = {}
    for c in p.cycles():
        by_len.setdefault(len(c), []).append(c)
    root_cycles = []
    for n in sorted(by_len):
        group = by_len[n]
        if n % 2 == 1:
            for c in group:
                if n > 1:
                    root_cycles.append(_root_cycle_odd(c))
        else:
            for i in range(0, len(group), 2):
                root_cycles.append(_interleave(group[i], group[i + 1], 0))
    return Permutation.from_cycles(p.degree, root_cycles)


def all_square_roots(p: Permutation, cap: int | None = None) -> list[Permutation]:
    """Every permutation whose square is p, in a deterministic order.

    Enumerates pairings per cycle length (even lengths must pair fully,
    odd lengths pair optionally) and, for each pair, every interleaving
    offset.  Raises RootCapExceeded when more than cap roots exist.

    >>> from .perm import identity
    >>> len(all_square_roots(identity(3)))
    4
    """
    if not is_square(p):
        return []
    by_len: dict[int, list[tuple[int, ...]]] = {}
    for c in p.cycles():
        by_len.setdefault(len(c), []).append(c)

    lengths = sorted(by_len)
    roots: list[Permutation] = []
    chosen: list[tuple[int, ...]] = []

    def emit():
        if cap is not None and len(roots) >= cap:
            raise RootCapExceeded(f"more than {cap} square roots")
        roots.append(Permutation.from_cycles(p.degree, list(chosen)))

    def per_length(li: int):
        if li == len(lengths):
            emit()
            return
        n = lengths[li]
        group = by_len[n]
        allow_single = n % 2 == 1

        def assemble(remaining: tuple[int, ...]):
            if not remaining:
                per_length(li + 1)
                return
            first = remaining[0]
            rest = remaining[1:]
            if allow_single:
                c = group[first]
                if n > 1:
                    chosen.append(_root_cycle_odd(c))
                    assemble(rest)
                    chosen.pop()
                else:
                    assemble(rest)
            for j, other in enumerate(rest):
                tail = rest[:j] + rest[j + 1 :]
                for offset in range(n):
                    chosen.append(_interleave(group[first], group[other], offset))
                    assemble(tail)
                    chosen.pop()

        assemble(tuple(range(len(group))))

    per_length(0)
    return roots
