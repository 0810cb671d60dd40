"""Permutations of {1, ..., d} with left-to-right composition.

A permutation is stored by its image tuple: entry i is the image of point
i+1.  Products act left first, so x^(pq) = (x^p)^q and p * q means
"apply p, then q".  Conjugation is lam * p * lam^-1, which relabels the
cycles of p by lam^-1 and therefore preserves cycle type.

Text form is disjoint cycle notation such as "(1 2)(3 4)"; fixed points
may be omitted and the identity prints as "()".
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter
from typing import Iterable, Sequence

from . import kernels


@dataclass(frozen=True)
class Permutation:
    """Bijection of {1, ..., d} given by its image tuple.

    >>> p = Permutation.from_cycles(4, [(1, 2), (3, 4)])
    >>> q = Permutation.from_cycles(4, [(2, 3), (4, 1)])
    >>> str(p * q)
    '(1 3)(2 4)'
    """

    images: tuple[int, ...]

    def __post_init__(self):
        d = len(self.images)
        if d < 1:
            raise ValueError("degree must be at least 1")
        seen = [False] * (d + 1)
        for v in self.images:
            if not isinstance(v, int) or not 1 <= v <= d or seen[v]:
                raise ValueError(f"not a bijection of 1..{d}: {self.images!r}")
            seen[v] = True

    @classmethod
    def identity(cls, d: int) -> Permutation:
        return cls(kernels.identity(d))

    @classmethod
    def from_cycles(cls, d: int, cycles: Iterable[Sequence[int]]) -> Permutation:
        """Build a permutation of degree d from disjoint cycles.

        >>> str(Permutation.from_cycles(5, [(1, 2, 3)]))
        '(1 2 3)'
        """
        images = list(range(1, d + 1))
        used = set()
        for cyc in cycles:
            for x in cyc:
                if not 1 <= x <= d:
                    raise ValueError(f"point {x} outside 1..{d}")
                if x in used:
                    raise ValueError(f"point {x} appears in two cycles")
                used.add(x)
            for i, x in enumerate(cyc):
                images[x - 1] = cyc[(i + 1) % len(cyc)]
        return cls(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def apply(self, x: int) -> int:
        """Image of the point x."""
        return self.images[x - 1]

    def __mul__(self, other: Permutation) -> Permutation:
        """Apply self first, then other.

        >>> r = Permutation.from_cycles(3, [(1, 2, 3)])
        >>> str(r * r)
        '(1 3 2)'
        """
        if self.degree != other.degree:
            raise ValueError(
                f"degree mismatch: {self.degree} != {other.degree}"
            )
        return Permutation(kernels.compose(self.images, other.images))

    def inverse(self) -> Permutation:
        return Permutation(kernels.inverse(self.images))

    def conjugate(self, lam: Permutation) -> Permutation:
        """lam * self * lam^-1; has the same cycle type as self."""
        if self.degree != lam.degree:
            raise ValueError(
                f"degree mismatch: {self.degree} != {lam.degree}"
            )
        return Permutation(kernels.conjugate(self.images, lam.images))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles including fixed points, each starting at its
        minimal point, ordered by that point."""
        return kernels.cycles_of(self.images)

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths in non-increasing order (a partition of the degree)."""
        return kernels.cycle_lengths(self.images)

    def defect(self) -> int:
        """Degree minus number of cycles; additive over cycles as sum of
        (length - 1)."""
        return self.degree - len(self.cycles())

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))

    def __str__(self) -> str:
        return format_cycles(self)

    def __repr__(self) -> str:
        return f"Permutation({self.images!r})"


def canonical_of_type(d: int, parts: Sequence[int]) -> Permutation:
    """Representative of a cycle type with cycles on consecutive points.

    Parts are laid out in non-increasing order starting at 1.

    >>> str(canonical_of_type(6, (3, 2, 1)))
    '(1 2 3)(4 5)'
    """
    if sum(parts) != d or min(parts, default=1) < 1:
        raise ValueError(f"parts {list(parts)} are no cycle type of degree {d}")
    images: list[int] = []
    for n in sorted(parts, reverse=True):
        # the cycle (start ... start+n-1): each point to the next, the last back
        start = len(images) + 1
        images += range(start + 1, start + n)
        images.append(start)
    return Permutation(tuple(images))


def format_cycles(p: Permutation) -> str:
    """Cycle notation with fixed points omitted; identity prints as "()"."""
    parts = [c for c in p.cycles() if len(c) > 1]
    if not parts:
        return "()"
    return "".join("(" + " ".join(str(x) for x in c) + ")" for c in parts)


_ECHO_PREFIX = 80


def _echo(text: str) -> str:
    """`text` quoted for an error message; a long text only by its start."""
    if len(text) <= _ECHO_PREFIX:
        return repr(text)
    return f"{text[:_ECHO_PREFIX]!r}... ({len(text)} characters)"


def _echo_point(x: int) -> str:
    """The integer `x` for an error message; a long one only by its first
    digits, and one too long for `str` by that limit."""
    try:
        digits = str(x)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        return f"(more than {sys.get_int_max_str_digits()} digits)"
    if len(digits) <= _ECHO_PREFIX:
        return digits
    return f"{digits[:_ECHO_PREFIX]}... ({len(digits)} digits)"


# The point named by each plain decimal text: "k" -> k for k = 1 .. n, with
# n = len(_POINTS).  Built per call it would cost more than it saves, so
# every call shares it.  A call extends it to min(degree, length of its
# text), so it never holds more points than the longest text read had
# characters.  It only grows, and only by these fixed entries, so callers
# on several threads can at worst add the same entries twice.
_POINTS: dict[str, int] = {}


def _point_table(n: int) -> dict[str, int]:
    """`_POINTS`, extended to hold at least the points 1..n."""
    k = len(_POINTS)
    if k < n:
        new = range(k + 1, n + 1)
        _POINTS.update(zip(map(str, new), new))
    return _POINTS


# The largest degree `parse_permutation` builds.  A degree is the length of
# the image tuple, so a larger claim is refused before that tuple is made:
# 10**7 points already take hundreds of megabytes.
MAX_DEGREE = 10**7


def parse_permutation(text: str, degree: int) -> Permutation:
    """Parse cycle notation; the degree is supplied by the caller.

    A point is a token of decimal digits (`str.isdecimal`); tokens are
    separated by spaces or commas.  A token is looked up in a table of the
    plain decimal texts of 1, 2, ..., which every call shares and extends
    to min(degree, length of the text) points.

    Two readers share this work.  The recognizer `_recognize` takes the
    layout `format_cycles` writes, cycles side by side with nothing between
    them, and reads all of its tokens at once: it declines any text that
    has something between two cycles, an empty cycle, a token the table
    lacks, a repeated or out-of-range point or a bad degree.  Every text it
    declines goes to the scanner `_scan`, which walks it cycle by cycle and
    is the only reader that reports a fault, so every message and position
    is the scanner's whatever the layout.

    The scanner reads a token the table lacks (a leading zero, a non-ASCII
    digit, 0 or a point past the table) by `int`.  It reads the whole text
    before it checks any point: a set of the points finds a repeat, and a
    point from the table is at least 1 and at most the table's end.  Only a
    text that fails these checks is walked point by point, to name its
    first out-of-range or repeated point; a malformed cycle anywhere in the
    text is reported before either.  A point longer than
    `sys.get_int_max_str_digits()` is reported as an integer too long, and
    a message quotes a long text by its first 80 characters, a long point
    or degree by its first 80 digits, and a degree too long for `str` by
    that limit.  A degree above `MAX_DEGREE` is refused before any image
    list is built.

    Both readers' checks prove the result a bijection, so it is built
    without `Permutation`'s own check.

    >>> parse_permutation("(1 2)(3 4)", 5).images
    (2, 1, 4, 3, 5)
    """
    s = text.strip()
    table = _point_table(min(degree, len(s)))
    images = _recognize(s, table, degree)
    if images is None:
        images = _scan(text, s, table, degree)
    p = object.__new__(Permutation)
    p.__dict__["images"] = tuple(images[1:])
    return p


def _recognize(s: str, table: dict[str, int], degree: int) -> list[int] | None:
    """The images of the stripped text `s` (the image of x at index x), or
    None when `s` is not a faultless text in the layout `format_cycles`
    writes.

    `s` opens with "(" and closes with ")", and its pieces between ")(" are
    as many as its "(" and as its ")", so no piece holds a parenthesis and
    nothing stands between two cycles.  Each piece is one cycle's tokens.
    """
    if s[:1] != "(" or s[-1:] != ")" or not 1 <= degree <= MAX_DEGREE:
        return None
    pieces = s[1:-1].replace(",", " ").split(")(")
    if not len(pieces) == s.count("(") == s.count(")"):
        return None
    cycles = list(map(str.split, pieces))
    point = table.__getitem__
    try:
        firsts = list(map(point, map(itemgetter(0), cycles)))
        lasts = list(map(point, map(itemgetter(-1), cycles)))
        points = list(map(point, chain.from_iterable(cycles)))
    except (IndexError, KeyError):  # an empty cycle, or a token the table lacks
        return None
    # a point from the table lies in 1..len(table)
    if (len(table) > degree and max(points) > degree) or len(set(points)) < len(points):
        return None
    images = list(range(degree + 1))
    # each point to the next in text order, then each cycle's last to its first
    for x, y in zip(points, islice(points, 1, None)):
        images[x] = y
    for x, y in zip(lasts, firsts):
        images[x] = y
    return images


def _scan(text: str, s: str, table: dict[str, int], degree: int) -> list[int]:
    """The images of the stripped text `s`, read cycle by cycle (the image
    of x at index x); the first fault of `text` is a ValueError."""
    point = table.__getitem__
    from_table = True  # every point was looked up in the table
    points = []  # each point, in text order
    nexts = []  # the point after it in its cycle
    i = 0
    n = 0 if s == "()" else len(s)
    while i < n:
        if s[i].isspace():
            i += 1
            continue
        if s[i] != "(":
            raise ValueError(f"expected '(' at position {i} in {_echo(text)}")
        j = s.find(")", i)
        if j < 0:
            raise ValueError(f"unclosed cycle at position {i} in {_echo(text)}")
        body = s[i + 1 : j].replace(",", " ").split()
        if not body:
            raise ValueError(f"empty cycle at position {i} in {_echo(text)}")
        try:
            cycle = list(map(point, body))
        except KeyError:
            cycle = _int_points(body, i, text)
            from_table = False
        points += cycle
        nexts += cycle[1:]
        nexts.append(cycle[0])
        i = j + 1
    # a point from the table lies in 1..len(table), and the table only grows
    in_range = (
        (from_table and len(table) <= degree)
        or not points
        or (1 <= min(points) and max(points) <= degree)
    )
    if not in_range or len(set(points)) < len(points):
        raise ValueError(_first_fault(points, degree))
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if degree > MAX_DEGREE:
        raise ValueError(
            f"degree {_echo_point(degree)} exceeds the largest supported degree, {MAX_DEGREE}"
        )
    images = list(range(degree + 1))  # images[x] is the image of x
    for x, y in zip(points, nexts):
        images[x] = y
    return images


def _int_points(body: list[str], i: int, text: str) -> list[int]:
    """The points of a cycle some of whose tokens the table lacks."""
    if not "".join(body).isdecimal():
        raise ValueError(f"non-integer point in cycle at position {i} in {_echo(text)}")
    try:
        return list(map(int, body))
    except ValueError:
        # more digits than sys.get_int_max_str_digits() allows
        digits = max(map(len, body))
        raise ValueError(
            f"integer too long ({digits} digits) in cycle at position {i} in {_echo(text)}"
        ) from None


def _first_fault(points: list[int], degree: int) -> str:
    """Why `points`, in text order, are not distinct points of 1..degree:
    the first point out of range or met before."""
    seen = set()
    for x in points:
        if not 1 <= x <= degree:
            return f"point {_echo_point(x)} outside 1..{_echo_point(degree)}"
        if x in seen:
            return f"point {x} appears in two cycles"
        seen.add(x)
    raise AssertionError("no faulty point")
