"""Branch data over the projective plane.

Branch data of degree d is a finite collection of non-trivial partitions
of d, one partition per branch point, recording the local degrees of the
covering above it.  The defect of a partition is sum(part - 1); branch
data is admissible when the total defect nu satisfies

    d - 1 <= nu  and  nu even,

in which case the covering surface has Euler characteristic d - nu.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Iterable, NamedTuple


class ParseError(ValueError):
    """Invalid branch data text; position is a 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Partition:
    """Partition of a positive integer, parts stored in non-increasing order."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = self.parts
        if not parts:
            raise ValueError("partition must have at least one part")
        if not all(isinstance(p, int) for p in parts) or min(parts) < 1:
            raise ValueError(f"parts must be positive integers: {parts!r}")
        if sorted(parts, reverse=True) != list(parts):
            raise ValueError(f"parts must be non-increasing: {parts!r}")

    @classmethod
    def of(cls, parts: Iterable[int]) -> Partition:
        return cls(tuple(sorted(parts, reverse=True)))

    @property
    def degree(self) -> int:
        return sum(self.parts)

    @property
    def nu(self) -> int:
        """Defect: sum of (part - 1), equal to degree minus number of parts."""
        return self.degree - len(self.parts)

    def is_trivial(self) -> bool:
        """All parts equal to 1 (no actual branching)."""
        return self.parts[0] == 1

    def is_all_twos(self) -> bool:
        # the parts are non-increasing, so the first and last bound them all
        return self.parts[0] == 2 == self.parts[-1]

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self.parts)) + "]"


@dataclass(frozen=True)
class BranchData:
    """Degree plus one non-trivial partition of the degree per branch point."""

    degree: int
    rows: tuple[Partition, ...]

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be positive")
        if not self.rows:
            raise ValueError("at least one row is required")
        for i, row in enumerate(self.rows):
            if row.degree != self.degree:
                raise ValueError(
                    f"row {i + 1} sums to {row.degree}, expected {self.degree}"
                )
            if row.is_trivial():
                raise ValueError(f"row {i + 1} is trivial (all parts 1)")

    @property
    def rows_count(self) -> int:
        return len(self.rows)

    def total_defect(self) -> int:
        # every row sums to the degree, so sum(row.nu) is d*s - sum(len(parts))
        return self.degree * len(self.rows) - sum([len(r.parts) for r in self.rows])

    def all_rows_all_twos(self) -> bool:
        return all(row.is_all_twos() for row in self.rows)

    def to_text(self) -> str:
        rows = "],[".join([",".join(map(str, r.parts)) for r in self.rows])
        return f"d={self.degree}; [{rows}]"

    def __str__(self) -> str:
        return self.to_text()


class Admissibility(NamedTuple):
    ok: bool
    reason: str


def admissible_defect(nu: int, d: int) -> bool:
    """The admissibility rule: total defect nu even and at least d - 1."""
    return nu % 2 == 0 and nu >= d - 1


def is_admissible(data: BranchData) -> Admissibility:
    """`admissible_defect` of the data; the reason states which side failed.

    >>> is_admissible(parse_branch_data("d=4; [2,2]")).ok
    False
    >>> is_admissible(parse_branch_data("d=4; [2,2],[2,2]")).ok
    True
    """
    nu = data.total_defect()
    d = data.degree
    if admissible_defect(nu, d):
        return Admissibility(True, f"total defect {nu} is even and at least d-1={d - 1}")
    if nu % 2 != 0:
        return Admissibility(False, f"total defect {nu} is odd")
    return Admissibility(False, f"total defect {nu} is below d-1={d - 1}")


def euler_char_covering(data: BranchData) -> int:
    """Euler characteristic of the covering surface, d - nu.

    Only meaningful for admissible data; raises otherwise.
    """
    adm = is_admissible(data)
    if not adm.ok:
        raise ValueError(f"branch data not admissible: {adm.reason}")
    return data.degree - data.total_defect()


_ROW = r"\[\s*\d+(?:\s*,\s*\d+)*\s*\]"
# In a str pattern \d and \s are str.isdecimal and str.isspace, as in `_scan`.
_LINE = re.compile(rf"\s*d\s*=\s*(\d+)\s*;\s*({_ROW}(?:\s*,\s*{_ROW})*)\s*")


def parse_branch_data(text: str) -> BranchData:
    """Parse "d=<int>; [a,b,...],[c,...]" into branch data.

    Whitespace is ignored between tokens, and any Unicode decimal digits
    are read.  Raises ParseError with a character position on syntax
    errors, integers too long for int(), parts below 1, rows not summing
    to the degree, and trivial rows.

    Text the recognizer `_LINE` accepts is split and converted at C
    level; only rejected text, or an integer int() refuses, goes through
    the scanner `_scan`, which finds the position of the error.
    """
    match = _LINE.fullmatch(text)
    if match is None:
        return _scan(text)
    try:
        degree = int(match[1])
        rows = [
            list(map(int, row.split(",")))
            for row in "".join(match[2].split())[1:-1].split("],[")
        ]
    except ValueError:
        return _scan(text)
    return _accepted(text, degree, rows)


def _accepted(text: str, degree: int, rows: list[list[int]]) -> BranchData:
    """BranchData from the rows of `text`, each row sorted, tested and built
    in one pass.

    A row that is not a non-trivial partition of the degree raises the
    ParseError `_row_error` words, at the row's "[" (in text the grammar
    accepts, every "[" opens a row).  The objects are the ones
    `BranchData(degree, tuple(map(Partition.of, rows)))` builds, equal and
    with the same hash; the public constructors keep their checks for
    every other caller.
    """
    new = object.__new__
    partitions = []
    for parts in rows:
        parts.sort(reverse=True)
        if parts[-1] < 1 or parts[0] < 2 or sum(parts) != degree:
            position = -1
            for _ in range(len(partitions) + 1):
                position = text.index("[", position + 1)
            raise ParseError(_row_error(parts, degree), position)
        partition = new(Partition)
        partition.__dict__["parts"] = tuple(parts)
        partitions.append(partition)
    data = new(BranchData)
    data.__dict__.update(degree=degree, rows=tuple(partitions))
    return data


def _row_error(parts: list[int], degree: int) -> str | None:
    """Why a row of parts is not a non-trivial partition of the degree."""
    if min(parts) < 1:
        return "parts must be at least 1"
    total = sum(parts)
    if total != degree:
        try:
            return f"row sums to {total}, expected {degree}"
        except ValueError:
            # the sum has more digits than sys.get_int_max_str_digits()
            # allows; the degree, read by int(), never does
            limit = sys.get_int_max_str_digits()
            return f"row sum has more than {limit} digits, expected {degree}"
    if max(parts) == 1:
        return "trivial row (all parts 1)"
    return None


def _scan(text: str) -> BranchData:
    """Read text one character at a time; raise ParseError where it fails."""
    s = text
    n = len(s)
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < n and s[pos].isspace():
            pos += 1

    def expect(tok: str):
        nonlocal pos
        skip_ws()
        if not s.startswith(tok, pos):
            raise ParseError(f"expected {tok!r}", pos)
        pos += len(tok)

    def read_int() -> int:
        nonlocal pos
        skip_ws()
        start = pos
        while pos < n and s[pos].isdecimal():
            pos += 1
        if pos == start:
            raise ParseError("expected an integer", start)
        try:
            return int(s[start:pos])
        except ValueError:
            # more digits than sys.get_int_max_str_digits() allows
            raise ParseError(
                f"integer too long ({pos - start} digits)", start
            ) from None

    expect("d")
    expect("=")
    degree = read_int()
    expect(";")

    rows = []
    while True:
        skip_ws()
        row_start = pos
        expect("[")
        parts = [read_int()]
        while True:
            skip_ws()
            if pos < n and s[pos] == ",":
                pos += 1
                parts.append(read_int())
            else:
                break
        expect("]")
        message = _row_error(parts, degree)
        if message is not None:
            raise ParseError(message, row_start)
        rows.append(parts)
        skip_ws()
        if pos < n and s[pos] == ",":
            pos += 1
            continue
        break
    skip_ws()
    if pos != n:
        raise ParseError("unexpected trailing input", pos)
    if degree < 1:
        raise ParseError("degree must be positive", 0)
    return _accepted(text, degree, rows)
