"""Branch data parsing, admissibility arithmetic, and the counting identities."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rp2cover import branch
from rp2cover.branch import (
    BranchData,
    ParseError,
    Partition,
    euler_char_covering,
    is_admissible,
    parse_branch_data,
)

from helpers import INT_DIGITS, admissible_data, needs_int_digit_limit


def test_parse_normal_form():
    data = parse_branch_data("d=6; [3,2,1],[2,2,2]")
    assert data.degree == 6
    assert data.rows_count == 2
    assert data.rows[0].parts == (3, 2, 1)
    assert data.rows[1].parts == (2, 2, 2)
    assert data.to_text() == "d=6; [3,2,1],[2,2,2]"


def test_parse_is_whitespace_tolerant_and_sorts_parts():
    a = parse_branch_data(" d = 6 ; [ 1, 2, 3 ] , [2 ,2,2 ] ")
    assert a.rows[0].parts == (3, 2, 1)
    assert a.to_text() == "d=6; [3,2,1],[2,2,2]"


@pytest.mark.parametrize(
    "text, position",
    [
        ("d=6; [3,2,1],[2,2", 17),
        ("x=4; [4]", 0),
        ("d=; [2]", 2),
        ("d=4; [2,1]", 5),
        ("d=3; [1,1,1]", 5),
        ("d=4; [4] x", 9),
        ("d=4; [2,2],[3,1", 15),
        # digits that int() does not read are not part of an integer
        ("d=²; [2]", 2),
        ("d=4; [2,²]", 8),
        # an integer int() refuses for its length is an error at its start
        pytest.param(
            "d=" + "9" * (INT_DIGITS + 1) + "; [2]",
            2,
            marks=needs_int_digit_limit,
            id="degree-too-long-for-int",
        ),
        pytest.param(
            "d=4; [2," + "9" * (INT_DIGITS + 1) + "]",
            8,
            marks=needs_int_digit_limit,
            id="part-too-long-for-int",
        ),
        # parts int() reads whose sum has too many digits to print
        pytest.param(
            "d=1; [" + "9" * INT_DIGITS + "," + "9" * INT_DIGITS + "]",
            5,
            marks=needs_int_digit_limit,
            id="row-sum-too-long-to-print",
        ),
    ],
)
def test_parse_error_positions(text, position):
    with pytest.raises(ParseError) as info:
        parse_branch_data(text)
    assert info.value.position == position
    assert f"(at position {position})" in str(info.value)


def test_partition_accessors():
    p = Partition((3, 2, 2, 1))
    assert p.degree == 8
    assert p.nu == 4
    assert not p.is_trivial()
    assert not p.is_all_twos()
    assert Partition((2, 2, 2)).is_all_twos()
    assert Partition((1, 1)).is_trivial()
    assert str(p) == "[3,2,2,1]"
    assert Partition.of([1, 3, 2]).parts == (3, 2, 1)


def test_partition_validation():
    for parts, message in [
        ((), "partition must have at least one part"),
        ((2, 3), "parts must be non-increasing: (2, 3)"),
        ((3, 3, 4), "parts must be non-increasing: (3, 3, 4)"),
        ((2, 0), "parts must be positive integers: (2, 0)"),
        ((0,), "parts must be positive integers: (0,)"),
        ((2, -1), "parts must be positive integers: (2, -1)"),
        ((2.0, 1), "parts must be positive integers: (2.0, 1)"),
        ((2, 1.5), "parts must be positive integers: (2, 1.5)"),
    ]:
        with pytest.raises(ValueError) as info:
            Partition(parts)
        assert str(info.value) == message


def test_nu_partition_values():
    assert Partition((2, 2, 1, 1)).nu == 2
    assert Partition((6,)).nu == 5
    assert Partition((1, 1, 1)).nu == 0


def test_branch_data_validation():
    with pytest.raises(ValueError):
        BranchData(4, (Partition((3, 2)),))  # wrong sum
    with pytest.raises(ValueError):
        BranchData(3, (Partition((1, 1, 1)),))  # trivial row
    with pytest.raises(ValueError):
        BranchData(4, ())


@pytest.mark.parametrize(
    "text, ok, fragment",
    [
        ("d=4; [2,2]", False, "below"),
        ("d=4; [4]", False, "odd"),
        ("d=4; [2,2],[2,2]", True, "even"),
        ("d=6; [2,2,2],[2,2,2],[2,2,2]", False, "odd"),
        ("d=6; [2,2,2],[2,2,2],[2,2,2],[2,2,2]", True, "even"),
        ("d=2; [2],[2]", True, "even"),
        ("d=5; [5],[2,2,1]", True, "even"),
        ("d=7; [2,2,1,1,1],[2,2,1,1,1]", False, "below"),
    ],
)
def test_admissibility_table(text, ok, fragment):
    adm = is_admissible(parse_branch_data(text))
    assert adm.ok is ok
    assert fragment in adm.reason


@pytest.mark.parametrize(
    "text, chi",
    [
        ("d=4; [2,2],[2,2]", 0),
        ("d=6; [3,2,1],[2,2,2]", 0),
        ("d=6; [2,2,2],[2,2,2],[2,2,2],[2,2,2]", -6),
        ("d=2; [2],[2]", 0),
        ("d=5; [5],[2,2,1]", -1),
    ],
)
def test_euler_characteristic(text, chi):
    data = parse_branch_data(text)
    assert euler_char_covering(data) == chi
    assert chi == data.degree - data.total_defect()


def test_euler_characteristic_requires_admissibility():
    with pytest.raises(ValueError):
        euler_char_covering(parse_branch_data("d=4; [2,2]"))


def test_preimage_identity_on_all_small_admissible_data():
    # the sum(len(row.parts)) points over the branch set number
    # chi(M) - d(1 - s)
    cases = admissible_data([2, 3, 4, 5, 6], max_rows=3)
    assert len(cases) > 100
    for data in cases:
        preimages = sum(len(row.parts) for row in data.rows)
        assert preimages == euler_char_covering(data) - data.degree * (1 - data.rows_count)


def test_admissible_even_degree_needs_two_rows():
    # a single non-trivial row has defect at most d-1, which is odd for
    # even d, so it can never be both even and at least d-1
    for data in admissible_data([2, 4, 6, 8], max_rows=1):
        pytest.fail(f"unexpected admissible single-row data {data}")


def test_covering_surface_never_has_positive_even_characteristic():
    for data in admissible_data([2, 3, 4, 5, 6], max_rows=3):
        chi = euler_char_covering(data)
        assert chi <= 1
        assert chi % 2 == data.degree % 2
        if data.degree % 2 == 0:
            assert chi <= 0


def test_total_defect_sums_rows():
    data = parse_branch_data("d=6; [3,2,1],[2,2,2],[6]")
    assert data.total_defect() == 3 + 3 + 5
    assert data.all_rows_all_twos() is False
    assert parse_branch_data("d=4; [2,2],[2,2]").all_rows_all_twos() is True


# ---------------------------------------------------------------------------
# the recognizer against the character scanner it replaced


def _reference_parse(text: str) -> BranchData:
    """Reference: a character scanner over the same grammar, with the same
    messages and positions.  An integer past int()'s digit limit raises
    int()'s own ValueError here, the one case where the two differ."""
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
        return int(s[start:pos])

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
        if any(p < 1 for p in parts):
            raise ParseError("parts must be at least 1", row_start)
        if sum(parts) != degree:
            raise ParseError(
                f"row sums to {sum(parts)}, expected {degree}", row_start
            )
        if all(p == 1 for p in parts):
            raise ParseError("trivial row (all parts 1)", row_start)
        rows.append(Partition.of(parts))
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
    return BranchData(degree, tuple(rows))


def _outcome(parse, text):
    try:
        data = parse(text)
    except ParseError as e:
        return ("error", str(e), e.position)
    return ("data", data, data.to_text())


def _assert_parses_like_reference(text):
    want = _outcome(_reference_parse, text)
    assert _outcome(parse_branch_data, text) == want, repr(text)
    return want


# whitespace of several kinds: U+2003 (em space) and U+001C (file separator)
# are str.isspace; "²" is not str.isdecimal, "٣" and "٠" are
_SPACE = st.text(alphabet=" \t\n\u2003\x1c", max_size=2)
_NOISE = "d=;[],0123456789 \t\n\u2003\x1c²٣٠x-"


@st.composite
def _branch_lines(draw):
    """Grammar lines with random whitespace, then a few random edits.

    Integers stay far below int()'s digit limit.
    """
    gap = lambda: draw(_SPACE)  # noqa: E731
    degree = draw(st.integers(2, 9))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        # a composition of the degree: cut 1..degree after each True
        cuts = draw(st.lists(st.booleans(), min_size=degree - 1, max_size=degree - 1))
        parts = [1]
        for cut in cuts:
            if cut:
                parts.append(1)
            else:
                parts[-1] += 1
        if draw(st.integers(0, 9)) == 5:
            parts.append(0)
        cells = [gap() + str(p) + gap() for p in parts]
        rows.append(gap() + "[" + ",".join(cells) + "]" + gap())
    line = list(
        gap() + "d" + gap() + "=" + gap() + str(degree) + gap() + ";"
        + ",".join(rows) + gap()
    )
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(line)))
        edit = draw(st.sampled_from(["insert", "delete", "swap"]))
        if edit == "insert":
            line.insert(at, draw(st.sampled_from(_NOISE)))
        elif edit == "delete" and at < len(line):
            del line[at]
        elif edit == "swap" and at + 1 < len(line):
            line[at], line[at + 1] = line[at + 1], line[at]
    return "".join(line)


@settings(max_examples=600, deadline=None)
@given(_branch_lines())
def test_parse_matches_the_reference_scanner(text):
    kind, want, _ = _assert_parses_like_reference(text)
    if kind != "data":
        return
    # both paths build the objects without the public constructors'
    # checks; they must still be the objects those constructors build
    for got in (parse_branch_data(text), branch._scan(text)):
        assert got == want and hash(got) == hash(want)
        assert type(got) is BranchData
        assert [(type(r), hash(r)) for r in got.rows] == [
            (Partition, hash(r)) for r in want.rows
        ]
        assert BranchData(got.degree, tuple(Partition(r.parts) for r in got.rows)) == got


@pytest.mark.parametrize(
    "text, message",
    [
        ("d=4 ;\t[2,2] ,  \u2003[3]", "row sums to 3, expected 4"),
        ("d=4; [4], [4, 0, 1]", "parts must be at least 1"),
        ("d=2; [2],\n[1,1]", "trivial row (all parts 1)"),
    ],
)
def test_recognized_text_reports_the_failing_rows_bracket(text, message):
    assert branch._LINE.fullmatch(text) is not None
    kind, got, position = _assert_parses_like_reference(text)
    assert kind == "error"
    assert position == text.rindex("[")
    assert got == f"{message} (at position {position})"


def test_long_lines_parse_like_the_reference():
    valid = "d=2; " + ", ".join(["[ 2 ]"] * 20_000)
    assert len(valid) >= 10**5
    kind, data, _ = _assert_parses_like_reference(valid)
    assert kind == "data" and data.rows_count == 20_000
    broken = valid[:-1] + "x"
    kind, _, position = _assert_parses_like_reference(broken)
    assert kind == "error" and position == len(broken) - 1
