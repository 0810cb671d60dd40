"""Branch data parsing, admissibility arithmetic, and the counting identities."""

from __future__ import annotations

import pytest

from rp2cover.branch import (
    BranchData,
    ParseError,
    Partition,
    euler_char_covering,
    is_admissible,
    nu_partition,
    parse_branch_data,
    preimage_count_check,
)

from helpers import admissible_data


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
    with pytest.raises(ValueError):
        Partition(())
    with pytest.raises(ValueError):
        Partition((2, 3))
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_nu_partition_values():
    assert nu_partition([2, 2, 1, 1]) == 2
    assert nu_partition([6]) == 5
    assert nu_partition([1, 1, 1]) == 0


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
    cases = admissible_data([2, 3, 4, 5, 6], max_rows=3)
    assert len(cases) > 100
    for data in cases:
        assert preimage_count_check(data)


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
