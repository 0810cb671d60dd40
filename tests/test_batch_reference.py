"""`batch` output against reference renderings, and the branch-data methods
the batch path calls against their plain definitions.

The references are the straightforward forms: each JSON line is
`json.dumps` of the line's record, each human line the formatter written
out below, and the BranchData methods are checked against sums and loops
over every part.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import itertools
import json
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rp2cover import cli, oracle
from rp2cover.branch import (
    BranchData,
    ParseError,
    Partition,
    is_admissible,
    parse_branch_data,
)
from rp2cover.realize import Case, Classification, Reason, Verdict, classify

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads",
    Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py",
)
_WORKLOADS = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_WORKLOADS)


def run(*argv, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    if stdin is None:
        code = cli.main(list(argv), out=out, err=err)
    else:
        with mock.patch("sys.stdin", io.StringIO(stdin)):
            code = cli.main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def reference_json(line: str) -> str:
    try:
        data = parse_branch_data(line)
    except ParseError as e:
        rec = {"input": line, "error": str(e)}
    else:
        rec = {"input": data.to_text(), "classification": classify(data).to_dict()}
    return json.dumps(rec, sort_keys=True)


def reference_human(line: str) -> str:
    try:
        data = parse_branch_data(line)
    except ParseError as e:
        return f"{line} :: error: {e}"
    cls = classify(data).to_dict()
    tag = cls["case"] or cls["reason"]
    suffix = f" ({tag})" if tag else ""
    return f"{data.to_text()} :: {cls['verdict']}{suffix}"


# (line, its classification triple, or None for a line that does not parse)
CORPUS = [
    ("d=4; [2,2]", ("not_admissible", None, None)),
    ("d=6; [2,2,2],[2,2,2],[2,2,2]", ("not_admissible", None, None)),
    ("d=2; [2],[2]", ("indecomposable_realizable", "degree_two", None)),
    ("d=6; [3,2,1],[2,2,2]", ("indecomposable_realizable", "some_row_not_all_twos", None)),
    (
        "d=6; [2,2,2],[2,2,2],[2,2,2],[2,2,2]",
        ("indecomposable_realizable", "big_degree_many_rows", None),
    ),
    ("d=4; [2,2],[2,2]", ("only_decomposable", None, "degree_four_all_twos")),
    ("d=8; [2,2,2,2],[2,2,2,2]", ("only_decomposable", None, "two_all_twos_rows")),
    # odd degrees: the oracle's verdict within its bounds, unknown beyond
    ("d=3; [3],[3]", ("indecomposable_realizable", None, None)),
    ("d=5; [2,2,1],[3,1,1]", ("indecomposable_realizable", None, None)),
    ("d=3; [2,1],[2,1],[2,1],[2,1]", ("indecomposable_realizable", None, None)),
    ("d=7; [7],[7]", ("unknown", None, None)),
    ("d=5; [2,1,1,1],[2,1,1,1],[2,1,1,1],[2,1,1,1],[2,1,1,1],[2,1,1,1]", ("unknown", None, None)),
    # unsorted rows, whitespace, leading zeros, non-ASCII decimal digits
    ("d=6; [1,2,3],[2,2,2]", ("indecomposable_realizable", "some_row_not_all_twos", None)),
    (
        " d = 6 ;[ 1, 3 ,2 ] ,\t[2,2,2]  ",
        ("indecomposable_realizable", "some_row_not_all_twos", None),
    ),
    ("d=06; [003,2,01],[2,2,2]", ("indecomposable_realizable", "some_row_not_all_twos", None)),
    ("d=٤; [٢,٢],[2,٢]", ("only_decomposable", None, "degree_four_all_twos")),
    ("d=６; [３,２,1],[2,2,2]", ("indecomposable_realizable", "some_row_not_all_twos", None)),
    ("d=4; [2,2],\x1c[2,2],[2,2]", ("only_decomposable", None, "degree_four_all_twos")),
    # malformed
    ("d=6; [4,3]", None),
    ("d=4; [1,1,1,1]", None),
    ("d=; [2]", None),
    ("d=4 [2,2]", None),
    ("d=4; [2,2", None),
    ("x=4; [2,2]", None),
    ("d=4; [2,2],", None),
    ("d=4; [2,2] extra", None),
    ("d=3; [3],[2,1,0]", None),
    ("d=²; [2]", None),
    ("d=4; [2,2],[é]", None),
    ("d=0; [1]", None),
]

# every triple classify can give; an odd degree within the oracle's bounds
# is 3 or 5, prime, so no odd datum is only decomposably realizable
REACHABLE = {
    ("not_admissible", None, None),
    ("indecomposable_realizable", "degree_two", None),
    ("indecomposable_realizable", "some_row_not_all_twos", None),
    ("indecomposable_realizable", "big_degree_many_rows", None),
    ("indecomposable_realizable", None, None),
    ("only_decomposable", None, "degree_four_all_twos"),
    ("only_decomposable", None, "two_all_twos_rows"),
    ("unknown", None, None),
}


def test_corpus_covers_every_reachable_classification():
    assert {want for _, want in CORPUS if want is not None} == REACHABLE
    for line, want in CORPUS:
        try:
            data = parse_branch_data(line)
        except ParseError:
            assert want is None, line
            continue
        got = classify(data).to_dict()
        assert (got["verdict"], got["case"], got["reason"]) == want, line


@pytest.mark.parametrize("fmt, reference", [("json", reference_json), ("human", reference_human)])
def test_batch_lines_match_the_reference_rendering(tmp_path, fmt, reference):
    lines = [line for line, _ in CORPUS]
    # every line twice, the second time with other surrounding whitespace
    text = "\n".join(lines + [f"\t{line}  " for line in reversed(lines)]) + "\n"
    path = tmp_path / "batch.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run("batch", str(path), "--format", fmt)
    want = [reference(line.strip()) for line in text.splitlines()]
    assert (code, err) == (2, "")
    assert out.splitlines() == want
    assert run("batch", "-", "--format", fmt, stdin=text) == (code, out, err)


def test_every_record_head_is_the_json_records_prefix():
    text = "d=6; [3,2,1],[2,2,2]"
    for v, c, r in itertools.product(Verdict, (None, *Case), (None, *Reason)):
        rec = {"input": text, "classification": Classification(v, c, r).to_dict()}
        head = cli._BATCH_RECORD_HEADS[v, c, r]
        assert head + json.dumps(text) + "}" == json.dumps(rec, sort_keys=True)


# SHA-256 of `batch` over the benchmark's pool of lines; the JSON digest is
# also the one perfbench/pinned.json holds
POOL_DIGESTS = {
    "json": "c1f9cae9519dfa7a83f23e8ebed9b16d007bc072eda1b666690a8a4840014a68",
    "human": "304a58b1d73bb279bdd3118d251336b8dbf27c1c995093a203e9ab6eca32ed91",
}


@pytest.mark.parametrize("fmt", sorted(POOL_DIGESTS))
def test_batch_pool_output_digest(tmp_path, fmt):
    path = tmp_path / "pool.txt"
    path.write_text("".join(line + "\n" for line in _WORKLOADS.ClassifyBatch.make_pool()))
    code, out, err = run("batch", str(path), "--format", fmt)
    assert (code, err) == (2, "")
    assert hashlib.sha256(out.encode()).hexdigest() == POOL_DIGESTS[fmt]


# ---------------------------------------------------------------------------
# the BranchData methods against their plain definitions


def reference_text(degree, rows):
    return f"d={degree}; " + ",".join("[" + ",".join(map(str, parts)) + "]" for parts in rows)


def reference_admissibility(degree, rows):
    nu = sum(sum(parts) - len(parts) for parts in rows)
    if nu % 2 != 0:
        return False, f"total defect {nu} is odd"
    if nu < degree - 1:
        return False, f"total defect {nu} is below d-1={degree - 1}"
    return True, f"total defect {nu} is even and at least d-1={degree - 1}"


@st.composite
def branch_rows(draw):
    """A degree and non-trivial partitions of it, in non-increasing order."""
    degree = draw(st.integers(2, 24))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            parts = [2] * (degree // 2) + [1] * (degree % 2)
        else:
            parts, rest = [], degree
            while rest:
                parts.append(draw(st.integers(1, rest)))
                rest -= parts[-1]
            parts.sort(reverse=True)
            if parts[0] == 1:
                parts[:2] = [2]
        rows.append(tuple(parts))
    return degree, rows


def _unknown(data, bounds=None):
    return Classification(Verdict.UNKNOWN)


@settings(max_examples=300, deadline=None)
@given(branch_rows())
def test_branch_data_methods_match_their_definitions(drawn):
    degree, rows = drawn
    built = BranchData(degree, tuple(Partition(parts) for parts in rows))
    # the rows reversed and each row's parts reversed, with spaces between
    # the tokens
    unsorted = [parts[::-1] for parts in reversed(rows)]
    parsed = parse_branch_data(reference_text(degree, unsorted).replace(",", " , "))
    ok, reason = reference_admissibility(degree, rows)
    for data in (built, parsed):
        assert sorted(r.parts for r in data.rows) == sorted(rows)
        assert data.to_text() == reference_text(data.degree, [r.parts for r in data.rows])
        assert data.total_defect() == sum(sum(p) - len(p) for p in rows)
        assert [r.is_all_twos() for r in data.rows] == [
            all(p == 2 for p in r.parts) for r in data.rows
        ]
        assert data.all_rows_all_twos() == all(all(p == 2 for p in parts) for parts in rows)
        assert tuple(is_admissible(data)) == (ok, reason)
        # the odd-degree search is not what is checked here
        with mock.patch.object(oracle, "classify_by_search", _unknown):
            verdict = classify(data).verdict
        assert (verdict is Verdict.NOT_ADMISSIBLE) == (not ok)
