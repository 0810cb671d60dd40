"""End-to-end command tests driving main() in process."""

from __future__ import annotations

import dataclasses
import io
import json
import os
import subprocess
import sys

import pytest

import rp2cover
from rp2cover import cli, oracle, realize
from rp2cover.cli import main
from rp2cover.perm import parse_permutation

from helpers import INT_DIGITS, exists_realization, needs_int_digit_limit


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# exit codes


EXIT_TABLE = [
    (("check", "d=6; [3,2,1],[2,2,2]"), 0),
    (("check", "d=4; [2,2]"), 1),
    (("check", "d=; [2]"), 2),
    (("check", "d=4; [1,1,1,1]"), 2),
    (("classify", "d=6; [3,2,1],[2,2,2]"), 0),
    (("classify", "d=4; [2,2],[2,2]"), 0),
    (("classify", "d=7; [7],[7]"), 3),
    (("realize", "d=6; [3,2,1],[2,2,2]"), 0),
    (("realize", "d=4; [2,2]"), 4),
    (("realize", "d=4; [2,2],[2,2]"), 4),
    (("realize", "d=4; [2,2],[2,2]", "--decomposable"), 0),
    (("realize", "d=7; [7],[7]"), 3),
    (("oracle", "d=4; [2,2],[2,2]"), 0),
    (("oracle", "d=9; [9],[9]"), 6),
    (("oracle",), 2),
    (("oracle", "--pair-survey", "10"), 6),
]


@pytest.mark.parametrize("argv,want", EXIT_TABLE)
def test_exit_codes(argv, want):
    code, _, _ = run(*argv)
    assert code == want


def test_parse_error_reports_position_once():
    code, out, err = run("check", "d=6; [3,2,1],[2,2")
    assert code == 2
    assert err.count("(at position") == 1
    assert out == ""


# ---------------------------------------------------------------------------
# check and classify payloads


def test_check_json_payload():
    code, out, _ = run("check", "d=6; [3,2,1],[2,2,2]", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["degree"] == 6
    assert rec["rows"] == [[3, 2, 1], [2, 2, 2]]
    assert rec["rows_count"] == 2
    assert rec["total_defect"] == 6
    assert rec["admissible"] is True
    assert rec["euler_char"] == 0


def test_check_human_output():
    code, out, _ = run("check", "d=4; [2,2]")
    assert code == 1
    assert "admissible: no" in out
    assert "below" in out


def test_check_reports_reason_when_inadmissible():
    _, out, _ = run("check", "d=4; [2,2]", "--format", "json")
    rec = json.loads(out)
    assert rec["admissible"] is False
    assert "euler_char" not in rec
    assert "below" in rec["admissible_reason"]


def test_classify_json_payload():
    code, out, _ = run("classify", "d=4; [2,2],[2,2]", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["classification"]["verdict"] == "only_decomposable"
    assert rec["classification"]["reason"] == "degree_four_all_twos"
    assert rec["classification"]["case"] is None


def test_classify_human_output():
    _, out, _ = run("classify", "d=6; [3,2,1],[2,2,2]")
    assert "verdict: indecomposable_realizable" in out
    assert "case: some_row_not_all_twos" in out


# ---------------------------------------------------------------------------
# realize and verify


def test_realize_json_witness_verifies():
    code, out, _ = run(
        "realize", "d=6; [3,2,1],[2,2,2]", "--format", "json", "--seed", "7"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["engine"] == "fold_chain"
    assert rec["certificate"]["all_ok"] is True
    assert rec["certificate"]["euler_char"] == 0
    assert len(rec["witness"]["gammas"]) == 2


def test_realize_scans_odd_data_once(monkeypatch):
    scans = []
    scan = oracle._walk_pairs

    def counted(*args, **kwargs):
        scans.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(oracle, "_walk_pairs", counted)
    code, out, _ = run("realize", "d=5; [5],[3,1,1]", "--format", "json")
    assert code == 0
    assert len(scans) == 1
    rec = json.loads(out)
    assert rec["engine"] == "exhaustive_scan"
    assert rec["certificate"]["primitive_by"] in ("two_transitive", "block_scan")


def test_realize_seed_is_reproducible():
    a = run("realize", "d=8; [5,2,1],[4,4],[2,2,2,2]", "--format", "json", "--seed", "3")
    b = run("realize", "d=8; [5,2,1],[4,4],[2,2,2,2]", "--format", "json", "--seed", "3")
    assert a == b


def test_realize_forbidden_explains_flag():
    code, out, err = run("realize", "d=4; [2,2],[2,2]")
    assert code == 4
    assert "--decomposable" in err
    assert "only_decomposable" in out


def test_realize_decomposable_flag_builds_imprimitive_witness():
    code, out, _ = run(
        "realize", "d=4; [2,2],[2,2]", "--decomposable", "--format", "json"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["engine"] == "decomposable_search"
    assert rec["certificate"]["transitive"] is True
    assert rec["certificate"]["primitive"] is False
    assert rec["certificate"]["nonorientable"] is True


def test_verify_round_trip_through_file(tmp_path):
    _, out, _ = run("realize", "d=6; [5,1],[2,2,2],[2,2,2]", "--format", "json")
    path = tmp_path / "witness.json"
    path.write_text(out, encoding="utf-8")
    code, vout, _ = run(
        "verify", "d=6; [5,1],[2,2,2],[2,2,2]", "--witness", str(path),
        "--format", "json",
    )
    assert code == 0
    rec = json.loads(vout)
    assert rec["certificate"]["all_ok"] is True


def test_verify_round_trip_through_stdin(monkeypatch):
    _, out, _ = run("realize", "d=4; [3,1],[2,2]", "--format", "json")
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, vout, _ = run("verify", "d=4; [3,1],[2,2]", "--witness", "-")
    assert code == 0
    assert "all_ok: yes" in vout


def test_verify_bare_witness_with_row_map(tmp_path):
    rec = {
        "degree": 4,
        "gammas": ["(1 2)(3 4)", "(2 3)(4 1)"],
        "alpha": "(1 2 3 4)",
        "row_map": [0, 1],
    }
    path = tmp_path / "w.json"
    path.write_text(json.dumps(rec), encoding="utf-8")
    code, out, _ = run(
        "verify", "d=4; [2,2],[2,2]", "--witness", str(path), "--format", "json"
    )
    assert code == 1
    got = json.loads(out)
    assert got["certificate"]["relation_ok"] is True
    assert got["certificate"]["primitive"] is False


def test_verify_detects_corruption(tmp_path):
    _, out, _ = run("realize", "d=4; [3,1],[2,2]", "--format", "json")
    rec = json.loads(out)
    rec["witness"]["alpha"] = "(1 2)"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(rec), encoding="utf-8")
    code, vout, _ = run("verify", "d=4; [3,1],[2,2]", "--witness", str(path))
    assert code == 1
    assert "relation_ok: no" in vout


def test_verify_bad_json_is_parse_error(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run("verify", "d=4; [3,1],[2,2]", "--witness", str(path))
    assert code == 2
    assert "error:" in err


_GOOD_WITNESS = {
    "degree": 4,
    "gammas": ["(1 2)(3 4)", "(2 3)(4 1)"],
    "alpha": "(1 2 3 4)",
}


@pytest.mark.parametrize(
    "rec",
    [
        {"degree": 4},
        {**_GOOD_WITNESS, "gammas": 5},
        [_GOOD_WITNESS],
        {**_GOOD_WITNESS, "alpha": 7},
        {"witness": _GOOD_WITNESS, "certificate": [0, 1]},
        {**_GOOD_WITNESS, "row_map": 5},
    ],
    ids=["no-gammas", "int-gammas", "list", "int-alpha", "list-certificate", "int-row-map"],
)
def test_verify_malformed_witness_is_parse_error(tmp_path, rec):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(rec), encoding="utf-8")
    code, out, err = run("verify", "d=4; [2,2],[2,2]", "--witness", str(path))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_refuses_a_claimed_degree_before_building_it(tmp_path, monkeypatch):
    # a record claiming degree 10^6 against d=4 data cost 0.8 s of parsing
    # at that degree before the shape check refused it
    degrees = []
    parse = realize.parse_permutation

    def counted(text, degree):
        degrees.append(degree)
        return parse(text, degree)

    monkeypatch.setattr(realize, "parse_permutation", counted)
    path = tmp_path / "w.json"
    path.write_text(json.dumps({**_GOOD_WITNESS, "degree": 10**6}), encoding="utf-8")
    code, out, err = run("verify", "d=4; [2,2],[2,2]", "--witness", str(path))
    assert (code, out, err) == (2, "", "error: witness shape does not match branch data\n")
    assert degrees == []


@needs_int_digit_limit
def test_verify_reports_a_witness_point_too_long_for_int(tmp_path):
    digits = INT_DIGITS + 700
    text = "(" + "9" * digits + ")"
    want = f"integer too long ({digits} digits) in cycle at position 0 in {text[:80]!r}... ({digits + 2} characters)"
    with pytest.raises(ValueError) as info:
        parse_permutation(text, 4)
    assert str(info.value) == want
    path = tmp_path / "w.json"
    path.write_text(json.dumps({**_GOOD_WITNESS, "alpha": text}), encoding="utf-8")
    code, out, err = run("verify", "d=4; [2,2],[2,2]", "--witness", str(path))
    # the text is quoted by its first 80 characters only
    assert (code, out, err) == (2, "", f"error: {want}\n")
    assert len(err) < 200


def test_verify_quotes_a_long_out_of_range_point_by_its_first_digits(tmp_path):
    # the longest point int() reads at the default digit limit
    digits = min(INT_DIGITS or 4300, 4300)
    path = tmp_path / "w.json"
    path.write_text(json.dumps({**_GOOD_WITNESS, "alpha": "(1 " + "9" * digits + ")"}), encoding="utf-8")
    code, out, err = run("verify", "d=4; [2,2],[2,2]", "--witness", str(path))
    want = f"error: point {'9' * 80}... ({digits} digits) outside 1..4\n"
    assert (code, out, err) == (2, "", want)
    assert len(err) < 200


def test_verify_deeply_nested_witness_file_is_parse_error(tmp_path):
    # json.loads recursed once per bracket and met the recursion limit
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000, encoding="utf-8")
    code, out, err = run("verify", "d=2; [2],[2]", "--witness", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "internal failure" not in err


def test_realize_refuses_a_degree_above_the_witness_limit(monkeypatch):
    # the limit is lowered so that no test builds a huge witness; at the
    # real limit `realize` started a 2e7-point image list
    def refuse(*args, **kwargs):
        raise AssertionError("engine reached")

    monkeypatch.setattr(rp2cover.perm, "MAX_DEGREE", 8)
    monkeypatch.setattr(cli, "realize_indecomposable", refuse)
    code, out, err = run("realize", "d=10; [10],[10]")
    assert (code, out) == (6, "")
    assert err == "error: degree 10 exceeds the largest supported degree, 8\n"
    # the largest degree allowed reaches the engine
    code, _, err = run("realize", "d=8; [8],[8]")
    assert code == 5 and "engine reached" in err


def test_realize_refuses_data_above_the_size_limit(monkeypatch):
    # the limit is lowered as for the degree above; the refusal comes
    # before the data is classified
    def refuse(*args, **kwargs):
        raise AssertionError("classified")

    monkeypatch.setattr(cli, "MAX_REALIZE_SIZE", 12)
    monkeypatch.setattr(cli, "classify", refuse)
    code, out, err = run("realize", "d=4; [3,1],[3,1],[3,1],[3,1]", "--decomposable")
    assert (code, out) == (6, "")
    assert err == "error: degree times rows is 16, above the largest supported 12\n"
    # the largest size allowed is classified
    code, _, err = run("realize", "d=4; [3,1],[3,1],[3,1]")
    assert code == 5 and "classified" in err


def test_realize_size_limit_admits_the_row_count_check_and_refuses_past_it():
    # 5000 rows of degree 4 are realized and verified in CI; one row past
    # the real limit is refused before any work
    assert 4 * 5000 <= cli.MAX_REALIZE_SIZE
    rows = cli.MAX_REALIZE_SIZE // 4 + 1
    code, out, err = run("realize", "d=4; " + ",".join(["[3,1]"] * rows))
    assert (code, out) == (6, "")
    assert err.startswith("error: degree times rows is ") and err.count("\n") == 1


def test_realize_engine_failure_exits_5(monkeypatch):
    def no_pair(*args, **kwargs):
        raise realize.SearchExhausted("forced: no such pair", complete=True)

    monkeypatch.setattr(realize, "assemble_pair", no_pair)
    code, out, err = run("realize", "d=6; [3,2,1],[2,2,2]")
    assert code == 5
    assert out == ""
    assert err.startswith(
        "error: fold chain stalled on d=6; [3,2,1],[2,2,2]: no feasible goal sequence; "
    )
    assert err.count("\n") == 1


def test_realize_fold_attempt_cap_exits_5(monkeypatch):
    # one node per search cuts every search, so the chain spends its
    # attempt budget, one attempt per fold here, on both row orders
    monkeypatch.setattr(realize, "_DEFAULT_NODE_BUDGET", 1)
    monkeypatch.setattr(realize, "_FOLD_ATTEMPT_CAP", 0)
    code, out, err = run("realize", "d=6; [3,2,1],[2,2,2],[3,3]")
    assert (code, out) == (5, "")
    assert err.startswith(
        "error: fold chain stalled on d=6; [3,2,1],[2,2,2],[3,3]: "
        "fold goal attempt budget spent; "
    )
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (("d=6; [3,2,1],[2,2,2],[3,3]",), "error: no witness produced for "),
        (("d=4; [2,2],[2,2]", "--decomposable"), "error: no decomposable witness found"),
    ],
)
def test_realize_witness_the_verifier_rejects_exits_5(monkeypatch, argv, message):
    # an engine whose witness fails verification produced nothing
    verify = realize.verify_witness

    def broken_relation(*args, **kwargs):
        return dataclasses.replace(verify(*args, **kwargs), relation_ok=False)

    monkeypatch.setattr(realize, "verify_witness", broken_relation)
    code, out, err = run("realize", *argv)
    assert (code, out) == (5, "")
    assert err.startswith(message)
    assert err.count("\n") == 1


def test_realize_search_exhausted_exits_5(monkeypatch):
    def exhausted(*args, **kwargs):
        raise realize.SearchExhausted("forced budget", complete=False)

    monkeypatch.setattr(realize, "_realize_all_twos", exhausted)
    code, out, err = run("realize", "d=8; [2,2,2,2],[2,2,2,2],[2,2,2,2]")
    assert (code, out, err) == (5, "", "error: forced budget\n")


def test_realize_unexpected_exception_exits_5_without_traceback(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("forced defect")

    monkeypatch.setattr(realize, "_fold_chain", broken)
    code, out, err = run("realize", "d=6; [3,2,1],[2,2,2]")
    assert code == 5
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: internal failure: RuntimeError: forced defect (")
    assert "Traceback" not in err


def test_verify_missing_file_is_parse_error(tmp_path):
    code, _, err = run(
        "verify", "d=4; [3,1],[2,2]", "--witness", str(tmp_path / "absent.json")
    )
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# oracle


def test_oracle_existence_payload():
    code, out, _ = run("oracle", "d=4; [2,2],[2,2]", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["exists_realization"] is True
    assert rec["exists_primitive_realization"] is False


# (data, flags, exit code): data with a primitive witness at two and at
# three rows, data with only imprimitive ones, inadmissible data, and a
# refusal at the first tuple, whose product, the identity of 1..6, has 76
# square roots
ORACLE_KEY_CASES = [
    (text, flags, code)
    for text, code in [
        ("d=6; [3,2,1],[2,2,2]", 0),
        ("d=6; [2,2,2],[2,2,2]", 0),
        ("d=5; [3,1,1],[2,2,1],[2,2,1]", 0),
        ("d=4; [2,2]", 0),
    ]
    for flags in [(), ("--unreduced",)]
] + [
    ("d=6; [2,2,2],[2,2,2]", ("--root-cap", "3"), 6),
    ("d=6; [2,2,2],[2,2,2]", ("--root-cap", "3", "--unreduced"), 6),
]


@pytest.mark.parametrize("text,flags,code", ORACLE_KEY_CASES)
def test_oracle_keys_are_the_library_answers(text, flags, code):
    data = rp2cover.parse_branch_data(text)
    bounds = oracle.SearchBounds(root_cap=3) if "--root-cap" in flags else None
    reduced = "--unreduced" not in flags
    got_code, out, err = run("oracle", text, *flags, "--format", "json")
    assert got_code == code
    if code == 6:
        with pytest.raises(oracle.BoundsExceededError, match="^more than 3 square roots$"):
            oracle.find_primitive_witness(data, bounds)
        assert (out, err) == ("", "error: more than 3 square roots\n")
        return
    rec = json.loads(out)
    assert rec["exists_realization"] is exists_realization(
        data, bounds, first_row_reduced=reduced
    )
    assert rec["exists_primitive_realization"] is (
        oracle.find_primitive_witness(data, bounds) is not None
    )


@pytest.mark.parametrize("flags", [(), ("--unreduced",)])
@pytest.mark.parametrize("text", ["d=6; [3,2,1],[2,2,2]", "d=6; [2,2,2],[2,2,2]"])
def test_oracle_answers_both_keys_from_one_walk(text, flags, monkeypatch):
    walks = []
    walk = oracle._walk_pairs

    def counted(*args, **kwargs):
        walks.append(args)
        return walk(*args, **kwargs)

    monkeypatch.setattr(oracle, "_walk_pairs", counted)
    code, _, _ = run("oracle", text, *flags)
    assert code == 0
    assert len(walks) == 1
    assert walks[0][2] is (not flags)


def test_oracle_survey_payload():
    code, out, _ = run("oracle", "d=4; [2,2],[2,2]", "--survey", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["relation_pairs"] == 14
    assert rec["transitive_primitive"] == 0
    assert rec["transitive_imprimitive"] == 8


def test_oracle_unreduced_survey_scales_up():
    _, out_r, _ = run("oracle", "d=4; [2,2],[2,2]", "--survey", "--format", "json")
    _, out_u, _ = run(
        "oracle", "d=4; [2,2],[2,2]", "--survey", "--unreduced", "--format", "json"
    )
    reduced, unreduced = json.loads(out_r), json.loads(out_u)
    assert unreduced["relation_pairs"] == 3 * reduced["relation_pairs"]
    assert unreduced["transitive_primitive"] == 0


def test_oracle_pair_survey_payload():
    code, out, _ = run("oracle", "--pair-survey", "6", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["transitive_pairs"] == 120
    assert rec["total_transitive_pairs"] == 120
    assert rec["all_conjugate_to_canonical"] is True


def _no_class(*args):
    raise AssertionError("a class was enumerated")


def test_oracle_pair_survey_refuses_a_class_above_the_cap(monkeypatch):
    oracle.class_images.cache_clear()
    monkeypatch.setattr(oracle, "MAX_CLASS_SIZE", 14)
    monkeypatch.setattr(oracle, "_permutations", _no_class)
    code, out, err = run("oracle", "--pair-survey", "6")
    assert (code, out) == (6, "")
    assert err == (
        "error: the class of [2,2,2] at degree 6 has 15 elements, "
        "more than the class-size cap 14\n"
    )


def test_oracle_refuses_a_class_above_the_cap_before_building_it(monkeypatch):
    # [11,1] at degree 12 holds 43,545,600 permutations; every bound the
    # command takes admits it
    monkeypatch.setattr(oracle, "_permutations", _no_class)
    for flags in ((), ("--survey",), ("--unreduced",)):
        code, out, err = run("oracle", "d=12; [11,1],[11,1]", "--max-degree", "12", *flags)
        assert (code, out) == (6, ""), flags
        assert err == (
            "error: the class of [11,1] at degree 12 has 43545600 elements, "
            f"more than the class-size cap {oracle.MAX_CLASS_SIZE}\n"
        ), flags


def test_oracle_bounds_flags_open_degrees():
    code, out, _ = run(
        "oracle", "d=8; [8],[8]", "--max-degree", "8", "--format", "json"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["exists_realization"] is True


def test_oracle_missing_data_message():
    code, _, err = run("oracle")
    assert code == 2
    assert "--pair-survey" in err


@pytest.mark.parametrize("flag", ["--max-degree", "--max-rows", "--root-cap"])
def test_oracle_negative_bound_is_a_usage_error(flag, capsys):
    with pytest.raises(SystemExit) as info:
        run("oracle", "d=3; [3],[3]", flag, "-1")
    assert info.value.code == 2
    assert f"argument {flag}: must be at least 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--max-degree", "--max-rows", "--root-cap"])
def test_oracle_zero_bound_is_allowed(flag):
    # zero is a bound that this datum exceeds, not a usage error
    code, _, err = run("oracle", "d=3; [3],[3]", flag, "0")
    assert code == 6
    assert err.startswith("error: ")


# ---------------------------------------------------------------------------
# batch


BATCH_LINES = """\
# classification sweep
d=2; [2],[2]

d=4; [2,2],[2,2]
d=6; [3,2,1],[2,2,2]
d=7; [7],[7]
"""


def test_batch_classifies_each_line(tmp_path):
    path = tmp_path / "batch.txt"
    path.write_text(BATCH_LINES, encoding="utf-8")
    code, out, _ = run("batch", str(path))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0].endswith("indecomposable_realizable (degree_two)")
    assert lines[1].endswith("only_decomposable (degree_four_all_twos)")
    assert lines[3].endswith("unknown")


def test_batch_json_lines(tmp_path):
    path = tmp_path / "batch.txt"
    path.write_text(BATCH_LINES, encoding="utf-8")
    code, out, _ = run("batch", str(path), "--format", "json")
    assert code == 0
    recs = [json.loads(ln) for ln in out.strip().splitlines()]
    assert len(recs) == 4
    assert recs[2]["classification"]["verdict"] == "indecomposable_realizable"


def test_batch_parallel_output_matches_serial(tmp_path):
    path = tmp_path / "batch.txt"
    path.write_text(BATCH_LINES, encoding="utf-8")
    serial = run("batch", str(path), "--format", "json")
    parallel = run("batch", str(path), "--format", "json", "--jobs", "3")
    assert serial == parallel


def test_batch_reports_line_errors(tmp_path):
    path = tmp_path / "batch.txt"
    path.write_text("d=4; [3,1],[2,2]\nd=4; [5]\n", encoding="utf-8")
    code, out, _ = run("batch", str(path))
    assert code == 2
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert "error" in lines[1]


def test_batch_reports_unreadable_digits_and_goes_on(tmp_path):
    path = tmp_path / "batch.txt"
    path.write_text("d=4; [2,2],[2,2]\nd=²; [2]\nd=6; [3,2,1],[2,2,2]\n", encoding="utf-8")
    code, out, _ = run("batch", str(path), "--format", "json")
    assert code == 2
    recs = [json.loads(ln) for ln in out.strip().splitlines()]
    assert [("error" in r) for r in recs] == [False, True, False]
    assert recs[1]["error"] == "expected an integer (at position 2)"
    assert recs[2]["classification"]["verdict"] == "indecomposable_realizable"


@needs_int_digit_limit
def test_batch_reports_an_integer_too_long_for_int_and_goes_on(tmp_path):
    digits = INT_DIGITS + 1
    long_line = "d=" + "9" * digits + "; [2]"
    want = f"integer too long ({digits} digits) (at position 2)"
    # each part is within the limit, their sum is not
    long_sum = "d=1; [" + "9" * INT_DIGITS + "," + "9" * INT_DIGITS + "]"
    want_sum = f"row sum has more than {INT_DIGITS} digits, expected 1 (at position 5)"
    path = tmp_path / "batch.txt"
    path.write_text(
        f"d=4; [2,2],[2,2]\n{long_line}\n{long_sum}\nd=6; [3,2,1],[2,2,2]\n",
        encoding="utf-8",
    )
    code, out, _ = run("batch", str(path), "--format", "json")
    assert code == 2
    recs = [json.loads(ln) for ln in out.strip().splitlines()]
    assert [("error" in r) for r in recs] == [False, True, True, False]
    assert recs[1]["error"] == want
    assert recs[2]["error"] == want_sum
    assert recs[3]["classification"]["verdict"] == "indecomposable_realizable"
    code, out, err = run("check", long_line)
    assert (code, out, err) == (2, "", f"error: {want}\n")
    code, out, err = run("check", long_sum)
    assert (code, out, err) == (2, "", f"error: {want_sum}\n")


# repeated even, all-twos, odd and malformed lines, whitespace variants of
# a line, blank lines and comments
MIXED_BATCH = [
    "d=6; [3,2,1],[2,2,2]",
    "d=4; [2,2],[2,2]",
    "# comment",
    "d=3; [3],[3]",
    "d=4; [5]",
    "",
    "  d=6;[3,2,1], [2,2,2]\t",
    "d=6; [3,2,1],[2,2,2]",
    "\t",
    "d=3; [3],[3]",
    "d=4; [2,2],[2,2]",
    "   # indented comment",
    "d=4; [5]",
    " d=6; [3,2,1],[2,2,2] ",
    "d=5; [5],[5]",
    "d=3; [3],[3]",
]


@pytest.mark.parametrize("fmt", ["human", "json"])
def test_batch_output_is_the_per_line_records_concatenated(tmp_path, fmt):
    path = tmp_path / "batch.txt"
    path.write_text("\n".join(MIXED_BATCH) + "\n", encoding="utf-8")
    code, out, err = run("batch", str(path), "--format", fmt)
    want_out, want_code = "", 0
    for line in MIXED_BATCH:
        if not line.strip() or line.strip().startswith("#"):
            continue
        path.write_text(line + "\n", encoding="utf-8")
        one_code, one_out, one_err = run("batch", str(path), "--format", fmt)
        assert one_err == "" and one_out.count("\n") == 1
        want_out += one_out
        want_code = max(want_code, one_code)
    assert want_code == 2
    assert (code, out, err) == (want_code, want_out, "")


def test_batch_settles_each_distinct_line_once(tmp_path, monkeypatch):
    parsed, classified = [], []

    def counted_parse(text):
        parsed.append(text)
        return parse(text)

    def counted_classify(data):
        classified.append(data.to_text())
        return classify(data)

    parse, classify = cli.parse_branch_data, cli.classify
    monkeypatch.setattr(cli, "parse_branch_data", counted_parse)
    monkeypatch.setattr(cli, "classify", counted_classify)
    path = tmp_path / "batch.txt"
    path.write_text("\n".join(MIXED_BATCH) + "\n", encoding="utf-8")
    code, out, _ = run("batch", str(path), "--format", "json")
    assert code == 2
    assert out.count("\n") == 12
    distinct = {ln.strip() for ln in MIXED_BATCH if ln.strip() and not ln.strip().startswith("#")}
    assert sorted(parsed) == sorted(distinct)
    # lines equal once stripped are one line, two spellings of a datum are
    # two; "d=4; [5]" does not parse
    assert len(classified) == len(distinct) - 1 == 5
    assert classified.count("d=6; [3,2,1],[2,2,2]") == 2


def test_batch_defect_on_a_repeated_later_line_prints_nothing(tmp_path, monkeypatch):
    classify = cli.classify

    def broken(data):
        if data.degree == 5:
            raise RuntimeError("forced defect")
        return classify(data)

    monkeypatch.setattr(cli, "classify", broken)
    path = tmp_path / "batch.txt"
    path.write_text("\n".join(MIXED_BATCH + ["d=5; [5],[5]"]) + "\n", encoding="utf-8")
    code, out, err = run("batch", str(path))
    assert (code, out) == (5, "")
    assert err.startswith("error: internal failure: RuntimeError: forced defect (")
    assert err.count("\n") == 1


def test_batch_missing_file(tmp_path):
    code, _, err = run("batch", str(tmp_path / "absent.txt"))
    assert code == 2
    assert "error:" in err


def test_batch_missing_file_reports_the_os_error_in_one_line(tmp_path):
    path = str(tmp_path / "absent.txt")
    code, out, err = run("batch", path, "--format", "json")
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: {path!r}\n"


def test_batch_stdin(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("d=2; [2],[2]\n"))
    code, out, _ = run("batch", "-")
    assert code == 0
    assert "degree_two" in out


# ---------------------------------------------------------------------------
# misc


def test_version_mentions_backend(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    text = capsys.readouterr().out
    assert "rp2cover" in text
    assert "kernel backend:" in text


def test_module_runs_as_a_program():
    src = os.path.dirname(os.path.dirname(rp2cover.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "rp2cover", "--version"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rp2cover ")


def test_human_format_is_default_and_readable():
    _, out, _ = run("check", "d=6; [3,2,1],[2,2,2]")
    assert "degree: 6" in out
    assert "admissible: yes" in out
    assert "euler_char: 0" in out
