"""End-to-end command tests driving main() in process."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys

import pytest

import rp2cover
from rp2cover import oracle, realize
from rp2cover.cli import main


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
    scan = oracle.iter_relation_pairs

    def counted(*args, **kwargs):
        scans.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(oracle, "iter_relation_pairs", counted)
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


def test_realize_engine_failure_exits_5(monkeypatch):
    def stall(*args, **kwargs):
        raise realize._FoldStall("forced stall")

    monkeypatch.setattr(realize, "_fold_chain", stall)
    code, out, err = run("realize", "d=6; [3,2,1],[2,2,2]")
    assert code == 5
    assert out == ""
    assert err.startswith("error: ")


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


def test_batch_missing_file(tmp_path):
    code, _, err = run("batch", str(tmp_path / "absent.txt"))
    assert code == 2
    assert "error:" in err


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
