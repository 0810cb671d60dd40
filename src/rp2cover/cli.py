"""Command-line interface.

Subcommands mirror the library layer by layer: `check` for admissibility
arithmetic, `classify` for the realizability verdict, `realize` to build
and verify a witness, `verify` to re-check a stored witness, `oracle` for
the bounded exhaustive scans, and `batch` to classify many data at once.

Exit codes are a stable contract: 0 success or affirmative, 1 negative
verdict (inadmissible data, failed verification), 2 parse error, 3
undecided, 4 the requested construction is ruled out, 5 engine failure
(any other error of the engine or the program, reported in one line),
6 search bounds exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from . import __version__, kernels
from .branch import (
    BranchData,
    ParseError,
    euler_char_covering,
    is_admissible,
    parse_branch_data,
)
from .oracle import (
    BoundsExceededError,
    SearchBounds,
    exists_primitive_realization,
    exists_realization,
    involution_pair_survey,
    tuple_survey,
)
from .realize import (
    HurwitzWitness,
    NotRealizableError,
    RealizationError,
    Verdict,
    classify,
    realize_decomposable_search,
    realize_indecomposable,
    verify_witness,
)

OK = 0
NEGATIVE = 1
PARSE_ERROR = 2
UNDECIDED = 3
FORBIDDEN = 4
ENGINE_FAILURE = 5
BOUNDS_EXCEEDED = 6


def _emit(payload: dict, fmt: str, out) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
        return
    for line in _human_lines(payload, indent=0):
        print(line, file=out)


def _human_lines(value, indent: int, key: str | None = None):
    pad = "  " * indent
    label = f"{key}: " if key is not None else ""
    if isinstance(value, dict):
        if key is not None:
            yield f"{pad}{key}:"
            indent += 1
            pad = "  " * indent
        for k, v in value.items():
            yield from _human_lines(v, indent, k)
    elif isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            yield f"{pad}{label}{', '.join(_scalar(v) for v in value)}"
        else:
            yield f"{pad}{key}:"
            for v in value:
                yield from _human_lines(v, indent + 1)
    else:
        yield f"{pad}{label}{_scalar(value)}"


def _scalar(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "yes" if v else "no"
    return str(v)


def _data_payload(data: BranchData) -> dict:
    adm = is_admissible(data)
    payload = {
        "data": data.to_text(),
        "degree": data.degree,
        "rows": [list(r.parts) for r in data.rows],
        "rows_count": data.rows_count,
        "total_defect": data.total_defect(),
        "admissible": adm.ok,
    }
    if adm.ok:
        payload["euler_char"] = euler_char_covering(data)
    else:
        payload["admissible_reason"] = adm.reason
    return payload


def _bounds_from(args) -> SearchBounds:
    return SearchBounds(args.max_degree, args.max_rows, args.root_cap)


def _add_bounds_args(sub) -> None:
    base = SearchBounds()
    sub.add_argument("--max-degree", type=int, default=base.max_degree)
    sub.add_argument("--max-rows", type=int, default=base.max_rows)
    sub.add_argument("--root-cap", type=int, default=base.root_cap)


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(args, out, err) -> int:
    data = parse_branch_data(args.data)
    _emit(_data_payload(data), args.format, out)
    return OK if is_admissible(data).ok else NEGATIVE


def cmd_classify(args, out, err) -> int:
    data = parse_branch_data(args.data)
    cls = classify(data)
    payload = _data_payload(data)
    payload["classification"] = cls.to_dict()
    _emit(payload, args.format, out)
    if cls.verdict is Verdict.UNKNOWN:
        return UNDECIDED
    return OK


def cmd_realize(args, out, err) -> int:
    data = parse_branch_data(args.data)
    cls = classify(data)
    payload = _data_payload(data)
    payload["classification"] = cls.to_dict()
    if cls.verdict is Verdict.NOT_ADMISSIBLE:
        _emit(payload, args.format, out)
        print("error: branch data is not admissible", file=err)
        return FORBIDDEN
    if cls.verdict is Verdict.UNKNOWN:
        _emit(payload, args.format, out)
        print("error: realizability undecided for this degree", file=err)
        return UNDECIDED
    if cls.verdict is Verdict.ONLY_DECOMPOSABLE:
        if not args.decomposable:
            _emit(payload, args.format, out)
            print(
                "error: only decomposable coverings exist; "
                "pass --decomposable to construct one",
                file=err,
            )
            return FORBIDDEN
        result = realize_decomposable_search(
            data, seed=args.seed, classification=cls
        )
        if result is None:
            print("error: no decomposable witness found", file=err)
            return ENGINE_FAILURE
    else:
        result = realize_indecomposable(data, seed=args.seed, classification=cls)
    payload.update(result.to_dict())
    _emit(payload, args.format, out)
    return OK


def cmd_verify(args, out, err) -> int:
    data = parse_branch_data(args.data)
    if args.witness == "-":
        raw = sys.stdin.read()
    else:
        with open(args.witness, "r", encoding="utf-8") as fh:
            raw = fh.read()
    rec = json.loads(raw)
    if not isinstance(rec, dict):
        raise ValueError("witness file must hold a JSON object")
    if "witness" in rec:
        cert = rec.get("certificate", {})
        if not isinstance(cert, dict):
            raise ValueError("'certificate' must be a JSON object")
        row_map = cert.get("row_permutation_applied")
        rec = rec["witness"]
    else:
        row_map = rec.get("row_map")
    if row_map is not None and not (
        isinstance(row_map, list) and all(type(i) is int for i in row_map)
    ):
        raise ValueError("row map must be a list of row indices")
    # a witness of another degree than the data's is refused before any
    # permutation of the degree it claims is built
    if isinstance(rec, dict) and type(rec.get("degree")) is int:
        if rec["degree"] != data.degree:
            raise ValueError("witness shape does not match branch data")
    witness = HurwitzWitness.from_dict(rec)
    cert = verify_witness(data, witness, row_map=row_map)
    payload = {
        "data": data.to_text(),
        "witness": witness.to_dict(),
        "certificate": cert.to_dict(),
    }
    _emit(payload, args.format, out)
    return OK if cert.all_ok else NEGATIVE


def cmd_oracle(args, out, err) -> int:
    bounds = _bounds_from(args)
    if args.pair_survey is not None:
        survey = involution_pair_survey(args.pair_survey, bounds)
        _emit(survey.to_dict(), args.format, out)
        return OK
    if args.data is None:
        print("error: give branch data or --pair-survey DEGREE", file=err)
        return PARSE_ERROR
    data = parse_branch_data(args.data)
    if args.survey:
        survey = tuple_survey(data, bounds, first_row_reduced=not args.unreduced)
        _emit(survey.to_dict(), args.format, out)
        return OK
    payload = _data_payload(data)
    payload["exists_realization"] = exists_realization(
        data, bounds, first_row_reduced=not args.unreduced
    )
    payload["exists_primitive_realization"] = exists_primitive_realization(
        data, bounds
    )
    _emit(payload, args.format, out)
    return OK


def _classify_line(line: str) -> dict:
    try:
        data = parse_branch_data(line)
    except ParseError as e:
        return {"input": line, "error": str(e)}
    cls = classify(data)
    out = {"input": data.to_text(), "classification": cls.to_dict()}
    return out


def cmd_batch(args, out, err) -> int:
    if args.file == "-":
        lines = sys.stdin.read().splitlines()
    else:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as e:
            print(f"error: {e}", file=err)
            return PARSE_ERROR
    work = [ln.strip() for ln in lines if ln.strip() and not ln.strip().startswith("#")]
    results = [_classify_line(ln) for ln in work]
    for rec in results:
        if args.format == "json":
            print(json.dumps(rec, sort_keys=True), file=out)
        elif "error" in rec:
            print(f"{rec['input']} :: error: {rec['error']}", file=out)
        else:
            cls = rec["classification"]
            tag = cls["case"] or cls["reason"]
            suffix = f" ({tag})" if tag else ""
            print(f"{rec['input']} :: {cls['verdict']}{suffix}", file=out)
    return PARSE_ERROR if any("error" in rec for rec in results) else OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rp2cover",
        description="Branched coverings of the projective plane: "
        "admissibility, realizability, witnesses.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__} (kernel backend: {kernels.BACKEND})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--format", choices=("human", "json"), default="human", dest="format"
        )

    p = sub.add_parser("check", help="parse branch data and test admissibility")
    p.add_argument("data", help='branch data, e.g. "d=6; [3,2,1],[2,2,2]"')
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("classify", help="decide indecomposable realizability")
    p.add_argument("data")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("realize", help="construct and verify a witness")
    p.add_argument("data")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--decomposable",
        action="store_true",
        help="for only-decomposable data, search for an imprimitive witness",
    )
    common(p)
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("verify", help="re-check a stored witness")
    p.add_argument("data")
    p.add_argument(
        "--witness",
        required=True,
        help="JSON file with the witness (or - for stdin); accepts realize output",
    )
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="bounded exhaustive scans")
    p.add_argument("data", nargs="?", default=None)
    p.add_argument("--survey", action="store_true", help="bucket counts per witness")
    p.add_argument(
        "--unreduced",
        action="store_true",
        help="do not pin the first row to its canonical representative",
    )
    p.add_argument(
        "--pair-survey",
        type=int,
        default=None,
        metavar="DEGREE",
        help="survey transitive fixed-point-free involution pairs instead",
    )
    _add_bounds_args(p)
    common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("batch", help="classify branch data line by line")
    p.add_argument("file", help="input file, one branch datum per line (- for stdin)")
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="accepted for compatibility; lines are always classified serially",
    )
    common(p)
    p.set_defaults(func=cmd_batch)

    return parser


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out, err)
    except ParseError as e:
        print(f"error: {e}", file=err)
        return PARSE_ERROR
    except BoundsExceededError as e:
        print(f"error: {e}", file=err)
        return BOUNDS_EXCEEDED
    except NotRealizableError as e:
        print(f"error: {e}", file=err)
        return FORBIDDEN
    except (ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=err)
        return PARSE_ERROR
    except RealizationError as e:
        print(f"error: {e}", file=err)
        return ENGINE_FAILURE
    except Exception as e:
        # A defect, not a fact about the input: report it in one line, with
        # the place it was raised, instead of a traceback.
        where = traceback.extract_tb(e.__traceback__)[-1]
        print(
            f"error: internal failure: {type(e).__name__}: {e} "
            f"({os.path.basename(where.filename)}:{where.lineno})",
            file=err,
        )
        return ENGINE_FAILURE


if __name__ == "__main__":
    sys.exit(main())
