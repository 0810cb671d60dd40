"""The paper's even-degree rule against exhaustive search, past tier-1's reach.

Criterion 1 (`test_acceptance.py`) checks `classify` against the oracle
for even d <= 6.  This script runs the same loop at one even degree: every
admissible datum whose rows form a multiset of nontrivial partitions, at
most `--max-rows` of them, with total defect at most 2d.  For each datum

- `classify`'s verdict is realizable exactly when `find_primitive_witness`
  finds a witness, and only decomposable otherwise;
- every primitive witness found passes `verify_witness` with `all_ok`;
- an only-decomposable datum has a `find_imprimitive_witness`, and a
  closed-form witness from `realize_decomposable_search` (the path
  `realize --decomposable` takes), whose certificates set every flag but
  `primitive`: the datum is realizable, only not by an indecomposable
  covering.

The number of data up to each row count must match the census pinned in
`CENSUS`, so a change to the generator shows.  A disagreement is reported
and the loop goes on; the script exits 1 if any check failed.  It sets no
time limit.

    PYTHONPATH=src:tests python tests/even_rule_census.py --degree 8 --max-rows 4
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter

from rp2cover.oracle import SearchBounds, find_imprimitive_witness, find_primitive_witness
from rp2cover.realize import Verdict, classify, realize_decomposable_search, verify_witness

from helpers import admissible_multisets

# data with at most k rows, per degree and k
CENSUS = {
    8: {1: 0, 2: 93, 3: 918, 4: 3413},
    10: {1: 0, 2: 349, 3: 5932},
}

# the flags of a certificate; an imprimitive witness sets all but `primitive`
_FLAGS = ("relation_ok", "row_types_ok", "transitive", "nonorientable", "primitive")


def check(data, verdict: Verdict, bounds: SearchBounds) -> list[str]:
    """What is wrong with one datum classified as verdict, as messages;
    empty when all holds."""
    witness = find_primitive_witness(data, bounds)
    if verdict is Verdict.INDECOMPOSABLE_REALIZABLE:
        if witness is None:
            return ["classified realizable, but no primitive witness exists"]
        cert = verify_witness(data, witness)
        return [] if cert.all_ok else [f"primitive witness fails: {cert.to_dict()}"]
    if verdict is not Verdict.ONLY_DECOMPOSABLE:
        return [f"verdict {verdict.value}"]
    if witness is not None:
        return [f"classified only decomposable, but has {witness.to_dict()}"]
    closed_form = realize_decomposable_search(data)
    problems = []
    for source, imprimitive in (
        ("search", find_imprimitive_witness(data, bounds)),
        ("closed-form", closed_form.witness if closed_form else None),
    ):
        if imprimitive is None:
            problems.append(f"classified only decomposable, but no {source} imprimitive witness")
            continue
        cert = verify_witness(data, imprimitive)
        flags = {f: getattr(cert, f) for f in _FLAGS}
        if flags != {**dict.fromkeys(_FLAGS, True), "primitive": False}:
            problems.append(f"{source} imprimitive witness certificate: {flags}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--degree", type=int, default=8)
    parser.add_argument("--max-rows", type=int, default=4)
    args = parser.parse_args(argv)
    d, max_rows = args.degree, args.max_rows
    if d < 2 or d % 2:
        parser.error("the rule is checked at even degrees from 2")
    bounds = SearchBounds(max_degree=d, max_rows=max_rows)
    per_rows = Counter()
    failures = 0
    verdicts = Counter()
    start = time.perf_counter()
    for data in admissible_multisets(d, max_rows=max_rows, max_defect=2 * d):
        per_rows[data.rows_count] += 1
        verdict = classify(data).verdict
        verdicts[verdict.value] += 1
        for problem in check(data, verdict, bounds):
            failures += 1
            print(f"FAIL {data.to_text()}: {problem}")
    census = {k: sum(per_rows[s] for s in range(1, k + 1)) for k in range(1, max_rows + 1)}
    pinned = {k: n for k, n in CENSUS.get(d, {}).items() if k <= max_rows}
    if any(census[k] != n for k, n in pinned.items()):
        failures += 1
        print(f"FAIL census up to each row count {census}, pinned {pinned}")
    print(
        f"d={d}, at most {max_rows} rows: {census[max_rows]} data, "
        f"{dict(sorted(verdicts.items()))}, {failures} failures, "
        f"{time.perf_counter() - start:.1f} s"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
