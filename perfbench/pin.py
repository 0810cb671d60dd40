"""Rewrite perfbench/pinned.json from the current source tree.

    python3 perfbench/pin.py

The pinned values are the digest of `rp2cover batch --format json` over the
classify-batch line pool, and the counts of every scan in oracle-scan.  Pin
again only when a change is meant to alter those outputs, and say so.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter

from run import OUT, import_package
from workloads import PINNED_PATH, ClassifyBatch, OracleScan, clear_oracle_caches, run_batch


def main() -> int:
    mods = import_package()
    oracle = mods["oracle"]
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / "batch-pool.txt"
    path.write_text("".join(line + "\n" for line in ClassifyBatch.make_pool()))
    code, text = run_batch(mods, path, 1, Counter())
    if code != 2:
        print(f"error: batch over the pool exited {code}, expected 2", file=sys.stderr)
        return 1
    tuples, pairs = {}, {}
    for kind, arg, extra in OracleScan(mods, 0, OUT).scans:
        clear_oracle_caches(oracle, Counter())
        family, key = kind.split(":", 1)
        if family == "tuple":
            got = oracle.tuple_survey(arg, first_row_reduced=extra).to_dict()
            got.pop("sample")
            tuples[key] = got
        else:
            got = oracle.involution_pair_survey(arg, extra).to_dict()
            if got["total_transitive_pairs"] != oracle.expected_transitive_pair_total(arg):
                print(f"error: pair survey {key} disagrees with d!/d", file=sys.stderr)
                return 1
            pairs[key] = got
    record = {
        "batch_pool_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "tuple_survey": tuples,
        "pair_survey": pairs,
    }
    PINNED_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINNED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
