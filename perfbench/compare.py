"""Compare two result files written by perfbench/run.py.

    python3 perfbench/compare.py perfbench/out/BENCH_ladder_seed1_trace0.json OTHER.json

Prints each end-to-end metric of both runs and the relative change.  When
one file is a traced run and the other an untraced run, the difference is
the tracing overhead.  Runs on different kernel backends, or of different
workloads, are refused (exit code 2).
"""

from __future__ import annotations

import json
import sys


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(open(p, encoding="utf-8").read()) for p in argv)
    for key in ("backend", "workload"):
        if a[key] != b[key]:
            print(f"error: refusing to compare runs with different {key}: {a[key]!r} vs {b[key]!r}", file=sys.stderr)
            return 2
    overhead = a["trace"] != b["trace"]
    if overhead and a["trace"]:
        a, b = b, a
    print(f"# {a['workload']} backend={a['backend']}")
    for side, r in (("A", a), ("B", b)):
        print(f"# {side}: seed={r['seed']} trace={r['trace']} commit={r['commit']} python={r['python']} nproc={r['nproc']}")
    label = "tracing overhead" if overhead else "B vs A"
    for name, va in a["end_to_end"].items():
        vb = b["end_to_end"][name]
        x, y = va["value"], vb["value"]
        if x is None or y is None:
            print(f"{name}: {x} -> {y} {va['unit']}")
            continue
        rel = f"{(y - x) / x:+.1%}" if x else "n/a"
        print(f"{name}: {x:.6g} -> {y:.6g} {va['unit']} ({label}: {y - x:+.6g}, {rel})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
