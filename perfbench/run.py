"""Benchmark for rp2cover: whole operations timed end to end, and per layer.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

Workloads: ladder, verify-mix, classify-batch, oracle-scan (see METRICS.md).
The package is imported from `src/` of the checkout this file sits in.  One
client in one process runs ops closed-loop, round after round, until
`--seconds` have passed; every op runs under a per-op deadline (SIGALRM).
Op and set-up times are scaled by how fast a fixed reference workload
(`calibrate.py`) ran around them, which cancels most of a shared machine's
drift.  With `--trace 1` the package's public functions are wrapped from
outside and the per-layer metrics are printed instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A result file with the
full breakdown, stamped with backend, Python version, nproc, seed and
commit, goes to `perfbench/out/`; traced runs also write their spans there.
The exit code is 0 when every output checked out, 1 when some did not, and
2 when the package cannot be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import signal
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MODULES = ("branch", "perm", "kernels", "groups", "squares", "realize", "oracle", "cli")
SETUP_REPEATS = 3
OP_DEADLINE_S = 30.0
READ_EVERY_S = 0.4  # take a reference reading after an op once this much time has passed

sys.path.insert(0, str(HERE))
from calibrate import Speedometer  # noqa: E402
from spans import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Sample, median  # noqa: E402

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "primary_ms": "ms",
    "secondary_ms": "ms",
}


class OpDeadline(BaseException):
    """Raised by SIGALRM in the op that overran its deadline.  A
    BaseException, so that no `except Exception` in the program swallows it."""


def _on_alarm(signum, frame):
    raise OpDeadline(f"op exceeded its {OP_DEADLINE_S:g} s deadline")


def import_package() -> dict:
    """Import rp2cover afresh from the checkout's `src/`."""
    if not (SRC / "rp2cover" / "__init__.py").is_file():
        raise ImportError(f"no rp2cover package under {SRC}")
    for name in [n for n in sys.modules if n == "rp2cover" or n.startswith("rp2cover.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("rp2cover")
    if Path(pkg.__file__).resolve().parent != (SRC / "rp2cover").resolve():
        raise ImportError(f"rp2cover imported from {pkg.__file__}, not from {SRC}")
    mods = {name: importlib.import_module(f"rp2cover.{name}") for name in MODULES}
    mods["rp2cover"] = pkg
    return mods


def run_guarded(kind, fn, tracer=None, op_id=None) -> Sample:
    """Run one op under the deadline; any exception makes it a failed op."""
    span = tracer.begin_op(op_id, f"op:{kind}") if tracer else None
    raised = None
    items, output, error = 0, None, None
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
        try:
            items, output = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except (Exception, OpDeadline) as e:  # the benchmark records and goes on
        raised = e
        error = type(e).__name__
        if not isinstance(e, CheckFailed):
            print(f"op {kind} failed: {error}: {str(e)[:200]}", file=sys.stderr)
        else:
            print(f"op {kind} check failed: {e}", file=sys.stderr)
    elapsed = time.perf_counter() - t0
    if span is not None:
        tracer.end_op(span, raised)
    return Sample(kind, t0, elapsed, items, error, output)


def commit_of(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "rp2cover").glob("*")):
        if p.is_file() and p.suffix in (".py", ".pyx", ".c"):
            h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def finite(x):
    return x if isinstance(x, (int, float)) and math.isfinite(x) else None


def timed_phase(wl, seconds, tracer, speed):
    """Rounds of ops until `seconds` have passed, with reference readings
    between ops.  Returns the samples, the round count and the start time."""
    samples: list[Sample] = []
    t_start = last_read = time.perf_counter()
    rounds = 0
    while True:
        for kind, fn in wl.round(rounds):
            samples.append(run_guarded(kind, fn, tracer, len(samples)))
            if time.perf_counter() - last_read >= READ_EVERY_S:
                speed.read()
                last_read = time.perf_counter()
        rounds += 1
        if time.perf_counter() - t_start >= seconds:
            break
    speed.read()
    return samples, rounds, t_start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        import_package()  # fail early, before any set-up is timed
    except ImportError as e:
        print(f"error: cannot import the package: {e}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)

    # set-up, several times over, each with a fresh import
    speed = Speedometer()
    setup_runs = []
    for _ in range(SETUP_REPEATS):
        speed.read()
        t0 = time.perf_counter()
        mods = import_package()
        wl = WORKLOADS[args.workload](mods, args.seed, OUT / "work")
        setup_runs.append((t0, time.perf_counter() - t0))
    speed.read()

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.attach(mods)
    samples, rounds, t_start = timed_phase(wl, args.seconds, tracer, speed)
    timed_s = time.perf_counter() - t_start
    if tracer:
        tracer.detach()
    wl.finish(samples, run_guarded)

    scales = [speed.scale(s.start + s.seconds / 2) for s in samples]
    e2e, breakdown = wl.summary([s.scaled(f) for s, f in zip(samples, scales)])
    raw_e2e, raw_breakdown = wl.summary(samples)
    e2e["setup_s"] = median([dt * speed.scale(t0 + dt / 2) for t0, dt in setup_runs])
    raw_e2e["setup_s"] = median([dt for _, dt in setup_runs])
    e2e["peak_rss_mb"] = raw_e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = Counter(f"{s.error}@{s.kind}" for s in samples if s.error)
    failed = sum(failures.values())

    if tracer:
        extra = dict(wl.layer_counts(samples))
        extra.update({f"trace.{k}": e2e[k] for k in ("ops_per_s", "primary_ms", "secondary_ms")})
        layers = layer_metrics(tracer, extra)
        metrics = {name: {"value": finite(layers[name]), "unit": unit} for name, unit, _ in LAYER_METRICS}
    else:
        metrics = {name: {"value": finite(e2e[name]), "unit": unit} for name, unit in E2E_UNITS.items()}

    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    stamp = {
        "backend": mods["kernels"].BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "commit": commit_of(ROOT),
        "source_sha256": source_digest(),
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        **stamp,
        "rounds": rounds,
        "timed_s": timed_s,
        "setup_runs_s": [dt for _, dt in setup_runs],
        "end_to_end": {name: {"value": finite(e2e[name]), "unit": unit} for name, unit in E2E_UNITS.items()},
        "breakdown": {k: {kk: finite(vv) if isinstance(vv, float) else vv for kk, vv in v.items()} for k, v in breakdown.items()},
        "raw_end_to_end": {name: finite(raw_e2e[name]) for name in E2E_UNITS},
        "raw_breakdown": {k: finite(v["value"]) for k, v in raw_breakdown.items()},
        "reference_ms": [[round(t - t_start, 3), round(ms, 3)] for t, ms in speed.readings],
        "samples": [[s.kind, round(s.start - t_start, 4), s.seconds, round(f, 4), s.error] for s, f in zip(samples, scales)],
        "failures": dict(failures),
        "attempted": len(samples),
        "failed": failed,
        "correct": failed == 0,
    }
    if tracer:
        record["per_layer"] = metrics
        record["spans_file"] = f"SPANS_{tag}.csv.gz"
        tracer.write(OUT / record["spans_file"])
    (OUT / f"BENCH_{tag}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(
        f"# {args.workload} seed={args.seed} backend={stamp['backend']} python={stamp['python']} "
        f"nproc={stamp['nproc']} commit={stamp['commit']} rounds={rounds} timed={timed_s:.2f}s"
    )
    for name, v in sorted(breakdown.items()):
        extra = " ".join(f"{k}={v[k]}" for k in v if k not in ("value", "unit"))
        print(f"#   {name} = {v['value']} {v['unit']} {extra}".rstrip())
    for key, n in sorted(failures.items()):
        print(f"#   failed: {key} x{n}")
    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
