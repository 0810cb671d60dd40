"""Per-layer tracing from outside the package.

`Tracer.wrap` replaces a module attribute such as
`rp2cover.realize.assemble_pair` with a wrapper that records a span around
every call.  Only the benchmark's own files do this; nothing in `src/` is
instrumented.  Spans are kept in memory as (name, start, end, parent, op,
raised) and written out when the run ends.  `layer_metrics` turns them into
the per-layer metrics listed in `LAYER_METRICS`.
"""

from __future__ import annotations

import gzip
import threading
import time
from array import array
from collections import Counter
from functools import wraps

# (name, unit, better) for every per-layer metric, in output order.  Every
# traced run prints all of them; a layer the workload does not reach reads 0.
LAYER_METRICS = [
    ("realize.verify_witness.s", "s", "lower"),
    ("realize.verify_witness.calls", "count", "lower"),
    ("verify.relation_s", "s", "lower"),
    ("verify.transitivity_orientation_s", "s", "lower"),
    ("verify.primitivity_s", "s", "lower"),
    ("kernels.minimal_block.s", "s", "lower"),
    ("kernels.minimal_block.calls", "count", "lower"),
    ("realize.assemble_pair.s", "s", "lower"),
    ("realize.assemble_pair.calls", "count", "lower"),
    ("realize.assemble_pair.exhausted", "count", "lower"),
    ("realize.fold_goal_hit_ratio", "ratio", "higher"),
    ("realize.fold_steps", "count", "lower"),
    ("realize.engine.fold_chain", "count", "higher"),
    ("realize.engine.all_twos_chain", "count", "higher"),
    ("realize.engine.degree_two", "count", "higher"),
    ("realize.engine.random_tuple", "count", "lower"),
    ("realize.engine.exhaustive_scan", "count", "lower"),
    ("groups.conjugator.s", "s", "lower"),
    ("squares.all_square_roots.s", "s", "lower"),
    ("squares.all_square_roots.calls", "count", "lower"),
    ("squares.roots_enumerated", "count", "lower"),
    ("branch.parse_branch_data.s", "s", "lower"),
    ("branch.parse_branch_data.calls", "count", "lower"),
    ("branch.parse_branch_data.errors", "count", "lower"),
    ("realize.classify.s", "s", "lower"),
    ("realize.classify.calls", "count", "lower"),
    ("cli.batch.self_s", "s", "lower"),
    ("cli.batch.jobs_self_s", "s", "lower"),
    ("oracle.tuple_survey.s", "s", "lower"),
    ("oracle.involution_pair_survey.s", "s", "lower"),
    ("oracle.is_primitive.s", "s", "lower"),
    ("oracle.is_primitive.calls", "count", "lower"),
    ("oracle.classify_by_search.s", "s", "lower"),
    ("oracle.classify_by_search.calls", "count", "lower"),
    ("oracle.relation_pairs", "count", "lower"),
    ("oracle.class_images.hits", "count", "higher"),
    ("oracle.class_images.misses", "count", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.ops_per_s", "1/s", "higher"),
    ("trace.primary_ms", "ms", "lower"),
    ("trace.secondary_ms", "ms", "lower"),
]

# (module, attribute, span name).  A function imported into several
# modules is wrapped in each namespace it is looked up from.
WRAP_POINTS = [
    ("realize", "verify_witness", "realize.verify_witness"),
    ("realize", "imprimitivity_block", "groups.imprimitivity_block"),
    ("groups", "imprimitivity_block", "groups.imprimitivity_block"),
    ("kernels", "minimal_block", "kernels.minimal_block"),
    ("realize", "assemble_pair", "realize.assemble_pair"),
    ("realize", "conjugator", "groups.conjugator"),
    ("realize", "all_square_roots", "squares.all_square_roots"),
    ("oracle", "all_square_roots", "squares.all_square_roots"),
    ("cli", "parse_branch_data", "branch.parse_branch_data"),
    ("branch", "parse_branch_data", "branch.parse_branch_data"),
    ("cli", "classify", "realize.classify"),
    ("realize", "classify", "realize.classify"),
    ("oracle", "tuple_survey", "oracle.tuple_survey"),
    ("oracle", "involution_pair_survey", "oracle.involution_pair_survey"),
    ("oracle", "is_primitive", "oracle.is_primitive"),
    ("oracle", "classify_by_search", "oracle.classify_by_search"),
]
# Kernels the oracle scans call once per relation pair: spans are kept only
# when the verifier calls them, which is where their time is reported.
VERIFIER_ONLY = [
    ("kernels", "component_labels", "kernels.component_labels"),
    ("kernels", "alpha_extension", "kernels.alpha_extension"),
]


class Tracer:
    """Records spans around wrapped calls.

    Span i is (names[name[i]], start[i], end[i], parent[i], op[i]), with
    parent -1 for an op's root span; `raised` maps a span to the type of
    the exception that ended it.  Spans from a worker thread whose own stack
    is empty hang under the op that is running.  Compact arrays keep a
    million spans in a few tens of megabytes.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.raised: dict[int, str] = {}
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op_span = -1
        self._op_id = -1
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, nid: int) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._op_span
        with self._lock:
            sid = len(self.start)
            self.name.append(nid)
            self.parent.append(parent)
            self.op.append(self._op_id)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(sid)
        return sid

    def end_span(self, sid: int, raised: BaseException | None = None) -> None:
        self.end[sid] = time.perf_counter()
        if raised is not None:
            self.raised[sid] = type(raised).__name__
        self._stack().pop()

    def begin_op(self, op_id: int, name: str) -> int:
        self._op_id = op_id
        self._op_span = -1
        self._op_span = self.begin(self.name_id(name))
        return self._op_span

    def end_op(self, sid: int, raised: BaseException | None = None) -> None:
        self.end_span(sid, raised)
        self._op_span = -1

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def wrap(self, module, attr: str, name: str, only_under: str | None = None) -> None:
        orig = getattr(module, attr)
        tracer = self
        nid = self.name_id(name)
        under = self.name_id(only_under) if only_under else None
        count_roots = name == "squares.all_square_roots"

        @wraps(orig)
        def traced(*args, **kwargs):
            if under is not None:
                stack = tracer._stack()
                if not stack or tracer.name[stack[-1]] != under:
                    return orig(*args, **kwargs)
            sid = tracer.begin(nid)
            try:
                result = orig(*args, **kwargs)
            except BaseException as e:
                tracer.end_span(sid, e)
                raise
            tracer.end_span(sid)
            if count_roots:
                tracer.count("squares.roots_enumerated", len(result))
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, orig))

    def count_items(self, module, attr: str, name: str) -> None:
        """Wrap a generator function so that every item it yields is counted."""
        orig = getattr(module, attr)
        tracer = self

        @wraps(orig)
        def counted(*args, **kwargs):
            for item in orig(*args, **kwargs):
                tracer.count(name)
                yield item

        setattr(module, attr, counted)
        self._restore.append((module, attr, orig))

    def attach(self, modules: dict) -> None:
        for mod, attr, name in WRAP_POINTS:
            self.wrap(modules[mod], attr, name)
        for mod, attr, name in VERIFIER_ONLY:
            self.wrap(modules[mod], attr, name, only_under="realize.verify_witness")
        self.count_items(modules["oracle"], "iter_relation_pairs", "oracle.relation_pairs")

    def detach(self) -> None:
        for module, attr, orig in reversed(self._restore):
            setattr(module, attr, orig)
        self._restore.clear()

    def write(self, path) -> None:
        """Spans as gzipped CSV; times in microseconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,name,start_us,end_us,parent,op,raised\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name[i]]},{(self.start[i] - t0) * 1e6:.1f},"
                    f"{(self.end[i] - t0) * 1e6:.1f},{self.parent[i]},{self.op[i]},"
                    f"{self.raised.get(i, '')}\n"
                )


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals (children of one span may overlap
    when they ran on different threads)."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        elif b > cur_end:
            cur_end = b
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(tracer: Tracer, extra: dict) -> dict[str, float]:
    """Per-layer metrics from the recorded spans and counts.

    A name's time is the summed duration of its outermost spans.  Self time
    is a span's duration minus the part of it its children cover.  `extra`
    carries what the workload counted itself (engine counts, fold steps,
    cache statistics, end-to-end numbers measured under tracing).
    """
    t = tracer
    n = len(t.start)
    ids = {name: t.name_id(name) for _, _, name in WRAP_POINTS + VERIFIER_ONLY}
    verify = ids["realize.verify_witness"]
    batch = {t.name_id("op:batch.serial"): "cli.batch.self_s", t.name_id("op:batch.jobs"): "cli.batch.jobs_self_s"}
    trans_orient = {ids["kernels.component_labels"], ids["kernels.alpha_extension"]}
    block = ids["groups.imprimitivity_block"]

    total: Counter = Counter()
    calls: Counter = Counter()
    children: dict[int, list[tuple[float, float]]] = {}
    sums: Counter = Counter()
    for i in range(n):
        k = t.name[i]
        calls[k] += 1
        dur = t.end[i] - t.start[i]
        p = t.parent[i]
        q = p
        while q >= 0 and t.name[q] != k:
            q = t.parent[q]
        if q < 0:  # outermost span of this name: count its time once
            total[k] += dur
        if k == verify or k in batch:
            children[i] = []
        if p >= 0:
            if p in children:
                children[p].append((t.start[i], t.end[i]))
            if t.name[p] == verify:
                if k in trans_orient:
                    sums["verify.transitivity_orientation_s"] += dur
                elif k == block:
                    sums["verify.primitivity_s"] += dur
    for p, kids in children.items():
        pk = t.name[p]
        self_s = (t.end[p] - t.start[p]) - _covered(kids)
        sums["verify.relation_s" if pk == verify else batch[pk]] += self_s

    raised: Counter = Counter((t.name[i], exc) for i, exc in t.raised.items())
    assemble = ids["realize.assemble_pair"]
    assemble_calls = calls[assemble]
    assemble_ok = assemble_calls - sum(c for (k, _), c in raised.items() if k == assemble)
    m = dict(sums)
    for name, k in ids.items():
        m[f"{name}.s"] = total[k]
        m[f"{name}.calls"] = calls[k]
    m.update(
        {
            "realize.assemble_pair.exhausted": raised[(assemble, "SearchExhausted")],
            "realize.fold_goal_hit_ratio": assemble_ok / assemble_calls if assemble_calls else 0.0,
            "branch.parse_branch_data.errors": raised[(ids["branch.parse_branch_data"], "ParseError")],
            "squares.roots_enumerated": t.counts["squares.roots_enumerated"],
            "oracle.relation_pairs": t.counts["oracle.relation_pairs"],
            "trace.spans": n,
        }
    )
    m.update(extra)
    return {name: m.get(name, 0) for name, _, _ in LAYER_METRICS}
