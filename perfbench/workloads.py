"""The four benchmark workloads.

Each workload is built from the imported package modules and the seed (its
set-up), then hands out rounds of ops.  An op is a (kind, callable) pair:
the callable does one unit of user-visible work, checks what it can check
at once, and returns (work items completed, output kept for `finish`).  It
raises `CheckFailed` when an output is wrong.  `finish` runs the checks
that are kept out of the timed span.  `summary` turns the timed samples
into the end-to-end metrics and the named breakdown.

The end-to-end metrics have the same names on every workload; METRICS.md
says what `primary_ms` and `secondary_ms` measure on each.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from collections import Counter
from functools import cache
from pathlib import Path

PINNED_PATH = Path(__file__).parent / "pinned.json"


@cache
def pinned():
    """Outputs recorded from a trusted tree; `pin.py` rewrites them."""
    return json.loads(PINNED_PATH.read_text())


class CheckFailed(Exception):
    """An output of the program is not what it must be."""


class Sample:
    __slots__ = ("kind", "start", "seconds", "items", "error", "output")

    def __init__(self, kind, start, seconds, items=0, error=None, output=None):
        self.kind = kind
        self.start = start
        self.seconds = seconds
        self.items = items
        self.error = error
        self.output = output

    def scaled(self, factor):
        return Sample(self.kind, self.start, self.seconds * factor, self.items, self.error, self.output)


def median(xs):
    xs = sorted(xs)
    n = len(xs)
    if n == 0:
        return math.nan
    mid = n // 2
    return xs[mid] if n % 2 else (xs[mid - 1] + xs[mid]) / 2


def latency(samples, kind):
    """Latency summary of one kind: failed ops count as infinitely slow."""
    xs = sorted(math.inf if s.error else s.seconds * 1000 for s in samples if s.kind == kind)
    out = {"value": median(xs), "unit": "ms", "n": len(xs)}
    # the highest percentile that still has at least ten samples beyond it
    for p in (99.9, 99, 95, 90, 75, 50):
        if len(xs) * (1 - p / 100) >= 10:
            out[f"p{p:g}"] = xs[max(0, math.ceil(p / 100 * len(xs)) - 1)]
            break
    return out


def throughput(samples):
    """Work items per second of op time."""
    busy = sum(s.seconds for s in samples)
    return sum(s.items for s in samples if not s.error) / busy if busy else 0.0


def fail_ratio(samples):
    value = sum(1 for s in samples if s.error) / len(samples) if samples else 0.0
    return {"value": value, "unit": "ratio"}


def clear_oracle_caches(oracle, tally):
    """Empty the oracle's caches, as every new `rp2cover` process starts;
    add their hit and miss counts to `tally` first."""
    info = oracle.class_images.cache_info()
    tally["oracle.class_images.hits"] += info.hits
    tally["oracle.class_images.misses"] += info.misses
    oracle.class_images.cache_clear()
    oracle._roots_of.cache_clear()


def run_batch(m, path, jobs, tally):
    """`rp2cover batch PATH --format json [--jobs N]`, in process and cold."""
    clear_oracle_caches(m["oracle"], tally)
    argv = ["batch", str(path), "--format", "json"] + (["--jobs", str(jobs)] if jobs > 1 else [])
    out, err = io.StringIO(), io.StringIO()
    code = m["cli"].main(argv, out=out, err=err)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# input generators (the first two are criterion 5's, from the acceptance tests)


def random_partition(d, rng):
    rest, parts = d, []
    while rest:
        p = rng.randint(1, rest)
        parts.append(p)
        rest -= p
    return tuple(sorted(parts, reverse=True))


def mixed_instance(branch, d, s, rng):
    while True:
        rows = tuple(branch.Partition(random_partition(d, rng)) for _ in range(s))
        if all(r.is_all_twos() for r in rows):
            continue
        data = branch.BranchData(d, rows)
        if not branch.is_admissible(data).ok:
            continue
        return data


def all_twos(branch, d, s):
    return branch.BranchData(d, tuple(branch.Partition((2,) * (d // 2)) for _ in range(s)))


def data_line(d, rows):
    return f"d={d}; " + ",".join("[" + ",".join(map(str, r)) + "]" for r in rows)


# ---------------------------------------------------------------------------


class Ladder:
    """realize_indecomposable on 3-row data along a degree ladder.

    Mixed rungs are verifier-bound, all-twos rungs pair-search-bound.  Each
    round runs the rungs interleaved, the cheap ones more often so that
    every rung gets samples.  A d=1024 probe runs once after the timed phase.
    """

    name = "ladder"
    ROUND = ("d64", "d512", "d256", "twos256", "d64", "d512", "d64", "twos512", "d256", "d64", "twos256")
    MIXED = {"d64": 64, "d256": 256, "d512": 512}
    TWOS = {"twos256": 256, "twos512": 512}
    POOL = 24  # distinct instances per mixed rung, more than a run uses

    def __init__(self, m, seed, workdir):
        self.m = m
        self.seed = seed
        branch = m["branch"]
        self.pools = {}
        for kind, d in self.MIXED.items():
            rng = random.Random(f"{seed}:{kind}")
            self.pools[kind] = [mixed_instance(branch, d, 3, rng) for _ in range(self.POOL)]
        for kind, d in self.TWOS.items():
            self.pools[kind] = [all_twos(branch, d, 3)]
        self.probe_data = mixed_instance(branch, 1024, 3, random.Random(f"{seed}:d1024"))
        self.used = Counter()
        self.probe = None

    def round(self, r):
        ops = []
        for kind in self.ROUND:
            pool = self.pools[kind]
            data = pool[self.used[kind] % len(pool)]
            self.used[kind] += 1
            ops.append((kind, self._op(data, self.seed * 1000 + sum(self.used.values()))))
        return ops

    def _op(self, data, op_seed):
        realize = self.m["realize"]

        def op():
            return 1, (data, realize.realize_indecomposable(data, seed=op_seed))

        return op

    def finish(self, samples, run_guarded):
        """Re-verify every witness through a JSON round trip, then probe d=1024."""
        realize = self.m["realize"]
        verified = {}
        for s in samples:
            if s.error:
                continue
            data, res = s.output
            text = json.dumps(res.witness.to_dict(), sort_keys=True)
            row_map = tuple(res.certificate.row_permutation_applied)
            key = (data.to_text(), text, row_map)
            if key not in verified:
                w = realize.HurwitzWitness.from_dict(json.loads(text))
                verified[key] = realize.verify_witness(data, w, row_map=row_map).all_ok
            if not verified[key]:
                s.error = "CheckFailed"

        def probe():
            realize.realize_indecomposable(self.probe_data, seed=self.seed)
            return 1, None

        s = run_guarded("d1024", probe)
        self.probe = {
            "seconds": s.seconds,
            "outcome": s.error or "ok",
            "note": "known-defect probe, outside the timed phase and the op counts",
        }

    def layer_counts(self, samples):
        out = Counter()
        for s in samples:
            if not s.error:
                res = s.output[1]
                out[f"realize.engine.{res.engine}"] += 1
                out["realize.fold_steps"] += len(res.trace)
        return out

    def summary(self, samples):
        lat = {k: latency(samples, k) for k in self.pools}
        breakdown = {f"realize_ms.{k}": v for k, v in lat.items()}
        if self.probe is not None:
            ok = self.probe["outcome"] == "ok"
            breakdown["realize_ms.d1024"] = {
                "value": self.probe["seconds"] * 1000 if ok else math.inf,
                "unit": "ms",
                "n": 1,
                "probe": self.probe,
            }
        breakdown["ops_per_s"] = {"value": throughput(samples), "unit": "1/s"}
        breakdown["fail_ratio"] = fail_ratio(samples)
        return {
            "ops_per_s": throughput(samples),
            "primary_ms": lat["d512"]["value"],
            "secondary_ms": lat["twos256"]["value"],
        }, breakdown


class VerifyMix:
    """Stored witnesses re-verified the way `rp2cover verify` does it."""

    name = "verify-mix"
    KINDS = ("primitive", "imprimitive", "corrupt")
    DEGREES = (256, 512)
    EXPECT = {
        "primitive": dict(relation_ok=True, row_types_ok=True, transitive=True, nonorientable=True, primitive=True),
        "imprimitive": dict(relation_ok=True, row_types_ok=True, transitive=True, nonorientable=True, primitive=False),
        # the relation fails, but the group is still transitive, so the full
        # primitivity scan runs
        "corrupt": dict(relation_ok=False, row_types_ok=True, transitive=True, primitive=True),
    }

    def __init__(self, m, seed, workdir):
        self.m = m
        branch, realize = m["branch"], m["realize"]
        rng = random.Random(f"{seed}:verify-mix")
        items = []  # (kind, data, witness, row map), in round order
        for d in self.DEGREES:
            data = mixed_instance(branch, d, 3, rng)
            res = realize.realize_indecomposable(data, seed=seed)
            row_map = list(res.certificate.row_permutation_applied)
            bad = realize.HurwitzWitness(d, res.witness.gammas, _break_relation(m, res.witness, rng))
            two = all_twos(branch, d, 2)
            dec = realize.realize_decomposable_search(two, seed=seed)
            imprimitive = ("imprimitive", two, dec.witness, list(dec.certificate.row_permutation_applied))
            # the early-exit verify is cheap, so it runs more often per round
            items += [("primitive", data, res.witness, row_map), imprimitive, imprimitive]
            items += [("corrupt", data, bad, row_map), imprimitive, imprimitive]
        self.items = [
            (f"{kind}.d{data.degree}", data.to_text(), json.dumps({"witness": w.to_dict(), "row_map": rm}))
            for kind, data, w, rm in items
        ]
        self.seen = {}

    def round(self, r):
        return [(kind, self._op(kind, text, wtext)) for kind, text, wtext in self.items]

    def _op(self, kind, data_text, witness_text):
        branch, realize = self.m["branch"], self.m["realize"]
        expect = self.EXPECT[kind.split(".")[0]]

        def op():
            data = branch.parse_branch_data(data_text)
            rec = json.loads(witness_text)
            w = realize.HurwitzWitness.from_dict(rec["witness"])
            got = realize.verify_witness(data, w, row_map=rec["row_map"]).to_dict()
            wrong = {k: got[k] for k, v in expect.items() if got[k] != v}
            if wrong:
                raise CheckFailed(f"{kind} witness: unexpected {wrong}")
            if self.seen.setdefault(witness_text, got) != got:
                raise CheckFailed(f"{kind} witness: certificate changed between ops")
            return 1, None

        return op

    def finish(self, samples, run_guarded):
        pass

    def layer_counts(self, samples):
        return {}

    def summary(self, samples):
        lat = {f"{k}.d{d}": latency(samples, f"{k}.d{d}") for k in self.KINDS for d in self.DEGREES}
        breakdown = {f"verify_ms.{k}": lat[f"{k}.d512"] for k in self.KINDS}
        breakdown.update({f"verify_ms.{k}.d256": lat[f"{k}.d256"] for k in self.KINDS})
        breakdown["ops_per_s"] = {"value": throughput(samples), "unit": "1/s"}
        breakdown["fail_ratio"] = fail_ratio(samples)
        return {
            "ops_per_s": throughput(samples),
            "primary_ms": lat["primitive.d512"]["value"],
            "secondary_ms": lat["imprimitive.d512"]["value"],
        }, breakdown


def _break_relation(m, w, rng):
    """alpha followed by a transposition that breaks alpha^2 = product but
    keeps the group transitive; both are checked here on raw images."""
    d = w.degree
    alpha = w.alpha.images
    gens = [g.images for g in w.gammas]
    square = tuple(alpha[alpha[i] - 1] for i in range(d))
    while True:
        x, y = rng.sample(range(1, d + 1), 2)
        t = list(range(1, d + 1))
        t[x - 1], t[y - 1] = y, x
        bad = tuple(t[alpha[i] - 1] for i in range(d))
        if tuple(bad[bad[i] - 1] for i in range(d)) != square and _orbit_count(gens + [bad], d) == 1:
            return m["perm"].Permutation(bad)


def _orbit_count(gens, d):
    parent = list(range(d + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in gens:
        for i, j in enumerate(g, start=1):
            a, b = find(i), find(j)
            if a != b:
                parent[a] = b
    return len({find(x) for x in range(1, d + 1)})


class ClassifyBatch:
    """In-process `rp2cover batch FILE --format json`: the whole file serially
    and with --jobs 2, and its odd-degree lines alone, serially."""

    name = "classify-batch"
    LINES = 3000
    POOL_SEED = "classify-batch-pool"
    EVEN_POOL = 2400
    ODD = (
        "d=3; [3],[3]",
        "d=3; [2,1],[2,1]",
        "d=3; [3],[2,1],[2,1]",
        "d=3; [2,1],[2,1],[2,1],[2,1]",
        "d=3; [3],[3],[3]",
        "d=5; [5],[5]",
        "d=5; [3,1,1],[3,1,1]",
        "d=5; [2,2,1],[3,1,1]",
        "d=5; [5],[2,2,1],[2,2,1]",
        "d=5; [4,1],[2,1,1,1]",
        "d=5; [3,2],[3,1,1],[2,1,1,1]",
        "d=5; [2,1,1,1],[2,1,1,1],[2,1,1,1],[2,1,1,1]",
    )
    MALFORMED = (
        "d=6; [4,3]",
        "d=4; [1,1,1,1]",
        "d=; [2]",
        "d=4 [2,2]",
        "d=4; [2,2",
        "x=4; [2,2]",
        "d=4; [2,2],",
        "d=4; [2,2] extra",
        "d=3; [3],[2,1,0]",
        "d=8; [2,2,2,2],[9]",
    )

    def __init__(self, m, seed, workdir):
        self.m = m
        self.pool = self.make_pool()
        twos_start = self.EVEN_POOL
        odd_start = len(self.pool) - len(self.ODD) - len(self.MALFORMED)
        bad_start = len(self.pool) - len(self.MALFORMED)
        rng = random.Random(f"{seed}:classify-batch")
        n_even, n_twos, n_odd = int(self.LINES * 0.70), int(self.LINES * 0.10), int(self.LINES * 0.15)
        # every odd line appears equally often (give or take one), so the
        # oracle's share of the work does not depend on the seed
        odd = list(range(odd_start, bad_start))
        picks = (
            rng.sample(range(self.EVEN_POOL), n_even)
            + [rng.randrange(twos_start, odd_start) for _ in range(n_twos)]
            + odd * (n_odd // len(odd))
            + rng.sample(odd, n_odd % len(odd))
            + [rng.randrange(bad_start, len(self.pool)) for _ in range(self.LINES - n_even - n_twos - n_odd)]
        )
        rng.shuffle(picks)
        self.picks = picks
        self.odd_rows = [i for i, p in enumerate(picks) if odd_start <= p < bad_start]
        workdir.mkdir(parents=True, exist_ok=True)
        self.path = workdir / f"batch-seed{seed}.txt"
        self.path.write_text("".join(self.pool[i] + "\n" for i in picks))
        self.odd_path = workdir / f"batch-odd-seed{seed}.txt"
        self.odd_path.write_text("".join(self.pool[picks[i]] + "\n" for i in self.odd_rows))
        self.pool_path = workdir / "batch-pool.txt"
        self.pool_path.write_text("".join(line + "\n" for line in self.pool))
        self.outputs = {}
        self.tally = Counter()

    @classmethod
    def make_pool(cls):
        """Every line a file can hold; fixed, so its output digest is pinned."""
        rng = random.Random(cls.POOL_SEED)
        pool = []
        while len(pool) < cls.EVEN_POOL:
            d, s = 2 * rng.randint(2, 32), rng.randint(2, 5)
            rows = []
            while len(rows) < s:
                parts = random_partition(d, rng)
                if parts[0] > 1:
                    rows.append(parts)
            pool.append(data_line(d, rows))
        for d in range(2, 66, 2):
            for s in range(2, 6):
                pool.append(data_line(d, [(2,) * (d // 2)] * s))
        return pool + list(cls.ODD) + list(cls.MALFORMED)

    def round(self, r):
        passes = [("batch.serial", self.path, 1, 2), ("batch.jobs", self.path, 2, 2), ("batch.odd", self.odd_path, 1, 0)]
        if r % 2:
            passes.reverse()
        return [(kind, self._op(kind, path, jobs, code)) for kind, path, jobs, code in passes]

    def _op(self, kind, path, jobs, want_code):
        lines = self.LINES if path == self.path else len(self.odd_rows)

        def op():
            code, text = run_batch(self.m, path, jobs, self.tally)
            if code != want_code:
                raise CheckFailed(f"{kind}: exit code {code}, expected {want_code}")
            # serial and --jobs 2 output must be byte-identical, pass after pass
            if self.outputs.setdefault(path, text) != text:
                raise CheckFailed(f"{kind}: output differs from the first pass")
            return lines, None

        return op

    def finish(self, samples, run_guarded):
        """The pool's output must match its pinned digest, and every output
        line of the files the pool's output for the same input."""
        code, text = run_batch(self.m, self.pool_path, 1, Counter())
        pool_out = text.splitlines()
        file_out = self.outputs.get(self.path, "").splitlines()
        odd_out = self.outputs.get(self.odd_path, "").splitlines()
        ok = (
            code == 2
            and hashlib.sha256(text.encode()).hexdigest() == pinned()["batch_pool_sha256"]
            and file_out == [pool_out[p] for p in self.picks]
            and odd_out == [file_out[i] for i in self.odd_rows]
        )
        if not ok:
            for s in samples:
                s.error = s.error or "CheckFailed"

    def layer_counts(self, samples):
        return self.tally

    def summary(self, samples):
        lat = {k: latency(samples, k) for k in ("batch.serial", "batch.jobs", "batch.odd")}
        # lines per second of the median pass; a pass is one `rp2cover batch` run
        ops = self.LINES / (lat["batch.serial"]["value"] / 1000)
        breakdown = {f"pass_ms.{k.split('.')[1]}": v for k, v in lat.items()}
        breakdown.update(
            {
                "ops_per_s": {"value": ops, "unit": "1/s"},
                "jobs_ops_per_s": {"value": self.LINES / (lat["batch.jobs"]["value"] / 1000), "unit": "1/s"},
                "lines_per_pass": {"value": self.LINES, "unit": "count"},
                "odd_lines_per_pass": {"value": len(self.odd_rows), "unit": "count"},
                "fail_ratio": fail_ratio(samples),
            }
        )
        return {
            "ops_per_s": ops,
            "primary_ms": lat["batch.serial"]["value"],
            "secondary_ms": lat["batch.odd"]["value"],
        }, breakdown


class OracleScan:
    """A fixed list of exhaustive scans, each run with cold oracle caches."""

    name = "oracle-scan"
    TUPLE_SCANS = (  # (data, first row reduced)
        ("d=5; [3,2],[2,2,1],[2,1,1,1]", True),
        ("d=5; [5],[5]", False),
        ("d=5; [4,1],[3,2],[2,2,1]", True),
        ("d=6; [3,3],[2,2,1,1],[2,2,1,1]", True),
        ("d=6; [4,1,1],[3,3],[2,2,2]", True),
        ("d=6; [6],[6]", True),
        ("d=6; [3,2,1],[3,2,1]", True),
    )
    PAIR_DEGREES = (4, 6, 8, 10)

    def __init__(self, m, seed, workdir):
        self.m = m
        branch, oracle = m["branch"], m["oracle"]
        self.rng = random.Random(f"{seed}:oracle-scan")
        self.scans = [
            (f"tuple:{text} reduced={reduced}", branch.parse_branch_data(text), reduced)
            for text, reduced in self.TUPLE_SCANS
        ]
        # the default bounds admit pair surveys up to d=8; d=10 needs
        # `--max-degree 8`, as on the command line
        self.scans += [
            (f"pair:{d}", d, oracle.SearchBounds() if d <= 8 else oracle.SearchBounds(max_degree=8))
            for d in self.PAIR_DEGREES
        ]
        self.tally = Counter()

    def round(self, r):
        order = list(self.scans)
        self.rng.shuffle(order)
        return [(kind, self._op(kind, arg, extra)) for kind, arg, extra in order]

    def _op(self, kind, arg, extra):
        oracle = self.m["oracle"]
        key = kind.split(":", 1)[1]

        def op():
            clear_oracle_caches(oracle, self.tally)
            if kind.startswith("tuple:"):
                got = oracle.tuple_survey(arg, first_row_reduced=extra).to_dict()
                got.pop("sample")
                if got != pinned()["tuple_survey"][key]:
                    raise CheckFailed(f"tuple_survey {key}: {got} differs from the pinned counts")
                return got["relation_pairs"], None
            got = oracle.involution_pair_survey(arg, extra).to_dict()
            if got != pinned()["pair_survey"][key] or got["total_transitive_pairs"] != oracle.expected_transitive_pair_total(arg):
                raise CheckFailed(f"involution_pair_survey {key}: {got} differs from the pinned counts or d!/d")
            return got["scanned_pairs"], None

        return op

    def finish(self, samples, run_guarded):
        pass

    def layer_counts(self, samples):
        return self.tally

    def pass_ms(self, samples, prefix):
        """Per round, the summed time of the scans of one family, in ms."""
        per_round = sum(1 for kind, _, _ in self.scans if kind.startswith(prefix))
        chosen = [s for s in samples if s.kind.startswith(prefix)]
        rounds = [chosen[i : i + per_round] for i in range(0, len(chosen), per_round)]
        xs = [math.inf if any(s.error for s in r) else sum(s.seconds for s in r) * 1000 for r in rounds]
        return {"value": median(xs), "unit": "ms", "n": len(xs)}

    def summary(self, samples):
        tuple_ms = self.pass_ms(samples, "tuple:")
        pair_ms = self.pass_ms(samples, "pair:")
        breakdown = {
            "pairs_per_s": {"value": throughput(samples), "unit": "1/s"},
            "pass_ms.tuple_survey": tuple_ms,
            "pass_ms.involution_pair_survey": pair_ms,
            "fail_ratio": fail_ratio(samples),
        }
        breakdown.update({f"scan_ms.{kind}": latency(samples, kind) for kind, _, _ in self.scans})
        return {
            "ops_per_s": throughput(samples),
            "primary_ms": tuple_ms["value"],
            "secondary_ms": pair_ms["value"],
        }, breakdown


WORKLOADS = {w.name: w for w in (Ladder, VerifyMix, ClassifyBatch, OracleScan)}
