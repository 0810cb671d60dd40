"""Deciding and constructing branched coverings of the projective plane.

Everything below works with permutation data: a covering of degree d with
branch data rows D_1, ..., D_s is encoded by a tuple (gamma_1, ..., gamma_s)
of permutations of {1, ..., d}, one per row with matching cycle type, plus a
permutation alpha satisfying

    gamma_1 * ... * gamma_s = alpha^-2.

The covering surface is connected exactly when the group generated by alpha
and the gamma_i is transitive, it is nonorientable exactly when the cycles
of the gamma_i cannot be two-coloured consistently with alpha flipping the
colour, and the covering is indecomposable exactly when that group is
primitive.

`classify` decides which even-degree branch data admit such a witness with
a primitive group.  `realize_indecomposable` builds one constructively by
folding rows together two at a time, steering each intermediate product
toward a prescribed cycle type or orbit count with `assemble_pair`, and
finally extracting alpha as an inverse square root of the total product;
for odd degree it takes the witness the oracle found while classifying.
`verify_witness` re-checks every claimed property from scratch and returns
a certificate.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Sequence

from . import kernels
from .branch import BranchData, is_admissible
from .groups import conjugator, group_of, imprimitivity_block
from .perm import Permutation, canonical_of_type, format_cycles, parse_permutation
from .squares import all_square_roots, is_square


class RealizationError(Exception):
    """Base class for failures of the construction engine."""


class NotRealizableError(RealizationError):
    """Raised when asked to construct a witness that provably cannot exist."""


class SearchExhausted(RealizationError):
    """A bounded search ran out of room.

    `complete` is True when the search space was fully enumerated, so the
    target is genuinely unsatisfiable; False means a node budget was hit
    and the outcome is unknown.
    """

    def __init__(self, message: str, *, complete: bool):
        super().__init__(message)
        self.complete = complete


class EngineDefect(RealizationError):
    """The engine failed to produce a verified witness for data it accepted.

    This indicates a bug or an undersized internal budget, never a fact
    about the branch data itself.
    """


# ---------------------------------------------------------------------------
# classification


class Verdict(Enum):
    NOT_ADMISSIBLE = "not_admissible"
    INDECOMPOSABLE_REALIZABLE = "indecomposable_realizable"
    ONLY_DECOMPOSABLE = "only_decomposable"
    UNKNOWN = "unknown"


class Case(Enum):
    """Why admissible even-degree data is indecomposably realizable."""

    DEGREE_TWO = "degree_two"
    SOME_ROW_NOT_ALL_TWOS = "some_row_not_all_twos"
    BIG_DEGREE_MANY_ROWS = "big_degree_many_rows"


class Reason(Enum):
    """Why admissible even-degree data admits only decomposable coverings."""

    DEGREE_FOUR_ALL_TWOS = "degree_four_all_twos"
    TWO_ALL_TWOS_ROWS = "two_all_twos_rows"


@dataclass(frozen=True)
class Classification:
    """A verdict with its tag.

    `witness` is the primitive witness an exhaustive search found on the
    way to an odd-degree verdict; it is not part of the verdict, so it is
    left out of equality and of `to_dict`.
    """

    verdict: Verdict
    case: Case | None = None
    reason: Reason | None = None
    witness: HurwitzWitness | None = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "case": self.case.value if self.case else None,
            "reason": self.reason.value if self.reason else None,
        }


def classify(data: BranchData, *, search_bounds=None) -> Classification:
    """Decide realizability by an indecomposable covering.

    Even degrees are settled in closed form.  Odd degrees fall outside the
    decision rule; when the data is small enough they are settled by the
    exhaustive search in `oracle`, otherwise the verdict is UNKNOWN.
    """
    adm = is_admissible(data)
    if not adm.ok:
        return Classification(Verdict.NOT_ADMISSIBLE)
    d = data.degree
    if d % 2 == 1:
        from .oracle import SearchBounds, classify_by_search

        bounds = search_bounds or SearchBounds()
        if d <= bounds.max_degree and data.rows_count <= bounds.max_rows:
            return classify_by_search(data, bounds)
        return Classification(Verdict.UNKNOWN)
    if d == 2:
        return Classification(Verdict.INDECOMPOSABLE_REALIZABLE, case=Case.DEGREE_TWO)
    if not data.all_rows_all_twos():
        return Classification(
            Verdict.INDECOMPOSABLE_REALIZABLE, case=Case.SOME_ROW_NOT_ALL_TWOS
        )
    if d > 4 and data.rows_count > 2:
        return Classification(
            Verdict.INDECOMPOSABLE_REALIZABLE, case=Case.BIG_DEGREE_MANY_ROWS
        )
    if d == 4:
        return Classification(
            Verdict.ONLY_DECOMPOSABLE, reason=Reason.DEGREE_FOUR_ALL_TWOS
        )
    return Classification(Verdict.ONLY_DECOMPOSABLE, reason=Reason.TWO_ALL_TWOS_ROWS)


# ---------------------------------------------------------------------------
# witness and certificate


@dataclass(frozen=True)
class HurwitzWitness:
    """Permutation data for a candidate covering of the projective plane."""

    degree: int
    gammas: tuple[Permutation, ...]
    alpha: Permutation

    def __post_init__(self):
        if self.alpha.degree != self.degree:
            raise ValueError("alpha degree mismatch")
        for g in self.gammas:
            if g.degree != self.degree:
                raise ValueError("gamma degree mismatch")
        if not self.gammas:
            raise ValueError("need at least one branching permutation")

    def group(self):
        return group_of(self.alpha, *self.gammas)

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "gammas": [format_cycles(g) for g in self.gammas],
            "alpha": format_cycles(self.alpha),
        }

    @classmethod
    def from_dict(cls, rec: dict) -> "HurwitzWitness":
        """Read a witness record; a record of the wrong shape is a ValueError."""
        if not isinstance(rec, dict):
            raise ValueError("witness record must be a JSON object")
        missing = [k for k in ("degree", "gammas", "alpha") if k not in rec]
        if missing:
            raise ValueError(f"witness record lacks {', '.join(missing)}")
        d, texts, alpha = rec["degree"], rec["gammas"], rec["alpha"]
        if type(d) is not int:
            raise ValueError("witness degree must be an integer")
        if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
            raise ValueError("witness gammas must be a list of cycle strings")
        if not isinstance(alpha, str):
            raise ValueError("witness alpha must be a cycle string")
        gammas = tuple(parse_permutation(t, d) for t in texts)
        return cls(d, gammas, parse_permutation(alpha, d))


@dataclass(frozen=True)
class Certificate:
    """Outcome of re-checking every property a witness is supposed to have.

    `row_permutation_applied` maps witness position i to the index of the
    branch-data row whose cycle type gamma_i must carry.  `witness_block`
    is a non-trivial block of the monodromy group when one exists (the
    concrete obstruction to primitivity), otherwise None.
    """

    relation_ok: bool
    row_types_ok: bool
    transitive: bool
    nonorientable: bool
    primitive: bool
    euler_char: int
    row_permutation_applied: tuple[int, ...]
    witness_block: tuple[int, ...] | None = None

    @property
    def all_ok(self) -> bool:
        return (
            self.relation_ok
            and self.row_types_ok
            and self.transitive
            and self.nonorientable
            and self.primitive
        )

    def to_dict(self) -> dict:
        return {
            "relation_ok": self.relation_ok,
            "row_types_ok": self.row_types_ok,
            "transitive": self.transitive,
            "nonorientable": self.nonorientable,
            "primitive": self.primitive,
            "euler_char": self.euler_char,
            "row_permutation_applied": list(self.row_permutation_applied),
            "witness_block": list(self.witness_block)
            if self.witness_block is not None
            else None,
            "all_ok": self.all_ok,
        }


def verify_witness(
    data: BranchData,
    witness: HurwitzWitness,
    row_map: Sequence[int] | None = None,
) -> Certificate:
    """Check a witness against branch data from scratch.

    With `row_map` given, gamma_i must have the cycle type of row
    row_map[i]; otherwise a greedy matching of cycle types is attempted and
    recorded.  All group-theoretic properties are recomputed; nothing from
    the construction is trusted.
    """
    d = data.degree
    if witness.degree != d or len(witness.gammas) != data.rows_count:
        raise ValueError("witness shape does not match branch data")
    if row_map is None:
        row_map = _match_rows(data, witness)
        row_types_ok = row_map is not None
        if row_map is None:
            row_map = tuple(range(data.rows_count))
    else:
        row_map = tuple(row_map)
        if sorted(row_map) != list(range(data.rows_count)):
            raise ValueError("row_map must be a permutation of the row indices")
        row_types_ok = all(
            witness.gammas[i].cycle_type() == data.rows[row_map[i]].parts
            for i in range(data.rows_count)
        )

    prod = Permutation.identity(d)
    for g in witness.gammas:
        prod = prod * g
    relation_ok = prod == (witness.alpha * witness.alpha).inverse()

    alpha_imgs = witness.alpha.images
    gamma_imgs = [g.images for g in witness.gammas]
    labels = kernels.component_labels(gamma_imgs, d)
    transitive, orientable = kernels.alpha_extension(labels, alpha_imgs, d)

    block = None
    primitive = False
    if transitive:
        G = witness.group()
        block = imprimitivity_block(G)
        primitive = block is None

    euler = d - sum(g.defect() for g in witness.gammas)
    return Certificate(
        relation_ok=relation_ok,
        row_types_ok=row_types_ok,
        transitive=transitive,
        nonorientable=not orientable,
        primitive=primitive,
        euler_char=euler,
        row_permutation_applied=tuple(row_map),
        witness_block=tuple(block) if block is not None else None,
    )


def _match_rows(data: BranchData, witness: HurwitzWitness) -> tuple[int, ...] | None:
    """Greedy assignment of witness slots to rows of equal cycle type."""
    unused = list(range(data.rows_count))
    out = []
    for g in witness.gammas:
        t = g.cycle_type()
        for j in unused:
            if data.rows[j].parts == t:
                out.append(j)
                unused.remove(j)
                break
        else:
            return None
    return tuple(out)


# ---------------------------------------------------------------------------
# canonical transitive pair of fixed-point-free involutions


def canonical_involution_pair(d: int) -> tuple[Permutation, Permutation]:
    """The transitive pair of fixed-point-free involutions on 1..d.

    For even d >= 4 this returns p = (1 2)(3 4)...(d-1 d) and
    q = (2 3)(4 5)...(d 1).  Their product is a pair of d/2-cycles on the
    odd and the even points, and every transitive pair of fixed-point-free
    involutions of 1..d is simultaneously conjugate to this one.  Degree 2
    is excluded: there the lone involution generates a primitive group and
    none of the block structure below exists.

    >>> p, q = canonical_involution_pair(6)
    >>> str(p * q)
    '(1 3 5)(2 6 4)'
    """
    if d < 4 or d % 2:
        raise ValueError("need even degree at least 4")
    p = Permutation.from_cycles(d, [(i, i + 1) for i in range(1, d, 2)])
    q_cycles = [(i, i + 1) for i in range(2, d, 2)]
    q_cycles.append((d, 1))
    q = Permutation.from_cycles(d, q_cycles)
    return p, q


# ---------------------------------------------------------------------------
# pair assembly: given two cycle types, build permutations with a prescribed
# joint orbit count and a prescribed product shape


@dataclass(frozen=True)
class PairGoal:
    """Target for `assemble_pair`.

    Exactly one of `product_defect` (d minus the number of product cycles)
    and `product_type` (the full cycle type of the product) must be given.
    """

    orbit_count: int
    product_defect: int | None = None
    product_type: tuple[int, ...] | None = None

    def __post_init__(self):
        if (self.product_defect is None) == (self.product_type is None):
            raise ValueError("set exactly one of product_defect / product_type")
        if self.orbit_count < 1:
            raise ValueError("orbit_count must be positive")
        if self.product_type is not None:
            object.__setattr__(
                self, "product_type", tuple(sorted(self.product_type, reverse=True))
            )

    def describe(self) -> str:
        if self.product_type is not None:
            shape = "type " + str(list(self.product_type))
        else:
            shape = f"defect {self.product_defect}"
        return f"orbits={self.orbit_count}, product {shape}"


class _Journal:
    """Undo log shared by all incremental state in a pair search."""

    __slots__ = ("ops",)

    def __init__(self):
        self.ops: list[tuple] = []

    def mark(self) -> int:
        return len(self.ops)

    def set_item(self, lst: list, i: int, value) -> None:
        self.ops.append(("L", lst, i, lst[i]))
        lst[i] = value

    def bump(self, ctr: Counter, key: int, delta: int) -> None:
        self.ops.append(("C", ctr, key, delta))
        ctr[key] += delta

    def rewind(self, mark: int, search: "_PairSearch") -> None:
        while len(self.ops) > mark:
            op = self.ops.pop()
            kind = op[0]
            if kind == "L":
                op[1][op[2]] = op[3]
            elif kind == "C":
                op[1][op[2]] -= op[3]
            elif kind == "N":
                op[1].count += 1
            elif kind == "U":
                search._uf_unlink(op[1])
            elif kind == "S":
                setattr(search, op[1][0], op[1][1])


class _Chains:
    """Open chains of a permutation being built edge by edge.

    Points start as singleton chains.  Adding the edge u -> v either
    concatenates the chain ending at u with the chain starting at v, or, if
    they are the same chain, closes it into a cycle.  `lengths` is the
    multiset of open chain lengths and `count` their number.
    """

    __slots__ = ("nxt", "prv", "head_of", "tail_of", "len_of", "lengths", "count")

    def __init__(self, d: int):
        self.nxt = [0] * (d + 1)
        self.prv = [0] * (d + 1)
        self.head_of = list(range(d + 1))
        self.tail_of = list(range(d + 1))
        self.len_of = [1] * (d + 1)
        self.lengths = Counter({1: d})
        self.count = d

    def closing_length(self, u: int, v: int) -> int | None:
        """Length of the cycle the edge u -> v would close, if any."""
        return self.len_of[v] if self.head_of[u] == v else None

    def add(self, u: int, v: int, j: _Journal) -> None:
        hu = self.head_of[u]
        j.set_item(self.nxt, u, v)
        j.set_item(self.prv, v, u)
        if hu == v:
            j.bump(self.lengths, self.len_of[v], -1)
        else:
            tv = self.tail_of[v]
            la, lb = self.len_of[hu], self.len_of[v]
            j.bump(self.lengths, la, -1)
            j.bump(self.lengths, lb, -1)
            j.bump(self.lengths, la + lb, 1)
            j.set_item(self.len_of, hu, la + lb)
            j.set_item(self.tail_of, hu, tv)
            j.set_item(self.head_of, tv, hu)
        self.count -= 1
        j.ops.append(("N", self))


class _PairSearch:
    """Depth-first construction of (gamma_a fixed, gamma_b) hitting a PairGoal.

    gamma_a is given.  gamma_b is built one edge at a time over the points
    in increasing order.  Choosing gamma_b(u) = v simultaneously decides an
    edge of the product pi = gamma_a * gamma_b, namely pi(gamma_a^-1(u)) = v,
    so both permutations grow as systems of open chains and every partial
    state is checked for consistency:

    - a chain of gamma_b may only close into a cycle whose length is still
      available in the target type, and the open chain lengths must pack
      into the remaining cycle lengths;
    - same for pi when the goal fixes a product type; when it only fixes a
      defect, the number of already-closed pi cycles plus the open pi
      chains must be able to meet the target count exactly;
    - the orbits of <gamma_a, gamma_b> (tracked by union-find over the
      cycles of gamma_a) must be able to reach exactly the target count
      with the edges that remain.
    """

    def __init__(
        self,
        gamma_a: Permutation,
        parts_b: tuple[int, ...],
        goal: PairGoal,
        rng: random.Random | None,
        node_budget: int,
    ):
        d = gamma_a.degree
        self.d = d
        self.gamma_a = gamma_a
        self.goal = goal
        self.rng = rng
        self.node_budget = node_budget
        self.nodes = 0

        a = gamma_a.images
        self.ainv = [0] * (d + 1)
        for i, v in enumerate(a):
            self.ainv[v] = i + 1

        acycles = kernels.cycles_of(a)
        self.cyc_id = [0] * (d + 1)
        for idx, cyc in enumerate(acycles):
            for x in cyc:
                self.cyc_id[x] = idx
        n = len(acycles)
        self.parent = list(range(n))
        self.rank = [0] * n
        self.comps = n

        self.b = _Chains(d)
        self.pi = _Chains(d)
        self.rem_b = Counter(parts_b)
        if goal.product_type is not None:
            self.rem_pi: Counter | None = Counter(goal.product_type)
            self.pi_target_cycles = len(goal.product_type)
        else:
            self.rem_pi = None
            self.pi_target_cycles = d - goal.product_defect
        self.closed_pi = 0
        self.unset = d
        self.journal = _Journal()

    # --- union-find over gamma_a cycles, with explicit unlink for undo

    def _find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            x = p[x]
        return x

    def _union(self, x: int, y: int) -> bool:
        rx, ry = self._find(x), self._find(y)
        if rx == ry:
            return False
        if self.rank[rx] < self.rank[ry]:
            rx, ry = ry, rx
        grew = self.rank[rx] == self.rank[ry]
        self.parent[ry] = rx
        if grew:
            self.rank[rx] += 1
        self.comps -= 1
        self.journal.ops.append(("U", (ry, rx, grew)))
        return True

    def _uf_unlink(self, payload) -> None:
        ry, rx, grew = payload
        self.parent[ry] = ry
        if grew:
            self.rank[rx] -= 1
        self.comps += 1

    # --- feasibility

    def _packs(self, chains: _Chains, rem: Counter) -> bool:
        items = sorted(
            (n for n, c in chains.lengths.items() if n > 1 for _ in range(c)),
            reverse=True,
        )
        if not items:
            return True
        caps = sorted((n for n, c in rem.items() if c > 0 for _ in range(c)))
        if not caps or items[0] > caps[-1]:
            return False
        dead: set[tuple] = set()

        def place(i: int, free: tuple[int, ...]) -> bool:
            if i == len(items):
                return True
            key = (i, free)
            if key in dead:
                return False
            need = items[i]
            tried = set()
            for k in range(len(free) - 1, -1, -1):
                cap = free[k]
                if cap < need:
                    break
                if cap in tried:
                    continue
                tried.add(cap)
                rest = free[:k] + ((cap - need,) if cap > need else ()) + free[k + 1 :]
                if place(i + 1, tuple(sorted(rest))):
                    return True
            dead.add(key)
            return False

        return place(0, tuple(caps))

    def _feasible(self) -> bool:
        remaining_edges = self.unset
        target = self.goal.orbit_count
        if self.comps < target or self.comps - remaining_edges > target:
            return False
        if self.rem_pi is not None:
            if not self._packs(self.pi, self.rem_pi):
                return False
        else:
            lo = self.closed_pi + (1 if self.pi.count else 0)
            hi = self.closed_pi + self.pi.count
            if not lo <= self.pi_target_cycles <= hi:
                return False
        return self._packs(self.b, self.rem_b)

    # --- one edge

    def _apply(self, u: int, v: int) -> bool:
        j = self.journal
        mark = j.mark()
        lb = self.b.closing_length(u, v)
        if lb is not None:
            if self.rem_b[lb] <= 0:
                return False
        pu = self.ainv[u]
        if self.pi.nxt[pu]:
            raise AssertionError("pi edge already present")
        lp = self.pi.closing_length(pu, v)
        if lp is not None:
            if self.rem_pi is not None:
                if self.rem_pi[lp] <= 0:
                    return False
            elif self.closed_pi + 1 > self.pi_target_cycles:
                return False

        self.b.add(u, v, j)
        if lb is not None:
            j.bump(self.rem_b, lb, -1)
        self.pi.add(pu, v, j)
        if lp is not None:
            if self.rem_pi is not None:
                j.bump(self.rem_pi, lp, -1)
            self.closed_pi += 1
            j.ops.append(("S", ("closed_pi", self.closed_pi - 1)))
        self._union(self.cyc_id[u], self.cyc_id[v])
        self.unset -= 1
        if self._feasible():
            return True
        self.unset += 1
        self.journal.rewind(mark, self)
        return False

    def _undo(self, mark: int) -> None:
        self.unset += 1
        self.journal.rewind(mark, self)

    # --- search

    def run(self) -> tuple[Permutation, Permutation] | None:
        if not self._dfs():
            return None
        gb = Permutation(tuple(self.b.nxt[1 : self.d + 1]))
        return self.gamma_a, gb

    def _dfs(self) -> bool | None:
        if self.unset == 0:
            return self._check_complete()
        nxt = self.b.nxt
        u = 1
        while nxt[u]:
            u += 1
        prv = self.b.prv
        cands = [v for v in range(1, self.d + 1) if not prv[v]]
        if self.rng is not None:
            self.rng.shuffle(cands)
        for v in cands:
            self.nodes += 1
            if self.nodes > self.node_budget:
                raise SearchExhausted(
                    f"node budget {self.node_budget} exhausted", complete=False
                )
            mark = self.journal.mark()
            if self._apply(u, v):
                got = self._dfs()
                if got:
                    return got
                self._undo(mark)
        return None

    def _check_complete(self) -> bool:
        if self.comps != self.goal.orbit_count:
            return False
        if any(c > 0 for c in self.rem_b.values()):
            return False
        if self.rem_pi is not None and any(c > 0 for c in self.rem_pi.values()):
            return False
        if self.rem_pi is None and self.closed_pi != self.pi_target_cycles:
            return False
        return True


_DEFAULT_NODE_BUDGET = 300_000


def assemble_pair(
    type_a: Sequence[int],
    type_b: Sequence[int],
    goal: PairGoal,
    *,
    degree: int | None = None,
    gamma_a: Permutation | None = None,
    rng: random.Random | None = None,
    node_budget: int = _DEFAULT_NODE_BUDGET,
) -> tuple[Permutation, Permutation]:
    """Build permutations of the two given cycle types meeting a PairGoal.

    gamma_a defaults to the canonical representative of `type_a` (any other
    choice of gamma_a gives a conjugate answer, so nothing is lost).  The
    pair returned satisfies: cycle types match, the group generated by the
    pair has exactly goal.orbit_count orbits, and the product gamma_a *
    gamma_b has the requested defect or cycle type.  Raises SearchExhausted
    with complete=True when no such pair exists, complete=False when the
    node budget ran out first.
    """
    ta = tuple(sorted(type_a, reverse=True))
    tb = tuple(sorted(type_b, reverse=True))
    d = degree or sum(ta)
    if sum(ta) != d or sum(tb) != d:
        raise ValueError("cycle types must partition the same degree")
    if gamma_a is None:
        gamma_a = canonical_of_type(d, ta)
    elif gamma_a.cycle_type() != ta:
        raise ValueError("gamma_a does not have cycle type type_a")
    if goal.product_type is not None and sum(goal.product_type) != d:
        raise ValueError("product_type must partition the degree")

    search = _PairSearch(gamma_a, tb, goal, rng, node_budget)
    found = search.run()
    if found is None:
        raise SearchExhausted(
            f"no pair of types {list(ta)}, {list(tb)} with {goal.describe()}",
            complete=True,
        )
    ga, gb = found
    _check_pair(ga, gb, ta, tb, goal)
    return ga, gb


def _check_pair(ga, gb, ta, tb, goal) -> None:
    if ga.cycle_type() != ta or gb.cycle_type() != tb:
        raise EngineDefect("assembled pair has wrong cycle types")
    d = ga.degree
    if kernels.orbit_count([ga.images, gb.images], d) != goal.orbit_count:
        raise EngineDefect("assembled pair has wrong orbit count")
    prod = ga * gb
    if goal.product_type is not None:
        if prod.cycle_type() != goal.product_type:
            raise EngineDefect("assembled pair has wrong product type")
    elif prod.defect() != goal.product_defect:
        raise EngineDefect("assembled pair has wrong product defect")


# ---------------------------------------------------------------------------
# the folding engine


@dataclass
class FoldStep:
    """One assembly step: the running product absorbed one more row."""

    row: int
    goal: PairGoal
    product_type: tuple[int, ...]
    orbits: int


@dataclass
class RealizationResult:
    witness: HurwitzWitness
    certificate: Certificate
    engine: str
    trace: list[FoldStep] = field(default_factory=list)
    seed: int | None = None

    def to_dict(self) -> dict:
        return {
            "witness": self.witness.to_dict(),
            "certificate": self.certificate.to_dict(),
            "engine": self.engine,
            "seed": self.seed,
            "trace": [
                {
                    "row": t.row,
                    "goal": t.goal.describe(),
                    "product_type": list(t.product_type),
                    "orbits": t.orbits,
                }
                for t in self.trace
            ],
        }


_FOLD_ATTEMPT_CAP = 300


class _FoldStall(Exception):
    pass


def _row_order(data: BranchData) -> list[int]:
    """Process rows so that the last one absorbed is not all twos, if possible.

    The final assembly targets a product of type [d-1, 1], which is easiest
    to steer when the last row has some room; the rule is to move the
    highest-index row that is not all twos to the end.
    """
    order = list(range(data.rows_count))
    pick = None
    for j in range(data.rows_count - 1, -1, -1):
        if not data.rows[j].is_all_twos():
            pick = j
            break
    if pick is not None:
        order.append(order.pop(pick))
    return order


def _one_cycle_type(d: int, length: int) -> tuple[int, ...]:
    if length <= 1:
        return (1,) * d
    return (length,) + (1,) * (d - length)


def _goal_ladder(nu_prod: int, nu_row: int, d: int, rem_after: int) -> list[PairGoal]:
    """Candidate goals for a non-final fold, best first.

    When the combined defect is below d the product cannot be transitive,
    so the orbits are made as coarse as possible (one cycle of the product
    per orbit).  Otherwise the fold targets transitivity.  Either way the
    preferred product shape is a single cycle plus fixed points, as long as
    parity allows: that shape always absorbs the next row by attaching its
    cycles to the big one, so later folds never get cornered.  Plain
    defect goals follow as backup, stepping down in twos because the
    product defect parity is forced.
    """
    total = nu_prod + nu_row
    goals: list[PairGoal] = []
    if total < d:
        t = d - total
        goals.append(PairGoal(orbit_count=t, product_type=_one_cycle_type(d, total + 1)))
        goals.append(PairGoal(orbit_count=t, product_defect=total))
        if total >= 2:
            goals.append(PairGoal(orbit_count=t, product_defect=total - 2))
            goals.append(PairGoal(orbit_count=t + 1, product_defect=total - 2))
        return goals
    cap = d - 1 if (total - (d - 1)) % 2 == 0 else d - 2
    # the product defect can still move by at most nu(row) per remaining
    # fold, and the chain must end at defect d - 2
    lo = max(abs(nu_prod - nu_row), (d - 2) - rem_after, 0)
    v = cap
    while v >= lo:
        goals.append(PairGoal(orbit_count=1, product_type=_one_cycle_type(d, v + 1)))
        v -= 2
    v = cap
    while v >= lo:
        goals.append(PairGoal(orbit_count=1, product_defect=v))
        v -= 2
    return goals


def _fold_chain(
    data: BranchData, order: list[int], rng: random.Random, budget: int
) -> tuple[list[Permutation], list[FoldStep]]:
    """Absorb rows one at a time, keeping the running product canonical.

    Each fold walks its goal ladder; when a later fold finds no workable
    goal the chain backtracks and takes the next option at an earlier
    fold.  Goals whose search ran out of nodes get a couple of randomized
    retries before being abandoned.

    Returns the gammas in processing order, whose product has type
    [d-1, 1], and the trace.  Raises _FoldStall if no goal sequence works.
    """
    d = data.degree
    rows = [data.rows[j] for j in order]
    nus = [r.nu for r in rows]
    first = canonical_of_type(d, rows[0].parts)
    attempts = 0

    def extend(gammas, prod, j, trace):
        nonlocal attempts
        if j == len(rows):
            return gammas, trace
        final = j == len(rows) - 1
        rem_after = sum(nus[j + 1 :])
        ptype = prod.cycle_type()
        if final:
            goals = [PairGoal(orbit_count=1, product_type=(d - 1, 1))]
        else:
            goals = _goal_ladder(prod.defect(), nus[j], d, rem_after)
        retry: list[PairGoal] = []
        for use_rng, batch in ((False, goals), (True, retry)):
            for goal in batch:
                for _ in range(2 if use_rng else 1):
                    if attempts >= _FOLD_ATTEMPT_CAP:
                        raise _FoldStall("fold goal attempt budget spent")
                    attempts += 1
                    try:
                        ga, gb = assemble_pair(
                            ptype,
                            rows[j].parts,
                            goal,
                            rng=rng if use_rng else None,
                            node_budget=budget,
                        )
                    except SearchExhausted as e:
                        if not use_rng and not e.complete:
                            retry.append(goal)
                        continue
                    mu = conjugator(prod, ga)
                    nxt = [g.conjugate(mu) for g in gammas]
                    nxt.append(gb)
                    nprod = ga * gb
                    step = FoldStep(
                        row=order[j],
                        goal=goal,
                        product_type=nprod.cycle_type(),
                        orbits=kernels.orbit_count([g.images for g in nxt], d),
                    )
                    got = extend(nxt, nprod, j + 1, trace + [step])
                    if got is not None:
                        return got
        return None

    got = extend([first], first, 1, [])
    if got is None:
        raise _FoldStall("no feasible goal sequence")
    return got


def _alpha_for_product(
    prod: Permutation, gammas: Sequence[Permutation]
) -> Permutation | None:
    """Pick alpha with alpha^-2 = prod making the witness work, if possible.

    The principal square root usually suffices; if the resulting extension
    is orientable or intransitive the other roots of prod are tried.
    """
    d = prod.degree
    if not is_square(prod):
        return None
    gimgs = [g.images for g in gammas]
    labels = kernels.component_labels(gimgs, d)
    for root in all_square_roots(prod):
        alpha = root.inverse()
        transitive, orientable = kernels.alpha_extension(labels, alpha.images, d)
        if transitive and not orientable:
            return alpha
    return None


def _accept(
    data: BranchData,
    gammas: Sequence[Permutation],
    alpha: Permutation | None,
    engine: str,
    seed: int | None,
    *,
    order: Sequence[int] | None = None,
    trace: list[FoldStep] | None = None,
    primitive: bool = True,
) -> RealizationResult | None:
    """Verify a candidate witness and wrap it, or None if it falls short.

    With alpha None, alpha is extracted from the product of the gammas.
    gamma_i must carry the cycle type of row order[i] (row i by default).
    The certificate must show the relation, the row types, a transitive
    group and a nonorientable surface, and primitivity exactly as asked.
    """
    if alpha is None:
        prod = Permutation(kernels.product_of([g.images for g in gammas], data.degree))
        alpha = _alpha_for_product(prod, gammas)
        if alpha is None:
            return None
    witness = HurwitzWitness(data.degree, tuple(gammas), alpha)
    if order is None:
        order = range(data.rows_count)
    cert = verify_witness(data, witness, row_map=order)
    if not (
        cert.relation_ok
        and cert.row_types_ok
        and cert.transitive
        and cert.nonorientable
        and cert.primitive == primitive
    ):
        return None
    return RealizationResult(witness, cert, engine, trace or [], seed)


def _realize_all_twos(
    data: BranchData, budget: int, seed: int | None
) -> RealizationResult | None:
    """Rows all of type [2,...,2]: start from the canonical involution pair.

    The pair multiplies to two d/2-cycles; one or two more rows steer the
    product to type [d-1, 1], then the remaining rows are inserted as
    repeats of the second involution, which cancel in the product.
    """
    d, s = data.degree, data.rows_count
    half = d // 2
    row = data.rows[0]
    g1, g2 = canonical_involution_pair(d)
    core = [g1, g2]
    prod = g1 * g2
    trace: list[FoldStep] = []

    def fold_onto(target_type: tuple[int, ...]) -> bool:
        # conjugating everything built so far onto the canonical frame of
        # the current product lets assemble_pair always start canonical
        nonlocal prod
        goal = PairGoal(orbit_count=1, product_type=target_type)
        try:
            ga, gb = assemble_pair(
                prod.cycle_type(), row.parts, goal, node_budget=budget
            )
        except SearchExhausted:
            return False
        mu = conjugator(prod, ga)
        core[:] = [g.conjugate(mu) for g in core]
        core.append(gb)
        prod = ga * gb
        trace.append(
            FoldStep(
                row=len(core) - 1,
                goal=goal,
                product_type=prod.cycle_type(),
                orbits=1,
            )
        )
        return True

    if half % 2 == 0:
        if not fold_onto((d - 1, 1)):
            return None
        if s % 2 == 0 and not fold_onto((d - 1, 1)):
            return None
    else:
        # d/2 odd forces an even row count; pass through a full cycle first
        if not fold_onto((d,)):
            return None
        if not fold_onto((d - 1, 1)):
            return None

    pads = s - len(core)
    if pads < 0 or pads % 2:
        raise EngineDefect("all-twos padding parity is off")
    gammas = core[:2] + [core[1]] * pads + core[2:]
    return _accept(data, gammas, None, "all_twos_chain", seed, trace=trace)


def _random_class_element(parts: tuple[int, ...], d: int, rng: random.Random):
    base = canonical_of_type(d, parts)
    lam = Permutation(tuple(rng.sample(range(1, d + 1), d)))
    return base.conjugate(lam)


def realize_indecomposable(
    data: BranchData,
    seed: int = 0,
    *,
    node_budget: int = _DEFAULT_NODE_BUDGET,
) -> RealizationResult:
    """Construct a verified witness with primitive monodromy.

    One engine per degree regime: `degree_two`; `all_twos_chain` when every
    row is all twos; `fold_chain` for the other even degrees; and for odd
    degrees `exhaustive_scan`, which takes the first primitive witness of
    the scan `classify` already ran (so it ignores the seed).

    Raises NotRealizableError when `classify` rules the data out, and
    EngineDefect if the engine fails for data classified realizable
    (which would be a bug, not a property of the data).
    """
    cls = classify(data)
    if cls.verdict is not Verdict.INDECOMPOSABLE_REALIZABLE:
        raise NotRealizableError(
            f"branch data is {cls.verdict.value}; no indecomposable witness exists"
            if cls.verdict is not Verdict.UNKNOWN
            else "realizability of this branch data is undecided"
        )
    d = data.degree
    result: RealizationResult | None = None
    if d == 2:
        flip = Permutation.from_cycles(2, [(1, 2)])
        gammas = [flip] * data.rows_count
        result = _accept(data, gammas, Permutation.identity(2), "degree_two", seed)
    elif d % 2 == 1:
        w = cls.witness
        if w is not None:
            result = _accept(data, w.gammas, w.alpha, "exhaustive_scan", seed)
    elif data.all_rows_all_twos():
        result = _realize_all_twos(data, node_budget, seed)
    else:
        order = _row_order(data)
        try:
            gammas, trace = _fold_chain(data, order, random.Random(seed), node_budget)
        except _FoldStall as e:
            raise EngineDefect(
                f"fold chain stalled on {data.to_text()}: {e}; this contradicts "
                "its classification and indicates an engine bug or undersized budget"
            ) from e
        result = _accept(
            data, gammas, None, "fold_chain", seed, order=order, trace=trace
        )
    if result is None:
        raise EngineDefect(
            f"no witness produced for {data.to_text()}; this contradicts its "
            "classification and indicates an engine bug or undersized budget"
        )
    return result


# ---------------------------------------------------------------------------
# decomposable witnesses for the only-decomposable cases


def realize_decomposable_search(
    data: BranchData, seed: int = 0
) -> RealizationResult | None:
    """Find a witness with imprimitive monodromy, or None if even that fails.

    Only-decomposable branch data is still realizable, just never by an
    indecomposable covering; the certificate of the returned witness has
    primitive=False and records a block.
    """
    cls = classify(data)
    if cls.verdict is Verdict.NOT_ADMISSIBLE:
        return None
    d = data.degree
    rng = random.Random(seed)

    if d >= 4 and d % 2 == 0 and data.all_rows_all_twos():
        g1, g2 = canonical_involution_pair(d)
        for gammas in _all_twos_variants(d, data.rows_count, g1, g2, rng):
            res = _accept(
                data, gammas, None, "decomposable_search", seed, primitive=False
            )
            if res is not None:
                return res

    from .oracle import SearchBounds, find_imprimitive_witness

    bounds = SearchBounds()
    if d <= bounds.max_degree and data.rows_count <= bounds.max_rows:
        w = find_imprimitive_witness(data, bounds)
        if w is not None:
            return _accept(
                data, w.gammas, w.alpha, "exhaustive_scan", seed, primitive=False
            )
    return None


def _all_twos_variants(
    d: int, s: int, g1: Permutation, g2: Permutation, rng: random.Random
) -> Iterator[list[Permutation]]:
    """Candidate all-twos tuples whose product is a square, imprimitive case.

    The alternating pattern g1 g2 g1 g2 ... multiplies to a power of the
    two half-cycle product, always a square; odd row counts collapse to a
    single involution or a conjugate of one.  A few random fixed-point-free
    involution tuples follow as backup.
    """
    if s % 2 == 0:
        yield [g1 if i % 2 == 0 else g2 for i in range(s)]
        yield [g1, g2] + [g2, g2] * ((s - 2) // 2)
    else:
        yield [g1] * s
        yield [g1, g2] + [g1] * (s - 2)
    half = d // 2
    parts = tuple([2] * half)
    for _ in range(2000):
        yield [_random_class_element(parts, d, rng) for _ in range(s)]
