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
finally taking alpha as the inverse of the first square root of the total
product (`iter_root_images` order); for odd degree it takes the witness the
oracle found while classifying.  `verify_witness` re-checks every claimed
property from scratch and returns a certificate; it is the only judge of
transitivity and nonorientability.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import accumulate
from operator import eq, indexOf
from typing import Callable, Iterable, Iterator, Sequence

from . import kernels
from .branch import BranchData, admissible_defect
# conjugator and all_square_roots are not called here; they stay importable
# from this module because perfbench/spans.py looks them up here (WRAP_POINTS)
from .groups import conjugator, group_of, imprimitivity_block  # noqa: F401
from .perm import Permutation, canonical_of_type, format_cycles, parse_permutation
from .squares import all_square_roots, iter_root_images  # noqa: F401


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


def classify(data: BranchData) -> Classification:
    """Decide realizability by an indecomposable covering.

    Even degrees are settled in closed form.  Odd degrees fall outside the
    decision rule; when the data is small enough they are settled by the
    exhaustive search in `oracle`, otherwise the verdict is UNKNOWN.
    """
    d = data.degree
    if not admissible_defect(data.total_defect(), d):
        return Classification(Verdict.NOT_ADMISSIBLE)
    if d % 2 == 1:
        from .oracle import SearchBounds, classify_by_search

        bounds = SearchBounds()
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
        """Read a witness record; a record of the wrong shape, or of a degree
        above `perm.MAX_DEGREE`, is a ValueError."""
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
    concrete obstruction to primitivity), otherwise None.  `primitive_by`
    says how primitivity was decided: "two_transitive" when the product of
    the gammas certified it, "block_scan" when the block scan ran, and None
    when the group is intransitive (then `primitive` is False unchecked).
    """

    relation_ok: bool
    row_types_ok: bool
    transitive: bool
    nonorientable: bool
    primitive: bool
    euler_char: int
    row_permutation_applied: tuple[int, ...]
    witness_block: tuple[int, ...] | None = None
    primitive_by: str | None = None

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
            "primitive_by": self.primitive_by,
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
    recorded.  Each gamma's type is its `cycle_type()`: for a witness read
    from text, the lengths of the cycles its reader read.  All
    group-theoretic properties are recomputed; nothing from the
    construction is trusted.

    The product of the gammas, computed for the relation check, settles
    transitivity of <gamma> when its type is [d-1, 1]: it lies in
    <gamma>, so <gamma> is transitive exactly when some gamma moves the
    product's fixed point into its long cycle.  Any other product leaves
    transitivity to a union-find over the generator edges.
    """
    d = data.degree
    if witness.degree != d or len(witness.gammas) != data.rows_count:
        raise ValueError("witness shape does not match branch data")
    gamma_imgs = [g.images for g in witness.gammas]
    types = [g.cycle_type() for g in witness.gammas]
    if row_map is None:
        row_map = _match_rows(data, types)
        row_types_ok = row_map is not None
        if row_map is None:
            row_map = tuple(range(data.rows_count))
    else:
        row_map = tuple(row_map)
        if sorted(row_map) != list(range(data.rows_count)):
            raise ValueError("row_map must be a permutation of the row indices")
        row_types_ok = all(
            types[i] == data.rows[row_map[i]].parts for i in range(data.rows_count)
        )

    # gamma_1 ... gamma_s = alpha^-2  <=>  alpha^2 * product = 1
    prod = kernels.product_of(gamma_imgs, d)
    long_cycle = kernels.cycle_lengths(prod) == (d - 1, 1)
    alpha_imgs = witness.alpha.images
    relation_ok = [prod[alpha_imgs[y - 1] - 1] for y in alpha_imgs] == list(range(1, d + 1))

    if long_cycle:
        # every orbit of <gamma> is a union of the product's two cycles (at
        # d = 2, of its two fixed points), so one orbit exactly when some
        # gamma moves the fixed point f
        f = indexOf(map(eq, prod, range(1, d + 1)), True) + 1
        gamma_transitive = any(g[f - 1] != f for g in gamma_imgs)
    else:
        gamma_transitive = kernels.is_transitive(gamma_imgs, d)
    # With <gamma> transitive, alpha joins nothing and cannot flip a sheet
    # against itself: alpha_extension would answer (True, False).
    if gamma_transitive:
        transitive, orientable = True, False
    else:
        orbits, n = kernels.orbit_index(gamma_imgs, d)
        transitive, orientable = kernels.alpha_extension(orbits, n, alpha_imgs)

    # A transitive group holding a (d-1)-cycle that fixes a point is
    # 2-transitive, hence primitive; the product is such an element for
    # every witness the even-degree engines build.  Anything else gets the
    # block scan.
    block = None
    primitive = False
    primitive_by = None
    if transitive:
        if long_cycle:
            primitive, primitive_by = True, "two_transitive"
        else:
            block = imprimitivity_block(witness.group())
            primitive, primitive_by = block is None, "block_scan"

    # each gamma's defect is d minus its number of cycles
    euler = d - sum(d - len(t) for t in types)
    return Certificate(
        relation_ok=relation_ok,
        row_types_ok=row_types_ok,
        transitive=transitive,
        nonorientable=not orientable,
        primitive=primitive,
        euler_char=euler,
        row_permutation_applied=tuple(row_map),
        witness_block=tuple(block) if block is not None else None,
        primitive_by=primitive_by,
    )


def _match_rows(data: BranchData, types: Sequence[tuple[int, ...]]) -> tuple[int, ...] | None:
    """Greedy assignment of witness slots to rows of equal cycle type."""
    unused = list(range(data.rows_count))
    out = []
    for t in types:
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


def _add_count(ctr: Counter, key: int, delta: int) -> None:
    """Add delta to ctr[key].  The Counters of a pair search hold no zero
    entries, so their size is the number of distinct values they hold."""
    n = ctr[key] + delta
    if n:
        ctr[key] = n
    else:
        del ctr[key]


class _Chains:
    """Open chains of a permutation being built edge by edge.

    Points start as singleton chains.  Adding the edge u -> v either
    concatenates the chain ending at u with the chain starting at v, or, if
    they are the same chain, closes it into a cycle.  `lengths` is the
    multiset of open chain lengths and `count` their number.  `head_of` is
    kept for chain tails and `tail_of` and `len_of` for chain heads; the
    entries of inner points are stale.
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

    def joined_length(self, u: int, v: int) -> int:
        """Length of the chain the edge u -> v would form, if it closes none."""
        return self.len_of[self.head_of[u]] + self.len_of[v]

    def add(self, u: int, v: int) -> None:
        """Add the edge u -> v from the tail u to the head v."""
        hu = self.head_of[u]
        self.nxt[u] = v
        self.prv[v] = u
        if hu == v:
            _add_count(self.lengths, self.len_of[v], -1)
        else:
            tv = self.tail_of[v]
            la, lb = self.len_of[hu], self.len_of[v]
            _add_count(self.lengths, la, -1)
            _add_count(self.lengths, lb, -1)
            _add_count(self.lengths, la + lb, 1)
            self.len_of[hu] = la + lb
            self.tail_of[hu] = tv
            self.head_of[tv] = hu
        self.count -= 1

    def remove(self, u: int, v: int) -> None:
        """Undo `add(u, v)`, the last edge added that is still in place.

        `add` wrote no entry of u or v other than their links, so
        head_of[u] is still the head hu of u's old chain, and the edge
        closed a cycle iff hu == v.  Otherwise len_of[v] is still the
        length of v's old chain and tail_of[v] its tail.
        """
        hu = self.head_of[u]
        self.nxt[u] = 0
        self.prv[v] = 0
        if hu == v:
            _add_count(self.lengths, self.len_of[v], 1)
        else:
            tv = self.tail_of[v]
            lb = self.len_of[v]
            la = self.len_of[hu] - lb
            _add_count(self.lengths, la + lb, -1)
            _add_count(self.lengths, lb, 1)
            _add_count(self.lengths, la, 1)
            self.len_of[hu] = la
            self.tail_of[hu] = u
            self.head_of[tv] = v
        self.count += 1


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

    All of this state, and the list of free targets of gamma_b, is updated
    edge by edge.  Each edge pushes one record on the journal and is undone
    from that record and the state it left (`_remove`), so a node costs
    time in the number of distinct chain and cycle lengths rather than in
    d, unless the packing check has to fall back to the placement search
    `_fits`.
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
        self.free_next = list(range(1, d + 2))
        self.free_prev = [0] + list(range(d + 1))
        # undo stack: one record (u, v, pu, union) per edge gamma_b(u) = v
        # still in place, oldest first.  pu = gamma_a^-1(u) is the tail of
        # the pi edge the same choice made, and union the payload of
        # `_union` (None when the edge joined no two orbits).  Nothing else
        # is logged: edges are undone in reverse order, so each one finds
        # the chains, Counters and free list exactly as it left them and
        # inverts its own changes from that state (`_Chains.remove`), as a
        # dancing-links removal is undone from the removed element's links.
        self.journal: list[tuple] = []

    # --- union-find over gamma_a cycles, with explicit unlink for undo

    def _find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            x = p[x]
        return x

    def _union(self, x: int, y: int) -> tuple[int, int, bool] | None:
        """Join the classes of x and y; the payload `_uf_unlink` undoes it
        with, or None when they were one class already."""
        rx, ry = self._find(x), self._find(y)
        if rx == ry:
            return None
        if self.rank[rx] < self.rank[ry]:
            rx, ry = ry, rx
        grew = self.rank[rx] == self.rank[ry]
        self.parent[ry] = rx
        if grew:
            self.rank[rx] += 1
        self.comps -= 1
        return ry, rx, grew

    def _uf_unlink(self, payload: tuple[int, int, bool]) -> None:
        ry, rx, grew = payload
        self.parent[ry] = ry
        if grew:
            self.rank[rx] -= 1
        self.comps += 1

    # --- free targets of gamma_b: the points v with gamma_b^-1(v) unset,
    # linked in increasing order so that undo relinks them in place

    def _unlink_free(self, v: int) -> None:
        nx, pv = self.free_next, self.free_prev
        nx[pv[v]] = nx[v]
        pv[nx[v]] = pv[v]

    # --- feasibility

    @staticmethod
    def _packs(chains: _Chains, rem: Counter) -> bool:
        """Whether the open chains longer than 1 fit into the cycle lengths
        still available, several chains to a cycle.

        Exact; the shapes every fold produces are settled from the two
        multisets directly, and only mixed lengths in several usable cycles
        fall through to `_fits`.
        """
        if chains.count == chains.lengths[1]:
            return True
        items = {n: c for n, c in chains.lengths.items() if n > 1}
        small = min(items)
        bins = [(cap, c) for cap, c in rem.items() if cap >= small]
        if not bins or max(items) > max(bins)[0]:
            return False
        if len(items) == 1:
            return sum(c * (cap // small) for cap, c in bins) >= items[small]
        total = sum(n * c for n, c in items.items())
        if total > sum(cap * c for cap, c in bins):
            return False
        if len(bins) == 1 and bins[0][1] == 1:
            return True
        return _fits(
            sorted((n for n, c in items.items() for _ in range(c)), reverse=True),
            tuple(sorted(cap for cap, c in bins for _ in range(c))),
        )

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
        """Try the edge gamma_b(u) = v; keep it and push its record if the
        state stays feasible, otherwise leave the state as it was."""
        b, pi = self.b, self.pi
        # a joined chain longer than every cycle still available fails the
        # packing check below, so it is rejected before any state changes
        lb = b.closing_length(u, v)
        if lb is not None:
            if self.rem_b[lb] <= 0:
                return False
        elif b.joined_length(u, v) > max(self.rem_b, default=0):
            return False
        pu = self.ainv[u]
        if pi.nxt[pu]:
            raise AssertionError("pi edge already present")
        lp = pi.closing_length(pu, v)
        if lp is not None:
            if self.rem_pi is not None and self.rem_pi[lp] <= 0:
                return False
        elif self.rem_pi is not None:
            if pi.joined_length(pu, v) > max(self.rem_pi, default=0):
                return False

        b.add(u, v)
        self._unlink_free(v)
        if lb is not None:
            _add_count(self.rem_b, lb, -1)
        pi.add(pu, v)
        if lp is not None:
            if self.rem_pi is not None:
                _add_count(self.rem_pi, lp, -1)
            self.closed_pi += 1
        union = self._union(self.cyc_id[u], self.cyc_id[v])
        self.unset -= 1
        if self._feasible():
            self.journal.append((u, v, pu, union))
            return True
        self._remove(u, v, pu, union)
        return False

    def _remove(
        self, u: int, v: int, pu: int, union: tuple[int, int, bool] | None
    ) -> None:
        """Undo the edge gamma_b(u) = v, the last one still in place."""
        self.unset += 1
        if union is not None:
            self._uf_unlink(union)
        pi = self.pi
        if pi.head_of[pu] == v:
            if self.rem_pi is not None:
                _add_count(self.rem_pi, pi.len_of[v], 1)
            self.closed_pi -= 1
        pi.remove(pu, v)
        b = self.b
        if b.head_of[u] == v:
            _add_count(self.rem_b, b.len_of[v], 1)
        # v's links were kept while it was unlinked, and every point
        # unlinked after it has been relinked already
        self.free_next[self.free_prev[v]] = v
        self.free_prev[self.free_next[v]] = v
        b.remove(u, v)

    def _undo(self, mark: int) -> None:
        """Undo every edge whose record sits at or above `mark`."""
        journal = self.journal
        while len(journal) > mark:
            self._remove(*journal.pop())

    # --- search

    def run(self) -> tuple[Permutation, Permutation] | None:
        if not self._dfs():
            return None
        gb = Permutation(tuple(self.b.nxt[1 : self.d + 1]))
        return self.gamma_a, gb

    def _dfs(self) -> bool:
        """Depth-first over gamma_b(u) for u = 1, 2, ..., d in turn.

        Level u tries the free targets v in increasing order (all of them,
        shuffled once per level, when randomized), counting each try as a
        node.  When the chain ending at u is too long to join a chain of 2
        points, `_short_targets` gives the few targets the chain-length
        check in `_apply` can pass; otherwise the level walks the free
        list.  The stack holds one frame per level, so u is its length; a
        frame is [candidate iterator or None, last target walked, journal
        length before the edge tried].

        A level with no edge left is a complete pair: `_feasible` accepted
        the last edge, so the orbits number the goal's and, for a defect
        goal, the closed product cycles the target; and each cycle closed
        took a length still available, so the closed cycles, d points in
        all, leave no length over.
        """
        d, b = self.d, self.b
        stack: list[list] = []
        entered = True
        while True:
            if entered:
                if self.unset == 0:
                    return True
                if self.rng is None:
                    u = len(stack) + 1
                    head = b.head_of[u]
                    room = max(self.rem_b, default=0) - b.len_of[head]
                    if room >= 2:
                        stack.append([None, 0, 0])
                    else:
                        stack.append([self._short_targets(u, head, room), 0, 0])
                else:
                    cands = [v for v in range(1, d + 1) if not b.prv[v]]
                    self.rng.shuffle(cands)
                    stack.append([iter(cands), 0, 0])
            top = stack[-1]
            if top[0] is None:
                v = self.free_next[top[1]]
                top[1] = v
            else:
                v = next(top[0], d + 1)
            if v > d:
                stack.pop()
                if not stack:
                    return False
                self._undo(stack[-1][2])
                entered = False
                continue
            self.nodes += 1
            if self.nodes > self.node_budget:
                raise SearchExhausted(
                    f"node budget {self.node_budget} exhausted", complete=False
                )
            top[2] = len(self.journal)
            entered = self._apply(len(stack), v)

    def _short_targets(self, u: int, head: int, room: int) -> Iterator[int]:
        """The free targets at level u, in increasing order, that can pass
        the chain-length check of `_apply` when the chain ending at u, from
        `head`, has room for fewer than 2 more points.

        Every free target below u heads an open chain of at least 2 points
        and every free target from u on is a singleton.  So only `head`,
        which closes the chain, and with room for one point the free
        targets from u on are left.  When u is no longer a free target, the
        first one after it is found by following the links that u, and
        each point reached from it that is not free either, kept when it
        was unlinked: undo relinks in reverse order, so none of the points
        those links pass over has been freed since.  Each target is read
        only after the edge to the one before it is undone, so the list is
        back in the state of this level.
        """
        yield head
        if room < 1:
            return
        d, prv, nxt = self.d, self.b.prv, self.free_next
        v = nxt[u]
        while v <= d and prv[v]:
            v = nxt[v]
        while v <= d:
            yield v
            v = nxt[v]


def _fits(items: list[int], caps: tuple[int, ...]) -> bool:
    """Exact bin packing: can `items` (non-increasing) go into bins of the
    sizes `caps` (non-decreasing)?

    Places the items in order, trying each distinct bin size from the
    largest down, with failed (item, free sizes) states remembered.  Runs on
    an explicit stack of child generators.
    """
    dead: set[tuple] = set()

    def children(i: int, free: tuple[int, ...]):
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
            yield tuple(sorted(rest))

    stack = [((0, caps), children(0, caps))]
    while stack:
        key, kids = stack[-1]
        i = key[0] + 1
        for free in kids:
            if i == len(items):
                return True
            if (i, free) not in dead:
                stack.append(((i, free), children(i, free)))
                break
        else:
            dead.add(key)
            stack.pop()
    return False


# nodes one pair search may visit; read at each call
_DEFAULT_NODE_BUDGET = 300_000


def assemble_pair(
    type_a: Sequence[int],
    type_b: Sequence[int],
    goal: PairGoal,
    *,
    rng: random.Random | None = None,
) -> tuple[Permutation, Permutation]:
    """Build permutations of the two given cycle types meeting a PairGoal.

    gamma_a is the canonical representative of `type_a` (any other choice
    gives a conjugate answer, so nothing is lost; the fold chain conjugates
    what it has built onto it).  The pair returned satisfies: cycle types
    match, the group generated by the pair has exactly goal.orbit_count
    orbits, and the product gamma_a * gamma_b has the requested defect or
    cycle type.  gamma_b is searched point by point in increasing order,
    or in a shuffled order drawn from `rng` when one is given.  Raises
    SearchExhausted with complete=True when no such pair exists,
    complete=False when `_DEFAULT_NODE_BUDGET` nodes ran out first.  A
    goal that breaks Riemann-Hurwitz or the parity of the signs, or one
    that two involutions cannot meet (`_involution_pair_can_meet`), is
    refused without a search.
    """
    ta = tuple(sorted(type_a, reverse=True))
    tb = tuple(sorted(type_b, reverse=True))
    d = sum(ta)
    if sum(tb) != d:
        raise ValueError("cycle types must partition the same degree")
    gamma_a = canonical_of_type(d, ta)
    if goal.product_type is not None and sum(goal.product_type) != d:
        raise ValueError("product_type must partition the degree")
    if goal.product_type is not None:
        nu_product = d - len(goal.product_type)
    else:
        nu_product = goal.product_defect
    # Riemann-Hurwitz summed over the orbits: k orbits need
    # nu_a + nu_b + nu_product >= 2(d - k); and the sign (-1)^nu is
    # multiplicative, so nu_a + nu_b - nu_product must be even
    nu_a, nu_b = d - len(ta), d - len(tb)
    meets_rh = nu_a + nu_b + nu_product >= 2 * (d - goal.orbit_count)
    meets_parity = (nu_a + nu_b - nu_product) % 2 == 0

    found = None
    if meets_rh and meets_parity and (
        max(ta) > 2
        or max(tb) > 2
        or _involution_pair_can_meet(goal, d, ta.count(1), tb.count(1))
    ):
        found = _PairSearch(gamma_a, tb, goal, rng, _DEFAULT_NODE_BUDGET).run()
    if found is None:
        raise SearchExhausted(
            f"no pair of types {list(ta)}, {list(tb)} with {goal.describe()}",
            complete=True,
        )
    ga, gb = found
    _check_pair(ga, gb, ta, tb, goal)
    return ga, gb


def _involution_pair_can_meet(
    goal: PairGoal, d: int, fixed_a: int, fixed_b: int
) -> bool:
    """Whether two involutions of 1..d, with fixed_a and fixed_b fixed
    points, can meet `goal`.

    They generate a dihedral group.  Each orbit is either an alternating
    cycle of 2m points, on which the product has two m-cycles, or a path,
    on which the product is one cycle through all its points.  The ends of
    the paths are the fixed points: a path with an odd number of points
    ends in one fixed point of each involution (a point fixed by both is a
    path of one point), any other path in two fixed points of the same
    one.  So there are (fixed_a + fixed_b) / 2 paths, and the number of odd
    ones is at most min(fixed_a, fixed_b) and has the parity of fixed_a.
    Every shape within these rules occurs.  The pair search cannot see
    them and would spend its whole node budget on a goal they rule out.
    """
    paths = (fixed_a + fixed_b) // 2
    cycles = goal.orbit_count - paths
    odd_cap = min(fixed_a, fixed_b)
    if cycles < 0:
        return False
    if goal.product_type is None:
        # the product's cycles then have at least 2 * orbit_count - odd_cap
        # points in all, and any larger total of the same parity is a shape
        return (
            d - goal.product_defect == 2 * cycles + paths
            and 2 * goal.orbit_count - odd_cap <= d
        )
    if len(goal.product_type) != 2 * cycles + paths:
        return False
    # a length with multiplicity c gives c mod 2 path cycles, plus any even
    # number up to c; the others pair up into the alternating cycles.  The
    # odd path cycles then have the parity of d, so of fixed_a.
    counts = Counter(goal.product_type)
    odd = [c for n, c in counts.items() if n % 2]
    even = [c for n, c in counts.items() if n % 2 == 0]
    even_lo, even_hi = sum(c % 2 for c in even), sum(even)
    for o in range(sum(c % 2 for c in odd), min(sum(odd), odd_cap) + 1, 2):
        e = paths - o
        if even_lo <= e <= even_hi and (e - even_lo) % 2 == 0:
            return True
    return False


def _check_pair(ga, gb, ta, tb, goal) -> None:
    if ga.cycle_type() != ta or gb.cycle_type() != tb:
        raise EngineDefect("assembled pair has wrong cycle types")
    d = ga.degree
    if kernels.orbit_count([ga.images, gb.images], d) != goal.orbit_count:
        raise EngineDefect("assembled pair has wrong orbit count")
    prod_type = kernels.cycle_lengths(kernels.compose(ga.images, gb.images))
    if goal.product_type is not None:
        if prod_type != goal.product_type:
            raise EngineDefect("assembled pair has wrong product type")
    elif d - len(prod_type) != goal.product_defect:
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


# goal attempts a fold chain may spend beyond one per fold
_FOLD_ATTEMPT_CAP = 300


def _row_order(data: BranchData, order: Sequence[int] | None = None) -> list[int]:
    """Process rows so that the last one absorbed is not all twos, if possible.

    The final assembly targets a product of type [d-1, 1], which is easiest
    to steer when the last row has some room; the rule is to move the
    last row of `order` (0, 1, ... by default) that is not all twos to the
    end.
    """
    order = list(range(data.rows_count) if order is None else order)
    for pos in range(len(order) - 1, -1, -1):
        if not data.rows[order[pos]].is_all_twos():
            order.append(order.pop(pos))
            break
    return order


def _row_orders(data: BranchData) -> list[list[int]]:
    """The row orders the fold_chain engine tries, in turn.

    The first is `_row_order`.  When its fold chain stalls, the rows are
    tried once more by decreasing nu (a stable sort), under the same rule
    for the last row: some data stall in one order and realize at once in
    the other.
    """
    first = _row_order(data)
    by_nu = sorted(range(data.rows_count), key=lambda j: -data.rows[j].nu)
    second = _row_order(data, by_nu)
    return [first] if second == first else [first, second]


def _one_cycle_type(d: int, length: int) -> tuple[int, ...]:
    if length <= 1:
        return (1,) * d
    return (length,) + (1,) * (d - length)


def _goal_ladder(nu_prod: int, nu_row: int, d: int, rem_after: int) -> Iterator[PairGoal]:
    """Candidate goals for a non-final fold, best first.

    When the combined defect is below d the product cannot be transitive,
    so the orbits are made as coarse as possible (one cycle of the product
    per orbit).  Otherwise the fold targets transitivity.  Either way the
    preferred product shape is a single cycle plus fixed points, as long as
    parity allows: that shape always absorbs the next row by attaching its
    cycles to the big one, so later folds never get cornered.  Plain
    defect goals follow as backup, stepping down in twos because the
    product defect parity is forced.  No goal breaks Riemann-Hurwitz: a
    pair with k orbits needs nu_prod + nu_row + nu(product) >= 2(d - k).

    The goals are made as they are asked for: a fold usually takes the
    first, and each product type costs O(d log d) to build.
    """
    total = nu_prod + nu_row
    if total < d:
        t = d - total
        yield PairGoal(orbit_count=t, product_type=_one_cycle_type(d, total + 1))
        yield PairGoal(orbit_count=t, product_defect=total)
        if total >= 2:
            yield PairGoal(orbit_count=t + 1, product_defect=total - 2)
        return
    cap = d - 1 if (total - (d - 1)) % 2 == 0 else d - 2
    # the product defect can still move by at most nu(row) per remaining
    # fold, and the chain must end at defect d - 2
    lo = max(abs(nu_prod - nu_row), (d - 2) - rem_after, 2 * (d - 1) - total, 0)
    for v in range(cap, lo - 1, -2):
        yield PairGoal(orbit_count=1, product_type=_one_cycle_type(d, v + 1))
    for v in range(cap, lo - 1, -2):
        yield PairGoal(orbit_count=1, product_defect=v)


def _ladder_goals(data: BranchData, order: Sequence[int]):
    """The goals of the fold_chain engine: fold j walks the goal ladder of
    row order[j], and the last fold targets a product of type [d-1, 1]."""
    d = data.degree
    nus = [data.rows[j].nu for j in order]
    # rest[j] is the defect of the rows after order[j]
    rest = list(accumulate(reversed(nus[1:]), initial=0))[::-1]
    last = len(order) - 1

    def goals(j, ptype):
        if j == last:
            return [PairGoal(orbit_count=1, product_type=(d - 1, 1))]
        return _goal_ladder(d - len(ptype), nus[j], d, rest[j])

    return goals


def _fold_chain(
    data: BranchData,
    order: Sequence[int],
    rng: random.Random,
    start: Sequence[tuple[int, ...]],
    goals: Callable[[int, tuple[int, ...]], Iterable[PairGoal]],
) -> tuple[list[tuple[int, ...]], list[FoldStep]]:
    """Absorb rows one at a time, keeping the running product canonical.

    `start` holds the gammas of rows order[:len(start)], as image tuples;
    fold j absorbs row order[j], trying in turn the goals `goals(j, ptype)`
    gives for the cycle type ptype of the product so far.  A fold keeps its
    gamma_b and the relabeling mu onto the canonical frame `assemble_pair`
    starts from; each gamma is relabeled once, by the later mus, at the end.
    When a later fold finds no workable goal the chain backtracks and
    takes the next option at an earlier fold.  A goal whose deterministic
    search ran out of nodes gets two randomized retries before the next
    goal is tried: the search builds gamma_b point by point, and some row
    pairs defeat that order on every goal of the ladder while a shuffled
    order succeeds within a few thousand nodes.  The whole chain may spend
    one goal attempt per fold plus `_FOLD_ATTEMPT_CAP` more.  The chain
    runs on an explicit stack with one fold generator per row absorbed, so
    its depth is not bounded by the recursion limit.

    Returns the image tuples of the gammas of the rows in `order` and the
    trace.  Raises EngineDefect if no goal sequence works.
    """
    d = data.degree
    rows = [data.rows[j] for j in order]
    folds = len(rows) - len(start)
    cap = folds + _FOLD_ATTEMPT_CAP
    attempts = 0

    def stalled(why: str) -> EngineDefect:
        return EngineDefect(
            f"fold chain stalled on {data.to_text()}: {why}; this contradicts "
            "its classification and indicates an engine bug or undersized budget"
        )

    def fold(j, prod, labels):
        """Frames (gamma_b, mu, product, orbit labels, step) of row j, in turn."""
        nonlocal attempts
        mu, ptype = kernels.canonical_frame(prod)
        # each point's label, relabeled by mu, still lies in its orbit
        labels = kernels.conjugate(labels, mu)
        for goal in goals(j, ptype):
            cut = False
            for use_rng in (False, True, True):
                if use_rng and not cut:
                    break
                if attempts >= cap:
                    raise stalled("fold goal attempt budget spent")
                attempts += 1
                try:
                    ga, gb = assemble_pair(
                        ptype, rows[j].parts, goal, rng=rng if use_rng else None
                    )
                except SearchExhausted as e:
                    cut = cut or not e.complete
                    continue
                assert kernels.conjugate(prod, mu) == ga.images
                nprod = kernels.compose(ga.images, gb.images)
                nlabels = kernels.component_labels([labels, gb.images], d)
                step = FoldStep(
                    row=order[j],
                    goal=goal,
                    product_type=kernels.cycle_lengths(nprod),
                    orbits=len(set(nlabels)),
                )
                yield gb.images, mu, nprod, nlabels, step

    # stack[i] is the generator of fold len(start) + i, frames[i] what it last gave
    stack = [fold(len(start), kernels.product_of(start, d), kernels.component_labels(start, d))]
    frames = []
    while stack:
        got = next(stack[-1], None)
        if got is None:
            stack.pop()
            continue
        frames[len(stack) - 1 :] = [got]
        if len(stack) == folds:
            break
        stack.append(fold(len(start) + len(stack), got[2], got[3]))
    else:
        raise stalled("no feasible goal sequence")
    later, gammas = kernels.identity(d), []
    for gb, mu, *_ in reversed(frames):
        gammas.append(kernels.conjugate(gb, later))
        later = kernels.compose(later, mu)
    gammas += (kernels.conjugate(g, later) for g in reversed(start))
    return gammas[::-1], [step for *_, step in frames]


def _accept(
    data: BranchData,
    gammas: Sequence[tuple[int, ...]],
    alpha: tuple[int, ...] | None,
    engine: str,
    seed: int | None,
    *,
    order: Sequence[int] | None = None,
    trace: list[FoldStep] | None = None,
    primitive: bool = True,
) -> RealizationResult | None:
    """Verify a candidate witness, given by image tuples, and wrap it, or
    None if it falls short.

    With alpha None, alpha is the inverse of the first square root of the
    product of the gammas (`iter_root_images` order), and None is returned
    when the product has no root.  No other root is tried: every engine
    that passes None hands over transitive gammas, and then alpha can
    neither disconnect the surface nor orient it.  gamma_i must carry the
    cycle type of row order[i] (row i by default).  The certificate must
    show the relation, the row types, a transitive group and a
    nonorientable surface, and primitivity exactly as asked.
    """
    if alpha is None:
        root = next(iter_root_images(kernels.product_of(gammas, data.degree)), None)
        if root is None:
            return None
        alpha = kernels.inverse(root)
    witness = _build_witness(data.degree, gammas, alpha)
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


@lru_cache(maxsize=8)
def _points(d: int) -> tuple[int, ...]:
    """0..d, one int object each, shared by the witnesses of degree d."""
    return tuple(range(d + 1))


def _build_witness(
    d: int, gammas: Sequence[tuple[int, ...]], alpha: tuple[int, ...]
) -> HurwitzWitness:
    """The witness of degree d with these gamma and alpha image tuples,
    every image drawn from one int object per point.

    Ints above 256 are separate objects wherever they are computed, so
    every image tuple the engines build holds its own copies, which would
    be most of the size of a result a caller keeps.  An image tuple the
    witness repeats becomes one permutation.
    """
    take = _points(d).__getitem__
    perms = {p: Permutation(tuple(map(take, p))) for p in {*gammas, alpha}}
    return HurwitzWitness(d, tuple(perms[g] for g in gammas), perms[alpha])


def _realize_all_twos(data: BranchData, seed: int | None) -> RealizationResult | None:
    """Rows all of type [2,...,2]: start from the canonical involution pair.

    The pair multiplies to two d/2-cycles; one or two more rows fold the
    product to type [d-1, 1], then the remaining rows are inserted as
    repeats of the second involution, which cancel in the product.
    """
    d, s = data.degree, data.rows_count
    if (d // 2) % 2 == 0:
        targets = [(d - 1, 1)] * (2 - s % 2)
    else:
        # d/2 odd forces an even row count; pass through a full cycle first
        targets = [(d,), (d - 1, 1)]
    pads = s - 2 - len(targets)
    if pads < 0 or pads % 2:
        raise EngineDefect("all-twos padding parity is off")
    core, trace = _fold_chain(
        data,
        range(2 + len(targets)),
        random.Random(seed),
        [g.images for g in canonical_involution_pair(d)],
        lambda j, ptype: [PairGoal(orbit_count=1, product_type=targets[j - 2])],
    )
    gammas = core[:2] + [core[1]] * pads + core[2:]
    return _accept(data, gammas, None, "all_twos_chain", seed, trace=trace)


def realize_indecomposable(
    data: BranchData,
    seed: int = 0,
    *,
    classification: Classification | None = None,
) -> RealizationResult:
    """Construct a verified witness with primitive monodromy.

    One engine per degree regime: `degree_two`; `all_twos_chain` when every
    row is all twos; `fold_chain` for the other even degrees; and for odd
    degrees `exhaustive_scan`, which takes the first primitive witness of
    the scan `classify` already ran (so it ignores the seed).  A caller
    that has classified the data already passes the result as
    `classification`, so odd data is not scanned twice.

    `fold_chain` tries a second row order when the first stalls
    (`_row_orders`); if that stalls too, the first stall is raised.

    Raises NotRealizableError when `classify` rules the data out, and
    EngineDefect if the engine fails for data classified realizable
    (which would be a bug, not a property of the data).
    """
    cls = classification if classification is not None else classify(data)
    if cls.verdict is not Verdict.INDECOMPOSABLE_REALIZABLE:
        raise NotRealizableError(
            f"branch data is {cls.verdict.value}; no indecomposable witness exists"
            if cls.verdict is not Verdict.UNKNOWN
            else "realizability of this branch data is undecided"
        )
    d = data.degree
    result: RealizationResult | None = None
    if d == 2:
        result = _accept(data, [(2, 1)] * data.rows_count, None, "degree_two", seed)
    elif d % 2 == 1:
        w = cls.witness
        if w is not None:
            gammas = [g.images for g in w.gammas]
            result = _accept(data, gammas, w.alpha.images, "exhaustive_scan", seed)
    elif data.all_rows_all_twos():
        result = _realize_all_twos(data, seed)
    else:
        stall: EngineDefect | None = None
        for order in _row_orders(data):
            first = canonical_of_type(d, data.rows[order[0]].parts).images
            try:
                gammas, trace = _fold_chain(
                    data, order, random.Random(seed), [first], _ladder_goals(data, order)
                )
            except EngineDefect as e:
                stall = stall or e
                continue
            result = _accept(
                data, gammas, None, "fold_chain", seed, order=order, trace=trace
            )
            break
        else:
            raise stall
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
    """Build the closed-form witness with imprimitive monodromy for
    only-decomposable data, or return None.

    No search runs; the name and the engine tag `decomposable_search` stay
    because callers and outputs carry them.  Only-decomposable branch data is
    still realizable, just never by an indecomposable covering; the
    certificate of the returned witness has primitive=False and records a
    block.  `classify` calls only all-twos data at even d >= 4 only
    decomposable: at odd d the verdict comes from the oracle, whose default
    bounds admit d = 3 and 5, prime degrees where every transitive group is
    primitive.  So those rows get one fixed tuple of the canonical
    involution pair per parity of the row count; the witness does not
    depend on `seed`, and a tuple that fell short would return None.
    Inadmissible data and every other datum get None, even one with an
    imprimitive witness: for that, call `oracle.find_imprimitive_witness`
    and `verify_witness`.
    """
    d, s = data.degree, data.rows_count
    if d < 4 or d % 2 or not data.all_rows_all_twos():
        return None
    if not admissible_defect(data.total_defect(), d):
        return None

    # g1, g2 is the canonical pair, so every tuple holding both is
    # transitive, and nonorientable whatever alpha is.  The alpha taken
    # is the inverse of the first root `iter_root_images` gives.
    #
    # Even s: the product (g1 g2)^(s/2) has cycles all of one length m,
    # which ordered by least point alternate between odd and even
    # points.  So the first root takes each cycle's own root when m is
    # odd and otherwise joins the cycles in (odd, even) pairs; either
    # way alpha preserves the blocks {odd points} and {even points}.
    #
    # Odd s, admissible only for d = 0 mod 4: the product g1 g2 g1 is a
    # fixed-point-free involution, whose first root is
    # (1 d-1 4 2)(3 8 6 5)(7 12 10 9)...  That root, g1 and g2 all
    # preserve B = {x = 0, 1 mod 4} and its complement.  The tuple
    # [g1] * s never answers: alpha^2 = g1, so <g1, alpha> = <alpha>
    # has orbits of 4 points, intransitive for d > 4 and orientable at
    # d = 4.
    g1, g2 = (g.images for g in canonical_involution_pair(d))
    if s % 2 == 0:
        gammas = [g1, g2] * (s // 2)
    else:
        gammas = [g1, g2] + [g1] * (s - 2)
    return _accept(data, gammas, None, "decomposable_search", seed, primitive=False)
