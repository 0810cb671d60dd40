"""Analysis of permutation groups given by generators.

Groups are handled purely through generating sets; nothing here needs or
builds a full group unless explicitly asked to (elements, stabilizer
maximality).  Blocks of a transitive group are computed by partition
refinement: identify two points and close under the generators; the class
of a point in the result is the minimal block containing the seed pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import kernels
from .perm import Permutation


class GroupTooLargeError(RuntimeError):
    """Element enumeration exceeded the requested cap."""


class NotABlockError(ValueError):
    """A set claimed to be a block has overlapping distinct translates."""


@dataclass(frozen=True)
class GeneratedGroup:
    """Permutation group described by a non-empty generating sequence."""

    degree: int
    generators: tuple[Permutation, ...]

    def __post_init__(self):
        if not self.generators:
            raise ValueError("at least one generator is required")
        for g in self.generators:
            if g.degree != self.degree:
                raise ValueError(
                    f"generator degree {g.degree} does not match {self.degree}"
                )

    def generator_images(self) -> tuple[tuple[int, ...], ...]:
        return tuple(g.images for g in self.generators)


def group_of(*perms: Permutation) -> GeneratedGroup:
    return GeneratedGroup(perms[0].degree, tuple(perms))


def orbits(G: GeneratedGroup) -> tuple[tuple[int, ...], ...]:
    """Orbits as sorted tuples, ordered by minimal element."""
    return kernels.orbits(G.generator_images(), G.degree)


def is_transitive(G: GeneratedGroup) -> bool:
    return kernels.is_transitive(G.generator_images(), G.degree)


def minimal_block_containing(G: GeneratedGroup, pair: tuple[int, int]) -> tuple[int, ...]:
    """Minimal block of a transitive group containing the two given points."""
    x, y = pair
    d = G.degree
    if not (1 <= x <= d and 1 <= y <= d) or x == y:
        raise ValueError(f"seed pair must be two distinct points in 1..{d}")
    if not is_transitive(G):
        raise ValueError("group is not transitive")
    return kernels.minimal_block(G.generator_images(), d, x, y)


def imprimitivity_block(G: GeneratedGroup) -> tuple[int, ...] | None:
    """A non-trivial block when one exists, else None.

    Scans seed pairs (1, y) in ascending y and returns the first minimal
    block that is neither a point nor everything, so the witness is
    deterministic.
    """
    d = G.degree
    if d < 2:
        raise ValueError("primitivity needs degree at least 2")
    if not is_transitive(G):
        raise ValueError("group is not transitive")
    gens = G.generator_images()
    for y in range(2, d + 1):
        block = kernels.minimal_block(gens, d, 1, y)
        if len(block) < d:
            return block
    return None


def is_primitive(G: GeneratedGroup) -> bool:
    """True iff the transitive group G preserves no non-trivial partition.

    >>> from .perm import parse_permutation
    >>> a = parse_permutation("(1 2)(3 4)", 4)
    >>> b = parse_permutation("(2 3)(4 1)", 4)
    >>> is_primitive(GeneratedGroup(4, (a, b)))
    False
    """
    return imprimitivity_block(G) is None


def block_system_from(G: GeneratedGroup, block: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """All translates of a verified block, sorted by minimal element.

    Raises NotABlockError when some translate overlaps the block system
    without coinciding with a member.
    """
    if not is_transitive(G):
        raise ValueError("group is not transitive")
    d = G.degree
    start = tuple(sorted(block))
    if not start or any(not 1 <= x <= d for x in start):
        raise ValueError(f"block must be a non-empty subset of 1..{d}")
    seen = {start}
    point_to_block = {x: start for x in start}
    queue = [start]
    while queue:
        b = queue.pop()
        for g in G.generator_images():
            image = tuple(sorted(g[x - 1] for x in b))
            if image in seen:
                continue
            for x in image:
                if x in point_to_block:
                    raise NotABlockError(
                        f"translate {image} overlaps {point_to_block[x]}"
                    )
            seen.add(image)
            for x in image:
                point_to_block[x] = image
            queue.append(image)
    return tuple(sorted(seen))


def elements(G: GeneratedGroup, cap: int = 20000) -> list[Permutation]:
    """Full closure of the generators under composition, sorted by images.

    Raises GroupTooLargeError as soon as the closure exceeds cap.
    """
    seen = _closure_images(G.generator_images(), G.degree, cap)
    return [Permutation(t) for t in sorted(seen)]


def _closure_images(gens: Sequence[tuple[int, ...]], d: int, cap: int) -> set[tuple[int, ...]]:
    ident = kernels.identity(d)
    seen = {ident}
    queue = [ident]
    while queue:
        u = queue.pop()
        for g in gens:
            v = kernels.compose(u, g)
            if v not in seen:
                if len(seen) >= cap:
                    raise GroupTooLargeError(f"group exceeds cap {cap}")
                seen.add(v)
                queue.append(v)
    return seen


def _small_generating_set(members: list[tuple[int, ...]], d: int, cap: int) -> list[tuple[int, ...]]:
    """Greedy generating subset of a subgroup given by its element list."""
    gens: list[tuple[int, ...]] = []
    have: set[tuple[int, ...]] = {kernels.identity(d)}
    for h in members:
        if h not in have:
            gens.append(h)
            have = _closure_images(gens, d, cap)
    return gens


def stabilizer_is_maximal(G: GeneratedGroup, x: int, cap: int = 20000) -> bool:
    """True iff the stabilizer of x is a maximal subgroup of G.

    Equivalent to: adjoining any element outside the stabilizer generates
    all of G.  It suffices to adjoin one coset representative per orbit of
    the stabilizer, which keeps the number of closures at degree size.
    Requires G transitive; enumerates G, so subject to cap.
    """
    d = G.degree
    if not 1 <= x <= d:
        raise ValueError(f"point {x} outside 1..{d}")
    if not is_transitive(G):
        raise ValueError("group is not transitive")
    full = {p.images for p in elements(G, cap)}
    stab = sorted(t for t in full if t[x - 1] == x)
    stab_gens = _small_generating_set(stab, d, cap)
    transversal: dict[int, tuple[int, ...]] = {}
    for t in sorted(full):
        transversal.setdefault(t[x - 1], t)
    stab_orbit_labels = kernels.component_labels(
        tuple(stab_gens) or (kernels.identity(d),), d
    )
    seen_orbits = set()
    for y in range(1, d + 1):
        if y == x:
            continue
        lb = stab_orbit_labels[y - 1]
        if lb in seen_orbits:
            continue
        seen_orbits.add(lb)
        g = transversal[y]
        extended = _closure_images(stab_gens + [g], d, cap)
        if len(extended) != len(full):
            return False
    return True


def conjugator(p: Permutation, q: Permutation) -> Permutation | None:
    """Some lam with p.conjugate(lam) == q, or None if cycle types differ.

    Aligns the cycle decompositions length by length and maps them onto
    each other pointwise.
    """
    if p.degree != q.degree:
        raise ValueError("degree mismatch")
    if p.cycle_type() != q.cycle_type():
        return None

    def keyed(perm: Permutation):
        return sorted(perm.cycles(), key=lambda c: (len(c), c[0]))

    mapping = [0] * (p.degree + 1)
    for cp, cq in zip(keyed(p), keyed(q)):
        for a, b in zip(cp, cq):
            mapping[a] = b
    mu = Permutation(tuple(mapping[1:]))
    lam = mu.inverse()
    assert p.conjugate(lam) == q
    return lam


def pair_conjugator(
    pair: tuple[Permutation, Permutation],
    target: tuple[Permutation, Permutation],
) -> Permutation | None:
    """Some lam conjugating pair onto target elementwise, or None.

    Requires the pair to generate a transitive group; the relabeling is
    then forced by the image of a single point, so each of the d choices
    is propagated and checked.
    """
    a, b = pair
    c, e = target
    d = a.degree
    if {b.degree, c.degree, e.degree} != {d}:
        raise ValueError("degree mismatch")
    gens_from = (a.images, b.images)
    gens_to = (c.images, e.images)
    for t in range(1, d + 1):
        mu = [0] * (d + 1)
        mu[1] = t
        used = {t}
        queue = [1]
        ok = True
        while queue and ok:
            x = queue.pop()
            for gf, gt in zip(gens_from, gens_to):
                y = gf[x - 1]
                v = gt[mu[x] - 1]
                if mu[y]:
                    if mu[y] != v:
                        ok = False
                        break
                else:
                    if v in used:
                        ok = False
                        break
                    mu[y] = v
                    used.add(v)
                    queue.append(y)
        if ok and all(mu[1:]):
            lam = Permutation(tuple(mu[1:])).inverse()
            if a.conjugate(lam) == c and b.conjugate(lam) == e:
                return lam
    return None
