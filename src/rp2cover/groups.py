"""Analysis of permutation groups given by generators.

Groups are handled purely through generating sets; nothing here builds a
full group.  Blocks of a transitive group are computed by partition
refinement: identify two points and close under the generators; the class
of a point in the result is the minimal block containing the seed pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .perm import Permutation


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


def is_transitive(G: GeneratedGroup) -> bool:
    return kernels.is_transitive(G.generator_images(), G.degree)


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
    translates, overlap = kernels.block_translates(G.generator_images(), start)
    if overlap is not None:
        image, member = overlap
        raise NotABlockError(f"translate {image} overlaps {member}")
    return translates


def conjugator(p: Permutation, q: Permutation) -> Permutation | None:
    """Some lam with p.conjugate(lam) == q, or None if cycle types differ.

    Relabels p onto the canonical frame of its cycle type and that frame
    onto q (`kernels.canonical_frame`), so each cycle of p maps pointwise
    onto the cycle of q of its length and rank by least point.
    """
    if p.degree != q.degree:
        raise ValueError("degree mismatch")
    lam_p, type_p = kernels.canonical_frame(p.images)
    lam_q, type_q = kernels.canonical_frame(q.images)
    if type_p != type_q:
        return None
    lam = kernels.compose(kernels.inverse(lam_q), lam_p)
    assert kernels.conjugate(p.images, lam) == q.images
    return Permutation(lam)


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
    lam = kernels.pair_conjugator((a.images, b.images), (c.images, e.images), d)
    return None if lam is None else Permutation(lam)
