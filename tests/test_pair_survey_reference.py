"""The involution-pair survey against the survey it replaced.

`involution_pair_survey` below is the earlier survey verbatim, with the
`_walk_relabeling` and `_is_half_block` it called: every pair got a
transitivity test by orbit labels (`kernels.is_transitive`), then the
product type, the walk and the block check.  The survey now lets one walk
from 1 decide transitivity as well; it must return the same dict.
"""

from __future__ import annotations

import pytest

from rp2cover import kernels, oracle
from rp2cover.oracle import (
    BoundsExceededError,
    InvolutionPairSurvey,
    SearchBounds,
    canonical_involution_pair,
    class_images,
)


def _walk_relabeling(pair, target, d):
    """The relabeling read off the alternating walks from 1, or None when
    it is not a bijection lam with conjugate(g, lam) == h for g, h of
    pair, target.

    A transitive pair of fixed-point-free involutions is one cycle that
    alternates the two.  So lam sends the k-th point of the target's walk
    from 1 over its first, second, first, ... involution to the k-th point
    of the pair's walk from 1; for the canonical target that walk is
    1, 2, ..., d.  Both checks stay, since a walk may repeat a point or
    pass every point of a pair that is not conjugate to the target.
    """
    lam = [0] * d
    x = y = 1
    for k in range(d):
        lam[y - 1] = x
        x = pair[k % 2][x - 1]
        y = target[k % 2][y - 1]
    if 0 in lam or len(set(lam)) < d:
        return None
    lam = tuple(lam)
    if any(kernels.conjugate(g, lam) != h for g, h in zip(pair, target)):
        return None
    return lam


def _is_half_block(gens, half):
    """True iff each generator maps the d/2 points `half` onto themselves
    or onto their complement.

    For a set of half the points this decides whether it is a block:
    its translates are then itself and its complement, which never overlap.
    """
    inside = set(half)
    for g in gens:
        image = {g[x - 1] for x in half}
        if image != inside and not image.isdisjoint(inside):
            return False
    return True


def involution_pair_survey(
    d: int, bounds: SearchBounds | None = None
) -> InvolutionPairSurvey:
    """Check that every transitive involution pair looks like the canonical one.

    For each transitive pair of fixed-point-free involutions: the product
    must be two d/2-cycles, the relabeling read off the alternating walks
    (`_walk_relabeling`) must carry the pair onto the canonical pair, and
    the points it relabels as odd must form a block of the group the pair
    generates (`_is_half_block`).  Above `bounds.max_degree` the first
    involution is fixed (`first_fixed`).
    """
    bounds = bounds or SearchBounds()
    if d < 4 or d % 2:
        raise ValueError("need even degree at least 4")
    if d > bounds.max_degree + 2:
        raise BoundsExceededError(
            f"degree {d} exceeds pair-survey bound {bounds.max_degree + 2}"
        )
    first_fixed = d > bounds.max_degree
    half = d // 2
    cls = class_images(d, (2,) * half)
    canon = tuple(g.images for g in canonical_involution_pair(d))
    firsts = (canon[0],) if first_fixed else cls

    transitive_count = 0
    all_conj = True
    all_products = True
    all_blocks = True
    for pi in firsts:
        for qi in cls:
            pair = (pi, qi)
            if not kernels.is_transitive(pair, d):
                continue
            transitive_count += 1
            if kernels.cycle_lengths(kernels.compose(pi, qi)) != (half, half):
                all_products = False
            lam = _walk_relabeling(pair, canon, d)
            if lam is None:
                all_conj = False
                continue
            # the points lam relabels as 1, 3, ..., d-1
            if not _is_half_block(pair, lam[::2]):
                all_blocks = False

    if first_fixed:
        total = transitive_count * len(cls)
    else:
        total = transitive_count
    return InvolutionPairSurvey(
        degree=d,
        first_fixed=first_fixed,
        scanned_pairs=len(firsts) * len(cls),
        transitive_pairs=transitive_count,
        total_transitive_pairs=total,
        all_conjugate_to_canonical=all_conj,
        products_all_two_half_cycles=all_products,
        blocks_all_valid=all_blocks,
    )


# A survey of degree d is admitted by max_degree >= d - 2 and depends only
# on whether d exceeds max_degree: d - 2 and d - 1 pin the first
# involution, d and above scan every first involution.  The full scans at
# d = 10 and 12 (893,025 and 108,056,025 pairs) are left out for time.
_CASES = [
    (d, max_degree)
    for d in (4, 6, 8, 10, 12)
    for max_degree in (d - 2, d - 1, d)
    if max_degree < d or d <= 8
]


@pytest.mark.parametrize("d, max_degree", _CASES)
def test_pair_survey_matches_the_reference(d, max_degree):
    bounds = SearchBounds(max_degree=max_degree)
    want = involution_pair_survey(d, bounds).to_dict()
    assert oracle.involution_pair_survey(d, bounds).to_dict() == want

