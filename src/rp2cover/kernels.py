"""Permutation kernels.

All functions operate on raw image tuples: a permutation of degree d is a
tuple of length d whose entry at index i is the image of point i+1, with
points numbered 1..d.  Composition is left-to-right: x^(pq) = (x^p)^q.
"""

from __future__ import annotations

BACKEND = "python"


def identity(d):
    return tuple(range(1, d + 1))


def compose(p, q):
    """Apply p first, then q."""
    return tuple(q[v - 1] for v in p)


def inverse(p):
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


def conjugate(p, lam):
    """lam * p * lam^-1 under left-to-right composition.

    Relabels the cycles of p: the cycle (a b ...) becomes
    (a^(lam^-1) b^(lam^-1) ...).
    """
    d = len(p)
    res = [0] * d
    inv = inverse(lam)
    for x in range(d):
        res[x] = inv[p[lam[x] - 1] - 1]
    return tuple(res)


def product_of(perms, d):
    """Left-to-right product of a sequence of image tuples."""
    cur = list(range(1, d + 1))
    for p in perms:
        cur = [p[v - 1] for v in cur]
    return tuple(cur)


def cycles_of(p):
    """Disjoint cycles, each starting at its minimal point, ordered by that point.

    Fixed points are included as 1-cycles.
    """
    d = len(p)
    seen = [False] * (d + 1)
    out = []
    for s in range(1, d + 1):
        if seen[s]:
            continue
        cyc = [s]
        seen[s] = True
        x = p[s - 1]
        while x != s:
            cyc.append(x)
            seen[x] = True
            x = p[x - 1]
        out.append(tuple(cyc))
    return tuple(out)


def cycle_lengths(p):
    """Cycle lengths in non-increasing order, 1-cycles included.

    Walks each cycle once from its least point on a copy of the images,
    writing minus that point over every point it passes (the walk never
    returns to a smaller start); no cycle tuple is built.
    """
    q = [0, *p]
    out = []
    for s in range(1, len(q)):
        x = q[s]
        if x < 0:
            continue
        q[s] = label = -s
        n = 1
        while x != s:
            q[x], x = label, q[x]
            n += 1
        out.append(n)
    out.sort(reverse=True)
    return tuple(out)


def canonical_frame(p):
    """(lam, cycle_type): lam lists the cycles of p longest first, ties
    broken by least point, each from its least point, so conjugate(p, lam)
    is the canonical permutation of p's cycle type."""
    # sorted is stable: equal lengths keep cycles_of's order by least point
    cycles = sorted(cycles_of(p), key=len, reverse=True)
    return tuple(x for c in cycles for x in c), tuple(map(len, cycles))


def is_square_type(p):
    """True iff p has an even number of cycles of every even length."""
    even = [n for n in cycle_lengths(p) if n % 2 == 0]
    # sorted, so every count is even iff the lengths pair up in order
    return even[::2] == even[1::2]


def component_labels(gens, d):
    """Orbit labels for the group generated by gens.

    Returns a tuple of length d where entry i is the minimal point of the
    orbit containing point i+1.  The union-find always hangs the larger
    root under the smaller and halves paths as it walks them, so every
    parent is at most its child; one pass in increasing order then points
    every node at its root.
    """
    parent = list(range(d + 1))
    for g in gens:
        for x, y in enumerate(g, 1):
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            if x < y:
                parent[y] = x
            elif y < x:
                parent[x] = y
    for x in range(1, d + 1):
        parent[x] = parent[parent[x]]
    return tuple(parent[1:])


def orbit_count(gens, d):
    labels = component_labels(gens, d)
    return len(set(labels))


def is_transitive(gens, d):
    """One orbit: union-find over the generator edges that stops as soon as
    d - 1 joins have made every point one class."""
    if d < 2:
        return d == 1
    parent = list(range(d + 1))
    joins = d - 1
    for g in gens:
        for x, y in enumerate(g, 1):
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            if x != y:
                parent[y] = x
                joins -= 1
                if not joins:
                    return True
    return False


def orbit_index(gens, d):
    """Orbits of the group generated by gens, numbered 0, 1, ... in order
    of their least points.

    Returns (orbits, n): orbits[i] is the number of the orbit of point i+1
    and n the number of orbits.  A relation scan builds this once per
    gammas tuple and hands it to `alpha_extension` for every alpha.
    """
    index = {}
    orbits = tuple(index.setdefault(lb, len(index)) for lb in component_labels(gens, d))
    return orbits, len(index)


def alpha_extension(orbits, n, alpha):
    """Connectivity and orientation data for adding alpha on top of a group.

    (orbits, n) is the `orbit_index` of the plain generators; alpha
    contributes edges x -> x^alpha carrying an orientation flip.  Returns a
    pair (transitive, orientable): transitive is True when the combined
    group acts with a single orbit, orientable is True when sheet
    orientations can be chosen consistently (flip across alpha edges, no
    flip inside orbits).
    """
    if n == 1:
        # every alpha edge joins the one orbit to itself without a flip
        return True, False
    parent = list(range(n))
    par = [0] * n  # parity of node relative to its parent
    consistent = True
    comps = n
    for a, y in zip(orbits, alpha):
        b = orbits[y - 1]
        pa = 0
        while parent[a] != a:
            pa ^= par[a]
            a = parent[a]
        pb = 0
        while parent[b] != b:
            pb ^= par[b]
            b = parent[b]
        if a == b:
            if pa == pb:
                consistent = False
        else:
            # o(b) = o(a) + 1  =>  parity(b->a) = pa ^ pb ^ 1
            parent[b] = a
            par[b] = pa ^ pb ^ 1
            comps -= 1
    return comps == 1, consistent


def block_labels(gens, d, x, ys):
    """Close the partition that joins x with every point of ys under gens.

    Returns d + 1 labels: entry z, for z in 1..d, is the least point of
    z's class, and entry 0 is 0.  Partition refinement: identify x with
    each y, then, for every merge of two classes, identify the images of
    their representatives under each generator.  Merges always keep the
    smaller representative, so every parent is at most its child and one
    pass in increasing order labels every point.

    The refinement stops and returns None once any class holds more than
    d/2 points: for any group, None means the closed partition has such a
    class.  The closed partition of a transitive group is a block system,
    whose classes all have one size dividing d, so there None means the
    trivial system 1..d.
    """
    parent = list(range(d + 1))
    size = [1] * (d + 1)
    half = d // 2
    # a loop, not a comprehension: cheaper for minimal_block's one seed
    pairs = []
    for y in ys:
        pairs.append((x, y))
    while pairs:
        a, b = pairs.pop()
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            continue
        if b < a:
            a, b = b, a
        parent[b] = a
        size[a] += size[b]
        if size[a] > half:
            return None
        for g in gens:
            pairs.append((g[a - 1], g[b - 1]))
    for z in range(1, d + 1):
        parent[z] = parent[parent[z]]
    return tuple(parent)


def minimal_block(gens, d, x, y):
    """Minimal block containing x and y for a transitive group (sorted
    tuple): x's class in `block_labels`, or all of 1..d.

    For an intransitive group the partition is still the least invariant
    one identifying x with y, and all of 1..d then means that every
    transitive group containing this one has all of 1..d as its block
    through x and y.
    """
    labels = block_labels(gens, d, x, (y,))
    if labels is None:
        return tuple(range(1, d + 1))
    rx = labels[x]
    return tuple(z for z in range(1, d + 1) if labels[z] == rx)
