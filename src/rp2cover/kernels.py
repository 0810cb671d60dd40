"""Permutation kernels.

All functions operate on raw image tuples: a permutation of degree d is a
tuple of length d whose entry at index i is the image of point i+1, with
points numbered 1..d.  Composition is left-to-right: x^(pq) = (x^p)^q.
"""

from __future__ import annotations

from operator import neg

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


def cycle_lengths(p, labels=False):
    """Cycle lengths in non-increasing order, 1-cycles included.

    Walks each cycle once from its least point on a copy of the images,
    writing minus that point over every point it passes (the walk never
    returns to a smaller start); no cycle tuple is built.  With `labels`
    the result is (lengths, labels), the labels being those of
    `component_labels((p,), d)`: entry i is the least point of the cycle
    through point i+1.
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
    if labels:
        return tuple(out), tuple(map(neg, q[1:]))
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


def _uf_find(parent, x):
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


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


def is_transitive(gens, d, labels=None):
    """One orbit: union-find over the generator edges that stops as soon as
    every point is in one class.

    `labels`, in the form `component_labels` returns, are the orbits of
    generators left out of gens, such as the cycles of one generator from
    `cycle_lengths(g, labels=True)`.  The union-find starts from those
    classes, so the points of one class are never joined again.
    """
    if d < 2:
        return d == 1
    if labels is None:
        parent = list(range(d + 1))
        joins = d - 1
    else:
        # each class hangs from its least point
        parent = [0, *labels]
        joins = len(set(labels)) - 1
        if not joins:
            return True
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


def pair_conjugator(gens_from, gens_to, d):
    """Some lam with conjugate(f, lam) == t for every paired f, t, or None.

    Meant for generators of a transitive group, whose relabeling is then
    forced by the image of a single point: for t = 1..d in turn the map
    mu = lam^-1 is propagated from mu(1) = t along every generator, and
    the first mu that is a bijection and passes the final check gives
    lam.  Returns lam as an image tuple.
    """
    pairs = tuple(zip(gens_from, gens_to))
    for t in range(1, d + 1):
        mu = [0] * (d + 1)
        mu[1] = t
        used = [False] * (d + 1)
        used[t] = True
        queue = [1]
        ok = True
        while queue and ok:
            x = queue.pop()
            for gf, gt in pairs:
                y = gf[x - 1]
                v = gt[mu[x] - 1]
                if mu[y]:
                    if mu[y] != v:
                        ok = False
                        break
                else:
                    if used[v]:
                        ok = False
                        break
                    mu[y] = v
                    used[v] = True
                    queue.append(y)
        if ok and all(mu[1:]):
            lam = inverse(mu[1:])
            if all(conjugate(gf, lam) == gt for gf, gt in pairs):
                return lam
    return None


def block_translates(gens, start):
    """Close the sorted point tuple `start` under the generators.

    Returns (translates, None) with the translates sorted when no two of
    them overlap without coinciding, else (None, (image, member)) for the
    first translate found to overlap a member met before.  Translates are
    taken depth first, last found first, each generator in turn.
    """
    seen = {start}
    owner = {x: start for x in start}
    queue = [start]
    while queue:
        b = queue.pop()
        for g in gens:
            image = tuple(sorted([g[x - 1] for x in b]))
            if image in seen:
                continue
            for x in image:
                if x in owner:
                    return None, (image, owner[x])
            seen.add(image)
            for x in image:
                owner[x] = image
            queue.append(image)
    return tuple(sorted(seen)), None


def minimal_block(gens, d, x, y):
    """Minimal block containing x and y for a transitive group (sorted tuple).

    Partition refinement: identify x with y, then, for every merge of two
    classes, identify the images of their representatives under each
    generator.  Merges always keep the smaller representative.

    The closed partition is a block system, whose classes all have one
    size dividing d.  So once any class holds more than d/2 points the
    answer is all of 1..d, and the refinement stops there.  For an
    intransitive group the partition is still the least invariant one
    identifying x with y, and all of 1..d then means that every transitive
    group containing this one has all of 1..d as its block through x and y.
    """
    parent = list(range(d + 1))
    size = [1] * (d + 1)
    half = d // 2
    pairs = [(x, y)]
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
            return tuple(range(1, d + 1))
        for g in gens:
            pairs.append((g[a - 1], g[b - 1]))
    rx = _uf_find(parent, x)
    return tuple(z for z in range(1, d + 1) if _uf_find(parent, z) == rx)
