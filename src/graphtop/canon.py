"""Canonical forms and automorphism groups over adjacency bitmasks.

Everything here works on raw per-vertex neighbor masks so the same
machinery serves simple graphs (symmetric masks) and digraphs (out
masks).  One individualization-refinement walk, after nauty and Traces
(McKay and Piperno 2014), gives a Walk: the code, the vertex order that
maps the graph onto its canonical form, generators of the automorphisms
and a base.  Refinement partitions the vertices into cells that any
isomorphism must respect; when it gets stuck, each vertex of the first
non-singleton cell is split off in turn.  The code is the least
adjacency encoding over the leaves' vertex orders, and leaves with equal
codes give the automorphisms that prune the walk.

A partition is a list of vertex masks, one per cell in color order, from
the seed to the leaves; individualizing v puts the cell {v} just before
the rest of v's cell.  A refinement round popcounts each vertex's
neighbours in every cell (_key) and splits each cell in key order; the
count keys sort exactly like the sorted neighbour colors of textbook
refinement, so cells, codes and groups match it.

The walk's vertex bound and the listing's |Aut| bound are in errors.py.
"""

from math import prod

from .errors import MAX_AUT_ORDER, MAX_VERTICES, check_bound


def _bit_table(width):
    """The set bits of each mask below 2^width, ascending, by doubling:
    the masks with top bit v are those below 2^v with v appended."""
    table = [()]
    for v in range(width):
        table += [bits + (v,) for bits in table]
    return tuple(table)


_BIT_TABLE = _bit_table(10)


def _bits(mask):
    """The set bits of a non-negative mask, ascending.  A mask below 2^10,
    which holds every row of a graph on up to 10 vertices, is answered by
    a tuple from a table built at import (1,024 entries, about 88 KB).
    Larger masks take the loop, the only path past 10 vertices: a table
    doubles with each bit it covers."""
    if mask < 1024:  # len(_BIT_TABLE)
        return _BIT_TABLE[mask]
    return _bits_loop(mask)


def _bits_loop(mask):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _key(row, masks, top):
    """Per-cell neighbour counts of row: -c while a later cell holds a
    neighbour, then c + top; sorts like the sorted neighbour colors."""
    key = []
    for m in masks:
        if not row:
            break
        x = row & m
        row ^= x
        key.append(-x.bit_count() if row else x.bit_count() + top)
    return tuple(key)


def _refine(n, out, inn, cells):
    """Refine cells until stable: each cell splits by the count keys of its
    vertices, its parts in key order.  A stable round returns its input."""
    top = -2 * n - 1
    while True:
        split = []
        for cell in cells:
            if not cell & cell - 1:  # a singleton keeps its place
                split.append(cell)
                continue
            parts = {}
            for v in _bits(cell):
                sig = (_key(out[v], cells, top), inn and _key(inn[v], cells, top))
                parts[sig] = parts.get(sig, 0) | 1 << v
            split += [parts[sig] for sig in sorted(parts)]
        if len(split) == len(cells):
            return cells
        cells = split
        if len(cells) == n:  # discrete, and so stable
            return cells


def _homogeneous(cells, out):
    """True when every within-cell order yields the same adjacency bits."""
    for cell in cells:
        row = out[(cell & -cell).bit_length() - 1]
        for other in cells:
            cnt = (row & other).bit_count()
            if cnt and cnt != other.bit_count() - (other == cell):
                return False
    return True


def _encode_undirected(n, adj, order):
    code = 0
    for i in range(n):
        row = adj[order[i]]
        for j in range(i + 1, n):
            code = code << 1 | (row >> order[j] & 1)
    return code


def _encode_directed(n, out, order):
    code = 0
    for i in range(n):
        row = out[order[i]]
        for j in range(n):
            if j != i:
                code = code << 1 | (row >> order[j] & 1)
    return code


class Walk:
    """The least code (n, bits) and the order of a leaf giving it: input
    vertex order[i] is vertex i of the canonical form.  generators and
    strong generate the automorphisms, empty for the trivial group; strong
    is a strong generating set relative to base's (fixed, point) levels."""

    def __init__(self, code, order, generators, strong, base):
        self.code, self.order, self.generators = code, order, generators
        self.strong, self.base = strong, base


def _search(n, out, inn, seed_colors, encode):
    """The Walk, colour-preserving with seed_colors.  A leaf with the first
    leaf's code gives the map from the first leaf's order to its own, and
    the walk backs up to the first path.  A child in the orbit of one
    tried, under the generators fixing the path, is skipped: a generator
    that moves the path maps the node's subtree to another node's
    subtree.  The base is the first path, (fixed vertices, first child)
    per level, then the points of the first leaf's cells: homogeneous, so
    each is acted on by its full symmetric group.  Per cell, generators
    gains the transposition of its first two points and, past two, a
    cycle through all; strong its consecutive transpositions."""
    check_bound(n, MAX_VERTICES, "n={}")
    gens = []
    base = []
    first = best = None

    def descend(cells, path, on_first):
        """True when a leaf below, off the first path, gave an automorphism."""
        nonlocal first, best
        cells = _refine(n, out, inn, cells)
        if len(cells) == n or _homogeneous(cells, out):
            order = [v for cell in cells for v in _bits(cell)]
            code = encode(n, out, order)
            if first is None:
                first, best = (order, code, cells, path), (code, order)
            elif code == first[1]:
                image = dict(zip(first[0], order))
                gens.append(tuple([image[u] for u in range(n)]))
                return True
            elif code < best[0]:
                best = (code, order)
            return False
        t = next(t for t, cell in enumerate(cells) if cell & cell - 1)
        cell = cells[t]
        if on_first:
            base.append((path, (cell & -cell).bit_length() - 1))
        # a generator fixes the path down to where its leaf left the first path:
        # on that path all fix this node's; off it, a new one backs the walk up
        stab = gens
        if not on_first:
            stab = [s for s in gens if all(s[u] == u for u in _bits(path))]
        seen = 0
        for v in _bits(cell):
            if seen >> v & 1:
                continue
            child = cells[:t] + [1 << v, cell ^ 1 << v] + cells[t + 1 :]
            if descend(child, path | 1 << v, on_first and not seen) and not on_first:
                return True
            seen |= 1 << v
            if not stab:
                continue
            todo = list(_bits(seen))  # closed anew: stab may have grown
            for p in todo:
                for s in stab:
                    if not seen >> s[p] & 1:
                        seen |= 1 << s[p]
                        todo.append(s[p])
        return False

    descend(_seed(seed_colors, out, inn), 0, True)
    del descend  # descend refers to itself; dropping it frees its state at once
    _, _, cells, path = first
    strong = list(gens)
    ident = list(range(n))
    for cell in cells:
        if not cell & cell - 1:
            continue
        points = list(_bits(cell))
        cycle = ident[:]  # through all the points
        cycle[points[-1]] = points[0]
        for a, b in zip(points, points[1:]):
            base.append((path, a))
            path |= 1 << a
            cycle[a] = b
            sigma = ident[:]
            sigma[a], sigma[b] = b, a
            strong.append(tuple(sigma))
        gens.append(strong[1 - len(points)])  # the first two points' transposition
        if len(points) > 2:
            gens.append(tuple(cycle))
    return Walk((n, best[0]), best[1], gens, strong, base)


def _seed(seed_colors, out, inn=None):
    """Cells of seed_colors in color order; by default the exact first
    refinement round."""
    if seed_colors is None:
        ins = inn or [0] * len(out)
        seed_colors = [(r.bit_count(), i.bit_count()) for r, i in zip(out, ins)]
    cells = {}
    for v, c in enumerate(seed_colors):
        cells[c] = cells.get(c, 0) | 1 << v
    return [cells[c] for c in sorted(cells)]


def walk(n, adj, seed_colors=None):
    """The Walk of a simple graph, colour-preserving with seed_colors."""
    return _search(n, adj, None, seed_colors, _encode_undirected)


def graph_code(n, adj, seed_colors=None):
    """Canonical code (n, bits) of a simple graph; equal iff isomorphic.

    With seed_colors, isomorphisms are restricted to color-preserving
    ones, which gives rooted/colored canonical forms.
    """
    return walk(n, adj, seed_colors).code


def digraph_code(n, out):
    """Canonical code (n, bits) of a loop-free digraph."""
    inn = [0] * n
    for u in range(n):
        for v in _bits(out[u]):
            inn[v] |= 1 << u
    return _search(n, out, inn, None, _encode_directed).code


def decode_graph_code(code):
    """Adjacency masks of the canonical representative behind a graph code."""
    n, bits = code
    length = n * (n - 1) // 2
    adj = [0] * n
    idx = 0
    for i in range(n):
        for j in range(i + 1, n):
            if bits >> (length - 1 - idx) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            idx += 1
    return n, tuple(adj)


def _orbits(gens, base):
    """Each base point's orbit under the generators fixing its level's
    vertices, as a Schreier vector: a point maps to the (point, generator)
    that first reached it, the base point to None.  Sizes multiply to |Aut|."""
    orbits = []
    for fixed, b in base:
        stab = [s for s in gens if all(s[u] == u for u in _bits(fixed))]
        orbit = {b: None}
        todo = [b]
        for p in todo:
            for s in stab:
                if s[p] not in orbit:
                    orbit[s[p]] = (p, s)
                    todo.append(s[p])
        orbits.append(orbit)
    return orbits


def aut_order(w):
    """|Aut| from a Walk: the product of the orbit sizes along its base."""
    return prod(map(len, _orbits(w.strong, w.base)))


def canonical_generators(w):
    """A Walk's generators conjugated onto the canonical form by its order,
    sigma'[i] = pos[sigma[order[i]]] where pos inverts order, as bytes
    permutations; () for the trivial group."""
    pos = bytearray(len(w.order))
    for i, v in enumerate(w.order):
        pos[v] = i
    return tuple(bytes([pos[s[v]] for v in w.order]) for s in w.generators)


def generators(n, adj, seed_colors=None):
    """A generating set of the automorphisms of adj, colour-preserving
    with seed_colors; empty for the trivial group.  No group is listed."""
    return walk(n, adj, seed_colors).generators


def automorphisms(n, adj, seed_colors=None):
    """All adjacency-preserving permutations of 0..n-1, sorted.

    With seed_colors, only color-preserving permutations are listed, as
    in graph_code.  The listing is built coset by coset along the base,
    deepest level first, and SizeBoundExceeded is raised before any
    element is built when the orbit sizes show |Aut| over MAX_AUT_ORDER.
    """
    w = walk(n, adj, seed_colors)
    orbits = _orbits(w.strong, w.base)
    check_bound(prod(map(len, orbits)), MAX_AUT_ORDER, "|Aut|={}")
    group = [tuple(range(n))]
    for orbit in reversed(orbits):
        cosets = dict.fromkeys(orbit, group)  # the base point's: the level below
        for q, step in orbit.items():  # each point after the one it came from
            if step:
                p, s = step
                cosets[q] = [tuple([s[x] for x in h]) for h in cosets[p]]
        group = [h for coset in cosets.values() for h in coset]
    group.sort()
    return group


def conjugacy_classes(group):
    """Conjugacy classes of a listed permutation group.

    Returns (representative, size) pairs in group order; each class is
    represented by its first member.  The class of sigma is the set of
    tau sigma tau^-1 over tau in the group, which maps tau[v] to
    tau[sigma[v]].
    """
    seen = set()
    classes = []
    for sigma in group:
        if sigma in seen:
            continue
        members = set()
        for t in group:
            conj = [0] * len(sigma)
            for v, w in enumerate(sigma):
                conj[t[v]] = t[w]
            members.add(tuple(conj))
        seen |= members
        classes.append((sigma, len(members)))
    return classes
