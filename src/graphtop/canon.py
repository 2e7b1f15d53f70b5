"""Canonical forms and automorphism groups over adjacency bitmasks.

Everything here works on raw per-vertex neighbor masks so the same
machinery serves simple graphs (symmetric masks) and digraphs (out
masks).  Codes are produced by iterated color refinement plus vertex
individualization: refinement partitions the vertices into cells that
any isomorphism must respect, and the code is the lexicographically
least adjacency encoding over all cell-respecting vertex orders.  When
refinement gets stuck, one vertex of the first non-singleton cell is
split off (every choice is tried), which keeps the number of explored
orders tiny for the sizes this package handles.

A partition is a list of vertex masks, one per cell in color order, from
the seed to the leaves; individualizing v puts the cell {v} just before
the rest of v's cell.  A refinement round popcounts each vertex's
neighbours in every cell (_key) and splits each cell in key order; the
count keys sort exactly like the sorted neighbour colors of textbook
refinement, so cells, codes and groups match it.
"""

from math import prod

from .errors import SizeBoundExceeded

MAX_VERTICES = 16
# automorphisms lists the group element by element, so |Aut| is bounded:
# 9! admits every graph on up to 9 vertices and stops N16 (16!) before an
# element is built.  Only the reference routes and the prime quotients of
# the decomposition tree list a group; orbit counts use generators.
MAX_AUT_ORDER = 362880


def _check_size(n):
    if n > MAX_VERTICES:
        raise SizeBoundExceeded(f"n={n} exceeds the supported bound {MAX_VERTICES}")


def _bits(mask):
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


def _canonical_bits(n, out, inn, cells, encode):
    best = None

    def recurse(cells):
        nonlocal best
        cells = _refine(n, out, inn, cells)
        if len(cells) == n or _homogeneous(cells, out):
            cand = encode(n, out, [v for cell in cells for v in _bits(cell)])
            if best is None or cand < best:
                best = cand
            return
        t = next(t for t, cell in enumerate(cells) if cell & cell - 1)
        for v in _bits(cells[t]):
            recurse(cells[:t] + [1 << v, cells[t] ^ 1 << v] + cells[t + 1 :])

    recurse(cells)
    return best


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


def graph_code(n, adj, seed_colors=None):
    """Canonical code (n, bits) of a simple graph; equal iff isomorphic.

    With seed_colors, isomorphisms are restricted to color-preserving
    ones, which gives rooted/colored canonical forms.
    """
    _check_size(n)
    bits = _canonical_bits(n, adj, None, _seed(seed_colors, adj), _encode_undirected)
    return (n, bits if bits is not None else 0)


def digraph_code(n, out, seed_colors=None):
    """Canonical code (n, bits) of a loop-free digraph."""
    _check_size(n)
    inn = [0] * n
    for u in range(n):
        for v in _bits(out[u]):
            inn[v] |= 1 << u
    bits = _canonical_bits(n, out, inn, _seed(seed_colors, out, inn), _encode_directed)
    return (n, bits if bits is not None else 0)


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


def _chain(n, adj, seed_colors):
    """(generators, orbits): a stabiliser chain of the automorphisms of
    adj, colour-preserving with seed_colors as in graph_code.

    The base is every vertex, refinement cells smallest first.  Levels are
    filled deepest first, so at level k every generator found so far
    fixes base[:k] pointwise.  The orbit of base[k] under them is closed,
    and each point of base[k]'s cell that it misses is searched for once:
    the first automorphism that fixes base[:k] and carries base[k] there
    joins the generators.  Each orbit maps its points to one element that
    carries base[k] there; the orbits come deepest level first, and the
    product of their sizes is |Aut|.
    """
    _check_size(n)
    cells = _refine(n, adj, None, _seed(seed_colors, adj))
    cell = [0] * n
    for c in cells:
        for v in _bits(c):
            cell[v] = c
    # smallest cells first; the sort is stable, so ties keep color order
    base = [v for c in sorted(cells, key=int.bit_count) for v in _bits(c)]
    identity = tuple(range(n))
    image = list(identity)

    def extend(k, placed, used, only):
        """Complete image on base[:k] (placed, onto used) to an
        automorphism with image[base[k]] in only; True at the first."""
        if k == n:
            return True
        v = base[k]
        want = 0
        for u in _bits(adj[v] & placed):
            want |= 1 << image[u]
        for w in _bits(cell[v] & only & ~used):
            if adj[w] & used == want:
                image[v] = w
                if extend(k + 1, placed | 1 << v, used | 1 << w, -1):
                    return True
        return False

    gens = []
    orbits = []
    for k in reversed(range(n)):
        b = base[k]
        fixed = sum(1 << u for u in base[:k])
        orbit = {b: identity}
        for w in _bits(cell[b]):
            if w in orbit or not extend(k, fixed, fixed, 1 << w):
                continue
            gens.append(tuple(image))
            todo = list(orbit)
            for p in todo:
                for s in gens:
                    if s[p] not in orbit:
                        orbit[s[p]] = tuple([s[x] for x in orbit[p]])
                        todo.append(s[p])
        orbits.append(orbit)
    return gens, orbits


def generators(n, adj, seed_colors=None):
    """A generating set of the automorphisms of adj, colour-preserving
    with seed_colors; empty for the trivial group.  No group is listed."""
    return _chain(n, adj, seed_colors)[0]


def automorphisms(n, adj, seed_colors=None):
    """All adjacency-preserving permutations of 0..n-1, sorted.

    The listing is the product of the stabiliser chain's orbits.  With
    seed_colors, only color-preserving permutations are listed, as in
    graph_code.  Raises SizeBoundExceeded, before any element is built,
    when |Aut| exceeds MAX_AUT_ORDER.
    """
    orbits = _chain(n, adj, seed_colors)[1]
    if prod(map(len, orbits)) > MAX_AUT_ORDER:
        raise SizeBoundExceeded(f"|Aut| exceeds the supported bound {MAX_AUT_ORDER}")
    group = [tuple(range(n))]
    for orbit in orbits:
        if len(orbit) > 1:
            group = [tuple([t[x] for x in h]) for t in orbit.values() for h in group]
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
