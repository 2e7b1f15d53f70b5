"""Fixed transitive digraphs from the modular-decomposition tree.

A preorder whose comparability graph is G is one independent choice at
each internal node of G's modular-decomposition tree (Gallai 1967;
Golumbic, *Algorithmic Graph Theory and Perfect Graphs*, ch. 5):

- at a series node, a weak order of its children in which only
  single-vertex children may tie (they are true twins);
- at a prime node, one of the two transitive orientations of its
  quotient, if the quotient is a comparability graph (none otherwise);
- at a parallel node, nothing.

An automorphism sigma permutes the strong modules, and so the internal
nodes.  A preorder is sigma-invariant iff the choice at sigma X is the
image of the choice at X, so along a sigma-orbit of length l the choice
at X decides the others and must be invariant under pi, the permutation
sigma^l induces on X's children.  Fix(sigma) is the product over the
orbits of the number of pi-invariant choices at X:

- parallel: 1;
- series with a children of two or more vertices: 0 unless pi fixes each
  of them, and otherwise sum_k S(c, k) (a + k)!, where c is the number of
  pi-cycles on the single-vertex children (a weak order is pi-invariant
  iff pi fixes each of its blocks);
- prime: 2 if pi keeps an arc in its own implication class, 0 if it maps
  the arc into the reverse class.

At the identity the product is tau(G).  Everything here is polynomial in
n and never runs the search.
"""

from math import factorial

from .canon import _bits
from .errors import InternalCheckError
from .graphs import _check_automorphism, components_of

PARALLEL, SERIES, PRIME = "parallel", "series", "prime"


def stirling2(n, k):
    """Partitions of an n-set into exactly k nonempty blocks, exactly.

    Python integers do not wrap, so the arithmetic cannot overflow; the
    n <= 64 cap just keeps inputs at the intended scale.
    """
    if not (0 <= k <= n <= 64):
        raise ValueError(f"stirling2 needs 0 <= k <= n <= 64, got ({n},{k})")
    row = [1] + [0] * k  # S(0, 0..k)
    for _ in range(n):
        new = [0] * (k + 1)
        for j in range(1, k + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return row[k]


def _least_module(adj, s, seed):
    """The least module of G[s] holding the mask seed.

    A vertex z of s outside the module splits it when z is adjacent to
    some of its members but not all; splitters join until none is left.
    """
    m = seed
    while True:
        split = 0
        for z in _bits(s & ~m):
            seen = adj[z] & m
            if seen and seen != m:
                split |= 1 << z
        if not split:
            return m
        m |= split


def _maximal_modules(adj, s):
    """The maximal proper modules of G[s], when G[s] and its complement
    are both connected.

    They partition s, and every proper module lies inside one of them, so
    the one holding u is the union of the least modules M(u, v) != s.
    """
    parts = []
    rest = s
    while rest:
        u = rest & -rest
        part = u
        for v in _bits(rest & ~u):
            if not part >> v & 1:
                m = _least_module(adj, s, u | 1 << v)
                if m != s:
                    part |= m
        parts.append(part)
        rest &= ~part
    return parts


def _tree_nodes(adj, co, s):
    """(mask, kind, children) for each internal node of the
    modular-decomposition tree of G[s], parents first.

    adj and co are the neighbour masks of G and of its complement; the
    children are vertex masks.  A parallel node splits G[s] into its
    components, a series node into the components of the complement, and
    a prime node into its maximal proper modules.
    """
    if not s & (s - 1):  # no vertex or one: a leaf
        return
    kind, parts = PARALLEL, components_of(adj, s)
    if len(parts) == 1:
        kind, parts = SERIES, components_of(co, s)
        if len(parts) == 1:
            kind, parts = PRIME, _maximal_modules(adj, s)
    yield s, kind, parts
    for part in parts:
        yield from _tree_nodes(adj, co, part)


def _prime_orientations(adj, parts):
    """One transitive orientation of a prime node's quotient, as a set of
    arcs (a, b) between child indices, or None if there is none.

    Arcs a->b and a->b' force each other (Gamma) when b and b' are not
    adjacent, and so do b->a and b'->a.  The quotient is a comparability
    graph iff no implication class, a class of the closure of Gamma,
    holds an arc and its reverse (Golumbic, Theorem 5.1).  The edges of a
    prime graph form one colour class, so it then has exactly two
    implication classes, one orientation and its reverse.
    """
    k = len(parts)
    reps = [(p & -p).bit_length() - 1 for p in parts]
    q = [sum(1 << j for j, r in enumerate(reps) if adj[u] >> r & 1) for u in reps]
    parent = list(range(k * k))  # union-find over the arcs a->b, at a * k + b

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    for a in range(k):
        nbrs = list(_bits(q[a]))
        for i, b in enumerate(nbrs):
            for c in nbrs[i + 1 :]:
                if not q[b] >> c & 1:
                    union(a * k + b, a * k + c)
                    union(b * k + a, c * k + a)
    arcs = [(a, b) for a in range(k) for b in _bits(q[a])]
    if any(find(a * k + b) == find(b * k + a) for a, b in arcs):
        return None
    classes = len({find(a * k + b) for a, b in arcs})
    if classes != 2:
        raise InternalCheckError(
            f"prime quotient on {k} modules has {classes} implication classes, not 2"
        )
    first = find(arcs[0][0] * k + arcs[0][1])
    return {(a, b) for a, b in arcs if find(a * k + b) == first}


def _image(sigma, mask):
    out = 0
    for v in _bits(mask):
        out |= 1 << sigma[v]
    return out


def _orbit_factor(nodes, sigma, x, seen):
    """The pi-invariant choices at x, where pi is what sigma^l induces on
    x's children and l is the length of x's sigma-orbit, whose nodes are
    added to seen."""
    kind, parts, orient = nodes[x]
    power = sigma
    y = _image(sigma, x)
    while y != x:
        if y not in nodes or nodes[y][0] != kind:
            raise InternalCheckError(
                f"sigma maps node {x:#x} to {y:#x}, not a {kind} node"
            )
        seen.add(y)
        y = _image(sigma, y)
        power = tuple(sigma[v] for v in power)
    if kind == PARALLEL:
        return 1
    index = {p: i for i, p in enumerate(parts)}
    pi = []
    for p in parts:
        i = index.get(_image(power, p))
        if i is None:
            raise InternalCheckError(
                f"sigma^l maps child {p:#x} of {x:#x} onto no child of {x:#x}"
            )
        pi.append(i)
    if kind == PRIME:
        if orient is None:
            return 0
        a, b = next(iter(orient))
        return 2 if (pi[a], pi[b]) in orient else 0
    larger = 0
    cycles = 0
    for i, p in enumerate(parts):
        if p & (p - 1):
            if pi[i] != i:
                return 0
            larger += 1
        else:
            # count each pi-cycle on the single-vertex children at its least member
            j = pi[i]
            while j > i:
                j = pi[j]
            cycles += j == i
    return sum(
        stirling2(cycles, k) * factorial(larger + k) for k in range(cycles + 1)
    )


def fix_tree(g, sigmas):
    """Fix(sigma), the number of sigma-invariant transitive digraphs over
    g, for each automorphism sigma in sigmas, from one tree of g.

    Equal to enumeration.fix_count(g, sigma) without a search.
    """
    full = (1 << g.n) - 1
    co = [full & ~row & ~(1 << v) for v, row in enumerate(g.adj)]
    nodes = {
        x: (kind, parts, _prime_orientations(g.adj, parts) if kind == PRIME else None)
        for x, kind, parts in _tree_nodes(g.adj, co, full)
    }
    counts = []
    for sigma in sigmas:
        sigma = _check_automorphism(g, sigma)
        total = 1
        seen = set()
        for x in nodes:
            if total and x not in seen:
                total *= _orbit_factor(nodes, sigma, x, seen)
        counts.append(total)
    return counts


def tau_tree(g):
    """Number of transitive digraphs whose underlying graph is g.

    Equal to enumeration.tau(g): the tree at the identity.
    """
    return fix_tree(g, [tuple(range(g.n))])[0]
