"""tau(G) from the true-twin quotient and the modular decomposition.

A preorder whose comparability graph is G is a partition of V into
blocks of pairwise true twins (equal closed neighbourhoods) together with
a transitive orientation of the quotient by those blocks.  So tau(G) is
the sum over such partitions P of TO(G/P), the number of transitive
orientations of G/P.

TO factors over the modular-decomposition tree (Gallai 1967; Golumbic,
*Algorithmic Graph Theory and Perfect Graphs*, ch. 5): a series node with
c children gives c!, a parallel node 1, and a prime node 2 if its
quotient is a comparability graph and 0 otherwise.  Let G0 be G with its
true-twin classes collapsed.  Splitting a class of size s into k blocks
blows its G0 vertex up into a k-clique.  If that vertex is a child of a
series node with c children, the clique joins the node, which then has
c + k - 1 children; otherwise the clique is a new series node with k
children.  G0 has no true twins, so a series node of G0 has at most one
single-vertex child, and the sum over P factors into one sum per class.

Everything here is polynomial in n and never runs the search.
"""

from math import factorial

from .canon import _bits
from .errors import InternalCheckError
from .formulas import stirling2
from .graphs import components_of

PARALLEL, SERIES, PRIME = "parallel", "series", "prime"


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
    """(kind, children) for each internal node of the modular-decomposition
    tree of G[s], parents first.

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
    yield kind, parts
    for part in parts:
        yield from _tree_nodes(adj, co, part)


def _prime_orientations(adj, parts):
    """Transitive orientations of a prime node's quotient: 2 or 0.

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
        return 0
    classes = len({find(a * k + b) for a, b in arcs})
    if classes != 2:
        raise InternalCheckError(
            f"prime quotient on {k} modules has {classes} implication classes, not 2"
        )
    return 2


def tau_tree(g):
    """Number of transitive digraphs whose underlying graph is g.

    Equal to enumeration.tau(g), from the twin quotient and the
    modular-decomposition tree instead of a search.
    """
    rep_of = {}  # closed neighbourhood -> least vertex of its twin class
    sizes = {}
    for v, row in enumerate(g.adj):
        r = rep_of.setdefault(row | 1 << v, v)
        sizes[r] = sizes.get(r, 0) + 1
    reps = sum(1 << r for r in sizes)
    adj = [row & reps for row in g.adj]
    co = [reps & ~row & ~(1 << v) for v, row in enumerate(adj)]
    total = 1
    series_width = {}  # single-vertex child of a series node -> its children
    for kind, parts in _tree_nodes(adj, co, reps):
        if kind == SERIES:
            total *= factorial(len(parts))
            for p in parts:
                if not p & (p - 1):
                    series_width[p.bit_length() - 1] = len(parts)
        elif kind == PRIME:
            total *= _prime_orientations(adj, parts)
    for r, s in sizes.items():
        # k blocks add k - 1 children to a series parent with c children;
        # elsewhere they form a k-clique, k! / 1!, the same rule at c = 1
        c = series_width.get(r, 1)
        total *= sum(
            stirling2(s, k) * factorial(c + k - 1) // factorial(c)
            for k in range(1, s + 1)
        )
    return total
