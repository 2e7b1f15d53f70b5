"""|Aut|, tau and h from one walk of the modular-decomposition tree.

A preorder whose comparability graph is G is one independent choice at
each internal node of G's modular-decomposition tree (Gallai 1967;
Golumbic, *Algorithmic Graph Theory and Perfect Graphs*, ch. 5):

- at a series node, a weak order of its children in which only
  single-vertex children may tie (they are true twins);
- at a prime node, one of the two transitive orientations of its
  quotient, if the quotient is a comparability graph (none otherwise);
- at a parallel node, nothing.

At a node X with children Y_1..Y_c, Aut(G[X]) is (prod Aut(Y_i)) x| H_X,
where H_X permutes the children, keeps the quotient and maps each child
to an isomorphic one.  The product is normal and leaves the choice at X
alone, so Burnside over H_X counts the orbits of (choice at X) x prod
(classes of Y_i) (Harary & Palmer, *Graphical Enumeration*, ch. 2).  One
post-order walk gives each node's (type, |Aut|, tau, h):

- a single vertex: type (), and 1, 1, 1, taken as a constant, no call;
- any other node has type (kind, sorted child types), and a prime node
  adds the graph_code of its quotient with the child types as seed
  colours: a complete isomorphism invariant;
- parallel: |Aut| gains prod m_t! over the m_t children of type t, and
  h = prod C(h_t + m_t - 1, m_t), the multisets of child classes;
- series, with s single-vertex children and a larger ones: tau gains
  sum_k S(s, k) (a + k)! over one row S(s, 0..s), |Aut| gains s! prod
  m_t! over the larger types, and h = W prod h(Y) / prod m_t!.  Only permutations that fix
  every larger child fix a weak order, and W = sum_k C(s - 1, k - 1)
  (a + k)! / k! counts the weak orders with the twins unlabelled (a!
  when s = 0);
- prime: H is the type-preserving automorphism group of the quotient,
  whose code and generators come from one canon walk.  |Aut| gains |H|,
  the product of the orbit sizes along the base; tau gains 2, or becomes
  0 if the quotient has no transitive orientation: the implication class
  of its first arc, closed breadth-first, holds that arc's reverse.  pi
  in H maps to (sigma, keep): its action on D, the children whose h is
  not 1, and whether it keeps the orientation.  Each member of the
  image, closed from the generators' pairs, is hit |H|/|image| times, so
  h = (2/|image|) sum prod h(Y_C) over the members that keep the
  orientation, C running over the cycles of sigma.  A child with h = 0 stays in D and zeroes h;
  with D empty, h is 1 if some pi reverses the orientation, else 2.

Every division is checked to be exact.  Nothing here runs the search or
lists a group: a prime node closes only its group's image on D.
"""

from math import comb, factorial, perm, prod

from . import canon
from .canon import _bits
from .errors import MAX_STIRLING_N, InternalCheckError, check_bound
from .graphs import components_of

PARALLEL, SERIES, PRIME = "parallel", "series", "prime"
_LEAF = (), 1, 1, 1  # a single vertex's (type, |Aut|, tau, h)


def stirling_row(n):
    """S(n, 0..n), the partitions of an n-set by number of blocks, exactly."""
    check_bound(n, MAX_STIRLING_N, "stirling2 on a {}-set")
    row = [1]  # S(0, 0)
    for i in range(1, n + 1):
        row = [0, *(j * row[j] + row[j - 1] for j in range(1, i)), 1]
    return row


def stirling2(n, k):
    """Partitions of an n-set into exactly k nonempty blocks, exactly."""
    row = stirling_row(n)
    if not (0 <= k <= n):
        raise ValueError(f"stirling2 needs 0 <= k <= n, got ({n},{k})")
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


def _quotient(adj, parts):
    """Neighbour masks of the quotient of G over the modules in parts,
    indexed by part."""
    reps = [(p & -p).bit_length() - 1 for p in parts]
    return [sum(1 << j for j, r in enumerate(reps) if adj[u] >> r & 1) for u in reps]


def _prime_orientations(q):
    """One transitive orientation of a prime node's quotient q, as a set of
    arcs (a, b) between child indices, or None if there is none.

    Arcs a->b and a->c force each other (Gamma) when b and c are not
    adjacent, and so do b->a and c->a.  The quotient is a comparability
    graph iff no implication class, a class of the closure of Gamma,
    holds an arc and its reverse (Golumbic, Theorem 5.1).  The edges of a
    prime graph form one colour class, so it then has exactly two
    implication classes, one orientation and its reverse.  The class of
    the first arc is closed breadth-first: out[a] is the mask of the b
    with a->b in it.
    """
    b0 = (q[0] & -q[0]).bit_length() - 1
    out = [0] * len(q)
    out[0] = 1 << b0
    todo = [(0, b0)]
    for a, b in todo:  # todo grows as the class does
        for c in _bits(q[a] & ~q[b] & ~out[a] & ~(1 << b)):  # a->b forces a->c
            out[a] |= 1 << c
            todo.append((a, c))
        for c in _bits(q[b] & ~q[a] & ~(1 << a)):  # a->b forces c->b
            if not out[c] >> b & 1:
                out[c] |= 1 << b
                todo.append((c, b))
    if out[b0] & 1:  # b0->0, the first arc's reverse
        return None
    arcs = sum(row.bit_count() for row in q)
    if 2 * len(todo) != arcs:
        raise InternalCheckError(
            f"prime quotient on {len(q)} modules has an implication class of "
            f"{len(todo)} of its {arcs} arcs, not half"
        )
    return set(todo)


def _exact(num, den):
    quotient, rem = divmod(num, den)
    if rem:
        raise InternalCheckError(f"orbit count is not an integer: {num}/{den}")
    return quotient


def _cycle_heads(pi):
    """The least member of each cycle of the permutation pi."""
    for i in range(len(pi)):
        j = pi[i]
        while j > i:
            j = pi[j]
        if j == i:
            yield i


def _node(adj, co, s):
    """(type, |Aut|, tau, h) of G[s], from its children up, for s of two
    vertices or more.

    adj and co are the neighbour masks of G and of its complement.  A
    parallel node splits G[s] into its components, a series node into the
    components of the complement, and a prime node into its maximal
    proper modules.
    """
    kind, parts = PARALLEL, components_of(adj, s)
    if len(parts) == 1:
        kind, parts = SERIES, components_of(co, s)
        if len(parts) == 1:
            kind, parts = PRIME, _maximal_modules(adj, s)
    kids = [_node(adj, co, p) if p & (p - 1) else _LEAF for p in parts]
    types = [kid[0] for kid in kids]
    node_type = (kind, tuple(sorted(types)))
    aut = prod(kid[1] for kid in kids)
    t = prod(kid[2] for kid in kids)
    mult = {}
    for typ in types:
        mult[typ] = mult.get(typ, 0) + 1
    if kind == PARALLEL:
        h_of = {kid[0]: kid[3] for kid in kids}
        aut *= prod(map(factorial, mult.values()))
        h = prod(comb(h_of[typ] + m - 1, m) for typ, m in mult.items())
    elif kind == SERIES:
        twins = mult.pop((), 0)
        a = len(parts) - twins
        sym = prod(map(factorial, mult.values()))
        aut *= factorial(twins) * sym
        t *= sum(c * factorial(a + k) for k, c in enumerate(stirling_row(twins)))
        w = factorial(a) if not twins else sum(
            comb(twins - 1, k - 1) * perm(a + k, a) for k in range(1, twins + 1)
        )
        h = _exact(w * prod(kid[3] for kid in kids), sym)
    else:
        q = _quotient(adj, parts)
        walk = canon.walk(len(q), q, types)
        node_type += (walk.code,)
        aut *= canon.aut_order(walk)
        orient = _prime_orientations(q)
        if orient is None:
            t = h = 0
        else:
            t *= 2
            u, v = next(iter(orient))
            on = [c for c, kid in enumerate(kids) if kid[3] != 1]  # D, h != 1
            at = {c: i for i, c in enumerate(on)}
            acts = {(tuple(at[p[c]] for c in on), (p[u], p[v]) in orient)
                    for p in walk.generators}
            image, new = set(), {(tuple(range(len(on))), True)}
            while new:  # the closure of the generators' pairs under composition
                image |= new
                new = {(tuple(p[i] for i in x), k == j) for x, k in new for p, j in acts}
                new -= image
            hs = [kids[c][3] for c in on]
            fixed = sum(2 * prod(hs[i] for i in _cycle_heads(x)) for x, k in image if k)
            h = _exact(fixed, len(image))
    return node_type, aut, t, h


def tree_counts(g):
    """(|Aut(g)|, tau(g), h(g)) from one walk of g's modular-decomposition
    tree: no search runs and Aut(g) is not listed.

    Equal to (len(automorphism_group(g)), enumeration.tau(g),
    enumeration.h_burnside(g)).
    """
    full = (1 << g.n) - 1
    if not full & (full - 1):  # no vertex or one
        return _LEAF[1:]
    co = [full & ~row & ~(1 << v) for v, row in enumerate(g.adj)]
    return _node(g.adj, co, full)[1:]
