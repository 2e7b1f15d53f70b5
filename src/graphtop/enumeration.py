"""Exhaustive generation of transitive digraphs over a fixed underlying graph.

Each edge {u,v} of the graph carries one of three states: forward (u->v),
backward (v->u) or both.  A full assignment is exactly one digraph whose
underlying graph is the input, so the search walks edge states in a fixed
order and prunes with incremental transitivity propagation: an arc pair
a->b, b->c among decided edges demands the arc a->c, which must be an edge
of the graph and must not already be decided against.  Transitivity is
hereditary under taking induced subgraphs, so pruning a partial assignment
never loses a completion.

A lookahead prunes further without changing the stream.  Edges ab and ac
whose far ends b and c are not adjacent are Gamma-partners (Golumbic,
Algorithmic Graph Theory and Perfect Graphs, ch. 5): an arc on one forces
an arc on the other.  Once an edge is set, each undecided partner must
still have an allowed state.  The allowed states of an edge only shrink
as more arcs are decided, so a partner with none now has none in any
completion, and skipping the branch drops only subtrees without leaves;
the leaves and their order stay the same.  A graph with no induced P3 (a
union of cliques) has no partners, and its search is unchanged.
"""

from dataclasses import dataclass
from multiprocessing import Pool

from . import canon
from .canon import _bits
from .errors import BudgetExceeded, InternalCheckError
from .graphs import _check_automorphism, automorphism_group, canonical_code
from .topology import Digraph, transitive_masks

DEFAULT_EDGE_BUDGET = 24

FWD, BWD, BOTH = 1, 2, 3  # arc sets {u->v}, {v->u}, {u->v, v->u}


def is_transitive(d):
    """True iff arcs a->b and b->c (a != c) always come with a->c."""
    return transitive_masks(d.n, d.out)


def edge_order(g):
    """Assignment order: edges at high-degree endpoints first.

    Triangles constrain the most, so edges whose endpoints both have high
    degree go early; ties break lexicographically, which also fixes the
    deterministic stream order.
    """
    deg = [g.degree(u) for u in range(g.n)]
    return sorted(
        g.edges(),
        key=lambda e: (-min(deg[e[0]], deg[e[1]]), -max(deg[e[0]], deg[e[1]]), e),
    )


class _Search:
    """Mutable edge-state assignment with transitivity propagation.

    Three bitmask rows per vertex: out[v] and inn[v] hold the decided arcs
    at v, and dec[v] the w whose edge {v, w} has a state.  They make the
    consistency test of a new arc a fixed number of integer operations.
    partners[k] lists the Gamma-partners of edge k = {u, v}: the edges
    {u, b} with b adjacent to u but not to v, and {v, b} with b adjacent
    to v but not to u.  A graph with more edges than the budget is
    refused before any work.
    """

    def __init__(self, g, budget=None):
        if budget is None:
            budget = DEFAULT_EDGE_BUDGET
        if g.edge_count > budget:
            raise BudgetExceeded(
                f"{g.edge_count} edges exceed the budget of {budget}; "
                "pass an explicit budget_edges to override"
            )
        self.n = g.n
        self.adj = g.adj
        self.edges = edge_order(g)
        self.eidx = {e: k for k, e in enumerate(self.edges)}
        self.partners = [
            [
                self.eidx[(a, b) if a < b else (b, a)]
                for a, far in ((u, v), (v, u))
                for b in _bits(g.adj[a] & ~g.adj[far] & ~(1 << far))
            ]
            for u, v in self.edges
        ]
        self.out = [0] * g.n
        self.inn = [0] * g.n
        self.dec = [0] * g.n
        self.decided = [0] * len(self.edges)

    def arc_ok(self, x, y):
        """True iff a new arc x->y demands only arcs that may still exist.

        w->x plus x->y demands w->y, and x->y plus y->z demands x->z: each
        demanded arc must be an edge of the graph, and an edge already
        decided must carry it.
        """
        w = self.inn[x] & ~(1 << y)
        z = self.out[y] & ~(1 << x)
        return not (
            w & ~self.adj[y]
            or w & self.dec[y] & ~self.inn[y]
            or z & ~self.adj[x]
            or z & self.dec[x] & ~self.out[x]
        )

    def allowed(self, k):
        """The states of edge k consistent with the decided arcs, in try order."""
        u, v = self.edges[k]
        fwd = self.arc_ok(u, v)
        bwd = self.arc_ok(v, u)
        # a direction the edge does not carry must not be demanded already
        return _ALLOWED[
            (fwd and not self.out[v] & self.inn[u])
            | (bwd and not self.out[u] & self.inn[v]) << 1
            | (fwd and bwd) << 2
        ]

    def apply(self, k, state):
        """Set edge k to state, which the caller has found consistent."""
        u, v = self.edges[k]
        if state & FWD:
            self.out[u] |= 1 << v
            self.inn[v] |= 1 << u
        if state & BWD:
            self.out[v] |= 1 << u
            self.inn[u] |= 1 << v
        self.dec[u] |= 1 << v
        self.dec[v] |= 1 << u
        self.decided[k] = state

    def undo(self, k):
        """Clear the state of edge k; nothing happens if it has none."""
        u, v = self.edges[k]
        state = self.decided[k]
        if state & FWD:
            self.out[u] &= ~(1 << v)
            self.inn[v] &= ~(1 << u)
        if state & BWD:
            self.out[v] &= ~(1 << u)
            self.inn[u] &= ~(1 << v)
        self.dec[u] &= ~(1 << v)
        self.dec[v] &= ~(1 << u)
        self.decided[k] = 0

    def leaf_masks(self):
        out = tuple(self.out)
        # propagation should make leaves transitive by construction
        if not transitive_masks(self.n, out):
            raise InternalCheckError("non-transitive leaf escaped propagation")
        return out


# the allowed states, in try order, at index fwd_ok | bwd_ok << 1 | both_ok << 2
_ALLOWED = [
    tuple(s for s, ok in ((FWD, f), (BWD, b), (BOTH, fb)) if ok)
    for fb in (0, 1)
    for b in (0, 1)
    for f in (0, 1)
]

_FLIP = {FWD: BWD, BWD: FWD, BOTH: BOTH}


def _walk(search, blocks):
    """Leaves of the search, depth first over blocks, as out-mask tuples.

    A block is (members, closure_flip) as _edge_orbits returns it.  Its
    first member is unflipped and branches over the states allowed to it;
    every other member takes the same state, mirrored where flipped, if
    that state is allowed to it, and a block whose orbit closes flipped
    only takes BOTH.  Explicit stacks replace recursion: todo[i] holds the
    states block i has still to try, placed[i] whether any of its members
    may be set.  watch[i] lists the Gamma-partners of block i's members
    that lie in later blocks, so are still undecided once block i is
    placed; a branch that leaves one of them no allowed state has no leaf
    and is skipped.
    """
    last = len(blocks)
    if not last:
        yield search.leaf_masks()
        return
    allowed, apply, undo = search.allowed, search.apply, search.undo
    reps = [members[0][0] for members, _ in blocks]
    block_edges = [[k for k, _ in members] for members, _ in blocks]
    follow = [
        {s: [(k, _FLIP[s] if flip else s) for k, flip in members[1:]] for s in _FLIP}
        if len(members) > 1
        else None
        for members, _ in blocks
    ]
    block_of = {k: i for i, ks in enumerate(block_edges) for k in ks}
    watch = [
        list(dict.fromkeys(j for k in ks for j in search.partners[k] if block_of[j] > i))
        for i, ks in enumerate(block_edges)
    ]

    def follows(moves):
        """Set each (edge, state) while the state is allowed; False at the
        first that is not."""
        for k, s in moves:
            if s not in allowed(k):
                return False
            apply(k, s)
        return True

    def options(i):
        states = allowed(reps[i])
        if blocks[i][1]:
            return iter((BOTH,) if BOTH in states else ())
        return iter(states)

    todo = [None] * last
    placed = [False] * last
    i = 0
    todo[i] = options(i)
    while True:
        if placed[i]:
            for k in block_edges[i]:
                undo(k)
            placed[i] = False
        state = next(todo[i], 0)
        if not state:
            if i == 0:
                return
            i -= 1
            continue
        apply(reps[i], state)
        placed[i] = True
        if follow[i] and not follows(follow[i][state]):
            continue  # the members set so far are undone at the loop top
        if watch[i] and not all(map(allowed, watch[i])):
            continue  # a later edge has no state left in any completion
        if i + 1 == last:
            yield search.leaf_masks()
        else:
            i += 1
            todo[i] = options(i)


def stream_masks(g, budget_edges=None):
    """Raw out-mask tuples of the stream, in deterministic order."""
    # the identity's edge orbits are the single edges, unflipped
    search = _Search(g, budget_edges)
    yield from _walk(search, _edge_orbits(search, range(g.n)))


def enumerate_transitive_digraphs(g, budget_edges=None):
    """Every transitive digraph with underlying graph exactly g, each once.

    The stream is deterministic: depth-first over edge_order(g) with
    states tried forward < backward < both.
    """
    for masks in stream_masks(g, budget_edges):
        yield Digraph(g.n, masks)


def fan_out(fn, tasks, workers):
    """fn(t) for t in tasks, lazily and in task order, over `workers`
    processes.

    One worker runs the tasks in this process.  More hand them out one at
    a time, so that callers control the schedule by the task order, and
    each result is yielded as soon as it and those before it are done.
    """
    if workers <= 1:
        yield from map(fn, tasks)
        return
    with Pool(workers) as pool:
        yield from pool.imap(fn, tasks, chunksize=1)


def tau(g, budget_edges=None):
    """Number of transitive digraphs whose underlying graph is g, by search."""
    return sum(1 for _ in stream_masks(g, budget_edges))


def _edge_orbits(search, sigma):
    """Orbits of sigma on edges, as (edge index, flip) chains.

    flip records whether the member's forward direction is the image of
    the representative's forward or backward direction; an orbit whose
    closure comes back flipped only supports the `both` state.
    """
    orbits = []
    seen = set()
    for k, (u, v) in enumerate(search.edges):
        if k in seen:
            continue
        members = []
        x, y = u, v
        while True:
            idx = search.eidx[(x, y) if x < y else (y, x)]
            members.append((idx, 0 if x < y else 1))
            seen.add(idx)
            x, y = sigma[x], sigma[y]
            if (x, y) == (u, v) or (x, y) == (v, u):
                closure_flip = 0 if (x, y) == (u, v) else 1
                break
        orbits.append((members, closure_flip))
    return orbits


def fix_count(g, sigma, budget_edges=None):
    """Number of transitive digraphs D over g with sigma(D) = D.

    Counted by a search constrained to sigma-invariant assignments: the
    state of every edge in a sigma-orbit is determined by the orbit
    representative, so only representatives branch.
    """
    sigma = _check_automorphism(g, sigma)
    search = _Search(g, budget_edges)
    return sum(1 for _ in _walk(search, _edge_orbits(search, sigma)))


def burnside(g, auts, t, budget_edges=None):
    """Orbits of the stream of g under the listed group auts, by Burnside.

    Fix(sigma) is constant on each conjugacy class of auts: D -> tau(D)
    maps the sigma-fixed digraphs one-to-one onto the tau sigma tau^-1-fixed
    ones.  So one term per class, weighted by the class size, gives the
    sum over the whole group.  The identity fixes every digraph, so its
    term is t, the stream length tau(g); every other class takes its term
    from the fix_count search.  This is the reference route that
    decomposition.tree_counts is checked against.
    """
    conj = canon.conjugacy_classes(auts)
    if sum(size for _, size in conj) != len(auts):
        raise InternalCheckError(
            f"conjugacy class sizes do not sum to |Aut| = {len(auts)}"
        )
    identity = tuple(range(g.n))
    total = sum(
        size * (t if rep == identity else fix_count(g, rep, budget_edges))
        for rep, size in conj
    )
    classes, rem = divmod(total, len(auts))
    if rem:
        raise InternalCheckError(
            f"orbit average is not an integer: {total}/{len(auts)}"
        )
    return classes


def h_burnside(g, budget_edges=None):
    """Homeomorphism-class count by averaging fixed digraphs over Aut(g)."""
    return burnside(g, automorphism_group(g), tau(g, budget_edges), budget_edges)


def stream_counts(g, budget_edges=None):
    """(tau, h) from one pass over the stream.

    tau is the stream length and h the number of distinct canonical
    digraph codes in it.
    """
    t = 0
    codes = set()
    for masks in stream_masks(g, budget_edges):
        t += 1
        codes.add(canon.digraph_code(g.n, masks))
    return t, len(codes)


def tau_sink(g, u, budget_edges=None):
    """Stream members in which u is a sink (no outgoing arcs)."""
    g._check_vertex(u)
    return sum(1 for masks in stream_masks(g, budget_edges) if not masks[u])


def h_sink(g, u, budget_edges=None):
    """Orbits of the sink-at-u digraphs under automorphisms fixing u."""
    g._check_vertex(u)
    stab = [s for s in automorphism_group(g) if s[u] == u]
    sinks = [masks for masks in stream_masks(g, budget_edges) if not masks[u]]
    seen = set()
    orbits = 0
    for masks in sinks:
        if masks in seen:
            continue
        orbits += 1
        d = Digraph(g.n, masks)
        for s in stab:
            seen.add(d.relabel(s).out)
    return orbits


@dataclass
class CountReport:
    """Result of one counting run, serializable by the CLI."""

    graph: tuple
    tau: int
    h: int
    method: str
    elapsed: float

    def __post_init__(self):
        if self.tau < self.h or (self.h == 0) != (self.tau == 0):
            raise InternalCheckError(f"inconsistent report: tau={self.tau} h={self.h}")


def counts_for(g, budget_edges=None, cache=None):
    """(tau, h) for a graph; memoized by canonical code in cache, if given."""
    if cache is None:
        cache = {}
    code = canonical_code(g)
    if code not in cache:
        t = tau(g, budget_edges)
        cache[code] = (t, burnside(g, automorphism_group(g), t, budget_edges))
    return cache[code]
