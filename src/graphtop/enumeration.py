"""Exhaustive generation of transitive digraphs over a fixed underlying graph.

Each edge {u,v} of the graph carries one of three states: forward (u->v),
backward (v->u) or both.  A full assignment is exactly one digraph whose
underlying graph is the input, so the search walks edge states in a fixed
order and prunes with incremental transitivity propagation: an arc pair
a->b, b->c among decided edges demands the arc a->c, which must be an edge
of the graph and must not already be decided against.  Transitivity is
hereditary under taking induced subgraphs, so pruning a partial assignment
never loses a completion.
"""

import itertools
from dataclasses import dataclass
from multiprocessing import Pool

from . import canon
from .errors import BudgetExceeded, InternalCheckError, NotAnAutomorphism
from .graphs import Graph, automorphism_group, canonical_code
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
    """Mutable edge-state assignment with transitivity propagation."""

    def __init__(self, g, budget):
        if g.edge_count > budget:
            raise BudgetExceeded(
                f"{g.edge_count} edges exceed the budget of {budget}; "
                "pass an explicit budget_edges to override"
            )
        self.n = g.n
        self.adj = g.adj
        self.edges = edge_order(g)
        self.eidx = {e: k for k, e in enumerate(self.edges)}
        self.out = [0] * g.n
        self.inn = [0] * g.n
        self.decided = [0] * len(self.edges)

    def try_state(self, k, state):
        """Assign state to edge k if consistent with decided arcs."""
        u, v = self.edges[k]
        out, inn, adj, eidx = self.out, self.inn, self.adj, self.eidx
        add = []
        if state & FWD:
            add.append((u, v))
        if state & BWD:
            add.append((v, u))
        for x, y in add:
            m = inn[x]
            while m:  # w -> x plus new x -> y demands w -> y
                b = m & -m
                w = b.bit_length() - 1
                m ^= b
                if w != y:
                    if not adj[w] >> y & 1:
                        return False
                    ei = eidx[(w, y) if w < y else (y, w)]
                    if self.decided[ei] and not out[w] >> y & 1:
                        return False
            m = out[y]
            while m:  # new x -> y plus y -> z demands x -> z
                b = m & -m
                z = b.bit_length() - 1
                m ^= b
                if z != x:
                    if not adj[x] >> z & 1:
                        return False
                    ei = eidx[(x, z) if x < z else (z, x)]
                    if self.decided[ei] and not out[x] >> z & 1:
                        return False
        # a direction this edge does not carry must not be demanded already
        if not state & FWD and out[u] & inn[v]:
            return False
        if not state & BWD and out[v] & inn[u]:
            return False
        for x, y in add:
            out[x] |= 1 << y
            inn[y] |= 1 << x
        self.decided[k] = state
        return True

    def undo(self, k):
        u, v = self.edges[k]
        state = self.decided[k]
        if state & FWD:
            self.out[u] &= ~(1 << v)
            self.inn[v] &= ~(1 << u)
        if state & BWD:
            self.out[v] &= ~(1 << u)
            self.inn[u] &= ~(1 << v)
        self.decided[k] = 0

    def leaf_masks(self):
        out = tuple(self.out)
        # propagation should make leaves transitive by construction
        if not transitive_masks(self.n, out):
            raise InternalCheckError("non-transitive leaf escaped propagation")
        return out


def _dfs(search, k):
    if k == len(search.edges):
        yield search.leaf_masks()
        return
    for state in (FWD, BWD, BOTH):
        if search.try_state(k, state):
            yield from _dfs(search, k + 1)
            search.undo(k)


def _gen_masks(g, budget, prefix=()):
    search = _Search(g, budget)
    for k, state in enumerate(prefix):
        if not search.try_state(k, state):
            return
    yield from _dfs(search, len(prefix))


def enumerate_transitive_digraphs(g, budget_edges=None, prefix=()):
    """Every transitive digraph with underlying graph exactly g, each once.

    The stream is deterministic: depth-first over edge_order(g) with
    states tried forward < backward < both.  A prefix of edge states
    restricts the stream to one branch, which is how work is partitioned
    across workers.
    """
    budget = DEFAULT_EDGE_BUDGET if budget_edges is None else budget_edges
    for masks in _gen_masks(g, budget, prefix):
        yield Digraph(g.n, masks)


def state_prefixes(g, workers):
    """Prefixes splitting the stream into at least `workers` branches."""
    m = len(g.edges())
    k = 0
    while 3**k < workers and k < m:
        k += 1
    return list(itertools.product((FWD, BWD, BOTH), repeat=k))


def _tau_task(args):
    n, adj, budget, prefix = args
    return sum(1 for _ in _gen_masks(Graph(n, adj), budget, prefix))


def _arcs_task(args):
    n, adj, budget, prefix = args
    return list(_gen_masks(Graph(n, adj), budget, prefix))


def tau(g, budget_edges=None, workers=1):
    """Number of transitive digraphs whose underlying graph is g."""
    budget = DEFAULT_EDGE_BUDGET if budget_edges is None else budget_edges
    if workers <= 1:
        return sum(1 for _ in _gen_masks(g, budget))
    _Search(g, budget)  # fail fast on budget before forking
    tasks = [(g.n, g.adj, budget, p) for p in state_prefixes(g, workers)]
    with Pool(workers) as pool:
        return sum(pool.map(_tau_task, tasks))


def stream_masks(g, budget_edges=None, workers=1):
    """Raw out-mask tuples of the stream, in deterministic order."""
    budget = DEFAULT_EDGE_BUDGET if budget_edges is None else budget_edges
    if workers <= 1:
        yield from _gen_masks(g, budget)
        return
    _Search(g, budget)
    tasks = [(g.n, g.adj, budget, p) for p in state_prefixes(g, workers)]
    with Pool(workers) as pool:
        for chunk in pool.map(_arcs_task, tasks):
            yield from chunk


def _check_automorphism(g, sigma):
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(g.n)):
        raise NotAnAutomorphism("not a permutation of the vertex set")
    for u in range(g.n):
        image = 0
        m = g.adj[u]
        while m:
            b = m & -m
            image |= 1 << sigma[b.bit_length() - 1]
            m ^= b
        if image != g.adj[sigma[u]]:
            raise NotAnAutomorphism("permutation does not preserve adjacency")
    return sigma


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


_FLIP = {FWD: BWD, BWD: FWD, BOTH: BOTH}


def fix_count(g, sigma, budget_edges=None):
    """Number of transitive digraphs D over g with sigma(D) = D.

    Counted by a search constrained to sigma-invariant assignments: the
    state of every edge in a sigma-orbit is determined by the orbit
    representative, so only representatives branch.
    """
    budget = DEFAULT_EDGE_BUDGET if budget_edges is None else budget_edges
    sigma = _check_automorphism(g, sigma)
    search = _Search(g, budget)
    orbits = _edge_orbits(search, sigma)
    count = 0

    def go(i):
        nonlocal count
        if i == len(orbits):
            search.leaf_masks()
            count += 1
            return
        members, closure_flip = orbits[i]
        for state in (BOTH,) if closure_flip else (FWD, BWD, BOTH):
            applied = []
            ok = True
            for idx, flip in members:
                member_state = _FLIP[state] if flip else state
                if search.try_state(idx, member_state):
                    applied.append(idx)
                else:
                    ok = False
                    break
            if ok:
                go(i + 1)
            for idx in reversed(applied):
                search.undo(idx)

    go(0)
    return count


def h_burnside(g, budget_edges=None):
    """Homeomorphism-class count by averaging fixed digraphs over Aut(g).

    fix_count is constant on each conjugacy class of Aut(g): D -> tau(D)
    maps the sigma-fixed digraphs one-to-one onto the tau sigma tau^-1-fixed
    ones.  So one search per class, weighted by the class size, gives the
    sum over the whole group.
    """
    auts = automorphism_group(g)
    conj = canon.conjugacy_classes(auts)
    if sum(size for _, size in conj) != len(auts):
        raise InternalCheckError(
            f"conjugacy class sizes do not sum to |Aut| = {len(auts)}"
        )
    total = sum(size * fix_count(g, rep, budget_edges) for rep, size in conj)
    classes, rem = divmod(total, len(auts))
    if rem:
        raise InternalCheckError(
            f"orbit average is not an integer: {total}/{len(auts)}"
        )
    return classes


def transitive_digraph_classes(g, budget_edges=None):
    """One representative per digraph-isomorphism class of the stream.

    The representative is the lexicographically least member (by sorted
    arc list), emitted in order of first appearance.
    """
    best = {}
    order = []
    for d in enumerate_transitive_digraphs(g, budget_edges):
        code = canon.digraph_code(d.n, d.out)
        key = tuple(d.arcs())
        if code not in best:
            best[code] = key
            order.append(code)
        elif key < best[code]:
            best[code] = key
    return [Digraph.from_arcs(g.n, best[code]) for code in order]


def h_classes(g, budget_edges=None):
    """Homeomorphism-class count by canonical digraph codes."""
    codes = set()
    for d in enumerate_transitive_digraphs(g, budget_edges):
        codes.add(canon.digraph_code(d.n, d.out))
    return len(codes)


def tau_sink(g, u, budget_edges=None):
    """Stream members in which u is a sink (no outgoing arcs)."""
    g._check_vertex(u)
    return sum(
        1 for masks in _gen_masks(g, DEFAULT_EDGE_BUDGET if budget_edges is None else budget_edges)
        if not masks[u]
    )


def h_sink(g, u, budget_edges=None):
    """Orbits of the sink-at-u digraphs under automorphisms fixing u."""
    g._check_vertex(u)
    stab = [s for s in automorphism_group(g) if s[u] == u]
    sinks = [
        masks
        for masks in _gen_masks(
            g, DEFAULT_EDGE_BUDGET if budget_edges is None else budget_edges
        )
        if not masks[u]
    ]
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


# Shared memo of (tau, h) keyed by canonical graph code.  Recomputation
# is idempotent, so concurrent fills are harmless.
_SHARED_COUNTS = {}


def counts_for(g, budget_edges=None, cache=None):
    """Memoized (tau, h) pair for a graph, keyed by canonical code."""
    table = _SHARED_COUNTS if cache is None else cache
    code = canonical_code(g)
    hit = table.get(code)
    if hit is None:
        hit = (tau(g, budget_edges), h_burnside(g, budget_edges))
        table[code] = hit
    return hit
