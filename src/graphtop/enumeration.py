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
union of cliques) has no partners, and its search is unchanged.  Every
leaf is still checked for transitivity, a batch at a time.
"""

from dataclasses import dataclass
from multiprocessing import Pool

from . import canon
from .canon import _bits
from .errors import BudgetExceeded, InternalCheckError
from .graphs import _check_automorphism, automorphism_group
from .topology import Digraph, first_intransitive, transitive_masks

DEFAULT_EDGE_BUDGET = 24

FWD, BWD, BOTH = 1, 2, 3  # arc sets {u->v}, {v->u}, {u->v, v->u}
_BATCH = 512  # leaves per transitivity check


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
    """Edge-state assignment with transitivity propagation.

    Two bitmask rows per vertex, out[v] and inn[v], hold the decided arcs
    at v.  Every state carries an arc, so the w whose edge {v, w} has a
    state are out[v] | inn[v].  The rows make the consistency test of an
    edge a fixed number of integer operations; _walk places and removes
    the states itself.  ends[k] is (u, v, 1 << u, 1 << v) for edge
    k = {u, v}.  partners[k] lists the Gamma-partners of edge k: the edges
    {u, b} with b adjacent to u but not to v, and {v, b} with b adjacent
    to v but not to u.  A graph with more edges than the budget is refused
    before any work.
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
        self.ends = [(u, v, 1 << u, 1 << v) for u, v in self.edges]
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

    def allowed(self, k):
        """The states of the undecided edge k = {u, v} consistent with the
        decided arcs, in try order.

        An arc u->v demands w->v for every w->u and u->z for every v->z.
        Each demanded arc must be an edge of the graph, and an edge already
        decided must carry it.  Every state carries an arc, so the decided
        edges that could miss one are those with v->w->u, and they must
        carry both w->v and u->w.  The arc v->u is the mirror image.  A
        direction the edge does not carry must not be demanded already.
        """
        u, v = self.edges[k]
        adj, out, inn = self.adj, self.out, self.inn
        ou, ov, iu, iv = out[u], out[v], inn[u], inn[v]
        vu = ov & iu  # v->w->u: demands v->u
        uv = ou & iv  # u->w->v: demands u->v
        # k is undecided, so neither end is in the other's rows
        fwd = not (iu & ~adj[v] or ov & ~adj[u] or vu & ~uv)
        bwd = not (iv & ~adj[u] or ou & ~adj[v] or uv & ~vu)
        return _ALLOWED[(fwd and not vu) | (bwd and not uv) << 1 | (fwd and bwd) << 2]


# the allowed states, in try order, at index fwd_ok | bwd_ok << 1 | both_ok << 2
_ALLOWED = [
    tuple(s for s, ok in ((FWD, f), (BWD, b), (BOTH, fb)) if ok)
    for fb in (0, 1)
    for b in (0, 1)
    for f in (0, 1)
]

_FLIP = {FWD: BWD, BWD: FWD, BOTH: BOTH}

# the states left of each _ALLOWED entry to a block that only takes BOTH
_BOTH_ONLY = {states: states[-1:] if BOTH in states else () for states in _ALLOWED}


def _move(search, k, state, flip):
    """Edge k set to state, mirrored if flip: (k, its state, u, v) and the
    bits it sets in out[u], out[v], inn[u] and inn[v].  Edge k is undecided
    before, so XOR with the same bits both places the state and removes it."""
    state = _FLIP[state] if flip else state
    u, v, bu, bv = search.ends[k]
    fwd, bwd = state & FWD, state & BWD
    return k, state, u, v, fwd and bv, bwd and bu, bwd and bv, fwd and bu


def _checked(n, batch):
    """The leaves of batch up to its first non-transitive one, which raises."""
    bad = first_intransitive(n, batch)
    yield from batch[:bad]
    if bad is not None:  # propagation should make every leaf transitive
        raise InternalCheckError("non-transitive leaf escaped propagation")


def _walk(search, blocks):
    """Leaves of the search, depth first over blocks, as out-mask tuples.

    A block is (members, closure_flip) as _edge_orbits returns it.  Its
    first member is unflipped and takes a state allowed to it; every other
    member takes the same state, mirrored where flipped, if that state is
    allowed to it, and a block whose orbit closes flipped only takes BOTH.
    search.allowed is the one consistency test, for the first member, the
    followers and the lookahead.  A stack frame (block, states left, moves
    placed since) exists only where a block has two or more states; a
    block with one state joins the innermost frame's moves, so one
    backtrack XORs a forced chain out.  watch[i] lists the Gamma-partners
    of block i's members in later blocks, still undecided once block i is
    placed; a branch that leaves one of them no allowed state has no leaf
    and is skipped.  Leaves are checked for transitivity _BATCH at a time.
    """
    n, last = search.n, len(blocks)
    allowed, out, inn = search.allowed, search.out, search.inn
    block_edges = [[k for k, _ in members] for members, _ in blocks]
    reps = [ks[0] for ks in block_edges]
    only_both = [flip for _, flip in blocks]
    # moves[i][s]: block i's members as they are set when it takes state s
    moves = [
        {s: tuple(_move(search, k, s, flip) for k, flip in members) for s in _FLIP}
        for members, _ in blocks
    ]
    block_of = {k: i for i, ks in enumerate(block_edges) for k in ks}
    watch = [
        list(dict.fromkeys(j for k in ks for j in search.partners[k] if block_of[j] > i))
        for i, ks in enumerate(block_edges)
    ]

    i, batch, frames, placed = 0, [], [], []  # i: the next block to place
    while True:
        state = 0
        if i == last:
            batch.append(tuple(out))
            if len(batch) == _BATCH:
                yield from _checked(n, batch)
                batch = []
        else:
            states = allowed(reps[i])
            if only_both[i]:
                states = _BOTH_ONLY[states]
            if len(states) == 1:
                state = states[0]
            elif states:
                frames.append((i, iter(states), []))
        while True:
            while not state:  # back to the innermost frame with a state left
                if not frames:
                    yield from _checked(n, batch)
                    return
                i, todo, placed = frames[-1]
                for _, _, u, v, ou, ov, iu, iv in placed:
                    out[u] ^= ou
                    out[v] ^= ov
                    inn[u] ^= iu
                    inn[v] ^= iv
                placed.clear()
                state = next(todo, 0)
                if not state:
                    frames.pop()
            block = moves[i][state]
            # each follower's state must be allowed to it, or the block has none
            for j, (k, s, u, v, ou, ov, iu, iv) in enumerate(block):
                if j and s not in allowed(k):
                    placed += block[:j]
                    state = 0
                    break
                out[u] ^= ou
                out[v] ^= ov
                inn[u] ^= iu
                inn[v] ^= iv
            else:
                placed += block
                # a later edge with no state left has none in any completion
                if not watch[i] or all(map(allowed, watch[i])):
                    break
                state = 0
        i += 1


def stream_masks(g, budget_edges=None):
    """Raw out-mask tuples of the stream, in deterministic order.  The
    edge budget is checked on the call, before the first leaf is asked
    for."""
    # the identity's edge orbits are the single edges, unflipped
    search = _Search(g, budget_edges)
    return _walk(search, _edge_orbits(search, range(g.n)))


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


class _RowImage(dict):
    """Out-mask -> its image under sigma.  Rows recur across leaves, so
    each is mapped once."""

    def __init__(self, sigma):
        self.sigma = sigma

    def __missing__(self, mask):
        image = self[mask] = sum(1 << self.sigma[v] for v in _bits(mask))
        return image


def _orbit_count(n, stream, gens):
    """(length, orbits) of a stream of out-mask tuples on n vertices that
    is closed under the group generated by gens.

    A member that no earlier orbit holds starts a new one, closed under
    gens; its other members wait in a pending set until the stream
    reaches them.  The stream is closed under the group, so the pending
    set must end empty.
    """
    maps = []
    for sigma in gens:
        inverse = [0] * n
        for u, v in enumerate(sigma):
            inverse[v] = u
        maps.append((_RowImage(sigma), inverse))
    t = h = 0
    pending = set()
    for masks in stream:
        t += 1
        if masks in pending:
            pending.remove(masks)
            continue
        h += 1
        orbit = [masks]
        members = {masks}
        for d in orbit:
            for row, inverse in maps:
                image = tuple([row[d[u]] for u in inverse])
                if image not in members:
                    members.add(image)
                    orbit.append(image)
        members.remove(masks)
        pending |= members
    if pending:
        raise InternalCheckError(
            f"{len(pending)} images under the group are missing from the stream"
        )
    return t, h


def stream_counts(g, budget_edges=None):
    """(tau, h) from one pass over the stream.

    tau is the stream length.  An isomorphism between two transitive
    digraphs over g is an automorphism of g, so h is the number of
    Aut(g)-orbits on the stream, closed under canon's generators of
    Aut(g).  No group is listed, so no bound on |Aut(g)| applies.
    """
    stream = stream_masks(g, budget_edges)  # the budget before the generators
    return _orbit_count(g.n, stream, canon.generators(g.n, g.adj))


def sink_counts(g, u, budget_edges=None):
    """(tau_sink, h_sink) from one pass over the stream: the members in
    which u is a sink (no outgoing arcs), and their orbits under the
    automorphisms fixing u, the ones that keep u as its own colour."""
    g._check_vertex(u)
    sinks = (masks for masks in stream_masks(g, budget_edges) if not masks[u])
    stab = canon.generators(g.n, g.adj, [v == u for v in range(g.n)])
    return _orbit_count(g.n, sinks, stab)


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

