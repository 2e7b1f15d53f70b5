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

from multiprocessing import get_context
from operator import itemgetter

from . import canon
from .canon import _bits
from .errors import BudgetExceeded, InternalCheckError, WorkerDied
from .graphs import automorphism_group
from .topology import Digraph, first_intransitive

DEFAULT_EDGE_BUDGET = 24

FWD, BWD, BOTH = 1, 2, 3  # arc sets {u->v}, {v->u}, {u->v, v->u}
_BATCH = 512  # leaves per transitivity check
# chunks per worker: few round trips, yet a small last chunk to even out the end
_CHUNKS_PER_WORKER = 8


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
    edge a fixed number of integer operations on its entry in rows:
    rows[k] = (u, v, ~adj[u], ~adj[v], 1 << u, 1 << v) for edge
    k = {u, v}.  _walk places the states itself.  partners[k] lists the
    Gamma-partners of edge k: the edges {u, b} with b adjacent to u but
    not to v, and {v, b} with b adjacent to v but not to u.  A graph with
    more edges than the budget is refused before any work.
    """

    def __init__(self, g, budget=None):
        if budget is None:
            budget = DEFAULT_EDGE_BUDGET
        if g.edge_count > budget:
            raise BudgetExceeded(
                f"{g.edge_count} edges exceed the budget of {budget}; "
                "raise it with --budget-edges (budget_edges in the library)"
            )
        self.n = g.n
        self.edges = edge_order(g)
        self.rows = [
            (u, v, ~g.adj[u], ~g.adj[v], 1 << u, 1 << v) for u, v in self.edges
        ]
        eidx = {e: k for k, e in enumerate(self.edges)}
        self.partners = [
            [
                eidx[(a, b) if a < b else (b, a)]
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
        So a demanded direction leaves one state at most, and only the
        non-edge tests of the directions it carries decide it; both
        directions demanded allow both only if the same w demand them.
        _walk runs the same test inline for the edge it places.
        """
        u, v, nu, nv, _, _ = self.rows[k]
        out, inn = self.out, self.inn
        ou, ov, iu, iv = out[u], out[v], inn[u], inn[v]
        vu = ov & iu  # v->w->u: demands v->u
        uv = ou & iv  # u->w->v: demands u->v
        # k is undecided, so neither end is in the other's rows
        if vu:
            if uv:
                if vu == uv and not (iu & nv or ov & nu or iv & nu or ou & nv):
                    return (BOTH,)
                return ()
            return () if iv & nu or ou & nv else (BWD,)
        if uv:
            return () if iu & nv or ov & nu else (FWD,)
        fwd = not (iu & nv or ov & nu)
        bwd = not (iv & nu or ou & nv)
        return _ALLOWED[fwd | bwd << 1]


# the allowed states, in try order, of an edge with no demanded arc, at index
# fwd_ok | bwd_ok << 1: with neither direction demanded, BOTH is allowed iff
# each direction is
_ALLOWED = [(), (FWD,), (BWD,), (FWD, BWD, BOTH)]


def _checked(n, batch):
    """The leaves of batch up to its first non-transitive one, which raises."""
    bad = first_intransitive(n, batch)
    yield from batch[:bad]
    if bad is not None:  # propagation should make every leaf transitive
        raise InternalCheckError("non-transitive leaf escaped propagation")


def _walk(search):
    """Leaves of the search, depth first over search.edges, as out-mask
    tuples.

    The consistency test of the edge being placed runs inline on its
    entry in search.rows; search.allowed runs the same test for the
    lookahead.  Each test reads the entry once, and nothing else reads
    the rows.  An edge with a demanded arc has one state at most and
    settles it without a table; any other edge takes its states from
    _ALLOWED, the walk's copy read when it starts.  A stack frame (edge,
    its row, states left, out and inn rows before the edge) exists only
    where an edge has two or more states; an edge with one state is ORed
    in on the way down, and one backtrack restores the innermost frame's
    rows, forced chain and all.
    watch[k] lists the Gamma-partners of edge k that come after it,
    still undecided once k is placed; a branch that leaves one of them
    no allowed state has no leaf and is skipped.  Leaves are checked for
    transitivity _BATCH at a time.
    """
    n, last = search.n, len(search.edges)
    allowed, rows, out, inn = search.allowed, search.rows, search.out, search.inn
    table = _ALLOWED
    watch = [[j for j in js if j > k] for k, js in enumerate(search.partners)]

    k, batch, frames = 0, [], []  # k: the next edge to place
    while True:
        state = 0
        if k == last:
            batch.append(tuple(out))
            if len(batch) == _BATCH:
                yield from _checked(n, batch)
                batch = []
        else:  # allowed's test, inline
            u, v, nu, nv, bu, bv = row = rows[k]
            ou, ov, iu, iv = out[u], out[v], inn[u], inn[v]
            vu = ov & iu
            uv = ou & iv
            if vu:
                if uv:
                    if vu == uv and not (iu & nv or ov & nu or iv & nu or ou & nv):
                        state = BOTH
                elif not (iv & nu or ou & nv):
                    state = BWD
            elif uv:
                if not (iu & nv or ov & nu):
                    state = FWD
            else:
                fwd = not (iu & nv or ov & nu)
                bwd = not (iv & nu or ou & nv)
                states = table[fwd | bwd << 1]
                if len(states) == 1:
                    state = states[0]
                elif states:
                    todo = iter(states)
                    state = next(todo)
                    frames.append((k, row, todo, tuple(out), tuple(inn)))
        while True:
            while not state:  # back to the innermost frame with a state left
                if not frames:
                    yield from _checked(n, batch)
                    return
                k, row, todo, saved_out, saved_inn = frames[-1]
                state = next(todo, 0)
                if state:
                    out[:] = saved_out
                    inn[:] = saved_inn
                    u, v, _, _, bu, bv = row
                else:
                    frames.pop()
            if state & FWD:
                out[u] |= bv
                inn[v] |= bu
            if state & BWD:
                out[v] |= bu
                inn[u] |= bv
            # a later edge with no state left has none in any completion
            if not watch[k] or all(map(allowed, watch[k])):
                break
            state = 0
        k += 1


def stream_masks(g, budget_edges=None):
    """Raw out-mask tuples of the stream, in deterministic order.  The
    edge budget is checked on the call, before the first leaf is asked
    for."""
    return _walk(_Search(g, budget_edges))


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

    One worker runs the tasks in this process.  More are forked, one per
    chunk at most: the tasks, in their given order, are cut into about
    _CHUNKS_PER_WORKER chunks per worker, and each idle worker is dealt
    the next chunk, so callers control the schedule by the task order.
    A worker inherits fn and the tasks through the fork and is sent only
    a chunk's bounds.  A chunk's results are yielded once it and those
    before it are done.  A task's exception is raised here after the
    results of the tasks before it, as in one process; a worker that
    exits without replying raises WorkerDied.  Every worker is
    terminated and joined before this returns or raises.
    """
    if workers <= 1:
        yield from map(fn, tasks)
        return
    from multiprocessing.connection import wait

    tasks = list(tasks)
    size = -(-len(tasks) // (workers * _CHUNKS_PER_WORKER)) or 1
    chunks = [(lo, min(lo + size, len(tasks))) for lo in range(0, len(tasks), size)]
    ctx = get_context("fork")  # named: the tasks reach the workers by the fork
    procs, idle, busy, done = {}, [], {}, {}  # busy: conn -> chunk; done: chunk -> reply
    dealt = given = 0  # chunks dealt, chunks yielded
    try:
        for _ in range(min(workers, len(chunks))):
            conn, child = ctx.Pipe()
            proc = ctx.Process(target=_worker, args=(fn, tasks, child), daemon=True)
            proc.start()
            child.close()  # so that the worker's exit reads as EOF here
            procs[conn] = proc
            idle.append(conn)
        while given < len(chunks):
            while idle and dealt < len(chunks):
                conn = idle.pop()
                conn.send(chunks[dealt])
                busy[conn] = dealt
                dealt += 1
            if given not in done:
                for conn in wait(list(busy)):
                    try:
                        done[busy.pop(conn)] = conn.recv()
                    except EOFError:
                        proc = procs[conn]
                        proc.join()
                        raise WorkerDied(
                            f"worker process {proc.pid} exited with code "
                            f"{proc.exitcode} without replying"
                        ) from None
                    idle.append(conn)
                continue
            results, exc = done.pop(given)
            yield from results
            if exc is not None:
                raise exc
            given += 1
    finally:
        for conn, proc in procs.items():
            proc.terminate()  # an idle worker waits for a chunk that never comes
            proc.join()
            conn.close()


def _worker(fn, tasks, conn):
    """fan_out's worker: for each chunk (lo, hi) received, send back the
    results of fn over tasks[lo:hi] up to the first task that raises,
    and that exception or None."""
    while True:
        lo, hi = conn.recv()
        results, error = [], None
        try:
            for task in tasks[lo:hi]:
                results.append(fn(task))
        except Exception as exc:
            error = exc
        conn.send((results, error))


def tau(g, budget_edges=None):
    """Number of transitive digraphs whose underlying graph is g, by search."""
    return sum(1 for _ in stream_masks(g, budget_edges))


def burnside(auts, stream):
    """Orbits of a graph's stream under the listed group auts, by Burnside.

    Fix(sigma) is constant on each conjugacy class of auts: D -> tau(D)
    maps the sigma-fixed digraphs one-to-one onto the tau sigma tau^-1-fixed
    ones.  So one term per class, weighted by the class size, gives the
    sum over the whole group.  stream is the graph's stream as stream_masks
    gives it; one pass over it counts the fixed members of every class
    representative, the identity's being the stream length.  This is the
    reference route that decomposition.tree_counts is checked against.
    """
    conj = canon.conjugacy_classes(auts)
    if sum(size for _, size in conj) != len(auts):
        raise InternalCheckError(
            f"conjugacy class sizes do not sum to |Aut| = {len(auts)}"
        )
    fixed = _fixed(stream, [rep for rep, _ in conj])
    total = sum(size * f for (_, size), f in zip(conj, fixed))
    classes, rem = divmod(total, len(auts))
    if rem:
        raise InternalCheckError(
            f"orbit average is not an integer: {total}/{len(auts)}"
        )
    return classes


def h_burnside(g, budget_edges=None):
    """Homeomorphism-class count by averaging fixed digraphs over Aut(g).
    The group is listed before the edge budget is checked."""
    return burnside(automorphism_group(g), stream_masks(g, budget_edges))


class _RowImage(dict):
    """Out-mask -> its image under sigma.  Rows recur across leaves, so
    each is mapped once."""

    def __init__(self, sigma):
        self.sigma = sigma

    def __missing__(self, mask):
        image = self[mask] = sum(1 << self.sigma[v] for v in _bits(mask))
        return image


def _fixed(stream, sigmas):
    """For each sigma, the number of stream members D with sigma(D) = D:
    those whose row at sigma[u] is the image of row u, for every u.  The
    u that sigma moves go first, as their test fails soonest."""
    tests = [
        (_RowImage(sigma), sorted(enumerate(sigma), key=lambda uv: uv[0] == uv[1]))
        for sigma in sigmas
    ]
    counts = [0] * len(tests)
    for masks in stream:
        for i, (row, pairs) in enumerate(tests):
            for u, v in pairs:
                if row[masks[u]] != masks[v]:
                    break
            else:
                counts[i] += 1
    return counts


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
        # row v of an image is the image of row inverse[v]; a generator moves
        # two points or more, so n > 1 and the getter gives an exact-size tuple
        maps.append((_RowImage(sigma).__getitem__, itemgetter(*inverse)))
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
            for row_image, reorder in maps:
                image = reorder(list(map(row_image, d)))
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

