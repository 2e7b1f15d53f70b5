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
the leaves and their order stay the same.  An edge with no partner joins
true twins, N(u) - v = N(v) - u, whose non-edge tests always pass, so the
walk tests it on its demanded arcs alone, as every edge of a union of
cliques.  Only such an edge can carry both arcs: with u<->v, an arc u->b
forces v->b and b->u forces b->v.  So an edge with a partner has two
states, FWD and BWD.  The walk yields its leaves in lists, each checked
for transitivity whole.
"""

import os
from itertools import chain
from operator import itemgetter

from . import canon
from .canon import _bits
from .errors import DEFAULT_EDGE_BUDGET, BudgetExceeded, InternalCheckError, WorkerDied
from .graphs import automorphism_group
from .topology import Digraph, first_intransitive

FWD, BWD, BOTH = 1, 2, 3  # arc sets {u->v}, {v->u}, {u->v, v->u}
_BATCH = 512  # leaves per transitivity check
_BYTE_POINTS = 8  # up to this many vertices, every row mask fits in a byte
# chunks per worker: few round trips, yet a small last chunk to even out the end
_CHUNKS_PER_WORKER = 8


def edge_order(g):
    """Assignment order: edges at high-degree endpoints first.

    Triangles constrain the most, so edges whose endpoints both have high
    degree go early; ties break lexicographically, which also fixes the
    deterministic stream order.
    """
    deg = [row.bit_count() for row in g.adj]
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
    rows[k] = (u, v, ~adj[u], ~adj[v], 1 << u, 1 << v, later) for edge
    k = {u, v}.  _walk places the states itself.  partners[k] lists the
    Gamma-partners of edge k: the edges {u, b} with b adjacent to u but
    not to v, and {v, b} with b adjacent to v but not to u; later holds
    those after k, or is None if k has no partner (u and v are true twins).
    A graph with more edges than the budget is refused before any work.
    """

    def __init__(self, g, budget=None):
        budget = DEFAULT_EDGE_BUDGET if budget is None else budget
        if g.edge_count > budget:
            verb = "edges exceed" if g.edge_count > 1 else "edge exceeds"
            raise BudgetExceeded(
                f"{g.edge_count} {verb} the budget of {budget}; "
                "raise it with --budget-edges (budget_edges in the library)"
            )
        self.n, adj = g.n, g.adj
        self.edges = edge_order(g)
        eidx = {e: k for k, e in enumerate(self.edges)}
        self.partners, self.rows = [], []
        for k, (u, v) in enumerate(self.edges):
            js = [
                eidx[(a, b) if a < b else (b, a)]
                for a, far in ((u, v), (v, u))
                for b in _bits(adj[a] & ~adj[far] & ~(1 << far))
            ]
            self.partners.append(js)
            later = tuple(j for j in js if j > k) if js else None
            self.rows.append((u, v, ~adj[u], ~adj[v], 1 << u, 1 << v, later))
        self.out = [0] * g.n
        self.inn = [0] * g.n

    def allowed(self, k):
        """Whether the undecided edge k = {u, v} can still take FWD or BWD
        consistent with the decided arcs.

        An arc u->v demands w->v for every w->u and u->z for every v->z.
        Each demanded arc must be an edge of the graph, and an edge already
        decided must carry it.  Every state carries an arc, so the decided
        edges that could miss one are those with v->w->u, which demand v->u:
        FWD is allowed iff v->u is not demanded and its non-edge tests pass.
        BWD is the mirror image.  BOTH is never asked for: the lookahead
        calls this on partnered edges only, and a doubled edge joins true
        twins.  _walk runs the same test inline for the edge it places.
        """
        u, v, nu, nv, _, _, _ = self.rows[k]
        out, inn = self.out, self.inn
        ou, ov, iu, iv = out[u], out[v], inn[u], inn[v]
        # k is undecided, so neither end is in the other's rows
        return not (ov & iu or iu & nv or ov & nu) or not (ou & iv or iv & nu or ou & nv)


def _walk(search):
    """Lists of up to _BATCH leaves of the search, depth first over
    search.edges, as out-mask tuples, each yielded once first_intransitive
    has passed it; at a failing leaf, the leaves before it, then the error.

    The descent places edge k from the consistency test run inline on its
    entry in search.rows.  A twin row (later None) is tested on its
    demanded arcs alone; any other on its non-edge masks too, and then
    search.allowed must leave each partner in later a state (the
    lookahead).  Each test reads one row once, and nothing else reads the
    rows.  A twin row with more pushes BOTH and BWD, with one snapshot
    (edge, row, out and inn rows before it), and places FWD.  Any other
    row is never doubled: it places BWD alone when v->u is demanded or
    FWD's non-edge masks are set, and otherwise places FWD, with BWD
    pushed if it is allowed.  A dead edge or a failed lookahead breaks out
    to the backtrack, which pops the innermost state left, restores its
    snapshot, forced chain and all, and places it.
    """
    n, last = search.n, len(search.edges)
    allowed, rows, out, inn = search.allowed, search.rows, search.out, search.inn

    k, batch, frames = 0, [], []  # k: the next edge to place
    while True:
        while k < last:  # allowed's test, inline
            u, v, nu, nv, bu, bv, later = row = rows[k]
            if later is None:  # twins: no non-edge mask is set, no partner
                vu = out[v] & inn[u]
                uv = out[u] & inn[v]
                if vu:
                    if uv:
                        if vu != uv:
                            break
                        out[u] |= bv
                        inn[v] |= bu
                    out[v] |= bu
                    inn[u] |= bv
                else:
                    if not uv:  # BWD, then BOTH, wait
                        saved = k, row, tuple(out), tuple(inn)
                        frames += (BOTH, saved), (BWD, saved)
                    out[u] |= bv
                    inn[v] |= bu
                k += 1
                continue
            ou = out[u]
            ov = out[v]
            iu = inn[u]
            iv = inn[v]
            if ov & iu or iu & nv or ov & nu:  # no FWD: BWD, unless u->v is demanded
                if ou & iv or iv & nu or ou & nv:
                    break
                out[v] = ov | bu
                inn[u] = iu | bv
            else:  # FWD, and BWD waits if it is allowed
                if not (ou & iv or iv & nu or ou & nv):
                    frames.append((BWD, (k, row, tuple(out), tuple(inn))))
                out[u] = ou | bv
                inn[v] = iv | bu
            # a later edge with no state left has none in any completion
            if later and not all(map(allowed, later)):
                break
            k += 1
        else:
            batch.append(tuple(out))
            if len(batch) == _BATCH:
                bad = first_intransitive(n, batch)
                yield batch[:bad]
                if bad is not None:
                    break
                batch = []
        while frames:  # back to the innermost state left
            state, (k, row, saved_out, saved_inn) = frames.pop()
            out[:] = saved_out
            inn[:] = saved_inn
            u, v, _, _, bu, bv, later = row
            if state == BOTH:
                out[u] |= bv
                inn[v] |= bu
            out[v] |= bu
            inn[u] |= bv
            if not later or all(map(allowed, later)):
                k += 1
                break
        else:
            bad = first_intransitive(n, batch)
            yield batch[:bad]
            if bad is None:
                return
            break
    # propagation should make every leaf transitive
    raise InternalCheckError("non-transitive leaf escaped propagation")


def stream_batches(g, budget_edges=None):
    """The walk's checked lists of out-mask tuples, in stream order; the
    edge budget is checked on the call, before the first list is asked for."""
    return _walk(_Search(g, budget_edges))


def stream_masks(g, budget_edges=None):
    """Raw out-mask tuples of the stream: the lists of stream_batches,
    flattened, with the edge budget checked on the call as there."""
    return chain.from_iterable(stream_batches(g, budget_edges))


def enumerate_transitive_digraphs(g):
    """Every transitive digraph with underlying graph exactly g, each once.

    The stream is deterministic: depth-first over edge_order(g) with
    states tried forward < backward < both.
    """
    for masks in stream_masks(g):
        yield Digraph(g.n, masks)


def fan_out(fn, tasks, workers):
    """fn(t) for t in tasks, lazily and in task order, over `workers`
    processes.

    One worker runs the tasks in this process.  More are forked with
    os.fork, one per chunk at most: the tasks, in their given order, are
    cut into about _CHUNKS_PER_WORKER chunks per worker, and each idle
    worker is dealt the next chunk, so callers control the schedule by
    the task order.  A worker inherits fn and the tasks through the fork
    and has two pipes: a chunk's bounds go down one and its reply comes
    back up the other, each one pickle.  A pickle marks its own end and a
    worker has at most one message in flight, so select on a reply pipe
    never misses one left in a file buffer.  A chunk's results are
    yielded once it and those before it are done.  A task's exception is
    raised here after the results of the tasks before it, as in one
    process; a worker that exits without replying raises WorkerDied with
    its pid and exit code.  Every worker is sent SIGTERM and reaped, once,
    before this returns or raises.
    """
    if workers <= 1:
        yield from map(fn, tasks)
        return
    import pickle
    import select
    import signal

    tasks = list(tasks)
    size = -(-len(tasks) // (workers * _CHUNKS_PER_WORKER)) or 1
    chunks = [(lo, min(lo + size, len(tasks))) for lo in range(0, len(tasks), size)]
    procs, idle, busy, done = {}, [], {}, {}  # procs: reply -> (pid, down); busy: reply -> chunk
    dealt = given = 0  # chunks dealt, chunks yielded
    try:
        for _ in range(min(workers, len(chunks))):
            pid, down, reply = _fork_worker(fn, tasks)
            procs[reply] = pid, down
            idle.append(reply)
        while given < len(chunks):
            while idle and dealt < len(chunks):
                reply = idle.pop()
                down = procs[reply][1]
                pickle.dump(chunks[dealt], down)
                down.flush()
                busy[reply] = dealt
                dealt += 1
            if given not in done:
                for reply in select.select(list(busy), [], [])[0]:
                    try:
                        done[busy.pop(reply)] = pickle.load(reply)
                    except (EOFError, pickle.UnpicklingError):  # a pickle cut short
                        pid, down = procs.pop(reply)
                        down.close()
                        reply.close()
                        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                        raise WorkerDied(
                            f"worker process {pid} exited with code {code} without replying"
                        ) from None
                    idle.append(reply)
                continue
            results, exc = done.pop(given)
            yield from results
            if exc is not None:
                raise exc
            given += 1
    finally:
        for pid, _ in procs.values():
            os.kill(pid, signal.SIGTERM)  # an idle worker waits for a chunk that never comes
        for reply, (pid, down) in procs.items():
            os.waitpid(pid, 0)
            down.close()
            reply.close()


def _fork_worker(fn, tasks):
    """Fork one fan_out worker; return its pid and this process's ends
    of its pipes, (pid, chunk writer, reply reader), as binary files.
    The child runs _worker and leaves by os._exit, so it never returns
    into the caller's stack or flushes a buffer it inherited."""
    down_r, down_w = os.pipe()
    up_r, up_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(down_w)
            os.close(up_r)
            _worker(fn, tasks, open(down_r, "rb"), open(up_w, "wb"))
        except BaseException:
            import traceback

            os.write(2, traceback.format_exc().encode())
        finally:
            os._exit(1)
    os.close(down_r)
    os.close(up_w)  # so that the worker's exit reads as EOF here
    return pid, open(down_w, "wb"), open(up_r, "rb")


def _worker(fn, tasks, chunks, replies):
    """fan_out's worker: for each chunk (lo, hi) read from chunks, write
    to replies the results of fn over tasks[lo:hi] up to the first task
    that raises, and that exception, a RuntimeError naming it if pickle
    cannot rebuild it, or None.  It runs until it is signalled."""
    import pickle

    while True:
        lo, hi = pickle.load(chunks)
        results, error = [], None
        try:
            for task in tasks[lo:hi]:
                results.append(fn(task))
        except Exception as exc:
            error = exc
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                error = RuntimeError(f"{type(exc).__qualname__}: {exc}")
        pickle.dump((results, error), replies)
        replies.flush()


def tau(g):
    """Number of transitive digraphs whose underlying graph is g, by search."""
    return sum(1 for _ in stream_masks(g))


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


def h_burnside(g):
    """Homeomorphism-class count by averaging fixed digraphs over Aut(g).
    The edge budget is checked before the group is listed."""
    stream = stream_masks(g)  # the budget before the group
    return burnside(automorphism_group(g), stream)


class _RowImage(dict):
    """Out-mask -> its image under sigma, for sigma on more than
    _BYTE_POINTS points.  Rows recur across leaves, so each is mapped
    once."""

    def __init__(self, sigma):
        self.sigma = sigma

    def __missing__(self, mask):
        image = self[mask] = sum(1 << self.sigma[v] for v in _bits(mask))
        return image


def _row_images(sigma):
    """The image under sigma of each row mask m, as table[m].  On up to
    _BYTE_POINTS points every row is a byte, and the table is 256 bytes
    built by doubling, as canon's bit table is: for m below 2^v, the
    image of m + 2^v is that of m with bit sigma[v] set.  Masks of 2^n
    and past are no rows, so they map to 0.  On more points, a
    _RowImage memo."""
    if len(sigma) > _BYTE_POINTS:
        return _RowImage(sigma)
    table = [0]
    for v in sigma:
        bit = 1 << v
        table += [m | bit for m in table]
    return bytes(table).ljust(256, b"\0")


def _fixed(stream, sigmas):
    """For each sigma, the number of stream members D with sigma(D) = D:
    those whose row at sigma[u] is the image of row u, for every u.  The
    u that sigma moves go first, as their test fails soonest."""
    tests = [
        (_row_images(sigma), sorted(enumerate(sigma), key=lambda uv: uv[0] == uv[1]))
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
    set must end empty.  On up to _BYTE_POINTS points each member is
    kept as bytes, and a generator maps it whole: its rows translated
    through the generator's table, then reordered.  On more, members
    stay tuples and each row goes through the generator's memo.
    """
    small = n <= _BYTE_POINTS
    maps = []
    for sigma in gens:
        inverse = [0] * n
        for u, v in enumerate(sigma):
            inverse[v] = u
        images = _row_images(sigma)
        # row v of an image is the image of row inverse[v]; a generator moves
        # two points or more, so n > 1 and the getter gives an exact-size tuple
        maps.append((images if small else images.__getitem__, itemgetter(*inverse)))
    t = h = 0
    pending = set()
    for masks in stream:
        t += 1
        if small:
            masks = bytes(masks)
        if masks in pending:
            pending.remove(masks)
            continue
        h += 1
        orbit = [masks]
        members = {masks}
        for d in orbit:
            for images, reorder in maps:
                if small:
                    image = bytes(reorder(d.translate(images)))
                else:
                    image = reorder(list(map(images, d)))
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
    Aut(g) by _orbit_count: through one byte table per generator on up
    to 8 vertices, through a memo of row images past that.  No group is
    listed, so no bound on |Aut(g)| applies.
    """
    stream = stream_masks(g, budget_edges)  # the budget before the generators
    return _orbit_count(g.n, stream, canon.generators(g.n, g.adj))


def sink_counts(g, u):
    """(tau_sink, h_sink) from one pass over the stream: the members in
    which u is a sink (no outgoing arcs), and their orbits under the
    automorphisms fixing u, the ones that keep u as its own colour."""
    g._check_vertex(u)
    sinks = (masks for masks in stream_masks(g) if not masks[u])
    stab = canon.generators(g.n, g.adj, [v == u for v in range(g.n)])
    return _orbit_count(g.n, sinks, stab)

