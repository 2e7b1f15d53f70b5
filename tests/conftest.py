"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the package's search engine and
canonical-form machinery: digraphs are generated by iterating all 3^m
edge states, transitivity is the naive triple loop, and isomorphism is
checked by trying every permutation.  Small n only.  The one exception
is all_masks_classes, which dedups by canonical code: it checks the
class generator's orbit and degree rules, not canon.
"""

import contextlib
import itertools
import signal

import pytest

from graphtop import (
    Graph,
    canonical_code,
    cartesian_product,
    complete_graph,
    cycle_graph,
    wheel_graph,
)
from graphtop import enumeration
from graphtop.canon import decode_graph_code
# the named example graphs are verify's own, shared with the tests
from graphtop.verify import bowtie, paw, star


def naive_transitive(arcs):
    arcs = set(arcs)
    for a, b in arcs:
        for c, d in arcs:
            if b == c and a != d and (a, d) not in arcs:
                return False
    return True


def brute_transitive_digraphs(g):
    """All transitive orientations-with-doubling of g, as arc frozensets."""
    edges = g.edges()
    found = []
    for states in itertools.product((1, 2, 3), repeat=len(edges)):
        arcs = set()
        for (u, v), s in zip(edges, states):
            if s & 1:
                arcs.add((u, v))
            if s & 2:
                arcs.add((v, u))
        if naive_transitive(arcs):
            found.append(frozenset(arcs))
    return found


def all_masks_classes(n, keep=None):
    """Class representatives, sorted by code, the exhaustive way: every
    (k-1)-class representative gets a new vertex with each of the 2^(k-1)
    neighbourhoods, and each result is built into a Graph and canonized."""
    if n == 0:
        return [Graph(0, ())]
    reps = [Graph(1, (0,))]
    for k in range(2, n + 1):
        codes = set()
        for base in reps:
            for mask in range(1 << (k - 1)):
                adj = [row | ((mask >> u & 1) << (k - 1)) for u, row in enumerate(base.adj)]
                adj.append(mask)
                cand = Graph(k, adj)
                if keep is not None and not keep(cand):
                    continue
                codes.add(canonical_code(cand))
        reps = [Graph(*decode_graph_code(code)) for code in sorted(codes)]
    return reps


def brute_digraph_isomorphic(n, arcs1, arcs2):
    arcs1, arcs2 = set(arcs1), set(arcs2)
    if len(arcs1) != len(arcs2):
        return False
    for perm in itertools.permutations(range(n)):
        if {(perm[u], perm[v]) for u, v in arcs1} == arcs2:
            return True
    return False


def brute_graph_isomorphic(g, h):
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    e2 = set(h.edges())
    for perm in itertools.permutations(range(g.n)):
        mapped = {tuple(sorted((perm[u], perm[v]))) for u, v in g.edges()}
        if mapped == e2:
            return True
    return False


def brute_automorphisms(g):
    """Every adjacency-preserving permutation, found by trying all n!."""
    edges = set(g.edges())
    auts = []
    for perm in itertools.permutations(range(g.n)):
        mapped = {tuple(sorted((perm[u], perm[v]))) for u, v in edges}
        if mapped == edges:
            auts.append(perm)
    return auts


def dimino_closure(gens, n):
    """The set of permutations of range(n) that gens generate.

    The generated group grows by right cosets of the one before it
    (Dimino's algorithm).  With (r*s)[v] = r[s[v]], the coset of rep r
    times a generator s is the coset of r*s, so the cosets are closed
    under the generators once every rep has met every generator.
    """
    identity = tuple(range(n))
    span = {identity}
    used = []
    for sigma in gens:
        if sigma in span:
            continue
        used.append(sigma)
        before = list(span)
        reps = [identity]
        for r in reps:
            for s in used:
                rs = tuple([r[v] for v in s])
                if rs not in span:
                    reps.append(rs)
                    span.update(tuple([h[v] for v in rs]) for h in before)
    return span


def conjugate(sigma, t):
    """t o sigma o t^-1, built from an explicit inverse of t."""
    inverse = [0] * len(t)
    for v, w in enumerate(t):
        inverse[w] = v
    return tuple(t[sigma[inverse[w]]] for w in range(len(t)))


def relabel_graph(g, perm):
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def symmetric_examples():
    """K4, C6, W5, box(K2,C4) and K3,3: groups with several conjugacy classes."""
    k33 = Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
    return [
        complete_graph(4),
        cycle_graph(6),
        wheel_graph(5),
        cartesian_product(complete_graph(2), cycle_graph(4)),
        k33,
    ]


def random_graph(rng, n):
    """A random graph, each edge drawn with one probability from [0.2, 0.8]."""
    p = rng.uniform(0.2, 0.8)
    return Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def twin_blow_up(rng, n):
    """A random graph with each vertex replaced by a clique or an
    independent set of twins, the part sizes summing to n."""
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(rng.randint(1, 3), n - sum(sizes)))
    start = [sum(sizes[:i]) for i in range(len(sizes))]
    clique = [rng.random() < 0.5 for _ in sizes]
    base = random_graph(rng, len(sizes))
    edges = [
        (start[a] + i, start[b] + j)
        for a, b in base.edges()
        for i in range(sizes[a])
        for j in range(sizes[b])
    ]
    edges += [
        (start[a] + i, start[a] + j)
        for a in range(len(sizes))
        if clique[a]
        for i in range(sizes[a])
        for j in range(i + 1, sizes[a])
    ]
    return Graph.from_edges(n, edges)


def sorted_signature_refine(n, out, inn, colors):
    """Textbook color refinement, the oracle for canon._refine: each round
    ranks (color, sorted out-neighbour colors, sorted in-neighbour colors)
    until the number of colors stops growing."""
    ncolors = len(set(colors))
    while True:
        sigs = []
        for v in range(n):
            out_sig = tuple(sorted(colors[w] for w in range(n) if out[v] >> w & 1))
            if inn is None:
                sigs.append((colors[v], out_sig))
            else:
                in_sig = tuple(sorted(colors[w] for w in range(n) if inn[v] >> w & 1))
                sigs.append((colors[v], out_sig, in_sig))
        rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        colors = [rank[sig] for sig in sigs]
        if len(rank) == ncolors:
            return colors
        ncolors = len(rank)


def one_color_seed(seed_colors, out, inn=None):
    """The oracle's seed: ranks of seed_colors, or one color for all, so
    that the first refinement round is computed rather than assumed."""
    if seed_colors is None:
        return [0] * len(out)
    rank = {c: i for i, c in enumerate(sorted(set(seed_colors)))}
    return [rank[c] for c in seed_colors]


@pytest.fixture
def worker_starts(monkeypatch):
    """The number of workers each fan_out over several workers starts, one
    entry per call.  The workers are real, from the "fork" context."""
    starts = []
    get_context = enumeration.get_context

    class Counted:
        def __init__(self, ctx):
            self.Pipe = ctx.Pipe
            self.ctx = ctx

        def Process(self, **kwargs):
            starts[-1] += 1
            return self.ctx.Process(**kwargs)

    def counted(method):
        assert method == "fork"
        starts.append(0)
        return Counted(get_context(method))

    monkeypatch.setattr(enumeration, "get_context", counted)
    return starts


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once it has run `seconds`, so a
    hang in the worker fan-out fails its test.  A forked worker inherits
    the handler but not the timer."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
