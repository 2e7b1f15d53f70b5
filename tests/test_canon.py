import hashlib
import itertools
import random
from math import factorial

import pytest

from graphtop import (
    Graph,
    automorphism_group,
    canon,
    canonical_code,
    canonical_code_digraph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    graphs_up_to_iso,
    null_graph,
    path_graph,
)
from graphtop.canon import (
    conjugacy_classes,
    decode_graph_code,
    digraph_code,
    graph_code,
)
from graphtop.enumeration import enumerate_transitive_digraphs, stream_masks
from graphtop.errors import SizeBoundExceeded
from graphtop.graphs import rooted_code
from graphtop.topology import Digraph, is_transitive

from conftest import (
    brute_automorphisms,
    brute_digraph_isomorphic,
    conjugate,
    dimino_closure,
    one_color_seed,
    paw,
    random_graph,
    relabel_graph,
    sorted_signature_refine,
    star,
    symmetric_examples,
    twin_blow_up,
)


def test_automorphism_orders():
    assert len(automorphism_group(complete_graph(3))) == 6
    assert len(automorphism_group(cycle_graph(4))) == 8  # brute force: 8 of 24
    assert len(automorphism_group(path_graph(2))) == 2  # brute force: 2 of 6


@pytest.mark.parametrize(
    "g",
    [
        complete_graph(3),
        cycle_graph(4),
        cycle_graph(5),
        path_graph(2),
        path_graph(4),
        star(3),
        paw(),
    ],
)
def test_automorphisms_match_brute_force(g):
    assert automorphism_group(g) == sorted(brute_automorphisms(g))


def _first_leaf_cells(n, adj, seed):
    """The cells of the walk's first leaf: refine, and split the first
    point of the first non-singleton cell off, until the cells are
    discrete or homogeneous."""
    cells = canon._refine(n, adj, None, canon._seed(seed, adj))
    while len(cells) < n and not canon._homogeneous(cells, adj):
        t = next(t for t, cell in enumerate(cells) if cell & cell - 1)
        v = cells[t] & -cells[t]
        cells = canon._refine(n, adj, None, cells[:t] + [v, cells[t] ^ v] + cells[t + 1 :])
    return cells


def test_generators_close_to_the_listing_and_the_orbits_multiply_to_its_order():
    """On every class with n <= 6, unseeded and with each vertex as its
    own colour: the listing is the brute-force group, or the stabiliser
    of the seeded vertex in it; the generators and the strong generating
    set each close to exactly the listing; both start with the walk's
    own, which are strong less one transposition per point past the first
    of each homogeneous cell of the first leaf, and the generators add at
    most two to them per such cell; and the orbit sizes along the base
    multiply to the listing's length.  K_n and N_n, one homogeneous cell,
    take a transposition and an n-cycle."""
    checked = 0
    for n in range(1, 7):
        for entry in graphs_up_to_iso(n).entries:
            g = entry.graph
            brute = sorted(brute_automorphisms(g))
            for root in [None, *range(n)]:
                seed = None if root is None else [v == root for v in range(n)]
                group = canon.automorphisms(n, g.adj, seed)
                assert group == [s for s in brute if root is None or s[root] == root]
                gens = canon.generators(n, g.adj, seed)
                walk = canon.walk(n, g.adj, seed)
                assert walk.generators == gens
                cells = _first_leaf_cells(n, g.adj, seed)
                homogeneous = [cell for cell in cells if cell & cell - 1]
                own = len(walk.strong) - sum(c.bit_count() - 1 for c in homogeneous)
                assert gens[:own] == walk.strong[:own]
                assert len(gens) <= own + 2 * len(homogeneous)
                assert dimino_closure(gens, n) == set(group)
                assert dimino_closure(walk.strong, n) == set(group)
                assert canon.aut_order(walk) == len(group)
                checked += 1
    assert checked == sum(
        (n + 1) * len(graphs_up_to_iso(n).entries) for n in range(1, 7)
    )
    for n in range(3, 9):
        for g in (complete_graph(n), null_graph(n)):
            gens = canon.generators(n, g.adj)
            assert sorted(sum(s[v] != v for v in range(n)) for s in gens) == [2, n]
            assert canon.aut_order(canon.walk(n, g.adj)) == factorial(n)


def test_bits_on_each_side_of_the_table():
    """_bits answers masks below 2^10 from its table and larger ones by
    its loop: both list the set bits, ascending."""
    rng = random.Random(36)
    masks = [0, 1, 2**10 - 1, 2**10, 2**10 + 1, 2**16 - 1, 2**70 + 5, *range(2**11)]
    for width in range(1, 81):
        masks += [rng.getrandbits(width) | 1 << (width - 1) for _ in range(20)]
    for m in masks:
        assert list(canon._bits(m)) == [v for v in range(m.bit_length()) if m >> v & 1]


def test_automorphism_group_axioms():
    rng = random.Random(7)
    graphs = [e.graph for n in range(1, 6) for e in graphs_up_to_iso(n).entries]
    for _ in range(5):
        n = 6
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        graphs.append(Graph.from_edges(n, edges))
    fact = [1, 1, 2, 6, 24, 120, 720]
    for g in graphs:
        auts = automorphism_group(g)
        identity = tuple(range(g.n))
        assert identity in auts
        assert fact[g.n] % len(auts) == 0
        aut_set = set(auts)
        for sigma in auts:
            inverse = [0] * g.n
            for x in range(g.n):
                inverse[sigma[x]] = x
            assert tuple(inverse) in aut_set
            for pi in auts:
                assert tuple(pi[sigma[x]] for x in range(g.n)) in aut_set
            for u, v in g.edges():
                assert g.has_edge(sigma[u], sigma[v])


@pytest.mark.parametrize("g", symmetric_examples())
def test_conjugacy_classes_partition_the_group(g):
    group = automorphism_group(g)
    classes = conjugacy_classes(group)
    reps = [rep for rep, _ in classes]
    assert set(reps) <= set(group)
    assert reps == sorted(reps, key=group.index)  # in group order
    covered = set()
    for rep, size in classes:
        assert len(group) % size == 0
        members = {conjugate(rep, t) for t in group}
        assert len(members) == size
        assert not members & covered
        covered |= members
    assert covered == set(group)
    assert sum(size for _, size in classes) == len(group)


def test_code_invariant_under_relabeling():
    rng = random.Random(11)
    for n in range(1, 7):
        for entry in graphs_up_to_iso(n).entries:
            g = entry.graph
            code = canonical_code(g)
            for _ in range(4):
                perm = list(range(n))
                rng.shuffle(perm)
                assert canonical_code(relabel_graph(g, perm)) == code


def test_codes_separate_classes_exhaustively():
    # all 64 labeled graphs on 4 vertices: code-partition == brute iso-partition
    pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    by_code = {}
    for picks in itertools.product((0, 1), repeat=6):
        g = Graph.from_edges(4, [e for e, p in zip(pairs, picks) if p])
        by_code.setdefault(canonical_code(g), []).append(g)
    assert len(by_code) == 11
    reps = [graphs[0] for graphs in by_code.values()]
    for i, a in enumerate(reps):
        for b in reps[i + 1 :]:
            edges_b = set(b.edges())
            assert all(
                {tuple(sorted((p[u], p[v]))) for u, v in a.edges()} != edges_b
                for p in itertools.permutations(range(4))
            )


def test_code_examples():
    relabeled_c4 = Graph.from_edges(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
    assert canonical_code(relabeled_c4) == canonical_code(cycle_graph(4))
    assert canonical_code(complete_graph(3)) != canonical_code(path_graph(2))
    two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert canonical_code(two_k2) != canonical_code(path_graph(3))


def test_decode_is_canonical_representative():
    for n in range(1, 7):
        for entry in graphs_up_to_iso(n).entries:
            code = canonical_code(entry.graph)
            size, masks = decode_graph_code(code)
            assert graph_code(size, masks) == code


def test_digraph_codes_match_brute_classes():
    # the 13 transitive digraphs over a triangle fall into 4 classes
    digraphs = list(enumerate_transitive_digraphs(complete_graph(3)))
    by_code = {}
    for d in digraphs:
        by_code.setdefault(canonical_code_digraph(d), []).append(d)
    assert sorted(len(v) for v in by_code.values()) == [1, 3, 3, 6]
    reps = [v[0] for v in by_code.values()]
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            same = brute_digraph_isomorphic(3, a.arcs(), b.arcs())
            assert same == (i == j)
    for members in by_code.values():
        for d in members[1:]:
            assert brute_digraph_isomorphic(3, members[0].arcs(), d.arcs())


def test_rooted_codes():
    k3 = complete_graph(3)
    assert rooted_code(k3, 0) == rooted_code(k3, 1)
    p2 = path_graph(2)
    assert rooted_code(p2, 0) == rooted_code(p2, 2)
    assert rooted_code(p2, 0) != rooted_code(p2, 1)
    s = star(3)
    assert rooted_code(s, 0) != rooted_code(s, 1)
    assert rooted_code(s, 1) == rooted_code(s, 3)


def test_size_bound():
    with pytest.raises(SizeBoundExceeded):
        canonical_code(Graph(17, [0] * 17))
    with pytest.raises(SizeBoundExceeded):
        automorphism_group(Graph(17, [0] * 17))


def _copies(g, k):
    union = g
    for _ in range(k - 1):
        union = disjoint_union(union, g)
    return union


def _complement(g):
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    return Graph.from_edges(g.n, [(u, v) for u, v in pairs if not g.has_edge(u, v)])


def _unions():
    """(graph, |Aut|): k copies of a connected H have |Aut(H)|^k k!
    automorphisms, and a complement has the same group."""
    for k in (6, 7, 8):
        g = _copies(complete_graph(2), k)
        yield pytest.param(g, 2**k * factorial(k), id=f"{k}K2")
        yield pytest.param(_complement(g), 2**k * factorial(k), id=f"co-{k}K2")
    yield pytest.param(_copies(cycle_graph(4), 4), 8**4 * factorial(4), id="4C4")
    yield pytest.param(_copies(cycle_graph(3), 5), 6**5 * factorial(5), id="5C3")


@pytest.mark.parametrize("g, order", _unions())
def test_symmetric_unions_take_few_leaves(monkeypatch, g, order):
    """The walk prunes by the automorphisms it finds, so it visits at most
    n leaves here; without pruning it visits about |Aut| of them (23,040
    on six copies of K2).  The code is canonical, the generators are
    automorphisms, and |Aut| is the product of the orbits along the base."""
    leaves = 0
    encode = canon._encode_undirected

    def counted(*args):
        nonlocal leaves
        leaves += 1
        return encode(*args)

    monkeypatch.setattr(canon, "_encode_undirected", counted)
    code = graph_code(g.n, g.adj)
    assert leaves <= g.n
    monkeypatch.undo()
    rng = random.Random(g.n)
    for _ in range(3):
        assert graph_code(g.n, _relabel_masks(g.adj, _shuffled(rng, g.n))) == code
    walk = canon.walk(g.n, g.adj)
    assert all(_relabel_masks(g.adj, s) == list(g.adj) for s in walk.generators + walk.strong)
    assert canon.aut_order(walk) == order


def test_automorphisms_refuses_eight_copies_of_k2_before_building_an_element(
    monkeypatch,
):
    """|Aut| = 2^8 8! is past MAX_AUT_ORDER, and the orbit sizes show it:
    no transversal is read, so no element is built."""

    class Unread(dict):
        def items(self):
            raise AssertionError("an element was built")

    orbits = canon._orbits
    monkeypatch.setattr(canon, "_orbits", lambda *a: list(map(Unread, orbits(*a))))
    g = _copies(complete_graph(2), 8)
    with pytest.raises(SizeBoundExceeded, match=r"\|Aut\|=10321920 is over the bound of 362880$"):
        canon.automorphisms(g.n, g.adj)


# Randomized relabeling at n = 7..16.  Random graphs are mostly rigid, so
# refinement alone splits them; the twin blow-ups and circulants keep
# non-singleton cells, which exercises individualization and the
# _homogeneous shortcut.


def _relabel_masks(masks, perm):
    out = [0] * len(masks)
    for u, row in enumerate(masks):
        for v in range(len(masks)):
            if row >> v & 1:
                out[perm[u]] |= 1 << perm[v]
    return out


def _circulant(rng, n):
    """C_n(1, k): vertex-transitive, so refinement cannot split it."""
    k = rng.randint(2, n // 2)
    return Graph.from_edges(
        n, {tuple(sorted((v, (v + s) % n))) for v in range(n) for s in (1, k)}
    )


def _random_transitive(rng, n):
    """A random preorder minus its diagonal: blocks of mutual arcs, and a
    random strict order between the blocks, closed under transitivity."""
    block = [rng.randrange(max(1, n // 2)) for _ in range(n)]
    nblocks = max(block) + 1
    above = [0] * nblocks  # above[a]: the blocks strictly above block a
    for a in range(nblocks):
        for b in range(a + 1, nblocks):
            if rng.random() < 0.3:
                above[a] |= 1 << b
    for a in reversed(range(nblocks)):
        for b in range(a + 1, nblocks):
            if above[a] >> b & 1:
                above[a] |= above[b]
    return [
        sum(
            1 << v
            for v in range(n)
            if v != u and (block[v] == block[u] or above[block[u]] >> block[v] & 1)
        )
        for u in range(n)
    ]


def _shuffled(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _by_order(masks, order):
    """masks relabelled by a walk's order: vertex order[i] becomes i."""
    pos = [0] * len(order)
    for i, v in enumerate(order):
        pos[v] = i
    return _relabel_masks(masks, pos)


def _decode_digraph_code(code):
    """The out-masks behind a digraph code: row i's bits at j != i, read
    from the top, as canon._encode_directed writes them."""
    n, bits = code
    out = [0] * n
    k = n * (n - 1)
    for i in range(n):
        for j in range(n):
            if j != i:
                k -= 1
                out[i] |= (bits >> k & 1) << j
    return out


def test_the_order_maps_the_input_onto_the_canonical_form(monkeypatch):
    """Relabelling the input by a walk's order, vertex order[i] to i,
    gives the adjacency behind its code: on every class with n <= 6
    under three seeded relabellings, each unseeded and with random seed
    colours, on the graphs with n = 7..16 and their relabellings, and on
    the walk behind digraph_code for every stream member of every class
    with n <= 5, relabelled, and the digraphs with n = 7..16.  At n <= 6
    the first leaf always gives the least code; only the larger graphs
    tell the best leaf's order from the first leaf's."""
    rng = random.Random(37)
    graphs = 0
    for n in range(1, 7):
        for entry in graphs_up_to_iso(n).entries:
            for _ in range(3):
                adj = _relabel_masks(entry.graph.adj, _shuffled(rng, n))
                for seed in (None, [rng.randrange(3) for _ in range(n)]):
                    walk = canon.walk(n, adj, seed)
                    assert walk.code == graph_code(n, adj, seed)
                    assert _by_order(adj, walk.order) == list(decode_graph_code(walk.code)[1])
                    graphs += 1
    for make, g, perms in _large_graphs():
        for adj in [list(g.adj)] + [_relabel_masks(g.adj, perm) for perm in perms]:
            walk = canon.walk(g.n, adj)
            assert _by_order(adj, walk.order) == list(decode_graph_code(walk.code)[1]), make
            graphs += 1
    assert graphs == 6 * (1 + 2 + 4 + 11 + 34 + 156) + 4 * 30
    classes = [e.graph for n in range(1, 6) for e in graphs_up_to_iso(n).entries]
    digraphs = [list(stream_masks(g)) for g in classes]
    for _, out, perms in _large_digraphs():
        digraphs.append([out] + [_relabel_masks(out, perm) for perm in perms])
    walks = []
    search = canon._search

    def kept(*args):
        walks.append(search(*args))
        return walks[-1]

    monkeypatch.setattr(canon, "_search", kept)  # digraph_code returns only the code
    checked = 0
    for group in digraphs:
        for masks in group:
            n = len(masks)
            out = _relabel_masks(masks, _shuffled(rng, n))
            code = digraph_code(n, out)
            (walk,) = walks
            walks.clear()
            assert walk.code == code
            assert _by_order(out, walk.order) == _decode_digraph_code(code)
            checked += 1
    assert checked == 1 + 4 + 19 + 123 + 881 + 4 * 20  # the streams, then 20 digraphs


def _large_graphs():
    """(family, graph, three relabelings) for n = 7..16, from one seed."""
    rng = random.Random(2012)
    for n in range(7, 17):
        for make in (random_graph, twin_blow_up, _circulant):
            g = make(rng, n)
            yield make, g, [_shuffled(rng, n) for _ in range(3)]


def _large_digraphs():
    """(family, out masks, three relabelings) for n = 7..16, from one seed."""
    rng = random.Random(2013)
    for n in range(7, 17):
        loop_free = [
            sum(1 << v for v in range(n) if v != u and rng.random() < 0.3)
            for u in range(n)
        ]
        transitive = _random_transitive(rng, n)
        for family, out in (("loop-free", loop_free), ("transitive", transitive)):
            yield family, out, [_shuffled(rng, n) for _ in range(3)]


def test_graph_code_invariant_under_random_relabeling_large_n():
    for make, g, perms in _large_graphs():
        code = canonical_code(g)
        assert canonical_code(Graph(*decode_graph_code(code))) == code
        for perm in perms:
            assert graph_code(g.n, _relabel_masks(g.adj, perm)) == code, (make, g.n)


def test_digraph_code_invariant_under_random_relabeling_large_n():
    for family, out, perms in _large_digraphs():
        n = len(out)
        if family == "transitive":
            assert is_transitive(Digraph(n, out))
        code = digraph_code(n, out)
        for perm in perms:
            assert digraph_code(n, _relabel_masks(out, perm)) == code, n


# The refinement counts neighbours per cell by popcount (canon._key) and
# must give exactly the color ids of textbook refinement, which ranks
# sorted neighbour-color tuples: class order, and so every aggregate
# byte, depends on the code values, not only on the partitions.


def test_count_keys_sort_like_sorted_color_tuples():
    for n in range(1, 8):
        top = -2 * n - 1
        for ncells in range(1, 5):
            # cells of n - 1 vertices each, so any count up to n - 1 fits
            masks = [((1 << n - 1) - 1) << (i * (n - 1)) for i in range(ncells)]
            vectors = [
                vec
                for vec in itertools.product(range(n), repeat=ncells)
                if sum(vec) <= n - 1
            ]

            def key(vec):
                row = sum(((1 << c) - 1) << (i * (n - 1)) for i, c in enumerate(vec))
                return canon._key(row, masks, top)

            def colors(vec):
                return tuple(i for i, c in enumerate(vec) for _ in range(c))

            assert len({key(vec) for vec in vectors}) == len(vectors)
            assert sorted(vectors, key=key) == sorted(vectors, key=colors)


def _cells_of(colors):
    """The color classes of colors as vertex masks, in color order."""
    cells = {}
    for v, c in enumerate(colors):
        cells[c] = cells.get(c, 0) | 1 << v
    return [cells[c] for c in sorted(cells)]


def _colors_of(n, cells):
    colors = [0] * n
    for c, cell in enumerate(cells):
        for v in range(n):
            if cell >> v & 1:
                colors[v] = c
    return colors


def _oracle_partition(n, out, inn, seed):
    colors = sorted_signature_refine(n, out, inn, one_color_seed(seed, out, inn))
    return _cells_of(colors)


def _with_oracle(monkeypatch, fn, *args):
    """fn(*args) under the sorted-signature refinement, from one color.

    canon passes partitions as cell masks and the oracle works on color
    lists, so the two patched functions convert at the boundary."""

    def refine(n, out, inn, cells):
        return _cells_of(sorted_signature_refine(n, out, inn, _colors_of(n, cells)))

    def seed(seed_colors, out, inn=None):
        return _cells_of(one_color_seed(seed_colors, out, inn))

    monkeypatch.setattr(canon, "_refine", refine)
    monkeypatch.setattr(canon, "_seed", seed)
    try:
        return fn(*args)
    finally:
        monkeypatch.undo()


def _oracle_seeds(n):
    seeds = [None, [v % 3 for v in range(n)]]
    return seeds + [[v == root for v in range(n)] for root in range(n)]


def test_partitions_match_the_sorted_signature_oracle():
    # the partition itself, not only the codes built on it
    checked = 0
    for n in range(1, 7):
        for entry in graphs_up_to_iso(n).entries:
            adj = list(entry.graph.adj)
            for seed in _oracle_seeds(n):
                got = canon._refine(n, adj, None, canon._seed(seed, adj))
                assert got == _oracle_partition(n, adj, None, seed), (adj, seed)
                checked += 1
            for masks in stream_masks(entry.graph):
                out = list(masks)
                inn = [sum(1 << u for u in range(n) if out[u] >> v & 1) for v in range(n)]
                got = canon._refine(n, out, inn, canon._seed(None, out, inn))
                assert got == _oracle_partition(n, out, inn, None), out
                checked += 1
    assert checked == sum(
        (n + 2) * len(graphs_up_to_iso(n).entries) for n in range(1, 7)
    ) + 8653  # the sum of tau over the classes with n <= 6


def test_code_values_are_frozen():
    # the oracle tests share canon's individualization, so they cannot
    # see a change of code values that keeps codes canonical; class
    # order, and so every aggregate byte, follows those values
    codes = []
    for n in range(1, 7):
        for entry in graphs_up_to_iso(n).entries:
            adj = list(entry.graph.adj)
            codes += [graph_code(n, adj, seed) for seed in _oracle_seeds(n)]
            if n <= 5:
                codes += [digraph_code(n, list(m)) for m in stream_masks(entry.graph)]
    digest = hashlib.sha256(repr(sorted(codes)).encode()).hexdigest()
    assert (len(codes), digest) == (
        2611,
        "1d32c48ddaf0c83404f642ed50a06050ae46ef1cf252695a64889522ea2292f8",
    )


def test_graph_codes_and_groups_match_the_sorted_signature_oracle(monkeypatch):
    checked = 0
    for n in range(1, 7):
        for entry in graphs_up_to_iso(n).entries:
            adj = entry.graph.adj
            for seed in _oracle_seeds(n):
                for fn in (graph_code, canon.automorphisms):
                    want = _with_oracle(monkeypatch, fn, n, adj, seed)
                    assert fn(n, adj, seed) == want, (fn.__name__, adj, seed)
                    checked += 1
    assert checked == 2 * sum(
        (n + 2) * len(graphs_up_to_iso(n).entries) for n in range(1, 7)
    )


def test_digraph_codes_match_the_sorted_signature_oracle_on_every_leaf(monkeypatch):
    leaves = 0
    for n in range(1, 6):
        for entry in graphs_up_to_iso(n).entries:
            for masks in stream_masks(entry.graph):
                want = _with_oracle(monkeypatch, digraph_code, n, list(masks))
                assert digraph_code(n, list(masks)) == want, masks
                leaves += 1
    assert leaves == 1 + 4 + 19 + 123 + 881  # the sum of tau over the classes


def test_codes_match_the_sorted_signature_oracle_large_n(monkeypatch):
    for make, g, perms in _large_graphs():
        for adj in [g.adj] + [_relabel_masks(g.adj, perm) for perm in perms]:
            want = _with_oracle(monkeypatch, graph_code, g.n, adj)
            assert graph_code(g.n, adj) == want, (make, g.n)
    for family, out, perms in _large_digraphs():
        n = len(out)
        for masks in [out] + [_relabel_masks(out, perm) for perm in perms]:
            want = _with_oracle(monkeypatch, digraph_code, n, masks)
            assert digraph_code(n, masks) == want, (family, n)
