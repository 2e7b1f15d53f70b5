"""All isomorphism classes of n-vertex graphs and the counting sums.

Classes are generated by vertex extension, after McKay's isomorph-free
generation (J. Algorithms 26, 1998): deleting a vertex of minimum degree
from an n-vertex graph leaves an (n-1)-class, so each (n-1)-class
representative gets a new vertex of minimum degree, one neighbourhood
per orbit of its automorphism group, and canonical codes deduplicate
what is left.  aggregate_counts checks the labeled-count identity
sum over classes of n!/|Aut| = 2^C(n,2) on every run, which guards the
generation end to end: a missed or repeated class raises.
"""

import time
from math import factorial

from . import canon, enumeration, formulas
from .decomposition import tree_counts
from .enumeration import _row_images, fan_out
from .errors import MAX_CLASS_VERTICES, InternalCheckError, check_bound
from .graphs import Graph, is_connected


class ClassEntry:
    """One class: its graph and the generators of Aut(graph) from
    generation, as bytes permutations; aggregate_counts fills in
    aut_order, tau, h and seconds (wall time)."""

    def __init__(self, graph, generators=()):
        self.graph, self.generators = graph, generators
        self.aut_order = self.tau = self.h = self.seconds = None


class IsoClassTable:
    def __init__(self, n, entries):
        self.n, self.entries = n, entries

    def __len__(self):
        return len(self.entries)


def graphs_up_to_iso(n, keep=None, max_vertices=MAX_CLASS_VERTICES):
    """One canonical representative per isomorphism class, sorted by code.

    Each (k-1)-class representative, the base, gets a new vertex joined
    to a neighbourhood mask.  Masks in one orbit of Aut(base) give
    isomorphic graphs, so only the first mask of each orbit is tried,
    and only when the new vertex has minimum degree in the result: any
    k-vertex graph minus a vertex of minimum degree is isomorphic to a
    base, and that isomorphism carries the graph to a candidate whose
    new vertex keeps its degree.  Candidates are canonized as plain
    adjacency lists and deduplicated by code.  The walk that gives a new
    class its code also gives its generators, carried onto the class's
    representative: each entry keeps them, and the next level's bases
    take their orbits from them, so no class is walked twice.

    With keep, generation is restricted to graphs satisfying it.  The
    predicate is applied to one candidate per orbit, so it must be
    isomorphism-invariant and hereditary (closed under deleting a
    vertex), as bipartiteness is, or classes will be missed.
    """
    check_bound(n, max_vertices, "class generation at n={}")
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n == 0:
        return IsoClassTable(0, [ClassEntry(Graph(0, ()))])
    reps = [((0,), ())]
    for k in range(2, n + 1):
        classes = {}  # code -> generators
        for base, gens in reps:
            deg = [row.bit_count() for row in base]
            # a new vertex of degree d has minimum degree iff d <= min(deg) + 1
            # and it is joined to every base vertex of degree below d
            below = [sum(1 << u for u, e in enumerate(deg) if e < d) for d in range(k)]
            top = min(deg) + 1
            images = [_row_images(sigma) for sigma in gens]
            seen = bytearray(1 << (k - 1))
            for mask in range(1 << (k - 1)):
                d = mask.bit_count()
                if seen[mask] or d > top or below[d] & ~mask:
                    continue  # a tried orbit's mask, or one whose whole orbit fails
                seen[mask] = 1
                orbit = [mask]
                for m in orbit:
                    for image in images:
                        m2 = image[m]
                        if not seen[m2]:
                            seen[m2] = 1
                            orbit.append(m2)
                adj = [row | (mask >> u & 1) << (k - 1) for u, row in enumerate(base)]
                adj.append(mask)
                if keep is not None and not keep(Graph(k, adj)):
                    continue
                walk = canon.walk(k, adj)
                if walk.code not in classes:
                    classes[walk.code] = canon.canonical_generators(walk)
        reps = [(canon.decode_graph_code(c)[1], classes[c]) for c in sorted(classes)]
    entries = [ClassEntry(Graph(n, adj), generators=gens) for adj, gens in reps]
    return IsoClassTable(n, entries)


def class_counts(g, gens):
    """(aut_order, tau, h) for one class, with built-in cross-checks.

    One walk of the modular-decomposition tree gives |Aut|, tau and h.
    One pass over the stream gives tau and h again, as its length and
    its number of orbits under gens, generators of Aut(g) as
    graphs_up_to_iso carries them.  A wrong generator maps a member out
    of the stream and a missing one raises h, so both show up here.  A
    disconnected graph is checked through formula_for_graph too, the
    entry count uses, whose union rule searches no component.  Any
    disagreement raises, never resolves silently.  The search admits the
    class's own edge count: MAX_CLASS_VERTICES already bounds its size.
    """
    aut_order, t_tree, h_tree = tree_counts(g)
    stream = enumeration.stream_masks(g, g.edge_count)
    t, h = enumeration._orbit_count(g.n, stream, gens)
    if (t_tree, h_tree) != (t, h):
        raise InternalCheckError(
            f"class counts disagree on {g!r}: "
            f"tree=({t_tree},{h_tree}) stream=({t},{h})"
        )
    if not is_connected(g):
        by_parts = formulas.formula_for_graph(g)
        if (by_parts.tau, by_parts.h) != (t, h):
            raise InternalCheckError(
                f"component rule disagrees on {g!r}: "
                f"parts=({by_parts.tau},{by_parts.h}) direct=({t},{h})"
            )
    return aut_order, t, h


def _class_task(entry):
    """((aut_order, tau, h), seconds) for one class entry."""
    t0 = time.perf_counter()
    counts = class_counts(entry.graph, entry.generators)
    return counts, time.perf_counter() - t0


def aggregate_counts(n, workers=1):
    """(tau_n, h_n, table) summed over all isomorphism classes.

    tau_n weights each class by its number of labelings n!/|Aut|, which
    must sum to 2^C(n,2); h_n is the plain sum of class counts.  Each
    table entry gets its class's aut_order, tau, h and seconds (wall time).
    """
    if n < 1:
        raise ValueError("aggregate_counts needs n >= 1")
    table = graphs_up_to_iso(n)
    # heaviest classes first, so that with several workers the dense ones
    # start early instead of setting the makespan at the end
    entries = sorted(table.entries, key=lambda e: -e.graph.edge_count)
    results = fan_out(_class_task, entries, workers)
    for entry, result in zip(entries, results, strict=True):
        (entry.aut_order, entry.tau, entry.h), entry.seconds = result
    copies = [labeled_copies(n, e.aut_order) for e in table.entries]
    if sum(copies) != 2 ** (n * (n - 1) // 2):
        raise InternalCheckError(
            f"labeled copies of the {len(table)} classes sum to {sum(copies)}, "
            f"not 2^C({n},2)"
        )
    tau_n = sum(c * e.tau for c, e in zip(copies, table.entries))
    h_n = sum(e.h for e in table.entries)
    return tau_n, h_n, table


def labeled_copies(n, aut_order):
    """Number of labeled graphs on n vertices in a class with that group."""
    return factorial(n) // aut_order
