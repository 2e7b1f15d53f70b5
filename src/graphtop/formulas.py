"""Closed-form counting rules, each guarded by its exact hypotheses.

Every rule returns a FormulaResult; a count of None means the rule's
hypotheses do not cover the input (not-applicable), which is distinct
from a genuine count of zero.  All arithmetic is exact.
"""

from math import comb

from .decomposition import stirling_row, tree_counts
from .enumeration import sink_counts
from .errors import MAX_COMPLETE_N, NotConnected, check_bound
from .graphs import (
    Record,
    canonical_code,
    components,
    components_of,
    has_triangle,
    induced_subgraph,
    is_bipartite,
    is_connected,
    is_cut_vertex,
    is_reflexible,
    rooted_code,
)


class FormulaResult(Record):
    """Counts from one closed form, (tau, h, theorem); None marks
    not-applicable."""

    __slots__ = ("tau", "h", "theorem")

    def as_json_dict(self):
        def show(x):
            return "not-applicable" if x is None else x

        return {"tau": show(self.tau), "h": show(self.h), "theorem": self.theorem}


def complete_counts(n):
    """Counts over the complete graph: ordered set partitions, compositions."""
    check_bound(n, MAX_COMPLETE_N, "complete_counts of K{}")
    if n < 1:
        raise ValueError(f"complete_counts needs n >= 1, got {n}")
    fact = 1
    total = 0
    for k, s in enumerate(stirling_row(n)):
        total += s * fact
        fact *= k + 1
    return FormulaResult(total, 2 ** (n - 1), "complete")


def cycle_counts(n):
    if n < 3:
        raise ValueError(f"cycle_counts needs n >= 3, got {n}")
    if n == 3:
        return FormulaResult(13, 4, "cycle")
    if n % 2:
        return FormulaResult(0, 0, "cycle")
    return FormulaResult(2, 1, "cycle")


def wheel_counts(n):
    """Counts for the wheel on n vertices (hub joined to an (n-1)-cycle).

    Caution on n=5: the circulating case table gives (8, 4) there (the
    table itself is not in this repository), but the count is (6, 3).
    W5 is hub 0 joined to the rim 4-cycle 1-2-3-4.  On the rim, a doubled
    edge or a directed 2-path would need an arc between non-adjacent rim
    vertices, so the rim has exactly 2 alternating orientations.  In each,
    the hub sits above all four rim vertices, below all of them, or
    between the two sources and the two sinks; a fourth placement would
    force a doubled rim edge.  That gives 2 * 3 = 6 digraphs, and a
    rotation by one swaps the two rim orientations, leaving 3 classes.
    Direct enumeration over all 3^8 edge states, Burnside averaging over
    the dihedral symmetries, and a sweep of all 6942 preorders on five
    points agree; the verified values are returned.
    """
    if n < 4:
        raise ValueError(f"wheel_counts needs n >= 4, got {n}")
    if n == 4:
        return FormulaResult(75, 8, "wheel")
    if n == 5:
        return FormulaResult(6, 3, "wheel")
    if n % 2 == 0:
        return FormulaResult(0, 0, "wheel")
    return FormulaResult(4, 2, "wheel")


def bipartite_counts(g):
    """Counts for connected triangle-free graphs.

    Inputs containing a triangle are outside the rule's scope and get
    not-applicable.
    """
    if g.n < 2:
        raise ValueError("bipartite_counts needs at least 2 vertices")
    if not is_connected(g):
        raise NotConnected("bipartite_counts needs a connected graph")
    if has_triangle(g):
        return FormulaResult(None, None, "bipartite")
    if not is_bipartite(g):
        return FormulaResult(0, 0, "bipartite")
    if g.n == 2:
        return FormulaResult(3, 2, "bipartite")
    return FormulaResult(2, 1 if is_reflexible(g) else 2, "bipartite")


def union_counts(parts):
    """Counts for a disjoint union of connected parts with multiplicities.

    parts is a list of (graph, multiplicity); isomorphic parts are merged,
    their multiplicities added.  Parts are grouped by vertex count and
    sorted degrees; on four vertices or fewer that key fixes a connected
    graph, and on five or more a group of two parts or more is split by
    canonical code.  A part's counts come from connected_counts, else
    from tree_counts: no part is searched.  m copies of a part with h
    classes give C(h + m - 1, m) multisets of classes, 0 when h = 0.
    """
    if not parts:
        raise ValueError("union_counts needs at least one part")
    groups = {}  # (n, sorted degrees) -> [(graph, multiplicity), ...]
    for g, mult in parts:
        if mult < 1:
            raise ValueError("part multiplicity must be >= 1")
        if not is_connected(g):
            raise NotConnected("union parts must be connected")
        key = g.n, tuple(sorted(row.bit_count() for row in g.adj))
        groups.setdefault(key, []).append((g, mult))
    merged = []  # [graph, multiplicity] per class
    for (n, _), group in groups.items():
        by_code = {}
        for g, mult in group:
            code = canonical_code(g) if n > 4 and len(group) > 1 else None
            by_code.setdefault(code, [g, 0])[1] += mult
        merged += by_code.values()
    tau_total = h_total = 1
    for g, mult in merged:
        closed = connected_counts(g)
        t, h = (closed.tau, closed.h) if closed else tree_counts(g)[1:]
        tau_total *= t**mult
        h_total *= comb(h + mult - 1, mult)
    return FormulaResult(tau_total, h_total, "disjoint-union")


def product_counts(g, h):
    """Counts for a box product of nontrivial connected factors.

    Zero as soon as one factor is non-bipartite; otherwise two digraphs,
    one class when either factor is reflexible.  Disconnected bipartite
    factors fall outside the rule (the bipartite case relies on the
    product being connected) and get not-applicable.
    """
    if g.n < 2 or h.n < 2:
        raise ValueError("product factors must be nontrivial (>= 2 vertices)")
    if not (is_bipartite(g) and is_bipartite(h)):
        return FormulaResult(0, 0, "cartesian-product")
    if not (is_connected(g) and is_connected(h)):
        return FormulaResult(None, None, "cartesian-product")
    one_class = is_reflexible(g) or is_reflexible(h)
    return FormulaResult(2, 1 if one_class else 2, "cartesian-product")


def amalgam_counts(g, u, h, v):
    """Counts for the graph glued from g and h at u = v.

    The class count additionally needs both parts cut-vertex-free; when a
    part has a cut vertex the h field is not-applicable.
    """
    if not is_connected(g) or not is_connected(h):
        raise NotConnected("amalgam parts must be connected")
    ts_g, hs_g = sink_counts(g, u)
    ts_h, hs_h = sink_counts(h, v)
    t = 2 * ts_g * ts_h
    if any(is_cut_vertex(g, w) for w in range(g.n)) or any(
        is_cut_vertex(h, w) for w in range(h.n)
    ):
        return FormulaResult(t, None, "amalgamation")
    if rooted_code(g, u) == rooted_code(h, v):
        hh = (hs_g + 1) * hs_g
    else:
        hh = 2 * hs_g * hs_h
    return FormulaResult(t, hh, "amalgamation")


def connected_counts(g):
    """Complete, cycle, wheel or triangle-free counts for connected g, or None.

    The named graphs are told apart by degrees alone: a connected graph
    is K_n iff it has n(n-1)/2 edges, C_n iff it is 2-regular, and W_n
    iff one vertex has degree n-1 and deleting it leaves a connected
    2-regular graph, so every other vertex has degree 3 (W4 = K4 is
    caught as complete).
    """
    n = g.n
    deg = [row.bit_count() for row in g.adj]
    if n <= MAX_COMPLETE_N and sum(deg) == n * (n - 1):
        return complete_counts(n)
    if n >= 3 and deg == [2] * n:
        return cycle_counts(n)
    if n >= 4 and sorted(deg) == [3] * (n - 1) + [n - 1]:
        rim = (1 << n) - 1 & ~(1 << deg.index(n - 1))
        if len(components_of(g.adj, rim)) == 1:
            return wheel_counts(n)
    if n >= 2 and not has_triangle(g):
        return bipartite_counts(g)
    return None


def formula_for_graph(g):
    """The first closed form whose hypotheses cover g, or None.

    The union rule over g's components, each passed once, if g is
    disconnected, else connected_counts.
    """
    if g.n == 0:
        return None
    if not is_connected(g):
        return union_counts([(induced_subgraph(g, c), 1) for c in components(g)])
    return connected_counts(g)


def cut_vertex_counts(g, v):
    """Counts for a graph split by a cut vertex.

    The class count holds only when v is the unique cut vertex; otherwise
    the h field is not-applicable.
    """
    if not is_cut_vertex(g, v):
        raise ValueError(f"vertex {v} is not a cut vertex")
    ts, hs = sink_counts(g, v)
    unique = all(w == v or not is_cut_vertex(g, w) for w in range(g.n))
    hh = 2 * hs if unique else None
    return FormulaResult(2 * ts, hh, "cut-vertex")
