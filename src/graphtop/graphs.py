"""Finite simple graphs on vertex set 0..n-1.

Neighbor sets are stored as one int bitmask per vertex; everything the
package does stays exact and fast at the sizes it targets (n <= 16).
"""

from dataclasses import dataclass

from . import canon
from .canon import _bits
from .errors import (
    EdgeListFormatError,
    InvalidFamilySize,
    NotBipartite,
    NotConnected,
    SizeBoundExceeded,
    VertexOutOfRange,
)


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Graph:
    """Immutable simple graph: no loops, no parallel edges."""

    n: int
    adj: tuple

    def __init__(self, n, adj):
        adj = tuple(adj)
        if n < 0 or len(adj) != n:
            raise ValueError("adjacency length must equal vertex count")
        full = (1 << n) - 1
        transpose = [0] * n
        for u, row in enumerate(adj):
            if row & ~full:
                raise VertexOutOfRange(f"vertex {u} has a neighbor >= {n}")
            if row >> u & 1:
                raise ValueError(f"loop at vertex {u}")
            for v in _bits(row):
                transpose[v] |= 1 << u
        # Asymmetric pairs are the bits of row ^ transpose, a symmetric
        # matrix, so the first nonzero row u has only bits v > u and its
        # lowest bit names the lexicographically first asymmetric pair.
        for u, row in enumerate(adj):
            diff = row ^ transpose[u]
            if diff:
                v = (diff & -diff).bit_length() - 1
                raise ValueError(f"adjacency not symmetric at {{{u},{v}}}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)

    def __reduce__(self):  # pickled and copied through __init__
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    @classmethod
    def from_edges(cls, n, edges):
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRange(f"edge ({u},{v}) outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, adj)

    def edges(self):
        """Edge list as (u, v) pairs with u < v, lexicographic."""
        return [
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if self.adj[u] >> v & 1
        ]

    @property
    def edge_count(self):
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u, v):
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def degree(self, u):
        self._check_vertex(u)
        return self.adj[u].bit_count()

    def _check_vertex(self, u):
        if not (0 <= u < self.n):
            raise VertexOutOfRange(f"vertex {u} outside 0..{self.n - 1}")

    def __repr__(self):
        return f"Graph({self.n}, edges={self.edges()})"


# ---------------------------------------------------------------------------
# named families


def complete_graph(n):
    if n < 1:
        raise InvalidFamilySize("K needs size >= 1")
    full = (1 << n) - 1
    return Graph(n, [full ^ (1 << u) for u in range(n)])


def null_graph(n):
    if n < 1:
        raise InvalidFamilySize("N needs size >= 1")
    return Graph(n, [0] * n)


def cycle_graph(n):
    """Cycle on n >= 3 vertices, labeled 0..n-1 in circular order."""
    if n < 3:
        raise InvalidFamilySize("C needs size >= 3")
    return Graph.from_edges(n, [(u, (u + 1) % n) for u in range(n)])


def path_graph(length):
    """Path of the given length: length edges, length+1 vertices."""
    if length < 1:
        raise InvalidFamilySize("P needs size >= 1")
    return Graph.from_edges(length + 1, [(u, u + 1) for u in range(length)])


def wheel_graph(n):
    """Wheel on n >= 4 vertices: hub 0 joined to the rim cycle 1..n-1."""
    if n < 4:
        raise InvalidFamilySize("W needs size >= 4")
    edges = [(0, u) for u in range(1, n)]
    edges += [(u, u % (n - 1) + 1) for u in range(1, n)]
    return Graph.from_edges(n, edges)


_FAMILIES = {
    "K": complete_graph,
    "C": cycle_graph,
    "W": wheel_graph,
    "P": path_graph,
    "N": null_graph,
}


def build_named(family, size):
    """Build K/C/W/P/N of the given size (for P, size is the path length)."""
    try:
        builder = _FAMILIES[family]
    except KeyError:
        raise InvalidFamilySize(f"unknown family {family!r}") from None
    return builder(size)


# ---------------------------------------------------------------------------
# graph operations


def disjoint_union(g, h):
    """Disjoint union; h's vertices are shifted up by g.n."""
    adj = list(g.adj) + [row << g.n for row in h.adj]
    return Graph(g.n + h.n, adj)


def cartesian_product(g, h):
    """Box product: vertex (u, v) is encoded as u * h.n + v."""
    if g.n == 0 or h.n == 0:
        raise ValueError("product factors must be nonempty")
    n = g.n * h.n
    edges = []
    for u in range(g.n):
        for v1, v2 in h.edges():
            edges.append((u * h.n + v1, u * h.n + v2))
    for v in range(h.n):
        for u1, u2 in g.edges():
            edges.append((u1 * h.n + v, u2 * h.n + v))
    return Graph.from_edges(n, edges)


def amalgamate(g, u, h, v):
    """Glue g and h by identifying g's vertex u with h's vertex v.

    The identified vertex keeps index u; the remaining h vertices follow
    g's block in their original order, so the result has g.n + h.n - 1
    vertices.
    """
    g._check_vertex(u)
    h._check_vertex(v)

    def map_h(w):
        if w == v:
            return u
        return g.n + w - (1 if w > v else 0)

    edges = g.edges()
    edges += [(map_h(a), map_h(b)) for a, b in h.edges()]
    return Graph.from_edges(g.n + h.n - 1, edges)


def components_of(adj, s):
    """Connected components of the graph adj induced on the vertex mask s,
    as masks ordered by minimum."""
    parts = []
    while s:
        comp = frontier = s & -s
        while frontier:
            reach = 0
            for v in _bits(frontier):
                reach |= adj[v]
            frontier = reach & s & ~comp
            comp |= frontier
        parts.append(comp)
        s &= ~comp
    return parts


def components(g):
    """Connected components as sorted vertex tuples, ordered by minimum."""
    return [tuple(_bits(c)) for c in components_of(g.adj, (1 << g.n) - 1)]


def is_connected(g):
    return len(components(g)) <= 1


def is_cut_vertex(g, v):
    """True iff deleting v increases the component count."""
    g._check_vertex(v)
    full = (1 << g.n) - 1
    return len(components_of(g.adj, full & ~(1 << v))) > len(components_of(g.adj, full))


def induced_subgraph(g, vertices):
    """Subgraph induced by the given vertices, relabeled order-preservingly."""
    vs = sorted(set(vertices))
    for u in vs:
        g._check_vertex(u)
    index = {u: i for i, u in enumerate(vs)}
    edges = [
        (index[u], index[v]) for u, v in g.edges() if u in index and v in index
    ]
    return Graph.from_edges(len(vs), edges)


def component_parts(g):
    """Components grouped by isomorphism type, as (graph, multiplicity).

    Each type is represented by its first component, induced and
    relabeled; types come in order of first appearance.
    """
    grouped = {}
    for comp in components(g):
        part = induced_subgraph(g, comp)
        grouped.setdefault(canonical_code(part), [part, 0])[1] += 1
    return [(part, mult) for part, mult in grouped.values()]


def bipartition(g):
    """Proper 2-coloring as (X1, X2), or None if g has an odd cycle.

    Per component, the side containing the smallest vertex index goes
    into X1.
    """
    color = [-1] * g.n
    for comp in components(g):
        root = comp[0]
        color[root] = 0
        queue = [root]
        while queue:
            u = queue.pop()
            for w in _bits(g.adj[u]):
                if color[w] < 0:
                    color[w] = color[u] ^ 1
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
    x1 = tuple(u for u in range(g.n) if color[u] == 0)
    x2 = tuple(u for u in range(g.n) if color[u] == 1)
    return x1, x2


def is_bipartite(g):
    return bipartition(g) is not None


def has_triangle(g):
    for u, v in g.edges():
        if g.adj[u] & g.adj[v]:
            return True
    return False


def automorphism_group(g):
    """All adjacency-preserving permutations, sorted. Bound: n <= 16."""
    return canon.automorphisms(g.n, g.adj)


def canonical_code(g):
    """Total order on graphs; equal codes iff isomorphic. Bound: n <= 16."""
    return canon.graph_code(g.n, g.adj)


def rooted_code(g, root):
    """Like canonical_code but with one distinguished vertex.

    Codes of (g, u) and (h, v) agree iff some isomorphism g -> h carries
    u to v.
    """
    g._check_vertex(root)
    seed = [1 if u == root else 0 for u in range(g.n)]
    return canon.graph_code(g.n, g.adj, seed_colors=seed)


def is_reflexible(g):
    """True iff some automorphism exchanges the two bipartition parts.

    Only defined for connected bipartite graphs.  Each automorphism of a
    connected bipartite graph keeps both parts or swaps them, and that is
    a homomorphism onto Z2, so some automorphism swaps them iff one of
    canon's generators does.  No group is listed.
    """
    if not is_connected(g):
        raise NotConnected("reflexibility needs a connected graph")
    parts = bipartition(g)
    if parts is None:
        raise NotBipartite("reflexibility needs a bipartite graph")
    u, x2 = parts[0][0], set(parts[1])
    return any(sigma[u] in x2 for sigma in canon.generators(g.n, g.adj))


# ---------------------------------------------------------------------------
# edge-list text format
#
#   n <count>
#   e <u> <v>
#
# '#' starts a comment, blank lines are ignored; duplicate and loop edges
# are rejected, and so is a count over canon.MAX_VERTICES, as soon as its
# line is read: files and expressions share one bound.


def _is_count(text):
    # str.isdigit alone admits digits such as "²", which int() rejects, and
    # "١", which int() reads as 1
    return text.isascii() and text.isdigit()


def parse_edge_list(text):
    return parse_edge_lines(text.splitlines())


def parse_edge_lines(lines):
    """The graph of an edge list given as an iterable of lines.

    Lines are taken one at a time, so an error, an oversized n line
    included, stops the parse before the lines after it are read.
    """
    n = None
    adj_edges = []
    seen = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if n is not None:
                raise EdgeListFormatError(f"line {lineno}: duplicate n line")
            if len(parts) != 2 or not _is_count(parts[1]):
                raise EdgeListFormatError(f"line {lineno}: expected 'n <count>'")
            n = int(parts[1])
            if n > canon.MAX_VERTICES:
                raise SizeBoundExceeded(
                    f"line {lineno}: n={n} is over the bound of {canon.MAX_VERTICES}"
                )
        elif parts[0] == "e":
            if n is None:
                raise EdgeListFormatError(f"line {lineno}: edge before n line")
            if len(parts) != 3:
                raise EdgeListFormatError(f"line {lineno}: expected 'e <u> <v>'")
            if not (_is_count(parts[1]) and _is_count(parts[2])):
                raise EdgeListFormatError(f"line {lineno}: non-integer endpoint")
            u, v = int(parts[1]), int(parts[2])
            if u == v:
                raise EdgeListFormatError(f"line {lineno}: loop edge {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise EdgeListFormatError(f"line {lineno}: vertex outside 0..{n - 1}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise EdgeListFormatError(f"line {lineno}: duplicate edge {key}")
            seen.add(key)
            adj_edges.append(key)
        else:
            raise EdgeListFormatError(f"line {lineno}: unknown directive {parts[0]!r}")
    if n is None:
        raise EdgeListFormatError("missing n line")
    return Graph.from_edges(n, adj_edges)


def load_edge_list(path):
    with open(path, encoding="utf-8") as fh:
        try:
            # splitlines breaks a line where parse_edge_list would
            return parse_edge_lines(part for raw in fh for part in raw.splitlines())
        except UnicodeDecodeError as exc:
            raise EdgeListFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def write_edge_list(g, fh):
    fh.write(f"n {g.n}\n")
    for u, v in g.edges():
        fh.write(f"e {u} {v}\n")
