"""Finite topologies, preorders, and loop-free digraphs on 0..n-1.

The three views are interchangeable: a preorder's up-sets generate a
topology, every open set containing x also containing y recovers the
preorder, and dropping the diagonal from a preorder leaves a transitive
digraph.  Vertex subsets and relation rows are int bitmasks throughout.
"""

import itertools
import sys
from array import array

from . import canon
from .canon import _bits
from .errors import (
    MAX_GROUND_SET,
    MAX_PREORDER_POINTS,
    GroundSetMismatch,
    InternalCheckError,
    NotAPreorder,
    NotATopology,
    NotTransitive,
    VertexOutOfRange,
    check_bound,
)
from .graphs import Graph, Record


class Preorder(Record):
    """Reflexive transitive relation; rel[x] is the bitmask of R(x)."""

    __slots__ = ("n", "rel")

    def __init__(self, n, rel):
        rel = tuple(rel)
        if len(rel) != n:
            raise NotAPreorder("relation rows must equal ground-set size")
        full = (1 << n) - 1
        for x, row in enumerate(rel):
            if row & ~full:
                raise NotAPreorder(f"row {x} mentions a point >= {n}")
            if not row >> x & 1:
                raise NotAPreorder(f"not reflexive at {x}")
        for x in range(n):
            reach = 0
            for y in _bits(rel[x]):
                reach |= rel[y]
            if reach & ~rel[x]:
                raise NotAPreorder(f"not transitive at {x}")
        super().__init__(n, rel)

    @classmethod
    def from_pairs(cls, n, pairs):
        rel = [0] * n
        for x, y in pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise VertexOutOfRange(f"pair ({x},{y}) outside 0..{n - 1}")
            rel[x] |= 1 << y
        return cls(n, rel)

    @classmethod
    def diagonal(cls, n):
        return cls(n, [1 << x for x in range(n)])

    @classmethod
    def full(cls, n):
        return cls(n, [(1 << n) - 1] * n)

    def pairs(self):
        return sorted((x, y) for x in range(self.n) for y in _bits(self.rel[x]))

    def __repr__(self):
        return f"Preorder({self.n}, pairs={self.pairs()})"


class Topology(Record):
    """Family of open vertex subsets, each stored as a bitmask.

    Instances coming from the converters are valid by construction; use
    validate_topology as the entry point for arbitrary families.
    """

    __slots__ = ("n", "opens")

    def __init__(self, n, opens):
        opens = frozenset(opens)
        for m in opens:
            if m & ~((1 << n) - 1):
                raise VertexOutOfRange(f"open set {m:#x} has a point outside 0..{n - 1}")
        super().__init__(n, opens)

    @classmethod
    def from_sets(cls, n, sets):
        opens = set()
        for s in sets:
            mask = 0
            for x in s:
                if not (0 <= x < n):
                    raise VertexOutOfRange(f"point {x} outside 0..{n - 1}")
                mask |= 1 << x
            opens.add(mask)
        return cls(n, opens)

    @classmethod
    def discrete(cls, n):
        return cls(n, range(1 << n))

    @classmethod
    def indiscrete(cls, n):
        return cls(n, (0, (1 << n) - 1))

    def opens_as_lists(self):
        """Sorted list of sorted vertex lists (the JSON rendering)."""
        return sorted(list(_bits(m)) for m in self.opens)

    def __repr__(self):
        return f"Topology({self.n}, {self.opens_as_lists()})"


class Digraph(Record):
    """Loop-free directed graph; out[u] is the bitmask of heads of u."""

    __slots__ = ("n", "out")

    def __init__(self, n, out):
        out = tuple(out)
        if len(out) != n:
            raise ValueError("out-neighbor rows must equal vertex count")
        full = (1 << n) - 1
        for u, row in enumerate(out):
            if row & ~full:
                raise VertexOutOfRange(f"vertex {u} has an arc head >= {n}")
            if row >> u & 1:
                raise ValueError(f"loop at vertex {u}")
        super().__init__(n, out)

    @classmethod
    def from_arcs(cls, n, arcs):
        out = [0] * n
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRange(f"arc ({u},{v}) outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            out[u] |= 1 << v
        return cls(n, out)

    def arcs(self):
        return sorted((u, v) for u in range(self.n) for v in _bits(self.out[u]))

    def reverse(self):
        rev = [0] * self.n
        for u in range(self.n):
            for v in _bits(self.out[u]):
                rev[v] |= 1 << u
        return Digraph(self.n, rev)

    def relabel(self, perm):
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"relabel needs a permutation of 0..{self.n - 1}")
        new = [0] * self.n
        for u in range(self.n):
            acc = 0
            for v in _bits(self.out[u]):
                acc |= 1 << perm[v]
            new[perm[u]] = acc
        return Digraph(self.n, new)

    def __repr__(self):
        return f"Digraph({self.n}, arcs={self.arcs()})"


def is_transitive(d):
    """True iff arcs a->b and b->c (a != c) always come with a->c."""
    return first_intransitive(d.n, (d.out,)) is None


def first_intransitive(n, leaves):
    """Index of the first non-transitive out-mask tuple in leaves, or None.

    Row a of leaf j fills field j*n + a of one integer, w bits wide (n
    rounded up to whole bytes).  For each b, row b of each leaf is copied
    into the fields of its leaf whose row a has a->b; a bit there that row
    a lacks, other than a itself, is a->b->c without a->c.
    """
    if not n:
        return None  # zero-width rows: the one digraph on no vertices
    size = -(-n // 8)  # bytes per row
    rows = itertools.chain.from_iterable(leaves)
    if size == 1:
        packed = bytes(rows)
    elif size == 2:
        packed = array("H", rows)
        if sys.byteorder == "big":
            packed.byteswap()
    else:
        packed = b"".join(r.to_bytes(size, "little") for r in rows)
    x, w = int.from_bytes(packed, "little"), 8 * size
    field, leaf, span = (1 << w) - 1, (1 << n * w) - 1, (1 << len(leaves) * n * w) - 1
    ones, spread = span // field, leaf // field  # the low bit of each field
    first = span // leaf * field  # the first field of every leaf
    missing = 0
    for b in range(n):
        missing |= (x >> b * w & first) * spread & (x >> b & ones) * field
    missing &= ~(x | first // field * sum(1 << a * (w + 1) for a in range(n)))
    return ((missing & -missing).bit_length() - 1) // (n * w) if missing else None


# ---------------------------------------------------------------------------
# conversions


def topology_from_preorder(r):
    """Open sets are exactly the up-closed subsets of the preorder."""
    check_bound(r.n, MAX_GROUND_SET, "a ground set of {} points")
    opens = []
    for mask in range(1 << r.n):
        ok = True
        for x in _bits(mask):
            if r.rel[x] & ~mask:
                ok = False
                break
        if ok:
            opens.append(mask)
    return Topology(r.n, opens)


def preorder_from_topology(t):
    """(x, y) related iff every open set containing x also contains y."""
    _validate_masks(t.n, t.opens)
    full = (1 << t.n) - 1
    rel = []
    for x in range(t.n):
        acc = full
        for m in t.opens:
            if m >> x & 1:
                acc &= m
        rel.append(acc)
    return Preorder(t.n, rel)


def preorder_to_digraph(r):
    return Digraph(r.n, [r.rel[x] & ~(1 << x) for x in range(r.n)])


def digraph_to_preorder(d):
    if not is_transitive(d):
        raise NotTransitive("digraph is not transitive")
    return Preorder(d.n, [d.out[x] | 1 << x for x in range(d.n)])


def underlying_graph(obj):
    """Simple graph with an edge wherever either arc direction exists."""
    if isinstance(obj, Topology):
        obj = preorder_to_digraph(preorder_from_topology(obj))
    elif isinstance(obj, Preorder):
        obj = preorder_to_digraph(obj)
    if not isinstance(obj, Digraph):
        raise TypeError(f"cannot take the underlying graph of {type(obj).__name__}")
    adj = list(obj.out)
    for u in range(obj.n):
        for v in _bits(obj.out[u]):
            adj[v] |= 1 << u
    return Graph(obj.n, adj)


# ---------------------------------------------------------------------------
# validation and structure


def validate_topology(sets, n):
    """Check the axioms for an arbitrary family; returns the Topology.

    Raises NotATopology with a code (missing-empty, missing-full,
    not-closed-under-union, not-closed-under-intersection) and, for the
    closure failures, a witness pair of member sets.
    """
    check_bound(n, MAX_GROUND_SET, "a ground set of {} points")
    t = Topology.from_sets(n, sets)
    _validate_masks(n, t.opens)
    return t


def _validate_masks(n, opens):
    full = (1 << n) - 1
    if 0 not in opens:
        raise NotATopology("missing-empty")
    if full not in opens:
        raise NotATopology("missing-full")
    members = sorted(opens)
    for a, b in itertools.combinations(members, 2):
        if a | b not in opens:
            raise NotATopology(
                "not-closed-under-union", (list(_bits(a)), list(_bits(b)))
            )
        if a & b not in opens:
            raise NotATopology(
                "not-closed-under-intersection", (list(_bits(a)), list(_bits(b)))
            )


def is_continuous(point_map, tx, ty):
    """Preimage-of-open test, cross-checked against relation preservation.

    The two routes must agree; a disagreement is an internal error, not
    a property of the input.
    """
    point_map = tuple(point_map)
    if len(point_map) != tx.n:
        raise GroundSetMismatch(f"map has {len(point_map)} points, space has {tx.n}")
    for y in point_map:
        if not (0 <= y < ty.n):
            raise GroundSetMismatch(f"image point {y} outside 0..{ty.n - 1}")

    by_preimage = True
    for m in ty.opens:
        pre = 0
        for x in range(tx.n):
            if m >> point_map[x] & 1:
                pre |= 1 << x
        if pre not in tx.opens:
            by_preimage = False
            break

    rx = preorder_from_topology(tx)
    ry = preorder_from_topology(ty)
    by_relation = True
    for x in range(tx.n):
        for y in _bits(rx.rel[x]):
            if not ry.rel[point_map[x]] >> point_map[y] & 1:
                by_relation = False
                break
        if not by_relation:
            break

    if by_preimage != by_relation:
        raise InternalCheckError(
            f"continuity routes disagree: preimage={by_preimage} relation={by_relation}"
        )
    return by_preimage


def canonical_code_digraph(d):
    """Total order on digraphs; equal codes iff digraph-isomorphic."""
    return canon.digraph_code(d.n, d.out)


def are_homeomorphic(t1, t2):
    if t1.n != t2.n:
        return False
    d1 = preorder_to_digraph(preorder_from_topology(t1))
    d2 = preorder_to_digraph(preorder_from_topology(t2))
    return canonical_code_digraph(d1) == canonical_code_digraph(d2)


def dual_topology(t):
    """The topology whose opens are exactly t's closed sets."""
    full = (1 << t.n) - 1
    return Topology(t.n, (full & ~m for m in t.opens))


def all_preorders(n):
    """Every preorder on 0..n-1 by brute force (small n only)."""
    check_bound(n, MAX_PREORDER_POINTS, "a brute-force listing of {} points")
    offdiag = [(x, y) for x in range(n) for y in range(n) if x != y]
    found = []
    for picks in itertools.product((0, 1), repeat=len(offdiag)):
        rel = [1 << x for x in range(n)]
        for bit, (x, y) in zip(picks, offdiag):
            if bit:
                rel[x] |= 1 << y
        try:
            found.append(Preorder(n, rel))
        except NotAPreorder:
            continue
    return found
