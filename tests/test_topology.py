import copy
import itertools
import pickle
import random

import pytest

from graphtop import (
    Digraph,
    Graph,
    Preorder,
    Topology,
    all_preorders,
    are_homeomorphic,
    canonical_code,
    complete_graph,
    components,
    digraph_to_preorder,
    dual_topology,
    is_continuous,
    is_transitive,
    null_graph,
    preorder_from_topology,
    preorder_to_digraph,
    topology_from_preorder,
    underlying_graph,
    validate_topology,
)
from graphtop.errors import (
    GroundSetMismatch,
    NotAPreorder,
    NotATopology,
    NotTransitive,
    VertexOutOfRange,
)
from graphtop.expr import Amalgam, Box, Named, Union
from graphtop.formulas import FormulaResult
from graphtop.graphs import Record
from graphtop.topology import first_intransitive

from conftest import naive_transitive

# the worked 2-point example: opens {0}, preorder 1 -> 0
GOLDEN_PREORDER = Preorder.from_pairs(2, [(0, 0), (1, 1), (1, 0)])
GOLDEN_TOPOLOGY = Topology.from_sets(2, [[], [0], [0, 1]])


def test_preorder_validation():
    with pytest.raises(NotAPreorder):
        Preorder.from_pairs(2, [(0, 0), (1, 0)])  # not reflexive
    with pytest.raises(NotAPreorder):
        Preorder.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)])
    with pytest.raises(VertexOutOfRange):
        Preorder.from_pairs(2, [(0, 3)])


def test_topology_from_preorder():
    assert topology_from_preorder(GOLDEN_PREORDER) == GOLDEN_TOPOLOGY
    assert topology_from_preorder(Preorder.diagonal(2)) == Topology.discrete(2)
    assert topology_from_preorder(Preorder.full(3)) == Topology.indiscrete(3)


def test_preorder_from_topology():
    assert preorder_from_topology(GOLDEN_TOPOLOGY) == GOLDEN_PREORDER
    assert preorder_from_topology(Topology.discrete(3)) == Preorder.diagonal(3)
    assert preorder_from_topology(Topology.indiscrete(2)) == Preorder.full(2)


def test_digraph_conversions():
    d = preorder_to_digraph(GOLDEN_PREORDER)
    assert d.arcs() == [(1, 0)]
    assert preorder_to_digraph(Preorder.diagonal(3)).arcs() == []

    d = Digraph.from_arcs(3, [(0, 1), (1, 0), (0, 2), (1, 2)])
    r = digraph_to_preorder(d)
    assert r == Preorder.from_pairs(
        3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (0, 2), (1, 2)]
    )

    cycle = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(NotTransitive):
        digraph_to_preorder(cycle)


def test_underlying_graph():
    assert underlying_graph(GOLDEN_PREORDER) == complete_graph(2)
    assert underlying_graph(Preorder.diagonal(2)) == null_graph(2)
    d = Digraph.from_arcs(3, [(0, 1), (1, 0), (0, 2), (1, 2)])
    assert underlying_graph(d) == complete_graph(3)
    assert underlying_graph(GOLDEN_TOPOLOGY) == complete_graph(2)


def test_validate_topology():
    t = validate_topology([[], [0], [0, 1]], 2)
    assert t == GOLDEN_TOPOLOGY

    with pytest.raises(NotATopology) as err:
        validate_topology([[], [0], [1]], 2)
    assert err.value.code == "missing-full"

    with pytest.raises(NotATopology) as err:
        validate_topology([[0], [0, 1]], 2)
    assert err.value.code == "missing-empty"

    with pytest.raises(NotATopology) as err:
        validate_topology([[], [0], [1], [0, 1, 2]], 3)
    assert err.value.code == "not-closed-under-union"
    assert err.value.witness == ([0], [1])

    with pytest.raises(NotATopology) as err:
        validate_topology([[], [0, 1], [1, 2], [0, 1, 2]], 3)
    assert err.value.code == "not-closed-under-intersection"
    assert err.value.witness == ([0, 1], [1, 2])


def test_minimal_basis():
    """The minimal basis is the up-sets R(x), the rows of the relation."""
    assert frozenset(GOLDEN_PREORDER.rel) == frozenset({0b01, 0b11})
    assert frozenset(Preorder.diagonal(3).rel) == frozenset({0b001, 0b010, 0b100})
    assert frozenset(Preorder.full(2).rel) == frozenset({0b11})


def test_minimal_basis_generates():
    rng = random.Random(3)
    preorders = [r for n in (1, 2, 3) for r in all_preorders(n)]
    for n in (4, 5):
        for _ in range(30):
            rel = [1 << x for x in range(n)]
            for x in range(n):
                for y in range(n):
                    if x != y and rng.random() < 0.3:
                        rel[x] |= 1 << y
            for _ in range(n):  # transitive closure
                for x in range(n):
                    acc = rel[x]
                    m = rel[x]
                    while m:
                        b = m & -m
                        acc |= rel[b.bit_length() - 1]
                        m ^= b
                    rel[x] = acc
            preorders.append(Preorder(n, rel))
    for r in preorders:
        basis = frozenset(r.rel)
        for m in topology_from_preorder(r).opens:
            union = 0
            for b in basis:
                if not (b & ~m):
                    union |= b
            assert union == m


def test_is_continuous_basics():
    t = GOLDEN_TOPOLOGY
    assert is_continuous((0, 1), t, t)
    assert is_continuous((0, 0), t, Topology.discrete(2))  # constant map
    t3 = Topology.from_sets(2, [[], [1], [0, 1]])
    assert is_continuous((1, 0), t, t3)  # the swap homeomorphism
    assert not is_continuous((1, 0), t, t)
    with pytest.raises(GroundSetMismatch):
        is_continuous((0,), t, t)
    with pytest.raises(GroundSetMismatch):
        is_continuous((0, 5), t, t)


def test_continuity_routes_agree_exhaustively_n2():
    spaces = [topology_from_preorder(r) for r in all_preorders(2)]
    assert len(spaces) == 4
    for tx in spaces:
        for ty in spaces:
            for f in itertools.product(range(2), repeat=2):
                is_continuous(f, tx, ty)  # raises InternalCheckError on mismatch


def test_are_homeomorphic():
    t2 = GOLDEN_TOPOLOGY
    t3 = Topology.from_sets(2, [[], [1], [0, 1]])
    assert are_homeomorphic(t2, t3)
    assert not are_homeomorphic(Topology.indiscrete(2), Topology.discrete(2))
    assert not are_homeomorphic(Topology.discrete(2), Topology.discrete(3))


def test_component_count():
    """The components of a space are those of its underlying graph."""
    for t, want in (
        (GOLDEN_TOPOLOGY, 1),
        (Topology.discrete(2), 2),
        (Topology.indiscrete(3), 1),
    ):
        assert len(components(underlying_graph(t))) == want


def test_dual_and_reverse():
    assert dual_topology(GOLDEN_TOPOLOGY) == Topology.from_sets(2, [[], [1], [0, 1]])
    assert dual_topology(Topology.discrete(2)) == Topology.discrete(2)

    d = Digraph.from_arcs(3, [(0, 1), (1, 0), (0, 2), (1, 2)])
    rev = d.reverse()
    assert rev.arcs() == [(0, 1), (1, 0), (2, 0), (2, 1)]
    assert digraph_to_preorder(rev) is not None  # reversal stays transitive


def test_duality_involution_exhaustive():
    for n in (1, 2, 3):
        for r in all_preorders(n):
            t = topology_from_preorder(r)
            assert dual_topology(dual_topology(t)) == t
            d = preorder_to_digraph(r)
            assert d.reverse().reverse() == d
            via_reverse = topology_from_preorder(
                digraph_to_preorder(d.reverse())
            )
            assert dual_topology(t) == via_reverse


def test_bijection_exhaustive_small():
    expected = {1: 1, 2: 4, 3: 29}
    for n, count in expected.items():
        preorders = all_preorders(n)
        assert len(preorders) == count
        topologies = set()
        for r in preorders:
            t = topology_from_preorder(r)
            topologies.add(t)
            assert preorder_from_topology(t) == r
            assert digraph_to_preorder(preorder_to_digraph(r)) == r
        assert len(topologies) == count
        for t in topologies:
            assert topology_from_preorder(preorder_from_topology(t)) == t


def test_topology_rejects_open_sets_outside_the_ground_set():
    """The bare constructor range-checks its masks as from_sets does:
    bits at or above n, or a negative mask, name no point of 0..n-1."""
    for opens in ([0, 3, 12], [0, 3, 4], [0, -1, 3]):
        with pytest.raises(VertexOutOfRange, match=r"outside 0\.\.1"):
            Topology(2, opens)
    assert Topology(2, [0, 3, 1]).opens == frozenset({0, 1, 3})
    assert Topology(0, [0]).opens == frozenset({0})


def test_topology_json_rendering():
    assert GOLDEN_TOPOLOGY.opens_as_lists() == [[], [0], [0, 1]]
    d = Digraph.from_arcs(3, [(2, 1), (0, 1)])
    assert d.arcs() == [(0, 1), (2, 1)]


def test_digraph_relabel():
    d = Digraph.from_arcs(3, [(0, 1), (1, 2)])
    assert d.relabel((2, 0, 1)).arcs() == [(0, 1), (2, 0)]
    with pytest.raises(ValueError):
        Digraph.from_arcs(2, [(0, 0)])
    # a repeated image, an extra point and a missing point are no permutation
    for perm in ([0, 0, 1], [2, 1, 0, 3], [0, 1]):
        with pytest.raises(ValueError, match="permutation"):
            Digraph(3, (4, 0, 0)).relabel(perm)


_K2, _N1 = Named("K", 2), Named("N", 1)


@pytest.mark.parametrize(
    "value, other, rows",
    [
        (complete_graph(3), Graph(3, (2, 1, 0)), "adj"),
        (Digraph(2, (2, 0)), Digraph(2, (0, 1)), "out"),
        (Preorder.diagonal(2), Preorder.full(2), "rel"),
        (Topology.discrete(2), Topology.indiscrete(2), "opens"),
        (Named("K", 4), Named("K", 5), None),
        (Union(_K2, _N1), Union(_N1, _K2), None),
        (Box(_K2, Named("C", 4)), Box(_K2, Named("C", 5)), None),
        (Amalgam(Named("K", 3), 0, _K2, 1), Amalgam(Named("K", 3), 0, _K2, 0), None),
        (FormulaResult(13, 4, "cycle"), FormulaResult(13, 4, "wheel"), None),
    ],
    ids=[
        "Graph", "Digraph", "Preorder", "Topology",
        "Named", "Union", "Box", "Amalgam", "FormulaResult",
    ],
)
def test_value_types_are_frozen_hashable_picklable_and_copyable(
    monkeypatch, value, other, rows
):
    """The nine Record classes behave as immutable values, and every
    pickle or copy of one is rebuilt through its class's __init__."""
    cls, names = type(value), type(value).__slots__
    fields = tuple(getattr(value, name) for name in names)
    twin = cls(*fields)
    assert twin == value and hash(twin) == hash(value) and twin is not value
    assert value != other
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in names) == fields
    inits = []
    init = cls.__init__

    def counted(self, *args):
        inits.append(args)
        init(self, *args)

    monkeypatch.setattr(cls, "__init__", counted)
    copies = [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(value), copy.deepcopy(value)]
    for back in copies:
        assert type(back) is cls and back == value and back is not value
    assert inits == [fields] * len(copies)
    if rows is not None:
        from_list = cls(value.n, list(getattr(value, rows)))
        from_tuple = cls(value.n, tuple(getattr(value, rows)))
        assert from_list == from_tuple == value
        assert hash(from_list) == hash(from_tuple) == hash(value)


def test_records_of_two_classes_differ_on_equal_fields():
    assert Union(_K2, _N1) != Box(_K2, _N1)
    assert Graph(2, (2, 1)) != Digraph(2, (2, 1))
    assert Graph(2, (2, 1)).adj == Digraph(2, (2, 1)).out


class _Single(Record):
    __slots__ = ("x",)


class _SlottedGraph(Graph):
    __slots__ = ()


class _SlottedNamed(Named):
    __slots__ = ()


@pytest.mark.parametrize(
    "value, fields",
    [
        (Graph(2, (2, 1)), (2, (2, 1))),
        (Named("K", 4), ("K", 4)),
        (_Single(7), (7,)),
        (_SlottedGraph(2, (2, 1)), (2, (2, 1))),
    ],
)
def test_a_record_compares_hashes_and_pickles_as_its_field_tuple(value, fields):
    """Records of two fields and more read their fields with one
    attrgetter; a one-field record still hashes and pickles as a tuple,
    and a subclass with empty __slots__ keeps its base's fields."""
    copy_ = pickle.loads(pickle.dumps(value))
    assert copy_ == value and copy_ is not value
    assert hash(value) == hash(copy_) == hash(fields)
    assert value.__reduce__() == (type(value), fields)


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: Digraph(3, (2, 1)), ValueError, "out-neighbor rows must equal vertex count"),
        (lambda: Digraph(2, (4, 0)), VertexOutOfRange, "vertex 0 has an arc head >= 2"),
        (lambda: Digraph(2, (0, 2)), ValueError, "loop at vertex 1"),
        (lambda: Digraph.from_arcs(2, [(0, 2)]), VertexOutOfRange, r"arc \(0,2\) outside 0\.\.1"),
        (lambda: Preorder(2, (1,)), NotAPreorder, "relation rows must equal ground-set size"),
        (lambda: Preorder(2, (5, 2)), NotAPreorder, "row 0 mentions a point >= 2"),
        (lambda: _Single(1, 2), TypeError, "_Single takes 1 fields"),
    ],
    ids=[
        "digraph-rows",
        "digraph-head",
        "digraph-loop",
        "arc-outside",
        "preorder-rows",
        "preorder-point",
        "record-fields",
    ],
)
def test_constructors_refuse_malformed_input(make, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        make()


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: Preorder.from_pairs(0, [(0, 0)]), VertexOutOfRange, "pair (0,0) outside"),
        (lambda: Topology(0, [0, 1]), VertexOutOfRange, "open set 0x1 has a point outside"),
        (lambda: Topology.from_sets(0, [[0]]), VertexOutOfRange, "point 0 outside"),
        (lambda: Digraph.from_arcs(0, [(0, 1)]), VertexOutOfRange, "arc (0,1) outside"),
        (lambda: Digraph(0, ()).relabel([0]), ValueError, "relabel needs a permutation of"),
        (
            lambda: is_continuous([0], Topology(1, [0, 1]), Topology(0, [0])),
            GroundSetMismatch,
            "image point 0 outside",
        ),
    ],
    ids=["pairs", "opens", "sets", "arcs", "relabel", "image"],
)
def test_ranges_over_no_points_name_the_empty_vertex_set(make, error, message):
    """n = 0 gives no range 0..-1 in a constructor's refusal."""
    with pytest.raises(error) as err:
        make()
    assert str(err.value) == f"{message} the empty vertex set"


def test_an_edited_graph_pickle_is_refused_on_load():
    """A pickle calls Graph(n, adj), so its checks run on the copy: here
    on a K2 pickle edited to hold the asymmetric rows (2, 0)."""
    data = pickle.dumps(Graph(2, (2, 1)), 0)
    assert data.count(b"I1\n") == 1  # protocol 0 writes the row 1 as text
    with pytest.raises(ValueError, match=r"adjacency not symmetric at \{0,1\}"):
        pickle.loads(data.replace(b"I1\n", b"I0\n"))


@pytest.mark.parametrize(
    "value, want",
    [
        (Named("K", 4), "Named(family='K', size=4)"),
        (
            Amalgam(Union(_K2, _N1), 0, Box(Named("C", 4), Named("P", 1)), 3),
            "Amalgam(left=Union(left=Named(family='K', size=2), right=Named(family='N', size=1)), "
            "left_vertex=0, right=Box(left=Named(family='C', size=4), right=Named(family='P', size=1)), "
            "right_vertex=3)",
        ),
        (FormulaResult(None, None, "bipartite"), "FormulaResult(tau=None, h=None, theorem='bipartite')"),
        (FormulaResult(13, 4, "cycle"), "FormulaResult(tau=13, h=4, theorem='cycle')"),
        (_SlottedNamed("K", 4), "_SlottedNamed(family='K', size=4)"),
    ],
)
def test_record_repr_names_its_fields(value, want):
    assert repr(value) == want


def _random_loop_free_masks(rng, n):
    density = rng.random()
    return [
        sum(1 << b for b in range(n) if b != a and rng.random() < density)
        for a in range(n)
    ]


def test_is_transitive_matches_naive_oracle():
    rng = random.Random(4)
    cases = [_random_loop_free_masks(rng, rng.randint(1, 6)) for _ in range(4000)]
    # transitive inputs, and the near misses one arc short of them
    for n in range(1, 5):
        for r in all_preorders(n):
            out = list(preorder_to_digraph(r).out)
            cases.append(out)
            for a in range(n):
                for b in range(n):
                    if out[a] >> b & 1:
                        cases.append(out[:a] + [out[a] & ~(1 << b)] + out[a + 1 :])
    # rows of 17 points or more are packed three bytes wide or wider
    for _ in range(300):
        make = rng.choice((_random_transitive, _near_miss, _random_loop_free_masks))
        cases.append(list(make(rng, rng.randint(17, 40))))
    outcomes = set()
    for out in cases:
        n = len(out)
        arcs = [(a, b) for a in range(n) for b in range(n) if out[a] >> b & 1]
        want = naive_transitive(arcs)
        assert is_transitive(Digraph(n, out)) == want, out
        outcomes.add(want)
    assert outcomes == {True, False}


def _random_transitive(rng, n):
    """The transitive closure of a sparse random loop-free digraph."""
    out = [sum(1 << b for b in range(n) if b != a and rng.random() < 1.5 / n) for a in range(n)]
    for k in range(n):
        for a in range(n):
            if out[a] >> k & 1:
                out[a] |= out[k]
    return tuple(row & ~(1 << a) for a, row in enumerate(out))


def _near_miss(rng, n):
    """A transitive digraph short of one arc a->c that a->b->c demands."""
    while True:
        out = list(_random_transitive(rng, n))
        paths = [
            (a, c)
            for a in range(n)
            for b in range(n)
            if out[a] >> b & 1
            for c in range(n)
            if out[b] >> c & 1 and c != a
        ]
        if paths:
            a, c = rng.choice(paths)
            out[a] &= ~(1 << c)
            return tuple(out)


@pytest.mark.parametrize("n", [*range(18), 40])
def test_first_intransitive_matches_naive_oracle(n):
    """The batch check against the triple loop on every row width: n = 8
    fills the 8-bit rows, n = 9 starts the 16-bit rows, n = 16 fills
    them, and n = 17 and n = 40 pack rows three and five bytes wide.  The
    first bad leaf sits in the first, a middle and the last slot of
    batches of 1 and 512 leaves; after it, anything may follow."""
    rng = random.Random(1900 + n)
    verdict = {}

    def oracle(batch):
        for j, out in enumerate(batch):
            if out not in verdict:
                arcs = [(a, b) for a in range(n) for b in range(n) if out[a] >> b & 1]
                verdict[out] = naive_transitive(arcs)
            if not verdict[out]:
                return j
        return None

    good = [_random_transitive(rng, n) for _ in range(6)]
    # a loop-free digraph on two points or fewer is transitive
    bad = [_near_miss(rng, n) for _ in range(6)] if n >= 3 else []
    noise = good + bad + [tuple(_random_loop_free_masks(rng, n)) for _ in range(6)]
    assert first_intransitive(n, []) is None
    for length in (1, 512):
        batch = [rng.choice(good) for _ in range(length)]
        assert first_intransitive(n, batch) is None
        assert oracle(batch) is None
        for slot in sorted({0, length // 2, length - 1}) if bad else ():
            batch = [rng.choice(good) for _ in range(slot)] + [rng.choice(bad)]
            batch += [rng.choice(noise) for _ in range(length - slot - 1)]
            assert first_intransitive(n, batch) == oracle(batch) == slot
        batch = [rng.choice(noise) for _ in range(length)]
        assert first_intransitive(n, batch) == oracle(batch)


@pytest.mark.parametrize("n", range(9, 17))
def test_first_intransitive_agrees_with_is_transitive_on_wide_rows(n):
    """The 16-bit rows, leaf by leaf: on every suffix of a random batch
    the batch check names the first leaf that is_transitive rejects,
    and one planted non-transitive leaf comes back at its own index, the
    batch's last leaf included."""
    rng = random.Random(2100 + n)
    good = [_random_transitive(rng, n) for _ in range(8)]
    bad = [_near_miss(rng, n) for _ in range(8)]
    noise = [tuple(_random_loop_free_masks(rng, n)) for _ in range(4)]
    batch = [rng.choice(good) for _ in range(512)]
    for slot in rng.sample(range(512), 12):
        batch[slot] = rng.choice(bad + noise)
    verdicts = [is_transitive(Digraph(n, out)) for out in batch]
    assert verdicts.count(False) >= 8
    for start in range(len(batch) + 1):
        want = next((j for j in range(start, len(batch)) if not verdicts[j]), None)
        got = first_intransitive(n, batch[start:])
        assert (None if got is None else start + got) == want
    for slot in (0, rng.randrange(1, 511), 511):
        planted = [rng.choice(good) for _ in range(512)]
        planted[slot] = rng.choice(bad)
        assert first_intransitive(n, planted) == slot
