"""Exact counting of finite topologies over a fixed underlying graph.

A finite topology corresponds to a preorder, which minus its diagonal is
a transitive digraph; the underlying graph of that digraph ties counting
problems on topologies to counting problems on graphs.  This package
enumerates the transitive digraphs over a given simple graph, counts
their isomorphism classes exactly, evaluates the known closed forms, and
aggregates over all isomorphism classes of n-vertex graphs.
"""

from .aggregate import IsoClassTable, aggregate_counts, graphs_up_to_iso
from .decomposition import stirling2
from .enumeration import (
    burnside,
    enumerate_transitive_digraphs,
    h_burnside,
    sink_counts,
    stream_counts,
    tau,
)
from .expr import build_graph, expr_to_text, parse_graph_expr
from .formulas import (
    FormulaResult,
    amalgam_counts,
    bipartite_counts,
    complete_counts,
    cut_vertex_counts,
    cycle_counts,
    formula_for_graph,
    product_counts,
    union_counts,
    wheel_counts,
)
from .graphs import (
    Graph,
    amalgamate,
    automorphism_group,
    bipartition,
    build_named,
    canonical_code,
    cartesian_product,
    complete_graph,
    components,
    cycle_graph,
    disjoint_union,
    induced_subgraph,
    is_bipartite,
    is_connected,
    is_cut_vertex,
    is_reflexible,
    load_edge_list,
    null_graph,
    parse_edge_list,
    path_graph,
    wheel_graph,
    write_edge_list,
)
from .topology import (
    Digraph,
    Preorder,
    Topology,
    all_preorders,
    are_homeomorphic,
    canonical_code_digraph,
    digraph_to_preorder,
    dual_topology,
    is_continuous,
    is_transitive,
    preorder_from_topology,
    preorder_to_digraph,
    topology_from_preorder,
    underlying_graph,
    validate_topology,
)
from .verify import run_verify

__version__ = "0.1.0"
