"""Exception types shared across the package, and its one table of size
bounds, each refused at its entry points by check_bound."""

MAX_VERTICES = 16  # canon's walk, an edge list's n line, an expression
MAX_AUT_ORDER = 362880  # 9!, a listed group: canon.automorphisms
MAX_CLASS_VERTICES = 7  # graphs_up_to_iso's default, aggregate -n
MAX_GROUND_SET = 12  # topology_from_preorder, validate_topology
MAX_PREORDER_POINTS = 5  # all_preorders, a brute-force listing
MAX_STIRLING_N = 64  # stirling2
MAX_COMPLETE_N = 20  # complete_counts, and connected_counts through it
MAX_EXPR_CHARS = 4096  # parse_graph_expr: a level takes 8, so 512 levels at most
DEFAULT_EDGE_BUDGET = 24  # the search, unless raised per call; BudgetExceeded


class GraphTopError(Exception):
    """Base class for all package errors, unpickled without calling __init__."""

    def __reduce__(self):
        return Exception.__new__, (type(self), *self.args), self.__dict__


class InvalidFamilySize(GraphTopError, ValueError):
    """Named graph family requested with an unsupported size."""


class VertexOutOfRange(GraphTopError, ValueError):
    """A vertex index is outside 0..n-1."""


class SizeBoundExceeded(GraphTopError, ValueError):
    """Input is larger than the documented implementation bound."""


def check_bound(value, bound, what, *args):
    """Raise SizeBoundExceeded, "<what.format(value, *args)> is over the
    bound of <bound>", if value > bound; the message is built only then."""
    if value > bound:
        what = what.format(value, *args)
        raise SizeBoundExceeded(f"{what} is over the bound of {bound}")


class BudgetExceeded(GraphTopError, ValueError):
    """Edge count exceeds the enumeration budget; pass an explicit override."""


class EdgeListFormatError(GraphTopError, ValueError):
    """Malformed edge-list text (bad directive, duplicate edge, loop, ...)."""


class NotAPreorder(GraphTopError, ValueError):
    """Relation is not reflexive and transitive."""


class NotATopology(GraphTopError, ValueError):
    """Family of subsets fails a topology axiom.

    ``code`` is one of missing-empty, missing-full, not-closed-under-union,
    not-closed-under-intersection; ``witness`` names a violating pair of
    member sets (as vertex lists) when one exists.
    """

    def __init__(self, code, witness=None):
        self.code = code
        self.witness = witness
        detail = f" witness={witness}" if witness is not None else ""
        super().__init__(f"{code}{detail}")


class NotTransitive(GraphTopError, ValueError):
    """Digraph is not transitive, so it does not encode a preorder."""


class GroundSetMismatch(GraphTopError, ValueError):
    """A point map does not fit the ground sets of the given spaces."""


class NotBipartite(GraphTopError, ValueError):
    """Operation requires a bipartite graph."""


class NotConnected(GraphTopError, ValueError):
    """Operation requires a connected graph."""


class ExprError(GraphTopError, ValueError):
    """Graph expression rejected.

    ``code`` is syntax-error, invalid-family-size or vertex-out-of-range;
    ``offset`` is the byte offset into the source text where known.
    """

    def __init__(self, code, message, offset=None):
        self.code = code
        self.offset = offset
        at = f" at offset {offset}" if offset is not None else ""
        super().__init__(f"{code}{at}: {message}")


class InternalCheckError(GraphTopError, RuntimeError):
    """A built-in cross-check failed; indicates a bug, never bad input."""


class WorkerDied(GraphTopError, RuntimeError):
    """A worker process exited without replying (killed, or os._exit)."""
