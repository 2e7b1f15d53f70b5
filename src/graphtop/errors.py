"""Exception types shared across the package."""


class GraphTopError(Exception):
    """Base class for all package errors."""


class InvalidFamilySize(GraphTopError, ValueError):
    """Named graph family requested with an unsupported size."""


class VertexOutOfRange(GraphTopError, ValueError):
    """A vertex index is outside 0..n-1."""


class SizeBoundExceeded(GraphTopError, ValueError):
    """Input is larger than the documented implementation bound."""


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
