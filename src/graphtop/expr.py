"""The small graph expression language used by the CLI.

Grammar (whitespace-insensitive; offsets in errors are byte positions):

    expr := NAME INT
          | "union(" expr "," expr ")"
          | "box(" expr "," expr ")"
          | "amalgam(" expr "@" INT "," expr "@" INT ")"
    NAME := K | C | W | P | N
"""

from .errors import MAX_EXPR_CHARS, MAX_VERTICES, ExprError, check_bound
from .graphs import (
    Record,
    amalgamate,
    build_named,
    cartesian_product,
    disjoint_union,
)

_FAMILY_MINIMUM = {"K": 1, "N": 1, "P": 1, "C": 3, "W": 4}


class Named(Record):
    __slots__ = ("family", "size")


class Union(Record):
    __slots__ = ("left", "right")


class Box(Record):
    __slots__ = ("left", "right")


class Amalgam(Record):
    __slots__ = ("left", "left_vertex", "right", "right_vertex")


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, message, code="syntax-error", offset=None):
        raise ExprError(code, message, self.pos if offset is None else offset)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def read_int(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        return int(self.text[start : self.pos]), start

    def read_word(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        if self.pos == start:
            self.error("expected a graph expression")
        return self.text[start : self.pos], start

    def parse_expr(self):
        word, start = self.read_word()
        if word in ("union", "box"):
            self.expect("(")
            left = self.parse_expr()
            self.expect(",")
            right = self.parse_expr()
            self.expect(")")
            return Union(left, right) if word == "union" else Box(left, right)
        if word == "amalgam":
            self.expect("(")
            left = self.parse_expr()
            self.expect("@")
            lv, _ = self.read_int()
            self.expect(",")
            right = self.parse_expr()
            self.expect("@")
            rv, _ = self.read_int()
            self.expect(")")
            return Amalgam(left, lv, right, rv)
        if word in _FAMILY_MINIMUM:
            size, _ = self.read_int()
            if size < _FAMILY_MINIMUM[word]:
                self.error(
                    f"{word} needs size >= {_FAMILY_MINIMUM[word]}, got {size}",
                    code="invalid-family-size",
                    offset=start,
                )
            return Named(word, size)
        self.error(f"unknown name {word!r}", offset=start)


def parse_graph_expr(text):
    check_bound(len(text), MAX_EXPR_CHARS, "an expression of {} characters")
    parser = _Parser(text)
    expr = parser.parse_expr()
    parser.skip_ws()
    if parser.pos != len(text):
        parser.error("trailing input after expression")
    return expr


def expr_to_text(expr):
    """Render back to the grammar; parse(expr_to_text(e)) == e."""
    if isinstance(expr, Named):
        return f"{expr.family}{expr.size}"
    if isinstance(expr, Union):
        return f"union({expr_to_text(expr.left)},{expr_to_text(expr.right)})"
    if isinstance(expr, Box):
        return f"box({expr_to_text(expr.left)},{expr_to_text(expr.right)})"
    if isinstance(expr, Amalgam):
        return (
            f"amalgam({expr_to_text(expr.left)}@{expr.left_vertex},"
            f"{expr_to_text(expr.right)}@{expr.right_vertex})"
        )
    raise TypeError(f"not a graph expression: {expr!r}")


def vertex_count(expr):
    """Vertices of the graph an expression builds, read off the parse tree."""
    if isinstance(expr, Named):
        return expr.size + 1 if expr.family == "P" else expr.size
    if isinstance(expr, Union):
        return vertex_count(expr.left) + vertex_count(expr.right)
    if isinstance(expr, Box):
        return vertex_count(expr.left) * vertex_count(expr.right)
    if isinstance(expr, Amalgam):
        return vertex_count(expr.left) + vertex_count(expr.right) - 1
    raise TypeError(f"not a graph expression: {expr!r}")


def build_graph(expr):
    """Elaborate an expression tree to a Graph; anchors are range-checked.

    An expression over MAX_VERTICES vertices is rejected before any of it
    is built.
    """
    check_bound(vertex_count(expr), MAX_VERTICES, "an expression of {} vertices")
    return _build(expr)


def _build(expr):
    if isinstance(expr, Named):
        return build_named(expr.family, expr.size)
    if isinstance(expr, Union):
        return disjoint_union(_build(expr.left), _build(expr.right))
    if isinstance(expr, Box):
        return cartesian_product(_build(expr.left), _build(expr.right))
    if isinstance(expr, Amalgam):
        left = _build(expr.left)
        right = _build(expr.right)
        for g, v in ((left, expr.left_vertex), (right, expr.right_vertex)):
            if not (0 <= v < g.n):
                raise ExprError(
                    "vertex-out-of-range",
                    f"anchor {v} outside 0..{g.n - 1} in {expr_to_text(expr)}",
                )
        return amalgamate(left, expr.left_vertex, right, expr.right_vertex)
    raise TypeError(f"not a graph expression: {expr!r}")
