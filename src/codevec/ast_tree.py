"""AST data model: a rooted ordered tree of typed nodes where leaves carry
string values, plus the S-expression serialization used to ingest trees
produced by external parsers."""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import SExprError

STRING_SENTINEL = "STR"
EMPTY_SENTINEL = "EMPTY"

_NORMALIZE_RE = re.compile(r"[^A-Za-z0-9_]+")


def normalize_value(kind: str, value: str) -> str:
    """Normalize a terminal value for use in dataset files.

    Keeps alphanumerics and underscores; string literals collapse to a
    sentinel so that commas and spaces never leak into the line format.
    """
    if kind == "StringLiteralExpr":
        return STRING_SENTINEL
    cleaned = _NORMALIZE_RE.sub("", value)
    return cleaned if cleaned else EMPTY_SENTINEL


@dataclass(frozen=True)
class AstNode:
    kind: str
    children: tuple[int, ...] = ()
    value: str | None = None

    def __post_init__(self):
        if (self.value is None) == (len(self.children) == 0):
            raise ValueError(
                f"node {self.kind!r}: value must be present iff children are empty"
            )

    @property
    def is_terminal(self) -> bool:
        return self.value is not None


@dataclass(frozen=True)
class Ast:
    """Immutable AST over an indexed node pool."""

    nodes: tuple[AstNode, ...]
    root: int

    def __post_init__(self):
        self.validate()

    def node(self, node_id: int) -> AstNode:
        return self.nodes[node_id]

    def validate(self) -> None:
        """Check the structural invariants: single root, every non-root node
        in exactly one child list, ordered contiguous children."""
        if not (0 <= self.root < len(self.nodes)):
            raise ValueError("root id out of range")
        parent_count = [0] * len(self.nodes)
        for node in self.nodes:
            for child in node.children:
                if not (0 <= child < len(self.nodes)):
                    raise ValueError("child id out of range")
                parent_count[child] += 1
        for i, count in enumerate(parent_count):
            if i == self.root:
                if count != 0:
                    raise ValueError("root appears in a child list")
            elif count != 1:
                raise ValueError(f"node {i} appears in {count} child lists")
        # Reachability follows from the counts: n nodes, n-1 edges, all
        # pointing away from a unique root.

    def terminals(self) -> list[int]:
        """Ids of all value-bearing nodes in depth-first left-to-right order."""
        out = []
        stack = [self.root]
        while stack:
            node_id = stack.pop()
            node = self.nodes[node_id]
            if node.is_terminal:
                out.append(node_id)
            else:
                stack.extend(reversed(node.children))
        return out


class AstBuilder:
    """Accumulates nodes and produces an immutable Ast."""

    def __init__(self):
        self._nodes: list[AstNode] = []

    def terminal(self, kind: str, value: str) -> int:
        self._nodes.append(AstNode(kind, (), value))
        return len(self._nodes) - 1

    def nonterminal(self, kind: str, children: list[int]) -> int:
        self._nodes.append(AstNode(kind, tuple(children)))
        return len(self._nodes) - 1

    def build(self, root: int) -> Ast:
        return Ast(tuple(self._nodes), root)


def structurally_equal(a: Ast, b: Ast) -> bool:
    """True when two trees have the same shape, kinds, and values.

    Node ids are an internal detail, so tuple equality on the pools is not
    a meaningful comparison.
    """

    def eq(na: int, nb: int) -> bool:
        node_a, node_b = a.node(na), b.node(nb)
        if node_a.kind != node_b.kind or node_a.value != node_b.value:
            return False
        if len(node_a.children) != len(node_b.children):
            return False
        return all(eq(ca, cb) for ca, cb in zip(node_a.children, node_b.children))

    return eq(a.root, b.root)


# --- S-expression format -------------------------------------------------
#
# Nonterminal: (Kind child1 ... childN)    Terminal: (Kind "value")
# Whitespace between tokens is any run of space/tab/newline; '"' inside
# values is escaped as \" and backslash as \\.

_TOKEN_RE = re.compile(r'[()]|"(?:[^"\\]|\\.)*"|[^\s()"]+')


def _tokenize_sexpr(text: str):
    pos = 0
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        between = text[pos:match.start()]
        if between.strip():
            raise SExprError(f"unexpected character {between.strip()[0]!r}")
        tokens.append(match.group())
        pos = match.end()
    if text[pos:].strip():
        raise SExprError(f"unexpected character {text[pos:].strip()[0]!r}")
    return tokens


def read_sexpr_ast(text: str) -> Ast:
    """Parse a single S-expression tree into an Ast."""
    asts = read_sexpr_asts(text)
    if len(asts) != 1:
        raise SExprError(f"expected exactly one tree, found {len(asts)}")
    return asts[0]


def read_sexpr_asts(text: str) -> list[Ast]:
    """Parse a sequence of S-expression trees (e.g. one file, many methods)."""
    tokens = _tokenize_sexpr(text)
    pos = 0

    def parse_node(builder: AstBuilder) -> int:
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != "(":
            raise SExprError("expected '('")
        pos += 1
        if pos >= len(tokens) or tokens[pos] in '()' or tokens[pos].startswith('"'):
            raise SExprError("expected node kind after '('")
        kind = tokens[pos]
        pos += 1
        children: list[int] = []
        value: str | None = None
        while pos < len(tokens) and tokens[pos] != ")":
            tok = tokens[pos]
            if tok == "(":
                if value is not None:
                    raise SExprError(f"terminal {kind!r} may not have children")
                children.append(parse_node(builder))
            elif tok.startswith('"'):
                if children:
                    raise SExprError(f"nonterminal {kind!r} may not carry a value")
                if value is not None:
                    raise SExprError(f"node {kind!r} has multiple values")
                value = tok[1:-1].replace('\\"', '"').replace("\\\\", "\\")
                pos += 1
            else:
                raise SExprError(f"unexpected token {tok!r} inside node {kind!r}")
        if pos >= len(tokens):
            raise SExprError("unbalanced parentheses: missing ')'")
        pos += 1  # consume ')'
        if value is not None:
            return builder.terminal(kind, value)
        if not children:
            raise SExprError(f"nonterminal {kind!r} must have at least one child")
        return builder.nonterminal(kind, children)

    asts = []
    while pos < len(tokens):
        if tokens[pos] == ")":
            raise SExprError("unbalanced parentheses: stray ')'")
        builder = AstBuilder()
        root = parse_node(builder)
        asts.append(builder.build(root))
    if not asts:
        raise SExprError("empty input")
    return asts


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def write_sexpr_ast(ast: Ast) -> str:
    """Serialize an Ast to its canonical S-expression form."""

    def emit(node_id: int) -> str:
        node = ast.node(node_id)
        if node.is_terminal:
            return f'({node.kind} "{_escape(node.value)}")'
        inner = " ".join(emit(c) for c in node.children)
        return f"({node.kind} {inner})"

    return emit(ast.root)
