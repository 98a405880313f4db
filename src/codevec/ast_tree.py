"""AST data model: a rooted ordered tree of typed nodes where leaves carry
string values, plus the S-expression reader used to ingest trees produced
by external parsers."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

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
    """Immutable AST over an indexed node pool.

    Construction walks the pool once from the root and rejects it unless it
    is one tree: every child id in range, no node reached twice, every node
    reached. The walk is kept: `order` lists node ids depth-first, left to
    right; `parent` (-1 for the root), `child_index` and `depth` are indexed
    by node id.
    """

    nodes: tuple[AstNode, ...]
    root: int
    order: tuple[int, ...] = field(init=False, compare=False, repr=False)
    parent: tuple[int, ...] = field(init=False, compare=False, repr=False)
    child_index: tuple[int, ...] = field(init=False, compare=False, repr=False)
    depth: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        size = len(self.nodes)
        if not (0 <= self.root < size):
            raise ValueError("root id out of range")
        parent = [-1] * size
        child_index = [0] * size
        depth = [0] * size
        reached = [False] * size
        reached[self.root] = True
        order = []
        stack = [self.root]
        while stack:
            node_id = stack.pop()
            order.append(node_id)
            children = self.nodes[node_id].children
            for idx, child in enumerate(children):
                if not (0 <= child < size):
                    raise ValueError("child id out of range")
                if reached[child]:
                    raise ValueError(f"node {child} is reached twice")
                reached[child] = True
                parent[child] = node_id
                child_index[child] = idx
                depth[child] = depth[node_id] + 1
            stack.extend(reversed(children))
        if len(order) != size:
            raise ValueError(f"{size - len(order)} nodes are unreachable from the root")
        for name, value in (("order", order), ("parent", parent),
                            ("child_index", child_index), ("depth", depth)):
            object.__setattr__(self, name, tuple(value))

    def node(self, node_id: int) -> AstNode:
        return self.nodes[node_id]

    def terminals(self) -> list[int]:
        """Ids of all value-bearing nodes in depth-first left-to-right order."""
        return [n for n in self.order if self.nodes[n].is_terminal]


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


# --- S-expression format -------------------------------------------------
#
# Nonterminal: (Kind child1 ... childN)    Terminal: (Kind "value")
# Whitespace between tokens is any run of space/tab/newline; '"' inside
# values is escaped as \" and backslash as \\.

_TOKEN_RE = re.compile(r'[()]|"(?:[^"\\]|\\.)*"|[^\s()"]+|(?P<bad>\S)')


def _tokenize_sexpr(text: str):
    """Parentheses, strings and bare words, whitespace skipped. The only
    character that starts none of them is a '"' opening no complete string."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        if match.lastgroup == "bad":
            raise SExprError(f"unexpected character {match.group()!r}")
        tokens.append(match.group())
    return tokens


def read_sexpr_asts(text: str) -> list[Ast]:
    """Parse a sequence of S-expression trees (e.g. one file, many methods).

    One loop over the tokens with an explicit stack of open nodes, so the
    nesting depth is bounded by memory, not by the interpreter's stack.
    """
    tokens = _tokenize_sexpr(text)
    asts = []
    builder = AstBuilder()
    # [kind, child ids, value] of each node whose ')' is still to come,
    # outermost first. Nodes enter the pool at their ')': children first.
    open_nodes: list[list] = []
    pos = 0
    while pos < len(tokens):
        tok = tokens[pos]
        if tok == "(":
            if open_nodes and open_nodes[-1][2] is not None:
                raise SExprError(f"terminal {open_nodes[-1][0]!r} may not have children")
            pos += 1
            if pos >= len(tokens) or tokens[pos] in '()' or tokens[pos].startswith('"'):
                raise SExprError("expected node kind after '('")
            open_nodes.append([tokens[pos], [], None])
        elif not open_nodes:
            raise SExprError("unbalanced parentheses: stray ')'" if tok == ")"
                             else "expected '('")
        elif tok == ")":
            kind, children, value = open_nodes.pop()
            if value is not None:
                node_id = builder.terminal(kind, value)
            elif not children:
                raise SExprError(f"nonterminal {kind!r} must have at least one child")
            else:
                node_id = builder.nonterminal(kind, children)
            if open_nodes:
                open_nodes[-1][1].append(node_id)
            else:
                asts.append(builder.build(node_id))
                builder = AstBuilder()
        elif tok.startswith('"'):
            kind, children, value = open_nodes[-1]
            if children:
                raise SExprError(f"nonterminal {kind!r} may not carry a value")
            if value is not None:
                raise SExprError(f"node {kind!r} has multiple values")
            open_nodes[-1][2] = tok[1:-1].replace('\\"', '"').replace("\\\\", "\\")
        else:
            raise SExprError(f"unexpected token {tok!r} inside node {open_nodes[-1][0]!r}")
        pos += 1
    if open_nodes:
        raise SExprError("unbalanced parentheses: missing ')'")
    if not asts:
        raise SExprError("empty input")
    return asts

