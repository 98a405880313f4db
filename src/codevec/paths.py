"""Extraction of tree paths between terminal pairs and the path-context
triples built from them. A path ascends from its start terminal to the
pivot (the lowest common ancestor) and then descends to the end terminal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .ast_tree import Ast, normalize_value
from .errors import DatasetFormatError

UP = "U"
DOWN = "D"


@dataclass(frozen=True)
class AstPath:
    """Alternating node kinds and movement directions between two terminals.

    len(kinds) == len(directions) + 1; directions form a run of ups
    followed by a run of downs. Path length is the number of steps
    (len(directions)), following the step-indexed definition.
    """

    kinds: tuple[str, ...]
    directions: tuple[str, ...]

    def __post_init__(self):
        if len(self.kinds) != len(self.directions) + 1:
            raise ValueError("kinds/directions length mismatch")
        if not self.directions:
            raise ValueError("path must have at least one step")

    @property
    def length(self) -> int:
        return len(self.directions)


@dataclass(frozen=True)
class PathContext:
    source_value: str
    path: AstPath
    target_value: str


@dataclass(frozen=True)
class ExtractionLimits:
    max_length: int = 8
    max_width: int = 2

    def __post_init__(self):
        if self.max_length < 1:
            raise ValueError("max_length must be >= 1")
        if self.max_width < 0:
            raise ValueError("max_width must be >= 0")


def extract_path_contexts(ast: Ast, limits: ExtractionLimits) -> list[PathContext]:
    """One path-context per unordered terminal pair (i < j in DFS order)
    whose connecting path passes the length and pivot-width limits.

    Width is the child-index difference at the pivot between the two
    branches the path occupies.
    """
    size = len(ast.nodes)
    parent = [-1] * size
    child_index = [0] * size
    depth = [0] * size
    order = []
    stack = [ast.root]
    while stack:
        node_id = stack.pop()
        order.append(node_id)
        node = ast.node(node_id)
        for idx, child in enumerate(node.children):
            parent[child] = node_id
            child_index[child] = idx
            depth[child] = depth[node_id] + 1
        stack.extend(reversed(node.children))

    terminals = [n for n in order if ast.node(n).is_terminal]
    values = {n: normalize_value(ast.node(n).kind, ast.node(n).value) for n in terminals}

    out: list[PathContext] = []
    for i in range(len(terminals)):
        for j in range(i + 1, len(terminals)):
            ctx = _pair_context(ast, terminals[i], terminals[j], parent,
                                child_index, depth, values, limits)
            if ctx is not None:
                out.append(ctx)
    return out


def _pair_context(ast, left, right, parent, child_index, depth, values, limits):
    length = depth[left] + depth[right]
    a, b = left, right
    up_kinds = []
    down_kinds = []
    while depth[a] > depth[b]:
        up_kinds.append(ast.node(a).kind)
        a = parent[a]
    while depth[b] > depth[a]:
        down_kinds.append(ast.node(b).kind)
        b = parent[b]
    while a != b:
        up_kinds.append(ast.node(a).kind)
        down_kinds.append(ast.node(b).kind)
        a = parent[a]
        b = parent[b]
    pivot = a
    length -= 2 * depth[pivot]
    if length > limits.max_length:
        return None
    # Child indices of the pivot's two occupied branches: the last node
    # appended on each side before reaching the pivot.
    ups = depth[left] - depth[pivot]
    left_branch = left
    for _ in range(ups - 1):
        left_branch = parent[left_branch]
    right_branch = right
    for _ in range(depth[right] - depth[pivot] - 1):
        right_branch = parent[right_branch]
    if abs(child_index[left_branch] - child_index[right_branch]) > limits.max_width:
        return None
    kinds = tuple(up_kinds) + (ast.node(pivot).kind,) + tuple(reversed(down_kinds))
    directions = (UP,) * ups + (DOWN,) * (depth[right] - depth[pivot])
    path = AstPath(kinds, directions)
    return PathContext(values[left], path, values[right])


_PATH_SPLIT_RE = re.compile(r"([\^_])")


def path_to_string(path: AstPath) -> str:
    """Render kinds joined by '^' (up) and '_' (down)."""
    parts = [path.kinds[0]]
    for direction, kind in zip(path.directions, path.kinds[1:]):
        parts.append("^" if direction == UP else "_")
        parts.append(kind)
    return "".join(parts)


def path_from_string(text: str) -> AstPath:
    """Inverse of path_to_string."""
    pieces = _PATH_SPLIT_RE.split(text)
    kinds = pieces[0::2]
    seps = pieces[1::2]
    if not seps or any(not k for k in kinds):
        raise DatasetFormatError(f"malformed path string {text!r}")
    directions = tuple(UP if s == "^" else DOWN for s in seps)
    return AstPath(tuple(kinds), directions)


def reverse_path(path: AstPath) -> AstPath:
    """Mirror a path: reversed kinds, flipped and reversed directions."""
    flipped = tuple(DOWN if d == UP else UP for d in reversed(path.directions))
    return AstPath(tuple(reversed(path.kinds)), flipped)
