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
    terminals = ast.terminals()
    values = {n: normalize_value(ast.nodes[n].kind, ast.nodes[n].value)
              for n in terminals}
    out: list[PathContext] = []
    for i, left in enumerate(terminals):
        for right in terminals[i + 1:]:
            ctx = _pair_context(ast, left, right, values, limits)
            if ctx is not None:
                out.append(ctx)
    return out


def _pair_context(ast, left, right, values, limits):
    # Climb both ends to the pivot, keeping the nodes passed on each side;
    # the last of each is the pivot's child on that branch. Terminals are
    # leaves, so neither side is empty.
    parent, depth = ast.parent, ast.depth
    a, b = left, right
    ups: list[int] = []
    downs: list[int] = []
    while depth[a] > depth[b]:
        ups.append(a)
        a = parent[a]
    while depth[b] > depth[a]:
        downs.append(b)
        b = parent[b]
    while a != b:
        ups.append(a)
        downs.append(b)
        a = parent[a]
        b = parent[b]
    if len(ups) + len(downs) > limits.max_length:
        return None
    if abs(ast.child_index[ups[-1]] - ast.child_index[downs[-1]]) > limits.max_width:
        return None
    kinds = tuple(ast.nodes[n].kind for n in ups + [a] + downs[::-1])
    path = AstPath(kinds, (UP,) * len(ups) + (DOWN,) * len(downs))
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

