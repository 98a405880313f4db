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
    branches the path occupies. From each terminal the walk climbs at most
    max_length - 1 ancestors and, at each, descends only into the next
    max_width branches to the right, no deeper than the steps left. Right
    terminals under a nearer pivot come first in DFS order, so the output
    is in pair order.
    """
    nodes, parent, child_index = ast.nodes, ast.parent, ast.child_index
    terminals = ast.terminals()
    values = {n: normalize_value(nodes[n].kind, nodes[n].value) for n in terminals}
    below = {}  # (branch, budget) -> _descend's list, shared by many left terminals
    shared = {}  # (kinds up, kinds down) -> their one AstPath
    out = []
    for left in terminals:
        ups, branch = (nodes[left].kind,), left
        for steps_up in range(1, min(limits.max_length, ast.depth[left] + 1)):
            pivot = parent[branch]
            ups += (nodes[pivot].kind,)
            budget = limits.max_length - steps_up
            first = child_index[branch] + 1
            for right in nodes[pivot].children[first:first + limits.max_width]:
                if (right, budget) not in below:
                    below[right, budget] = _descend(nodes, values, right, budget)
                for downs, value in below[right, budget]:
                    path = shared.get((ups, downs))
                    if path is None:
                        path = shared[ups, downs] = AstPath(
                            ups + downs, (UP,) * steps_up + (DOWN,) * len(downs))
                    out.append(PathContext(values[left], path, value))
            branch = pivot
    return out


def _descend(nodes, values, branch: int, budget: int) -> list:
    """(kinds from `branch` down, value) of each terminal at most `budget`
    nodes deep in `branch`, in DFS order."""
    found = []
    stack = [(branch, (nodes[branch].kind,))]
    while stack:
        node_id, kinds = stack.pop()
        if nodes[node_id].is_terminal:
            found.append((kinds, values[node_id]))
        elif len(kinds) < budget:
            stack.extend((c, kinds + (nodes[c].kind,))
                         for c in reversed(nodes[node_id].children))
    return found


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

