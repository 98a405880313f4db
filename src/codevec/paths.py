"""Extraction of tree paths between terminal pairs and the path-context
triples built from them. A path ascends from its start terminal to the
pivot (the lowest common ancestor) and then descends to the end terminal.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass, field

from .ast_tree import Ast, normalize_value
from .errors import DatasetFormatError

UP = "U"
DOWN = "D"


@dataclass(frozen=True)
class AstPath:
    """Alternating node kinds and movement directions between two terminals.

    len(kinds) == len(directions) + 1; directions form a run of ups
    followed by a run of downs. Path length is the number of steps
    (len(directions)), following the step-indexed definition. `text` is
    the path string, rendered once: kinds joined by '^' (up) and '_' (down).
    """

    kinds: tuple[str, ...]
    directions: tuple[str, ...]
    text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.kinds) != len(self.directions) + 1:
            raise ValueError("kinds/directions length mismatch")
        if not self.directions:
            raise ValueError("path must have at least one step")
        parts = [self.kinds[0]]
        for direction, kind in zip(self.directions, self.kinds[1:]):
            parts.append("^" if direction == UP else "_")
            parts.append(kind)
        object.__setattr__(self, "text", "".join(parts))

    @classmethod
    def _with_text(cls, kinds: tuple[str, ...], directions: tuple[str, ...],
                   text: str) -> AstPath:
        """A path whose caller holds its valid shape and `text`: no check, no render."""
        path = object.__new__(cls)
        path.__dict__.update(kinds=kinds, directions=directions, text=text)
        return path


@dataclass(slots=True)
class PathContext:
    source_value: str
    path: AstPath
    target_value: str


@dataclass(slots=True)
class Contexts(Sequence):
    """An example's path-contexts as three columns: source values, shared
    AstPaths, target values. An item is a PathContext built when it is read."""

    sources: list[str]
    paths: list[AstPath]
    targets: list[str]

    def __len__(self) -> int:
        return len(self.sources)

    def __getitem__(self, index):
        item = Contexts if isinstance(index, slice) else PathContext
        return item(self.sources[index], self.paths[index], self.targets[index])

    def __iter__(self):
        return map(PathContext, self.sources, self.paths, self.targets)

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, (Contexts, list)) else NotImplemented


@dataclass(frozen=True)
class ExtractionLimits:
    max_length: int = 8
    max_width: int = 2

    def __post_init__(self):
        if self.max_length < 1:
            raise ValueError("max_length must be >= 1")
        if self.max_width < 0:
            raise ValueError("max_width must be >= 0")


def extract_path_contexts(ast: Ast, limits: ExtractionLimits) -> Contexts:
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
    sources, paths, targets = [], [], []
    for left in terminals:
        ups, up_text, branch = (nodes[left].kind,), nodes[left].kind, left
        for steps_up in range(1, min(limits.max_length, ast.depth[left] + 1)):
            pivot = parent[branch]
            ups += (nodes[pivot].kind,)
            up_text += "^" + ups[-1]
            budget = limits.max_length - steps_up
            first = child_index[branch] + 1
            for right in nodes[pivot].children[first:first + limits.max_width]:
                if (right, budget) not in below:
                    below[right, budget] = _descend(nodes, values, right, budget)
                for downs, down_text, value in below[right, budget]:
                    path = shared.get((ups, downs))
                    if path is None:
                        path = shared[ups, downs] = AstPath._with_text(
                            ups + downs, (UP,) * steps_up + (DOWN,) * len(downs),
                            up_text + down_text)
                    sources.append(values[left])
                    paths.append(path)
                    targets.append(value)
            branch = pivot
    return Contexts(sources, paths, targets)


def _descend(nodes, values, branch: int, budget: int) -> list:
    """(kinds from `branch` down, their `_Kind_Kind` text, value) of each
    terminal at most `budget` nodes deep in `branch`, in DFS order."""
    found = []
    stack = [(branch, (nodes[branch].kind,), "_" + nodes[branch].kind)]
    while stack:
        node_id, kinds, text = stack.pop()
        if nodes[node_id].is_terminal:
            found.append((kinds, text, values[node_id]))
        elif len(kinds) < budget:
            for child in reversed(nodes[node_id].children):
                kind = nodes[child].kind
                stack.append((child, kinds + (kind,), text + "_" + kind))
    return found


_PATH_SPLIT_RE = re.compile(r"([\^_])")


def path_to_string(path: AstPath) -> str:
    """Kinds joined by '^' (up) and '_' (down): the path's `text`."""
    return path.text


def path_from_string(text: str) -> AstPath:
    """Inverse of path_to_string."""
    pieces = _PATH_SPLIT_RE.split(text)
    kinds = pieces[0::2]
    seps = pieces[1::2]
    if not seps or any(not k for k in kinds):
        raise DatasetFormatError(f"malformed path string {text!r}")
    directions = tuple(UP if s == "^" else DOWN for s in seps)
    return AstPath._with_text(tuple(kinds), directions, text)

