"""Extraction of tree paths between terminal pairs and the path-context
triples built from them. A path ascends from its start terminal to the
pivot (the lowest common ancestor) and then descends to the end terminal.
"""

from __future__ import annotations

import re
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate, islice
from weakref import WeakKeyDictionary

import numpy as np

from .ast_tree import Ast, normalize_value
from .errors import CodevecError, DatasetFormatError

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


class SymbolTable:
    """The distinct value strings and path strings that `Contexts` codes
    index, shared by the examples of one read or one extraction. A code is a
    position in `values` or `texts`, in order of first sight.

    While a read or the walk fills the table, `value_codes[value]` and
    `path_codes[text]` give the code of a string, numbering it on first
    sight. `seal` ends a read. `path(code)` gives the AstPath of a path
    code, parsed from its string when first asked for. `ids` maps the
    table through a Vocab once per Vocab.
    """

    __slots__ = ("values", "texts", "value_codes", "path_codes", "_paths", "_symbols", "_ids",
                 "__weakref__")

    def __init__(self):
        self.values: Sequence[str] = []
        self.texts: Sequence[str] = []
        self.value_codes: dict[str, int] | None = _Numbering()
        self.path_codes: dict[str, int] | None = _Numbering()
        self._paths: dict[int, AstPath] = {}
        self._symbols = np.empty(0, object)
        self._ids = (WeakKeyDictionary(), WeakKeyDictionary())

    def seal(self) -> None:
        """Drop the dicts and any AstPaths parsed so far, and pack the
        strings, none of which holds a space."""
        self.value_codes = self.path_codes = None
        self.values, self.texts, self._paths = _Packed(self.values), _Packed(self.texts), {}

    def path(self, code: int) -> AstPath:
        """The AstPath of path code `code`, shared by every context that holds it."""
        if code not in self._paths:
            self._paths[code] = path_from_string(self.texts[code])
        return self._paths[code]

    def symbols(self) -> np.ndarray:
        """The value strings, the path strings, ',' and ' ' as one object
        array: the pieces that a dataset line of the table joins."""
        if len(self._symbols) != len(self.values) + len(self.texts) + 2:
            self._symbols = np.array([*self.values, *self.texts, ",", " "], object)
        return self._symbols

    def ids(self, vocab, column: int) -> np.ndarray:
        """`vocab`'s id of each value (`column` 0) or path string (`column`
        1), by code. It is cached for as long as `vocab` lives, and extended
        when the table has grown since."""
        cache, strings = self._ids[column], self.texts if column else self.values
        have = cache.get(vocab, _NO_IDS)
        if len(have) < len(strings):
            tail = vocab.ids_of(list(islice(strings, len(have), None)))
            have = cache[vocab] = np.concatenate([have, tail])
        return have


_NO_IDS = np.empty(0, np.int64)


class _Numbering(dict):
    """A dict that numbers each missing key it is asked for with its length."""

    __slots__ = ()

    def __missing__(self, key) -> int:
        self[key] = number = len(self)
        return number

    def since(self, known: int) -> list:
        """The keys numbered `known` and up, in order."""
        return list(islice(reversed(self), len(self) - known))[::-1]


class _Packed(Sequence):
    """Strings that hold no space, kept as one string joined by spaces and
    the end of each in it: no object per string."""

    __slots__ = ("joined", "ends")

    def __init__(self, strings: list[str]):
        self.joined = " ".join(strings)
        self.ends = array("q", accumulate(map((1).__add__, map(len, strings))))

    def __len__(self) -> int:
        return len(self.ends)

    def __getitem__(self, code: int) -> str:
        return self.joined[self.ends[code - 1] if code else 0:self.ends[code] - 1]

    def __iter__(self):
        return iter(self.joined.split(" ") if self.ends else ())


class Contexts(Sequence):
    """An example's path-contexts as an (n, 3) int32 array of codes into a
    SymbolTable: source value, path, target value. An item is a PathContext
    built when it is read; a slice is another Contexts on the same table."""

    __slots__ = ("codes", "table")

    def __init__(self, codes: np.ndarray, table: SymbolTable):
        self.codes = codes
        self.table = table

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Contexts(self.codes[index], self.table)
        source, path, target = self.codes[index].tolist()
        values = self.table.values
        return PathContext(values[source], self.table.path(path), values[target])

    def __iter__(self):
        values, path_of = self.table.values, self.table.path
        for source, path, target in self.codes.tolist():
            yield PathContext(values[source], path_of(path), values[target])

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


# The most path-contexts one method may yield. Pairs grow with the square of
# a node's breadth, so one 12 KB method can yield a million: a method past
# this fails, as one nested past minij.MAX_NESTING does.
MAX_CONTEXTS = 1 << 18


def extract_path_contexts(ast: Ast, limits: ExtractionLimits) -> Contexts:
    """One path-context per unordered terminal pair (i < j in DFS order)
    whose connecting path passes the length and pivot-width limits.

    Width is the child-index difference at the pivot between the two
    branches the path occupies. From each terminal the walk climbs at most
    max_length - 1 ancestors and, at each, descends only into the next
    max_width branches to the right, no deeper than the steps left. Right
    terminals under a nearer pivot come first in DFS order, so the output
    is in pair order. A path is numbered by its string, as a read numbers
    it; its AstPath is parsed when a context that holds it is first read.
    More than MAX_CONTEXTS contexts is a CodevecError.
    """
    nodes, parent, child_index = ast.nodes, ast.parent, ast.child_index
    terminals = ast.terminals()
    table = SymbolTable()
    value_code, path_code = table.value_codes.__getitem__, table.path_codes.__getitem__
    values = {n: value_code(normalize_value(nodes[n].kind, nodes[n].value)) for n in terminals}
    below = {}  # (branch, budget) -> _descend's lists, shared by many left terminals
    paths, targets, counts = array("i"), array("i"), []
    for left in terminals:
        up_text, branch, start = nodes[left].kind, left, len(paths)
        for steps_up in range(1, min(limits.max_length, ast.depth[left] + 1)):
            pivot = parent[branch]
            up_text += "^" + nodes[pivot].kind
            budget = limits.max_length - steps_up
            first = child_index[branch] + 1
            for right in nodes[pivot].children[first:first + limits.max_width]:
                if (right, budget) not in below:
                    below[right, budget] = _descend(nodes, values, right, budget)
                texts, codes = below[right, budget]
                if len(paths) + len(texts) > MAX_CONTEXTS:
                    raise CodevecError(f"{len(paths) + len(texts)} path-contexts, more than "
                                       f"the {MAX_CONTEXTS} allowed per method")
                paths.extend(map(path_code, map(up_text.__add__, texts)))
                targets.extend(codes)
            branch = pivot
        counts.append(len(paths) - start)
    table.values += table.value_codes
    table.texts += table.path_codes
    columns = np.empty((len(paths), 3), np.int32)
    columns[:, 0] = np.repeat([values[left] for left in terminals], counts)
    columns[:, 1], columns[:, 2] = paths, targets
    return Contexts(columns, table)


def _descend(nodes, values, branch: int, budget: int) -> tuple[list[str], array]:
    """The `_Kind_Kind` text from `branch` down, and the value code, of each
    terminal at most `budget` nodes deep in `branch`, in DFS order."""
    texts, codes = [], array("i")
    stack = [(branch, 1, "_" + nodes[branch].kind)]
    while stack:
        node_id, depth, text = stack.pop()
        if nodes[node_id].is_terminal:
            texts.append(text)
            codes.append(values[node_id])
        elif depth < budget:
            for child in reversed(nodes[node_id].children):
                stack.append((child, depth + 1, text + "_" + nodes[child].kind))
    return texts, codes


_PATH_SPLIT_RE = re.compile(r"([\^_])")
# Kinds separated by at least one '^' or '_', no kind empty.
PATH_STRING_RE = re.compile(r"[^\^_]+(?:[\^_][^\^_]+)+")


def path_to_string(path: AstPath) -> str:
    """Kinds joined by '^' (up) and '_' (down): the path's `text`."""
    return path.text


def path_from_string(text: str) -> AstPath:
    """Inverse of path_to_string."""
    if not PATH_STRING_RE.fullmatch(text):
        raise DatasetFormatError(f"malformed path string {text!r}")
    pieces = _PATH_SPLIT_RE.split(text)
    kinds = pieces[0::2]
    seps = pieces[1::2]
    directions = tuple(UP if s == "^" else DOWN for s in seps)
    return AstPath._with_text(tuple(kinds), directions, text)

