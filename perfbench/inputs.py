"""Seeded input generators for the benchmark workloads.

Every generator takes a `numpy.random.Generator`, so one seed gives the same
inputs. The program under test only ever sees what these functions return:
MiniJ source text (long-method workload) or raw examples and vocabulary
entries (paper-scale workload).
"""

from __future__ import annotations

import numpy as np

from codevec.corpus import RawExample
from codevec.paths import DOWN, UP, AstPath, PathContext


def _balanced(rng: np.random.Generator, count: int, kinds: int) -> np.ndarray:
    """`count` labels in random order, each of `kinds` as often as possible,
    so that the cost mix of a run does not depend on the seed."""
    return rng.permutation(np.arange(count) % kinds)


# --- long-method workload ------------------------------------------------------
#
# Random statement trees with bounded nesting. Each label has its own
# identifier pool, so labels stay learnable from a small training set while
# the trees grow to thousands of terminals.

LONG_LABELS = {
    "processOrders": ["order", "orders", "qty", "price", "customer", "invoice"],
    "updateCache": ["cache", "entry", "stale", "ttl", "hits", "evicted"],
    "parseConfig": ["config", "option", "token", "section", "raw", "parsed"],
    "renderPage": ["page", "widget", "layout", "canvas", "style", "frame"],
    "validateInput": ["input", "field", "rule", "error", "valid", "report"],
    "computeStats": ["sample", "mean", "variance", "bucket", "total", "stats"],
}
_SHARED_NAMES = ["i", "j", "n", "tmp", "result", "count", "flag", "next"]
_CALLS = ["check", "emit", "load", "store", "merge", "apply", "lookup", "reset"]
_FIELDS = ["size", "length", "first", "next", "value", "parent"]
_TYPES = ["int", "boolean", "String", "List", "Map", "Object"]
_MAX_NESTING = 3


class _MethodWriter:
    def __init__(self, rng: np.random.Generator, names: list[str]):
        self.rng = rng
        self.names = names

    def pick(self, options):
        return options[int(self.rng.integers(len(options)))]

    def name(self) -> str:
        pool = self.names if self.rng.random() < 0.9 else _SHARED_NAMES
        return self.pick(pool)

    def atom(self) -> str:
        roll = self.rng.random()
        if roll < 0.55:
            return self.name()
        if roll < 0.75:
            return str(int(self.rng.integers(0, 10)))
        if roll < 0.9:
            return f"{self.name()}.{self.pick(_FIELDS)}"
        return f"{self.name()}[{self.name()}]"

    def expr(self, depth: int = 0) -> str:
        roll = self.rng.random()
        if depth >= 2 or roll < 0.4:
            return self.atom()
        if roll < 0.75:
            op = self.pick(["+", "-", "*", "<", ">", "==", "&&"])
            return f"{self.expr(depth + 1)} {op} {self.expr(depth + 1)}"
        args = ", ".join(self.expr(depth + 1)
                         for _ in range(int(self.rng.integers(1, 3))))
        return f"{self.pick(_CALLS)}({args})"

    def block(self, budget: int, nesting: int) -> tuple[str, int]:
        """Statements using at most `budget` statements (at least one)."""
        parts, used = [], 0
        while used < budget:
            text, n = self.statement(budget - used, nesting)
            parts.append(text)
            used += n
        return " ".join(parts), used

    def statement(self, budget: int, nesting: int) -> tuple[str, int]:
        roll = self.rng.random()
        if budget >= 3 and nesting < _MAX_NESTING and roll < 0.25:
            inner = int(self.rng.integers(1, min(budget - 1, 8) + 1))
            body, used = self.block(inner, nesting + 1)
            kind = self.pick(["if", "while", "for"])
            if kind == "if":
                head = f"if ({self.expr()})"
            elif kind == "while":
                head = f"while ({self.expr()})"
            else:
                head = f"for ({self.pick(_TYPES)} {self.name()} : {self.name()})"
            return f"{head} {{ {body} }}", used + 1
        if roll < 0.5:
            return f"{self.pick(_TYPES)} {self.name()} = {self.expr()};", 1
        if roll < 0.8:
            return f"{self.name()} = {self.expr()};", 1
        return f"{self.pick(_CALLS)}({self.expr()});", 1


def long_method(rng: np.random.Generator, label: str, statements: int) -> str:
    """One MiniJ method of `statements` statements (nested ones included)."""
    writer = _MethodWriter(rng, LONG_LABELS[label])
    body, _ = writer.block(statements - 1, 0)
    params = ", ".join(f"{writer.pick(_TYPES)} {name}"
                       for name in LONG_LABELS[label][:2])
    return f"int {label}({params}) {{ {body} return {writer.expr()}; }}"


# --- paper-scale workload --------------------------------------------------------
#
# Vocabularies at the paper's cutoffs (50k values, 50k paths, 10k tags) and
# examples of 100-400 contexts whose component ranks are Zipf-distributed.
# Each label draws its ranks through its own permutation of the vocabulary,
# so a few Adam steps separate labels and the held-out F1 is not noise.

PAPER_VALUES = 50_000
PAPER_PATHS = 50_000
PAPER_TAGS = 10_000
PAPER_LABELS = 16  # distinct labels in the examples, from the head of the tags
ZIPF_EXPONENT = 1.1
OOV_RATE = 0.03

_VERBS = ["get", "set", "is", "has", "add", "remove", "find", "create", "update",
          "load", "save", "parse", "build", "check", "compute", "read", "write",
          "reset", "apply", "merge"]
_NOUNS = ["user", "name", "file", "item", "value", "count", "list", "map", "node",
          "path", "key", "index", "size", "text", "line", "data", "config",
          "cache", "order", "event", "token", "field", "record", "page", "state"]
_PATH_KINDS = ["Block", "IfStmt", "WhileStmt", "Foreach", "Call", "BinaryExpr",
               "AssignExpr", "VarDecl", "Return", "FieldAccess", "ArrayAccess",
               "UnaryExpr", "MethodDecl", "Parameter"]
_TERMINAL_KINDS = ["NameExpr", "IntegerLiteralExpr", "Name", "Type",
                   "BooleanExpr", "StringLiteralExpr"]


def _zipf_counts(n: int, scale: float) -> list[int]:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    return [int(c) + 1 for c in scale / ranks ** ZIPF_EXPONENT]


def _tag_names() -> list[str]:
    names = [f"{verb}{a.capitalize()}{b.capitalize()}"
             for verb in _VERBS for a in _NOUNS for b in _NOUNS if a != b]
    return names[:PAPER_TAGS]


def _paths(rng: np.random.Generator) -> list[AstPath]:
    seen: set[tuple[str, ...]] = set()
    out = []
    while len(out) < PAPER_PATHS:
        ups = int(rng.integers(1, 5))
        downs = int(rng.integers(1, 5))
        middle = [_PATH_KINDS[i] for i in rng.integers(len(_PATH_KINDS),
                                                          size=ups + downs - 1)]
        ends = [_TERMINAL_KINDS[i] for i in rng.integers(len(_TERMINAL_KINDS), size=2)]
        kinds = (ends[0], *middle, ends[1])
        if kinds in seen:
            continue
        seen.add(kinds)
        out.append(AstPath(kinds, (UP,) * ups + (DOWN,) * downs))
    return out


class PaperCorpus:
    """Vocabulary entries with Zipf counts, and a sampler of raw examples."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.values = [f"v{i}" for i in range(PAPER_VALUES)]
        self.paths = _paths(rng)
        self.tags = _tag_names()
        self.value_counts = _zipf_counts(PAPER_VALUES, 1e6)
        self.path_counts = _zipf_counts(PAPER_PATHS, 1e6)
        self.tag_counts = _zipf_counts(PAPER_TAGS, 1e5)
        weights = 1.0 / np.arange(1, PAPER_VALUES + 1) ** ZIPF_EXPONENT
        self._cdf = np.cumsum(weights) / weights.sum()
        self._perms = {label: (rng.permutation(PAPER_VALUES),
                               rng.permutation(PAPER_PATHS))
                       for label in range(PAPER_LABELS)}

    def vocab_entries(self):
        """(values, paths, tags) as frequency-descending (entry, count) lists."""
        from codevec.paths import path_to_string
        return (list(zip(self.values, self.value_counts)),
                list(zip([path_to_string(p) for p in self.paths], self.path_counts)),
                list(zip(self.tags, self.tag_counts)))

    def _ranks(self, size: int) -> np.ndarray:
        return np.minimum(np.searchsorted(self._cdf, self.rng.random(size)),
                          PAPER_VALUES - 1)

    def _value(self, rank: int) -> str:
        if self.rng.random() < OOV_RATE:
            return f"oov{rank}"
        return self.values[rank]

    def examples(self, count: int) -> list[RawExample]:
        out = []
        for label in _balanced(self.rng, count, PAPER_LABELS):
            value_perm, path_perm = self._perms[label]
            n = int(self.rng.integers(100, 401))
            sources = value_perm[self._ranks(n)]
            paths = path_perm[self._ranks(n)]
            targets = value_perm[self._ranks(n)]
            contexts = [PathContext(self._value(s), self.paths[p], self._value(t))
                        for s, p, t in zip(sources, paths, targets)]
            out.append(RawExample(self.tags[label], contexts))
        return out
