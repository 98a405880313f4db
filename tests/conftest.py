"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

from collections import Counter

import numpy as np

from codevec.ast_tree import Ast, AstBuilder, normalize_value
from codevec.corpus import EncodedExample, PAD_ID
from codevec.model import ModelDims
from codevec.paths import AstPath, DOWN, UP, ExtractionLimits

TERMINAL_KINDS = ["NameExpr", "IntegerLiteralExpr", "BooleanExpr", "Name", "Type"]
NONTERMINAL_KINDS = ["Block", "IfStmt", "Call", "BinaryExpr", "Return",
                     "AssignExpr", "Foreach", "WhileStmt", "FieldAccess"]
VALUES = ["x", "y", "foo", "bar7", "a_b", "total", "true", "0", "items"]


def random_ast(rng: np.random.Generator, max_terminals: int = 12) -> Ast:
    """Random valid tree; may degenerate to a single terminal."""
    builder = AstBuilder()
    budget = int(rng.integers(1, max_terminals + 1))

    def gen(depth: int, budget: int) -> tuple[int, int]:
        if budget == 1 and (depth > 0 or rng.random() < 0.2):
            if depth >= 2 or rng.random() < 0.5:
                return (builder.terminal(str(rng.choice(TERMINAL_KINDS)),
                                         str(rng.choice(VALUES))), 1)
        if depth >= 6:
            return (builder.terminal(str(rng.choice(TERMINAL_KINDS)),
                                     str(rng.choice(VALUES))), 1)
        n_children = int(rng.integers(1, 5))
        used = 0
        children = []
        for _ in range(n_children):
            if budget - used < 1:
                break
            child, child_used = gen(depth + 1, budget - used)
            children.append(child)
            used += child_used
        return builder.nonterminal(str(rng.choice(NONTERMINAL_KINDS)), children), used

    if budget == 1 and rng.random() < 0.5:
        root = builder.terminal(str(rng.choice(TERMINAL_KINDS)),
                                str(rng.choice(VALUES)))
    else:
        root, _ = gen(0, budget)
    return builder.build(root)


def random_path(rng: np.random.Generator) -> AstPath:
    ups = int(rng.integers(0, 4))
    downs = int(rng.integers(0, 4))
    if ups + downs == 0:
        ups = 1
    kinds = ([str(rng.choice(TERMINAL_KINDS))]
             + [str(rng.choice(NONTERMINAL_KINDS)) for _ in range(ups + downs - 1)]
             + [str(rng.choice(TERMINAL_KINDS))])
    directions = (UP,) * ups + (DOWN,) * downs
    return AstPath(tuple(kinds), directions)


def oracle_path_contexts(ast: Ast, limits: ExtractionLimits) -> Counter:
    """Multiset of the brute-force string triples."""
    return Counter(oracle_path_context_list(ast, limits))


def oracle_path_context_list(ast: Ast, limits: ExtractionLimits,
                             excluded: int | None = None) -> list:
    """Brute-force reference: walk root-paths for every terminal pair i < j
    in DFS order and filter by length and pivot width. Returns the string
    triples in pair order.

    `excluded` is a node treated as deleted: it contributes no terminals,
    and its later siblings' child indices move down by one.
    """
    parent = {}
    terminals = []

    def visit(node_id):
        node = ast.node(node_id)
        if node.value is not None:
            terminals.append(node_id)
        for child in node.children:
            if child != excluded:
                parent[child] = node_id
                visit(child)

    visit(ast.root)

    def root_path(node_id):
        path = [node_id]
        while path[-1] in parent:
            path.append(parent[path[-1]])
        return path[::-1]  # root .. node

    result = []
    for i in range(len(terminals)):
        for j in range(i + 1, len(terminals)):
            rp_a = root_path(terminals[i])
            rp_b = root_path(terminals[j])
            m = 0
            while m < len(rp_a) and m < len(rp_b) and rp_a[m] == rp_b[m]:
                m += 1
            length = (len(rp_a) - m) + (len(rp_b) - m)
            if length > limits.max_length:
                continue
            pivot = rp_a[m - 1]
            pivot_children = [c for c in ast.node(pivot).children if c != excluded]
            width = abs(pivot_children.index(rp_a[m]) - pivot_children.index(rp_b[m]))
            if width > limits.max_width:
                continue
            pieces = [ast.node(rp_a[-1]).kind]
            for idx in range(len(rp_a) - 2, m - 2, -1):
                pieces.append("^")
                pieces.append(ast.node(rp_a[idx]).kind)
            for node_id in rp_b[m:]:
                pieces.append("_")
                pieces.append(ast.node(node_id).kind)
            node_a = ast.node(terminals[i])
            node_b = ast.node(terminals[j])
            result.append((normalize_value(node_a.kind, node_a.value), "".join(pieces),
                           normalize_value(node_b.kind, node_b.value)))
    return result


def random_encoded(rng: np.random.Generator, dims: ModelDims,
                   n_valid: int | None = None) -> EncodedExample:
    """Random encoded example with at least one unmasked slot."""
    k = dims.k_max
    if n_valid is None:
        n_valid = int(rng.integers(1, k + 1))
    sources = np.full(k, PAD_ID, dtype=np.int64)
    paths = np.full(k, PAD_ID, dtype=np.int64)
    targets = np.full(k, PAD_ID, dtype=np.int64)
    mask = np.zeros(k, dtype=np.float64)
    sources[:n_valid] = rng.integers(1, dims.num_values, size=n_valid)
    paths[:n_valid] = rng.integers(1, dims.num_paths, size=n_valid)
    targets[:n_valid] = rng.integers(1, dims.num_values, size=n_valid)
    mask[:n_valid] = 1.0
    label = int(rng.integers(1, dims.num_tags))
    return EncodedExample(label, sources, paths, targets, mask)


# --- toy MiniJ corpus -------------------------------------------------------

_METHOD_TEMPLATES = {
    "getCount": "int getCount(Data {v}) {{ return {v}.count; }}",
    "setValue": "void setValue(int {v}) {{ value = {v}; }}",
    "isEmpty": ("boolean isEmpty(List {v}) {{ if ({v}.size == 0) "
                "{{ return true; }} else {{ return false; }} }}"),
    "sumArray": ("int sumArray(int[] {v}) {{ int total = 0; "
                 "for (int n : {v}) {{ total = total + n; }} return total; }}"),
    "findMax": ("int findMax(int[] {v}) {{ int best = {v}[0]; "
                "for (int n : {v}) {{ if (n > best) {{ best = n; }} }} "
                "return best; }}"),
    "printAll": "void printAll(List {v}) {{ for (Item it : {v}) {{ print(it); }} }}",
    "contains": ("boolean contains(List {v}, Object target) {{ "
                 "for (Object e : {v}) {{ if (e == target) {{ return true; }} }} "
                 "return false; }}"),
    "reverseList": ("List reverseList(List {v}) {{ List out = empty(); "
                    "for (Object e : {v}) {{ out = prepend(out, e); }} "
                    "return out; }}"),
    "countLines": ("int countLines(String {v}) {{ int lines = 0; "
                   "while (hasNext({v})) {{ lines = lines + 1; }} "
                   "return lines; }}"),
    "toUpper": "String toUpper(String {v}) {{ return upper({v}); }}",
}


def toy_minij_corpus(variants_per_label: int = 5) -> list[str]:
    """50 small methods over 10 labels, distinct variable names per variant."""
    sources = []
    for label, template in _METHOD_TEMPLATES.items():
        for i in range(variants_per_label):
            sources.append(template.format(v=f"arg{label.lower()}{i}"))
    return sources


# one `criterion N: PASS|FAIL` line per acceptance check, filled in by
# tests/test_acceptance.py and echoed after the run summary
ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
