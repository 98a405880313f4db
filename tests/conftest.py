"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import re
import struct
from collections import Counter
from dataclasses import replace

import numpy as np

from codevec.ast_tree import Ast, AstBuilder, normalize_value
from codevec.corpus import (_KIND_ORDER, PAD_ID, UNK_ID, AblationMask, EncodedExample,
                            Vocab, Vocabs, example_rng, stack_examples)
from codevec.errors import DatasetFormatError
from codevec.model import ModelDims, save_model
from codevec.paths import AstPath, DOWN, UP, ExtractionLimits

TERMINAL_KINDS = ["NameExpr", "IntegerLiteralExpr", "BooleanExpr", "Name", "Type"]
NONTERMINAL_KINDS = ["Block", "IfStmt", "Call", "BinaryExpr", "Return",
                     "AssignExpr", "Foreach", "WhileStmt", "FieldAccess"]
VALUES = ["x", "y", "foo", "bar7", "a_b", "total", "true", "0", "items"]


def random_ast(rng: np.random.Generator, max_terminals: int = 12,
               max_children: int = 4, max_depth: int = 6) -> Ast:
    """Random valid tree; may degenerate to a single terminal. Inner nodes
    have 1..max_children children; nothing lies below depth max_depth."""
    builder = AstBuilder()
    budget = int(rng.integers(1, max_terminals + 1))

    def gen(depth: int, budget: int) -> tuple[int, int]:
        if budget == 1 and (depth > 0 or rng.random() < 0.2):
            if depth >= 2 or rng.random() < 0.5:
                return (builder.terminal(str(rng.choice(TERMINAL_KINDS)),
                                         str(rng.choice(VALUES))), 1)
        if depth >= max_depth:
            return (builder.terminal(str(rng.choice(TERMINAL_KINDS)),
                                     str(rng.choice(VALUES))), 1)
        n_children = int(rng.integers(1, max_children + 1))
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


def split_path(text: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The (kinds, directions) of a path string, split on '^' (UP) and '_'
    (DOWN): the parts `AstPath` renders, when no kind holds '^' or '_'."""
    pieces = re.split(r"([\^_])", text)
    return tuple(pieces[0::2]), tuple(UP if sep == "^" else DOWN for sep in pieces[1::2])


def reverse_path(path: str) -> AstPath:
    """Mirror a path: reversed kinds, flipped and reversed directions."""
    kinds, directions = split_path(path)
    flipped = tuple(DOWN if d == UP else UP for d in reversed(directions))
    return AstPath(tuple(reversed(kinds)), flipped)


def deep_method(depth: int) -> Ast:
    """`int deep(int x) { return x; }` with `depth` UnaryExpr nodes around
    the returned `x`. The Name terminal gets an id between the chain and the
    later root children, so stripping it renumbers both sides."""
    builder = AstBuilder()
    node = builder.terminal("NameExpr", "x")
    for _ in range(depth):
        node = builder.nonterminal("UnaryExpr", [node])
    children = [builder.terminal("Type", "int"), builder.terminal("Name", "deep"),
                builder.nonterminal("Parameter", [builder.terminal("Type", "int"),
                                                  builder.terminal("Name", "x")]),
                builder.nonterminal("Block", [builder.nonterminal("Return", [node])])]
    return builder.build(builder.nonterminal("MethodDecl", children))


def structurally_equal(a: Ast, b: Ast) -> bool:
    """True when two trees have the same shape, kinds, and values.

    Node ids are an internal detail, so tuple equality on the pools is not
    a meaningful comparison. The depth-first (kind, value, arity) sequence
    determines an ordered tree.
    """

    def shape(ast: Ast):
        return [(n.kind, n.value, len(n.children))
                for n in map(ast.nodes.__getitem__, ast.order)]

    return shape(a) == shape(b)


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def write_sexpr_ast(ast: Ast) -> str:
    """Serialize an Ast to the canonical S-expression form that
    `ast_tree.read_sexpr_asts` reads."""
    parts = []
    open_count = 0  # unclosed nonterminals: the ancestors of the next node
    for node_id in ast.order:
        depth = ast.depth[node_id]
        if node_id != ast.root:
            parts.append(")" * (open_count - depth) + " ")
        node = ast.nodes[node_id]
        if node.is_terminal:
            parts.append(f'({node.kind} "{_escape(node.value)}")')
            open_count = depth
        else:
            parts.append(f"({node.kind}")
            open_count = depth + 1
    parts.append(")" * open_count)
    return "".join(parts)


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


def reference_encode_example(raw, vocabs: Vocabs, k_max: int, rng,
                             ablation: AblationMask) -> EncodedExample:
    """The string-lookup encoder that codes replaced: the same sampling draw,
    then each kept component looked up in its Vocab by its string."""
    contexts = list(raw.contexts)
    if len(contexts) > k_max:
        keep = np.sort(rng.choice(len(contexts), size=k_max, replace=False)).tolist()
        contexts = [contexts[i] for i in keep]
    n = len(contexts)
    value_id, path_id = vocabs.values._index.get, vocabs.paths._index.get
    sources, paths, targets = (np.full(k_max, PAD_ID, dtype=np.int64) for _ in range(3))
    sources[:n] = (UNK_ID if ablation.hide_source
                   else [value_id(c.source_value, UNK_ID) for c in contexts])
    paths[:n] = (UNK_ID if ablation.hide_path
                 else [path_id(c.path, UNK_ID) for c in contexts])
    targets[:n] = (UNK_ID if ablation.hide_target
                   else [value_id(c.target_value, UNK_ID) for c in contexts])
    mask = np.zeros(k_max, dtype=np.float64)
    mask[:n] = 1.0
    return EncodedExample(vocabs.tags.id_of(raw.label), sources, paths, targets, mask)


def reference_encode_batch(examples, positions, vocabs: Vocabs, k_max: int, seed: int,
                           ablation: AblationMask, epoch: int = 0) -> EncodedExample:
    """`corpus.encode_batch` on `reference_encode_example`."""
    return stack_examples([
        reference_encode_example(examples[i], vocabs, k_max, example_rng(seed, i, epoch)
                                 if len(examples[i].contexts) > k_max else None, ablation)
        for i in positions])


def tag_vocabs(num_tags: int) -> Vocabs:
    """Vocabularies with `num_tags` tags, reserved ids included; tag id i
    past PAD and UNK is named `tag<i>`. The value and path vocabularies are
    empty: only the tag names are read."""
    return Vocabs(Vocab([]), Vocab([]),
                  Vocab([(f"tag{i}", 1) for i in range(2, num_tags)]))


def reference_parse_vocabs(text: str) -> Vocabs:
    """`corpus.parse_vocabs` as a loop over lines: the reference that the
    array parser must agree with, entry, count and error message alike."""
    buckets: dict[str, list[tuple[str, int]]] = {k: [] for k in _KIND_ORDER}
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        kind, _, rest = line.partition("\t")
        entry, tab, count_text = rest.rpartition("\t")
        if not tab or kind not in buckets:
            raise DatasetFormatError(f"vocab line {lineno}: malformed entry")
        try:
            count = int(count_text)
            if str(count) != count_text:  # only the digits format_vocabs writes
                raise ValueError(count_text)
        except ValueError:
            raise DatasetFormatError(f"vocab line {lineno}: bad count") from None
        buckets[kind].append((entry, count))
    return Vocabs(values=Vocab(buckets["value"]), paths=Vocab(buckets["path"]),
                  tags=Vocab(buckets["tag"]))


def as_float64(params):
    """The parameters in double precision: float64 oracles such as finite
    differences keep their tight tolerances on them."""
    return replace(params, **{name: arr.astype(np.float64)
                              for name, arr in params.groups().items()})


def save_model_with(path, params, vocabs, name: str, index: tuple, value: float) -> None:
    """`save_model`, then the stored float32 at `index` of group `name`
    overwritten with `value`: how a test writes a file `save_model` refuses."""
    save_model(str(path), params, vocabs)
    with open(path, "r+b") as handle:
        (blob_len,) = struct.unpack_from("<I", handle.read(36), 32)
        offset = 36 + blob_len
        for group, arr in params.groups().items():
            if group == name:
                offset += 4 * int(np.ravel_multi_index(index, arr.shape))
                break
            offset += 4 * arr.size
        handle.seek(offset)
        handle.write(np.array(value, dtype="<f4").tobytes())


def dense_gradients(params, grads) -> dict:
    """Every group's gradient as a full array: the row-sparse embedding
    gradients scattered into zeros."""
    dense = dict(grads.by_name)
    for name, (ids, rows) in grads.rows.items():
        full = np.zeros_like(params.groups()[name])
        full[ids] = rows
        dense[name] = full
    return dense


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


def long_minij_method(rng: np.random.Generator, statements: int) -> str:
    """One MiniJ method `f` of `statements` random statements, nested blocks
    counted, over a few names: the wide, deep trees of real long methods."""
    names = ["a", "b", "n", "total", "items", "node"]

    def pick(options):
        return options[int(rng.integers(len(options)))]

    def expr(depth=0):
        roll = rng.random()
        if depth >= 2 or roll < 0.3:
            return pick([pick(names), str(int(rng.integers(10))),
                         f"{pick(names)}.size", f"{pick(names)}[{pick(names)}]"])
        if roll < 0.7:
            op = pick(["+", "*", "<", "==", "&&"])
            return f"{expr(depth + 1)} {op} {expr(depth + 1)}"
        args = ", ".join(expr(depth + 1) for _ in range(int(rng.integers(1, 4))))
        return f"{pick(['g', 'h'])}({args})"

    def block(budget, nesting):
        parts = []
        while budget > 0:
            roll = rng.random()
            if budget >= 3 and nesting < 3 and roll < 0.25:
                inner = int(rng.integers(1, min(budget - 1, 6) + 1))
                head = pick([f"if ({expr()})", f"while ({expr()})",
                             f"for (int {pick(names)} : {pick(names)})"])
                parts.append(f"{head} {{ {block(inner, nesting + 1)} }}")
                budget -= inner + 1
            else:
                parts.append(pick([f"int {pick(names)} = {expr()};",
                                   f"{pick(names)} = {expr()};", f"g({expr()});"]))
                budget -= 1
        return " ".join(parts)

    return f"int f(int a, List items) {{ {block(statements - 1, 0)} return {expr()}; }}"


# One MiniJ method per construct that counts toward the parser's nesting
# limit, nested `n` levels deep.
NESTING_SHAPES = {
    "parentheses": lambda n: "int f() { return " + "(" * n + "x" + ")" * n + "; }",
    "calls": lambda n: "int f() { return " + "g(" * n + "x" + ")" * n + "; }",
    "indexing": lambda n: "int f() { return " + "a[" * n + "0" + "]" * n + "; }",
    "unary minus": lambda n: "int f() { return " + "-" * n + "x; }",
    "if blocks": lambda n: "int f() { " + "if (c) { " * n + "x;" + " }" * n + " }",
    "loop bodies": lambda n: "int f() { " + "while (c) " * n + "x; }",
}


# one `criterion N: PASS|FAIL` line per acceptance check, filled in by
# tests/test_acceptance.py and echoed after the run summary
ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
