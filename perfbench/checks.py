"""Reference computations the benchmark compares program outputs against.
They run after the timed passes, with tracing removed, so they cost no
measured time."""

from __future__ import annotations

import numpy as np

from codevec import model
from codevec.ast_tree import normalize_value
from codevec.paths import path_to_string


def reference_contexts(ast, limits) -> list[tuple[str, str, str]]:
    """Order-aware brute force: every terminal pair i < j in DFS order of the
    method without its Name child, filtered by length and pivot width, as
    (source, path string, target) triples. Removing the Name child shifts
    the child indices of its later siblings at the root, as in the program.
    """
    root = ast.node(ast.root)
    name_id = next(c for c in root.children
                   if ast.node(c).kind == "Name" and ast.node(c).is_terminal)
    index = {}
    chains = []  # root-to-terminal node lists, in DFS order
    stack = [(ast.root, (ast.root,))]
    while stack:
        node_id, chain = stack.pop()
        node = ast.node(node_id)
        if node.is_terminal:
            chains.append(chain)
            continue
        children = [c for c in node.children
                    if not (node_id == ast.root and c == name_id)]
        for i, child in enumerate(children):
            index[child] = i
        stack.extend((c, chain + (c,)) for c in reversed(children))

    def kind(node_id):
        return ast.node(node_id).kind

    def value(node_id):
        node = ast.node(node_id)
        return normalize_value(node.kind, node.value)

    out = []
    for i, a in enumerate(chains):
        for b in chains[i + 1:]:
            m = 0
            while a[m] == b[m]:
                m += 1
            if len(a) - m + len(b) - m > limits.max_length:
                continue
            if abs(index[a[m]] - index[b[m]]) > limits.max_width:
                continue
            text = "^".join(kind(n) for n in reversed(a[m - 1:]))
            text += "".join("_" + kind(n) for n in b[m:])
            out.append((value(a[-1]), text, value(b[-1])))
    return out


def as_triples(example) -> list[tuple[str, str, str]]:
    return [(c.source_value, path_to_string(c.path), c.target_value)
            for c in example.contexts]


def reference_topk(params, encoded, k: int, vocabs) -> list[tuple[str, float]]:
    """Full sort of the name distribution, ties broken by tag id."""
    q = model.forward(params, encoded, mode="infer").q
    ranked = sorted(range(len(q)), key=lambda i: (-q[i], i))[:k]
    return [(vocabs.tags.entry(i), float(q[i])) for i in ranked]


def same_ranking(got, expected, rel_tol: float = 1e-6) -> bool:
    """Names identical and in order; scores equal within `rel_tol`."""
    return (len(got) == len(expected)
            and all(g[0] == e[0] for g, e in zip(got, expected))
            and np.allclose([g[1] for g in got], [e[1] for e in expected],
                            rtol=rel_tol, atol=1e-12))
