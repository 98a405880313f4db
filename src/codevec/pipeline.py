"""Method-level extraction: labels a method by its declared name, removes
the name terminal (the prediction target must not leak into the inputs),
and emits the dataset example."""

from __future__ import annotations

import re

from .ast_tree import Ast, AstNode
from .corpus import RawExample
from .errors import CodevecError, DatasetFormatError
from .paths import ExtractionLimits, extract_path_contexts

# A kind is spliced into path strings, which split contexts on ',' and
# kinds on '^' and '_': one with ',' or an empty piece would not read back.
_BAD_KIND_RE = re.compile(r",|^[\^_]|[\^_]$|[\^_][\^_]")


def _name_child(ast: Ast) -> int:
    """Id of the MethodDecl root's Name terminal."""
    root = ast.node(ast.root)
    if root.kind != "MethodDecl":
        raise CodevecError(f"expected a MethodDecl root, found {root.kind!r}")
    for child_id in root.children:
        child = ast.node(child_id)
        if child.kind == "Name" and child.is_terminal:
            return child_id
    raise CodevecError("MethodDecl has no Name terminal")


def method_label(ast: Ast) -> str:
    """The declared name of a MethodDecl tree (case preserved)."""
    return ast.node(_name_child(ast)).value


def strip_method_name(ast: Ast) -> Ast:
    """The tree without the MethodDecl's Name child: the pool minus that
    node, with every id above it shifted down by one."""
    name_id = _name_child(ast)
    nodes = []
    for node_id, node in enumerate(ast.nodes):
        if node_id == name_id:
            continue
        if node.children:
            node = AstNode(node.kind, tuple(c - (c > name_id) for c in node.children
                                            if c != name_id))
        nodes.append(node)
    return Ast(tuple(nodes), ast.root - (ast.root > name_id))


def method_to_example(ast: Ast, limits: ExtractionLimits) -> RawExample:
    """Dataset example for one method: label from the declaration, contexts
    extracted from the body with the name terminal removed. A MethodDecl
    whose only child is its Name has no contexts; one with more than
    paths.MAX_CONTEXTS is a CodevecError that names it."""
    for kind in dict.fromkeys(node.kind for node in ast.nodes):
        if _BAD_KIND_RE.search(kind):
            raise DatasetFormatError(f"kind {kind!r} holds ',' or leaves an empty "
                                     "piece when split on '^' and '_'")
    label = method_label(ast)
    if len(ast.node(ast.root).children) == 1:
        return RawExample(label, [])
    stripped = strip_method_name(ast)
    try:
        contexts = extract_path_contexts(stripped, limits)
    except CodevecError as exc:  # over paths.MAX_CONTEXTS
        raise CodevecError(f"method {label!r}: {exc}") from None
    return RawExample(label, contexts)
