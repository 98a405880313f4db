from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codevec.ast_tree import AstBuilder, read_sexpr_asts
from codevec.minij import parse_methods
from codevec.paths import (DOWN, UP, AstPath, ExtractionLimits, PathContext,
                           extract_path_contexts, path_from_string,
                           path_to_string)
from codevec.pipeline import method_to_example

from conftest import (NONTERMINAL_KINDS, TERMINAL_KINDS, long_minij_method,
                      oracle_path_context_list, oracle_path_contexts,
                      random_ast, random_path)


# The tree of the statement `x = 7;`.
ASSIGNMENT = '(AssignExpr (NameExpr "x") (IntegerLiteralExpr "7"))'


def as_triples(contexts):
    return [(c.source_value, path_to_string(c.path), c.target_value)
            for c in contexts]


def reverse_path(path: AstPath) -> AstPath:
    """Mirror a path: reversed kinds, flipped and reversed directions."""
    flipped = tuple(DOWN if d == UP else UP for d in reversed(path.directions))
    return AstPath(tuple(reversed(path.kinds)), flipped)


def reverse_context(ctx: PathContext) -> PathContext:
    return PathContext(ctx.target_value, reverse_path(ctx.path), ctx.source_value)


def random_method(rng: np.random.Generator):
    """A MethodDecl over random subtrees: an optional leading Type, the Name
    terminal, then 1-4 random subtrees. Returns (ast, name node id)."""
    builder = AstBuilder()

    def copy(ast, node_id):
        node = ast.node(node_id)
        if node.is_terminal:
            return builder.terminal(node.kind, node.value)
        return builder.nonterminal(node.kind, [copy(ast, c) for c in node.children])

    children = [builder.terminal("Type", "int")] if rng.random() < 0.5 else []
    name = builder.terminal("Name", "methodName")
    children.append(name)
    for _ in range(int(rng.integers(1, 5))):
        sub = random_ast(rng, max_terminals=6)
        children.append(copy(sub, sub.root))
    return builder.build(builder.nonterminal("MethodDecl", children)), name


class TestExtraction:
    def test_assignment_example(self):
        (ast,) = read_sexpr_asts(ASSIGNMENT)
        contexts = extract_path_contexts(ast, ExtractionLimits(8, 2))
        assert as_triples(contexts) == [
            ("x", "NameExpr^AssignExpr_IntegerLiteralExpr", "7")]

    def test_single_terminal_yields_nothing(self):
        (ast,) = read_sexpr_asts('(NameExpr "x")')
        assert extract_path_contexts(ast, ExtractionLimits()) == []

    def test_matches_oracle_on_random_trees(self):
        rng = np.random.default_rng(23)
        for _ in range(150):
            ast = random_ast(rng)
            limits = ExtractionLimits(int(rng.integers(2, 9)),
                                      int(rng.integers(0, 4)))
            got = Counter(as_triples(extract_path_contexts(ast, limits)))
            assert got == oracle_path_contexts(ast, limits)

    def test_limits_filter(self):
        (ast,) = parse_methods("boolean f(Object target) { return true; }")
        wide = as_triples(extract_path_contexts(ast, ExtractionLimits(8, 3)))
        narrow = as_triples(extract_path_contexts(ast, ExtractionLimits(8, 0)))
        short = as_triples(extract_path_contexts(ast, ExtractionLimits(2, 3)))
        assert set(narrow) <= set(wide)
        assert set(short) <= set(wide)
        assert len(narrow) < len(wide)

    def test_monotone_in_limits(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            ast = random_ast(rng)
            small = Counter(as_triples(
                extract_path_contexts(ast, ExtractionLimits(3, 1))))
            large = Counter(as_triples(
                extract_path_contexts(ast, ExtractionLimits(5, 2))))
            assert all(large[key] >= count for key, count in small.items())

    def test_shape_and_bounds(self):
        rng = np.random.default_rng(17)
        limits = ExtractionLimits(6, 2)
        for _ in range(40):
            ast = random_ast(rng)
            for ctx in extract_path_contexts(ast, limits):
                directions = ctx.path.directions
                assert len(directions) <= limits.max_length
                # ascent-then-descent: no UP after a DOWN
                seen_down = False
                for d in directions:
                    if d == DOWN:
                        seen_down = True
                    else:
                        assert not seen_down

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        ast = random_ast(rng)
        limits = ExtractionLimits()
        assert (as_triples(extract_path_contexts(ast, limits))
                == as_triples(extract_path_contexts(ast, limits)))

    def test_output_order_follows_terminal_pairs(self):
        (ast,) = parse_methods("boolean f(Object t) { return true; }")
        contexts = extract_path_contexts(ast, ExtractionLimits(10, 10))
        sources = [c.source_value for c in contexts]
        # DFS terminal order: boolean, f, Object, t, true
        assert sources == sorted(sources, key=["boolean", "f", "Object",
                                               "t", "true"].index)

    def test_method_contexts_in_brute_force_order(self):
        # Sampling in encode_example picks by position, so the order of
        # method_to_example's contexts matters, not just their multiset.
        rng = np.random.default_rng(31)
        total = 0
        for _ in range(150):
            ast, name = random_method(rng)
            limits = ExtractionLimits(int(rng.integers(2, 9)),
                                      int(rng.integers(0, 4)))
            example = method_to_example(ast, limits)
            assert example.label == "methodName"
            expected = oracle_path_context_list(ast, limits, excluded=name)
            assert as_triples(example.contexts) == expected
            total += len(expected)
        assert total > 1000


class TestPrunedWalk:
    """Trees large enough to hold the pairs the walk never visits: sibling
    branches past max_width and terminals past max_length. The output must
    still be the brute-force list, in order."""

    @staticmethod
    def assert_matches_oracle(ast, limits, excluded=None):
        expected = oracle_path_context_list(ast, limits, excluded=excluded)
        if excluded is None:
            got = extract_path_contexts(ast, limits)
        else:
            got = method_to_example(ast, limits).contexts
        assert as_triples(got) == expected
        return expected

    def test_wide_trees(self):
        rng = np.random.default_rng(41)
        too_wide = 0
        for _ in range(60):
            ast = random_ast(rng, max_terminals=40, max_children=12)
            limits = ExtractionLimits(int(rng.integers(2, 9)), int(rng.integers(0, 4)))
            self.assert_matches_oracle(ast, limits)
            too_wide += max(len(n.children) for n in ast.nodes) > limits.max_width + 1
        assert too_wide >= 40

    def test_trees_deeper_than_max_length(self):
        rng = np.random.default_rng(43)
        too_deep = 0
        for _ in range(60):
            ast = random_ast(rng, max_terminals=30, max_children=3, max_depth=14)
            limits = ExtractionLimits(int(rng.integers(2, 7)), int(rng.integers(1, 3)))
            self.assert_matches_oracle(ast, limits)
            too_deep += max(ast.depth) > limits.max_length
        assert too_deep >= 40

    def test_branch_in_width_but_deeper_than_the_steps_left(self):
        # From x the IfStmt branch is in width, but with 2 steps left below
        # the root Block only c is in reach: `deep` is 4 steps down.
        (ast,) = read_sexpr_asts(
            '(Block (NameExpr "x") (IfStmt (BooleanExpr "c") '
            '(Block (Return (NameExpr "deep")))) (NameExpr "y"))')
        assert self.assert_matches_oracle(ast, ExtractionLimits(3, 2)) == [
            ("x", "NameExpr^Block_IfStmt_BooleanExpr", "c"),
            ("x", "NameExpr^Block_NameExpr", "y"),
            ("c", "BooleanExpr^IfStmt^Block_NameExpr", "y")]

    @pytest.mark.parametrize("statements", [20, 40, 60])
    def test_long_minij_methods(self, statements):
        rng = np.random.default_rng(statements)
        for limits in (ExtractionLimits(), ExtractionLimits(int(rng.integers(2, 9)),
                                                            int(rng.integers(0, 4)))):
            (ast,) = parse_methods(long_minij_method(rng, statements))
            name = next(c for c in ast.node(ast.root).children
                        if ast.node(c).kind == "Name")
            assert self.assert_matches_oracle(ast, limits, excluded=name)

    def test_edge_limits(self):
        rng = np.random.default_rng(47)
        trees = [random_ast(rng, max_terminals=30, max_children=8, max_depth=10)
                 for _ in range(20)]
        trees += parse_methods(long_minij_method(rng, 15))
        for ast in trees:
            assert extract_path_contexts(ast, ExtractionLimits(8, 0)) == []
            assert extract_path_contexts(ast, ExtractionLimits(1, 5)) == []
            # Limits wider than the tree keep every pair.
            everything = ExtractionLimits(2 * max(ast.depth),
                                          max(len(n.children) for n in ast.nodes))
            pairs = len(ast.terminals()) * (len(ast.terminals()) - 1) // 2
            assert len(self.assert_matches_oracle(ast, everything)) == pairs


class TestPathStrings:
    def test_example_path(self):
        path = AstPath(("NameExpr", "AssignExpr", "IntegerLiteralExpr"),
                       (UP, DOWN))
        assert path_to_string(path) == "NameExpr^AssignExpr_IntegerLiteralExpr"

    def test_minimal_path(self):
        path = AstPath(("Name", "Block", "Name"), (UP, DOWN))
        assert path_to_string(path) == "Name^Block_Name"

    def test_long_mixed_path_renders(self):
        kinds = ("Name", "FieldAccess", "Foreach", "Block", "IfStmt", "Block",
                 "Return", "BooleanExpr")
        path = AstPath(kinds, (UP, UP) + (DOWN,) * 5)
        assert path_to_string(path) == ("Name^FieldAccess^Foreach_Block_IfStmt"
                                        "_Block_Return_BooleanExpr")

    def test_round_trip_random_paths(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            path = random_path(rng)
            assert path_from_string(path_to_string(path)) == path

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            AstPath(("A",), ())
        with pytest.raises(ValueError):
            AstPath(("A", "B"), (UP, DOWN))


@st.composite
def paths(draw):
    ups = draw(st.integers(0, 3))
    downs = draw(st.integers(0, 3))
    if ups + downs == 0:
        ups = 1
    interior = st.sampled_from(NONTERMINAL_KINDS)
    kinds = ([draw(st.sampled_from(TERMINAL_KINDS))]
             + [draw(interior) for _ in range(ups + downs - 1)]
             + [draw(st.sampled_from(TERMINAL_KINDS))])
    return AstPath(tuple(kinds), (UP,) * ups + (DOWN,) * downs)


class TestReverse:
    def test_simple_mirror(self):
        path = path_from_string("A^P_B")
        assert path_to_string(reverse_path(path)) == "B^P_A"

    def test_example_path_reversed(self):
        path = path_from_string("NameExpr^AssignExpr_IntegerLiteralExpr")
        assert (path_to_string(reverse_path(path))
                == "IntegerLiteralExpr^AssignExpr_NameExpr")

    @given(paths())
    @settings(max_examples=200)
    def test_involution(self, path):
        assert reverse_path(reverse_path(path)) == path

    def test_context_mirror(self):
        (ast,) = read_sexpr_asts(ASSIGNMENT)
        (ctx,) = extract_path_contexts(ast, ExtractionLimits())
        mirrored = reverse_context(ctx)
        assert (mirrored.source_value, mirrored.target_value) == ("7", "x")
        assert reverse_context(mirrored) == ctx
