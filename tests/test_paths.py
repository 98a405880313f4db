import io
import re
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codevec.ast_tree import Ast, AstBuilder, AstNode, read_sexpr_asts
from codevec.corpus import RawExample, read_dataset, write_dataset
from codevec.errors import CodevecError, DatasetFormatError
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


class TestContextBudget:
    """A method past MAX_CONTEXTS fails before its contexts are built; below
    it the walk's output is what it would be without the budget."""

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(0, 3), st.data())
    @settings(max_examples=150, deadline=None)
    def test_below_the_budget_the_output_is_unchanged(self, seed, length, width, data):
        ast = random_ast(np.random.default_rng(seed), max_terminals=20)
        limits = ExtractionLimits(length, width)
        full = extract_path_contexts(ast, limits)
        budget = data.draw(st.integers(0, len(full) + 2))
        with mock.patch("codevec.paths.MAX_CONTEXTS", budget):
            if len(full) > budget:
                message = rf"^\d+ path-contexts, more than the {budget} allowed per method$"
                with pytest.raises(CodevecError, match=message) as info:
                    extract_path_contexts(ast, limits)
                reached = int(info.value.args[0].split()[0])
                assert budget < reached <= len(full)
                return
            got = extract_path_contexts(ast, limits)
        np.testing.assert_array_equal(got.codes, full.codes)
        assert got.codes.dtype == np.int32
        assert list(got.table.values) == list(full.table.values)
        assert list(got.table.texts) == list(full.table.texts)
        assert got == full

    def test_method_past_the_budget_is_named(self):
        (ast,) = parse_methods("int getX() { return g(a, b, c) + h(d, e, f); }")
        assert len(method_to_example(ast, ExtractionLimits()).contexts) == 34
        with mock.patch("codevec.paths.MAX_CONTEXTS", 33):
            with pytest.raises(CodevecError, match=r"^method 'getX': 34 path-contexts, more "
                                                   r"than the 33 allowed per method$"):
                method_to_example(ast, ExtractionLimits())


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

    @pytest.mark.parametrize("kind", ["Re,turn", ",", "_Ret", "A_", "A^^B", "A_^B"])
    def test_kind_that_breaks_path_strings(self, kind):
        # The tree reads; its method fails, as one with a bad label does.
        (ast,) = read_sexpr_asts(f'(MethodDecl (Name "f") (Block ({kind} "x")))')
        with pytest.raises(DatasetFormatError,
                           match=f"^kind {re.escape(repr(kind))} holds ','"):
            method_to_example(ast, ExtractionLimits(8, 2))

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

    def test_text_plays_no_part_in_equality_hash_or_repr(self):
        path = AstPath(("Name", "Block", "Name"), (UP, DOWN))
        other = AstPath(("Name", "Block", "Name"), (UP, DOWN))
        object.__setattr__(other, "text", "something else")
        assert path == other and hash(path) == hash(other)
        assert repr(path) == repr(other) and "text" not in repr(path)
        assert path != AstPath(("Name", "Block", "Name"), (UP, UP))

    @given(st.lists(st.sampled_from(TERMINAL_KINDS + NONTERMINAL_KINDS),
                    min_size=2, max_size=10), st.data())
    @settings(max_examples=200)
    def test_text_is_the_rendering_for_any_directions(self, kinds, data):
        # Any direction sequence, down-then-up included, not only the
        # ups-then-downs that extraction emits.
        directions = tuple(data.draw(st.lists(st.sampled_from([UP, DOWN]),
                                              min_size=len(kinds) - 1,
                                              max_size=len(kinds) - 1)))
        path = AstPath(tuple(kinds), directions)
        rendered = kinds[0] + "".join(("^" if d == UP else "_") + k
                                      for d, k in zip(directions, kinds[1:]))
        assert path.text == path_to_string(path) == rendered
        assert path_from_string(path.text) == path


# Legal kinds whose path text does not split back into them, so a path's
# kinds can only have come from the tree, not from its text.
SPLICED = {**{kind: kind for kind in TERMINAL_KINDS + NONTERMINAL_KINDS},
           "IfStmt": "Block^Call", "WhileStmt": "Block_Call",
           "Foreach": "F^or_each", "NameExpr": "Name_Expr"}


def splice(ast: Ast) -> Ast:
    """The tree with each kind replaced by its SPLICED kind."""
    return Ast(tuple(AstNode(SPLICED[n.kind], n.children, n.value) for n in ast.nodes), ast.root)


class TestPathConstruction:
    """The walk and the reader number paths by their strings, and a path is
    what its string reads back as: the AstPath that AstPath(kinds,
    directions) of that parse checks and renders."""

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_walk_paths_are_the_checked_construction(self, seed, length, width):
        ast = random_ast(np.random.default_rng(seed), max_terminals=20)
        limits = ExtractionLimits(length, width)
        plain = extract_path_contexts(ast, limits)
        odd = extract_path_contexts(splice(ast), limits)
        assert len(plain) == len(odd)
        for a, b in zip(plain, odd):
            assert (b.source_value, b.target_value) == (a.source_value, a.target_value)
            assert b.path.text == re.sub(r"[^\^_]+", lambda m: SPLICED[m[0]], a.path.text)
            for path in (a.path, b.path):
                parsed = path_from_string(path.text)
                checked = AstPath(parsed.kinds, parsed.directions)
                assert path == parsed == checked and path.text == checked.text

    def test_paths_with_one_text_share_one_code(self):
        # Both paths render NameExpr^Block^Call_NameExpr.
        builder = AstBuilder()

        def name(value):
            return builder.terminal("NameExpr", value)

        ast = builder.build(builder.nonterminal("Method", [
            builder.nonterminal("Call", [builder.nonterminal("Block", [name("a")]),
                                         name("b")]),
            builder.nonterminal("Block^Call", [name("c"), name("d")])]))
        contexts = extract_path_contexts(ast, ExtractionLimits(3, 1))
        pairs = [(c.source_value, c.target_value) for c in contexts]
        first, second = pairs.index(("a", "b")), pairs.index(("c", "d"))
        assert contexts.codes[first, 1] == contexts.codes[second, 1]
        assert contexts[first].path is contexts[second].path
        assert contexts[first].path.text == "NameExpr^Block^Call_NameExpr"
        assert contexts[first].path.kinds == ("NameExpr", "Block", "Call", "NameExpr")
        assert len(set(contexts.table.texts)) == len(contexts.table.texts)

    def test_example_from_a_kind_with_an_underscore_rebuilds(self):
        # Reproduction: the walk kept `method_declaration` as one kind, which
        # its path string does not read back as, so rebuilding the example
        # from its own contexts raised "does not read back".
        (ast,) = read_sexpr_asts('(MethodDecl (Type "int") (Name "getX") (method_declaration '
                                 '(Return (NameExpr "x")) (NameExpr "y")))')
        example = method_to_example(ast, ExtractionLimits())
        assert example.contexts[0].path == path_from_string(
            "Type^MethodDecl_method_declaration_Return_NameExpr")
        rebuilt = RawExample(example.label, list(example.contexts))
        assert rebuilt == example and example == rebuilt

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_extraction_with_spliced_kinds_reads_back(self, seed, length, width):
        ast = splice(random_ast(np.random.default_rng(seed), max_terminals=20))
        example = RawExample("f", extract_path_contexts(ast, ExtractionLimits(length, width)))
        out = io.StringIO()
        write_dataset([example], out)
        (read,) = read_dataset(io.StringIO(out.getvalue()))
        assert read.contexts == example.contexts and example.contexts == read.contexts

    @given(st.text(alphabet="ab^_", min_size=1, max_size=12))
    @settings(max_examples=300)
    def test_read_path_keeps_its_string(self, text):
        try:
            path = path_from_string(text)
        except DatasetFormatError:
            return
        assert path.text == text
        checked = AstPath(path.kinds, path.directions)
        assert path == checked and checked.text == text

    def test_context_is_a_slotted_record(self):
        (ast,) = read_sexpr_asts(ASSIGNMENT)
        (ctx,) = extract_path_contexts(ast, ExtractionLimits())
        assert not hasattr(ctx, "__dict__")
        assert PathContext.__slots__ == ("source_value", "path", "target_value")


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
