import numpy as np
import pytest

from codevec.ast_tree import (Ast, AstBuilder, AstNode, normalize_value,
                              read_sexpr_ast, read_sexpr_asts,
                              structurally_equal, write_sexpr_ast)
from codevec.errors import MiniJSyntaxError, SExprError
from codevec.minij import parse_methods, parse_mini

from conftest import random_ast


class TestAstModel:
    def test_value_iff_leaf(self):
        with pytest.raises(ValueError):
            AstNode("NameExpr")  # no children and no value
        with pytest.raises(ValueError):
            AstNode("Block", (0,), "x")  # children and value

    def test_single_root_enforced(self):
        builder = AstBuilder()
        a = builder.terminal("NameExpr", "x")
        builder.terminal("NameExpr", "y")  # orphan node
        with pytest.raises(ValueError):
            builder.build(a)

    def test_shared_child_rejected(self):
        leaf = AstNode("NameExpr", (), "x")
        inner = AstNode("Block", (0, 0))
        with pytest.raises(ValueError):
            Ast((leaf, inner), 1)

    def test_terminals_dfs_order(self):
        ast = parse_mini("x = 7;")
        kinds = [ast.node(t).kind for t in ast.terminals()]
        assert kinds == ["NameExpr", "IntegerLiteralExpr"]
        values = [ast.node(t).value for t in ast.terminals()]
        assert values == ["x", "7"]

    def test_terminals_single_node_tree(self):
        ast = read_sexpr_ast('(NameExpr "x")')
        assert ast.terminals() == [ast.root]

    def test_terminals_match_exhaustive_scan(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            ast = random_ast(rng)
            expected = []

            def visit(nid):
                if ast.node(nid).value is not None:
                    expected.append(nid)
                for child in ast.node(nid).children:
                    visit(child)

            visit(ast.root)
            assert ast.terminals() == expected


class TestMiniJParser:
    def test_assignment_statement(self):
        ast = parse_mini("x = 7;")
        root = ast.node(ast.root)
        assert root.kind == "AssignExpr"
        left, right = (ast.node(c) for c in root.children)
        assert (left.kind, left.value) == ("NameExpr", "x")
        assert (right.kind, right.value) == ("IntegerLiteralExpr", "7")

    def test_empty_input(self):
        with pytest.raises(MiniJSyntaxError, match="empty input"):
            parse_mini("   \n ")

    def test_method_shape(self):
        ast = parse_mini("boolean f(Object target) { return true; }")
        assert write_sexpr_ast(ast) == (
            '(MethodDecl (Type "boolean") (Name "f") '
            '(Parameter (Type "Object") (Name "target")) '
            '(Block (Return (BooleanExpr "true"))))')

    def test_deterministic(self):
        source = "int g(int a) { if (a > 0) { return a; } return 0 - a; }"
        assert structurally_equal(parse_mini(source), parse_mini(source))

    def test_foreach_and_operators(self):
        ast = parse_mini(
            "int sum(int[] xs) { int t = 0; for (int x : xs) { t = t + x; } return t; }")
        text = write_sexpr_ast(ast)
        assert "(Foreach (Type \"int\") (Name \"x\")" in text
        assert "BinaryExpr" in text

    def test_syntax_error_position(self):
        with pytest.raises(MiniJSyntaxError) as err:
            parse_mini("int f() {\n return ; }")
        assert err.value.line == 2

    def test_parse_methods_splits_file(self):
        sources = ["int a(int x) { return x; }",
                   "int b(int y) { return y + 1; }"]
        asts = parse_methods("\n".join(sources))
        assert len(asts) == 2
        assert [a.node(a.node(a.root).children[1]).value for a in asts] == ["a", "b"]
        # each tree holds only its own method's nodes
        assert [len(a.nodes) for a in asts] == [len(parse_mini(s).nodes)
                                                for s in sources]

    def test_empty_block_rejected(self):
        with pytest.raises(MiniJSyntaxError, match="empty block"):
            parse_mini("void f() { }")


class TestSExpr:
    def test_example_tree(self):
        ast = read_sexpr_ast('(AssignExpr (NameExpr "x") (IntegerLiteralExpr "7"))')
        assert structurally_equal(ast, parse_mini("x = 7;"))

    def test_single_terminal(self):
        ast = read_sexpr_ast('(NameExpr "x")')
        assert len(ast.nodes) == 1
        assert ast.node(ast.root).value == "x"

    def test_unbalanced(self):
        with pytest.raises(SExprError):
            read_sexpr_ast('(Block (NameExpr "x")')
        with pytest.raises(SExprError):
            read_sexpr_ast('(NameExpr "x"))')

    def test_terminal_with_children(self):
        with pytest.raises(SExprError):
            read_sexpr_ast('(Block "v" (NameExpr "x"))')

    def test_nonterminal_with_value(self):
        with pytest.raises(SExprError):
            read_sexpr_ast('(Block (NameExpr "x") "v")')

    def test_escaped_quotes(self):
        ast = read_sexpr_ast('(StringLiteralExpr "say \\"hi\\" \\\\ bye")')
        assert ast.node(ast.root).value == 'say "hi" \\ bye'
        assert structurally_equal(read_sexpr_ast(write_sexpr_ast(ast)), ast)

    def test_open_kind_set(self):
        ast = read_sexpr_ast('(WeirdJavaNode (SimpleName "q"))')
        assert ast.node(ast.root).kind == "WeirdJavaNode"

    def test_multiple_trees(self):
        asts = read_sexpr_asts('(NameExpr "x") (NameExpr "y")')
        assert len(asts) == 2

    def test_round_trip_random_trees(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            ast = random_ast(rng)
            text = write_sexpr_ast(ast)
            again = read_sexpr_ast(text)
            assert structurally_equal(ast, again)
            assert write_sexpr_ast(again) == text


class TestNormalization:
    def test_keeps_word_characters(self):
        assert normalize_value("NameExpr", "foo_bar9") == "foo_bar9"

    def test_string_literals_collapse(self):
        assert normalize_value("StringLiteralExpr", "a, b c") == "STR"

    def test_empty_after_cleaning(self):
        assert normalize_value("NameExpr", "!!") == "EMPTY"

    def test_strips_separators(self):
        assert normalize_value("Type", "int[]") == "int"
