import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codevec.ast_tree import Ast, AstBuilder, AstNode, normalize_value, read_sexpr_asts
from codevec.errors import MiniJSyntaxError, SExprError
from codevec.minij import MAX_NESTING, _lex, parse_methods
from codevec.paths import ExtractionLimits, path_to_string
from codevec.pipeline import method_to_example

from conftest import (NESTING_SHAPES, deep_method, random_ast, structurally_equal,
                      write_sexpr_ast)


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

    def test_unreachable_cycle_rejected(self):
        # n nodes and n-1 edges, one parent each, yet 2 and 3 form a cycle
        # that the root cannot reach
        nodes = (AstNode("R", (1,)), AstNode("T", (), "x"),
                 AstNode("A", (3,)), AstNode("B", (2,)))
        with pytest.raises(ValueError):
            Ast(nodes, 0)

    def test_deep_tree_needs_no_recursion(self):
        depth = 3000  # three times the interpreter's default recursion limit
        ast = deep_method(depth)
        assert write_sexpr_ast(ast).count("(UnaryExpr") == depth
        assert structurally_equal(ast, deep_method(depth))
        assert not structurally_equal(ast, deep_method(depth - 1))
        example = method_to_example(ast, ExtractionLimits(max_length=depth + 5))
        assert example.label == "deep"
        deep = [c for c in example.contexts if len(c.path.directions) > 8]
        assert [(c.source_value, len(c.path.directions), c.target_value)
                for c in deep] == [
            ("int", depth + 4, "x"), ("int", depth + 5, "x"), ("x", depth + 5, "x")]
        assert path_to_string(deep[0].path).startswith("Type^MethodDecl_Block_Return_")

    def test_terminals_dfs_order(self):
        (ast,) = parse_methods("void f() { x = 7; }")
        kinds = [ast.node(t).kind for t in ast.terminals()]
        assert kinds == ["Type", "Name", "NameExpr", "IntegerLiteralExpr"]
        values = [ast.node(t).value for t in ast.terminals()]
        assert values == ["void", "f", "x", "7"]

    def test_terminals_single_node_tree(self):
        (ast,) = read_sexpr_asts('(NameExpr "x")')
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
        (ast,) = parse_methods("void f() { x = 7; }")
        assert write_sexpr_ast(ast) == (
            '(MethodDecl (Type "void") (Name "f") (Block (AssignExpr '
            '(NameExpr "x") (IntegerLiteralExpr "7"))))')

    def test_empty_input(self):
        with pytest.raises(MiniJSyntaxError, match="empty input"):
            parse_methods("   \n ")

    @pytest.mark.parametrize("source", ["\x0c", "\xa0", "\x0cint f() { x = 1; }"])
    def test_whitespace_the_lexer_rejects_is_not_empty_input(self, source):
        # Only spaces, tabs, CR and LF separate tokens; other Unicode
        # whitespace is an unexpected character, alone or before a method.
        with pytest.raises(MiniJSyntaxError) as caught:
            parse_methods(source)
        assert str(caught.value) == f"1:1: unexpected character {source[0]!r}"

    def test_method_shape(self):
        (ast,) = parse_methods("boolean f(Object target) { return true; }")
        assert write_sexpr_ast(ast) == (
            '(MethodDecl (Type "boolean") (Name "f") '
            '(Parameter (Type "Object") (Name "target")) '
            '(Block (Return (BooleanExpr "true"))))')

    def test_deterministic(self):
        source = "int g(int a) { if (a > 0) { return a; } return 0 - a; }"
        assert structurally_equal(parse_methods(source)[0],
                                  parse_methods(source)[0])

    def test_foreach_and_operators(self):
        (ast,) = parse_methods(
            "int sum(int[] xs) { int t = 0; for (int x : xs) { t = t + x; } return t; }")
        text = write_sexpr_ast(ast)
        assert "(Foreach (Type \"int\") (Name \"x\")" in text
        assert "BinaryExpr" in text

    def test_syntax_error_position(self):
        with pytest.raises(MiniJSyntaxError) as err:
            parse_methods("int f() {\n return ; }")
        assert err.value.line == 2

    def test_position_after_multi_line_string(self):
        # A string literal may span lines; the lexer counts the lines in it.
        with pytest.raises(MiniJSyntaxError) as err:
            parse_methods('void f() {\n  s = "a\nb";\n  x = @;\n}')
        assert (err.value.line, err.value.column) == (4, 7)
        with pytest.raises(MiniJSyntaxError) as err:
            parse_methods('void f() {\n  s = "a\n\nbc" + @;\n}')
        assert (err.value.line, err.value.column) == (4, 7)
        assert len(parse_methods('void f() { s = "a\nb"; }')) == 1

    def test_parse_methods_splits_file(self):
        sources = ["int a(int x) { return x; }",
                   "int b(int y) { return y + 1; }"]
        asts = parse_methods("\n".join(sources))
        assert len(asts) == 2
        assert [a.node(a.node(a.root).children[1]).value for a in asts] == ["a", "b"]
        # each tree holds only its own method's nodes
        assert [len(a.nodes) for a in asts] == [len(parse_methods(s)[0].nodes)
                                                for s in sources]

    def test_empty_block_rejected(self):
        with pytest.raises(MiniJSyntaxError, match="empty block"):
            parse_methods("void f() { }")

    @pytest.mark.parametrize("shape", sorted(NESTING_SHAPES))
    def test_nesting_at_the_limit_parses(self, shape):
        (ast,) = parse_methods(NESTING_SHAPES[shape](MAX_NESTING))
        assert ast.node(ast.root).kind == "MethodDecl"

    @pytest.mark.parametrize("depth", [MAX_NESTING + 1, 10_000])
    @pytest.mark.parametrize("shape", sorted(NESTING_SHAPES))
    def test_nesting_past_the_limit_rejected(self, shape, depth):
        with pytest.raises(MiniJSyntaxError,
                           match=f"nesting deeper than {MAX_NESTING} levels"):
            parse_methods(NESTING_SHAPES[shape](depth))

    def test_nesting_error_points_at_the_opening_token(self):
        prefix = "int f() { return "
        with pytest.raises(MiniJSyntaxError) as err:
            parse_methods(NESTING_SHAPES["parentheses"](MAX_NESTING + 1))
        assert (err.value.line, err.value.column) == (1, len(prefix) + MAX_NESTING + 1)


LAYOUT = " \t\r\n"
PUNCT = {"==", "!=", "<=", ">=", "&&", "||", "(", ")", "{", "}", "[", "]", ";", ",", ":",
         ".", "=", "<", ">", "+", "-", "*", "/", "!"}
# ASCII punctuation and layout, quotes and backslashes, word characters, and
# non-ASCII letters and digits: 'é', '中', the decimal digit '٣', and '²' and
# '½', which are numeric but not decimal digits.
LEX_ALPHABET = string.punctuation + LAYOUT + "abcxyz019_" + "é中٣²½"
# The same without the characters that start no token, so that long runs
# of tokens lex too.
TOKEN_ALPHABET = "".join(ch for ch in LEX_ALPHABET if ch not in "#$%'?@^`~|&\\")


def lexer_text(alphabet: str):
    """Characters of `alphabet` mixed with quoted runs of any characters."""
    quoted = st.text(LEX_ALPHABET, max_size=6).map(lambda body: f'"{body}"')
    return st.lists(st.sampled_from(alphabet) | quoted, max_size=20).map("".join)


def string_body_end(source: str, start: int) -> int:
    """The offset of the quote that closes the string opened at `start`,
    or len(source) if it is never closed."""
    i = start + 1
    while i < len(source) and source[i] != '"':
        i += 2 if source[i] == "\\" else 1
    return min(i, len(source))


def is_word(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


class TestMiniJLexer:
    @given(st.sampled_from([LEX_ALPHABET, TOKEN_ALPHABET]).flatmap(lexer_text))
    @settings(max_examples=400, deadline=None)
    def test_tokens_tile_the_source_or_the_error_names_the_first_fault(self, source):
        try:
            tokens = _lex(source)
        except MiniJSyntaxError as err:
            lines = source.split("\n")
            assert err.column >= 1
            ch = lines[err.line - 1][err.column - 1]
            offset = sum(len(line) + 1 for line in lines[:err.line - 1]) + err.column - 1
            if ch == '"':
                assert str(err).endswith(": unterminated string literal")
                assert string_body_end(source, offset) == len(source)
            else:
                assert str(err).endswith(f": unexpected character {ch!r}")
                assert not (is_word(ch) or ch in LAYOUT
                            or any(source.startswith(p, offset) for p in PUNCT))
            _lex(source[:offset])  # everything before the fault lexes
            return
        assert tokens[-1] == ("eof", "", len(source))
        end = 0
        for tok in tokens[:-1]:
            assert set(source[end:tok.offset]) <= set(LAYOUT)
            if tok.kind == "string":
                end = string_body_end(source, tok.offset)
                assert source[tok.offset] == '"' and end < len(source)
                assert source[tok.offset + 1:end] == tok.text
                end += 1
            else:
                end = tok.offset + len(tok.text)
                assert tok.text and source[tok.offset:end] == tok.text
            following = source[end:end + 1]
            if tok.kind == "int":
                assert tok.text.isdecimal() and not following.isdecimal()
            elif tok.kind == "ident":
                assert not tok.text[0].isdecimal() and all(map(is_word, tok.text))
                assert not (following and is_word(following))
            elif tok.kind == "punct":
                assert tok.text in PUNCT and not (following and tok.text + following in PUNCT)
            else:
                assert tok.kind == "string"
        assert set(source[end:]) <= set(LAYOUT)

    @pytest.mark.parametrize("source, tokens", [
        ("x\u00b2", [("ident", "x\u00b2")]),
        ("\u00b2x", [("ident", "\u00b2x")]),
        ("\u00bd", [("ident", "\u00bd")]),
        ("1\u00b2", [("int", "1"), ("ident", "\u00b2")]),
        ("1\u00bd2", [("int", "1"), ("ident", "\u00bd2")]),
        ("\u0663\u0663", [("int", "\u0663\u0663")]),
        ("\u00e9\u4e2d1", [("ident", "\u00e9\u4e2d1")]),
    ])
    def test_numeric_characters_that_are_not_decimal_digits_are_word_characters(
            self, source, tokens):
        # '\u00b2' (superscript two) and '\u00bd' (one half) are numeric but
        # not decimal digits; '\u0663' (Arabic-Indic three) is a decimal digit.
        assert [(tok.kind, tok.text) for tok in _lex(source)[:-1]] == tokens

    def test_a_name_may_start_with_a_numeric_character(self):
        (ast,) = parse_methods("int f() { return x\u00b2 + \u00bd; }")
        assert [(ast.node(t).kind, ast.node(t).value) for t in ast.terminals()][2:] == [
            ("NameExpr", "x\u00b2"), ("NameExpr", "\u00bd")]


class TestSExpr:
    def test_example_tree(self):
        (ast,) = read_sexpr_asts('(MethodDecl (Type "void") (Name "f") (Block '
                                 '(AssignExpr (NameExpr "x") (IntegerLiteralExpr "7"))))')
        assert structurally_equal(ast, parse_methods("void f() { x = 7; }")[0])

    def test_single_terminal(self):
        (ast,) = read_sexpr_asts('(NameExpr "x")')
        assert len(ast.nodes) == 1
        assert ast.node(ast.root).value == "x"

    def test_unbalanced(self):
        with pytest.raises(SExprError):
            read_sexpr_asts('(Block (NameExpr "x")')
        with pytest.raises(SExprError):
            read_sexpr_asts('(NameExpr "x"))')

    def test_terminal_with_children(self):
        with pytest.raises(SExprError):
            read_sexpr_asts('(Block "v" (NameExpr "x"))')

    def test_nonterminal_with_value(self):
        with pytest.raises(SExprError):
            read_sexpr_asts('(Block (NameExpr "x") "v")')

    def test_escaped_quotes(self):
        (ast,) = read_sexpr_asts('(StringLiteralExpr "say \\"hi\\" \\\\ bye")')
        assert ast.node(ast.root).value == 'say "hi" \\ bye'
        (again,) = read_sexpr_asts(write_sexpr_ast(ast))
        assert structurally_equal(again, ast)

    def test_open_kind_set(self):
        (ast,) = read_sexpr_asts('(WeirdJavaNode (SimpleName "q"))')
        assert ast.node(ast.root).kind == "WeirdJavaNode"

    def test_kind_with_inner_separators(self):
        (ast,) = read_sexpr_asts('(method_declaration (A^B "x"))')
        assert [node.kind for node in ast.nodes] == ["A^B", "method_declaration"]

    def test_multiple_trees(self):
        asts = read_sexpr_asts('(NameExpr "x") (NameExpr "y")')
        assert len(asts) == 2

    def test_round_trip_random_trees(self):
        rng = np.random.default_rng(7)
        for ast in [random_ast(rng) for _ in range(1000)] + [deep_method(600)]:
            text = write_sexpr_ast(ast)
            (again,) = read_sexpr_asts(text)
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
