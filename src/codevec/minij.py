"""Recursive-descent parser for MiniJ, a small Java-like statement and
expression language. It covers method declarations, var declarations,
assignments, if/while, foreach (`for (type name : expr)`), return, calls,
field and array access, and the usual boolean/arithmetic operators.

Tokens: an integer literal is a run of decimal digits (`\\d`); an
identifier is a run of word characters (`\\w`) that does not start with a
decimal digit, so a numeric character that is not a decimal digit, such
as `²` or `½`, is an identifier character; a string literal runs from `"`
to the next unescaped `"` and may span lines. Only spaces, tabs, CR and
LF separate tokens.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from typing import NamedTuple

from .ast_tree import Ast, AstBuilder
from .errors import MiniJSyntaxError

KEYWORDS = {"if", "else", "while", "for", "return", "true", "false"}

# Deepest nesting of parenthesised, call and index expressions, unary
# operators and statement bodies. A level costs the parser at most 4 stack
# frames (parentheses, calls and if blocks 4; indexing 3; loop bodies 2;
# unary operators 1), so this stays well inside Python's default limit of
# 1000.
MAX_NESTING = 64

# One alternative per token kind, tried in order; `bad` catches any
# character that starts no token, an unterminated string's `"` included.
_TOKEN = re.compile(r"""
    (?P<space>[ \t\r\n]+)
  | "(?P<string>(?:[^"\\]|\\.)*)"
  | (?P<int>\d+)
  | (?P<ident>[^\W\d]\w*)
  | (?P<punct>==|!=|<=|>=|&&|\|\||[(){}\[\];,:.=<>+\-*/!])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)

# Binary operators by strength; all are left-associative.
_BINARY = {"||": 1, "&&": 2, "==": 3, "!=": 3, "<": 4, ">": 4, "<=": 4, ">=": 4,
           "+": 5, "-": 5, "*": 6, "/": 6}


class Token(NamedTuple):
    kind: str  # 'ident', 'int', 'string', 'punct', 'eof'
    text: str  # a string's text is what lies between its quotes
    offset: int  # where the token starts in the source


def _syntax_error(source: str, offset: int, message: str) -> MiniJSyntaxError:
    line = source.count("\n", 0, offset) + 1
    return MiniJSyntaxError(message, line, offset - source.rfind("\n", 0, offset))


def _lex(source: str) -> list[Token]:
    tokens = []
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        if kind == "space":
            continue
        if kind == "bad":
            ch = match.group()
            raise _syntax_error(source, match.start(), "unterminated string literal"
                                if ch == '"' else f"unexpected character {ch!r}")
        tokens.append(Token(kind, match.group(kind), match.start()))
    tokens.append(Token("eof", "", len(source)))
    return tokens


def _is_name(tok: Token) -> bool:
    return tok.kind == "ident" and tok.text not in KEYWORDS


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _lex(source)
        self.pos = 0
        self.depth = 0
        self.builder = AstBuilder()

    # -- token helpers ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def at_punct(self, text: str, ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        return tok.kind == "punct" and tok.text == text

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text == word

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect_punct(self, text: str) -> Token:
        if not self.at_punct(text):
            raise self.error(f"expected {text!r}, found {self.peek().text or 'end of input'!r}")
        return self.advance()

    def expect_name(self, what: str) -> Token:
        if not _is_name(self.peek()):
            raise self.error(f"expected {what}, found {self.peek().text or 'end of input'!r}")
        return self.advance()

    def error(self, message: str, tok: Token | None = None) -> MiniJSyntaxError:
        """A syntax error at `tok`, by default the current token."""
        return _syntax_error(self.source, (tok or self.peek()).offset, message)

    @contextmanager
    def nested(self):
        """One more nesting level, opened at the current token."""
        if self.depth == MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1
        try:
            yield
        finally:
            self.depth -= 1

    def parenthesised_list(self, parse_item) -> list[int]:
        """`parse_item()` for each comma-separated item up to a closing
        ')', which it consumes; the '(' is already consumed."""
        items = []
        if not self.at_punct(")"):
            items.append(parse_item())
            while self.at_punct(","):
                self.advance()
                items.append(parse_item())
        self.expect_punct(")")
        return items

    def keyword_condition(self) -> int:
        """`keyword ( expression )`: the keyword is the current token."""
        self.advance()
        self.expect_punct("(")
        cond = self.parse_expression()
        self.expect_punct(")")
        return cond

    # -- grammar ----------------------------------------------------------

    def at_method_decl(self) -> bool:
        # type name '(' -- possibly with a '[]' after the type
        if not _is_name(self.peek()):
            return False
        ahead = 3 if self.at_punct("[", 1) and self.at_punct("]", 2) else 1
        return _is_name(self.peek(ahead)) and self.at_punct("(", ahead + 1)

    def parse_type(self) -> int:
        text = self.expect_name("type name").text
        if self.at_punct("[") and self.at_punct("]", 1):
            self.advance()
            self.advance()
            text += "[]"
        return self.builder.terminal("Type", text)

    def parse_name(self, what: str) -> int:
        return self.builder.terminal("Name", self.expect_name(what).text)

    def parse_parameter(self) -> int:
        ptype = self.parse_type()
        return self.builder.nonterminal("Parameter", [ptype, self.parse_name("parameter name")])

    def parse_method(self) -> int:
        ret_type = self.parse_type()
        name = self.parse_name("method name")
        self.expect_punct("(")
        params = self.parenthesised_list(self.parse_parameter)
        body = self.parse_block()
        return self.builder.nonterminal("MethodDecl", [ret_type, name] + params + [body])

    def parse_block(self) -> int:
        self.expect_punct("{")
        stmts = []
        while not self.at_punct("}"):
            if self.peek().kind == "eof":
                raise self.error("unterminated block: missing '}'")
            stmts.append(self.parse_statement())
        if not stmts:
            raise self.error("empty block is not allowed")
        self.advance()  # '}'
        return self.builder.nonterminal("Block", stmts)

    def parse_body(self) -> int:
        """A statement body: a braced block, or a single statement wrapped
        in a Block node so loop/branch bodies are always Block."""
        with self.nested():
            if self.at_punct("{"):
                return self.parse_block()
            return self.builder.nonterminal("Block", [self.parse_statement()])

    def parse_statement(self) -> int:
        if self.at_keyword("if"):
            return self.parse_if()
        if self.at_keyword("while"):
            cond = self.keyword_condition()
            return self.builder.nonterminal("WhileStmt", [cond, self.parse_body()])
        if self.at_keyword("for"):
            return self.parse_foreach()
        if self.at_keyword("return"):
            return self.parse_return()
        # a declaration starts `type name` or `type[] name`
        if _is_name(self.peek()) and (_is_name(self.peek(1)) or (
                self.at_punct("[", 1) and self.at_punct("]", 2))):
            return self.parse_var_decl()
        expr = self.parse_expression()
        if self.at_punct("="):
            self.advance()
            rhs = self.parse_expression()
            expr = self.builder.nonterminal("AssignExpr", [expr, rhs])
        self.expect_punct(";")
        return expr

    def parse_var_decl(self) -> int:
        children = [self.parse_type(), self.parse_name("variable name")]
        if self.at_punct("="):
            self.advance()
            children.append(self.parse_expression())
        self.expect_punct(";")
        return self.builder.nonterminal("VarDecl", children)

    def parse_if(self) -> int:
        children = [self.keyword_condition(), self.parse_body()]
        if self.at_keyword("else"):
            self.advance()
            children.append(self.parse_body())
        return self.builder.nonterminal("IfStmt", children)

    def parse_foreach(self) -> int:
        self.advance()  # 'for'
        self.expect_punct("(")
        vtype = self.parse_type()
        name = self.parse_name("loop variable name")
        self.expect_punct(":")
        iterable = self.parse_expression()
        self.expect_punct(")")
        body = self.parse_body()
        return self.builder.nonterminal("Foreach", [vtype, name, iterable, body])

    def parse_return(self) -> int:
        tok = self.advance()  # 'return'
        if self.at_punct(";"):
            raise self.error("bare 'return;' is not supported", tok)
        expr = self.parse_expression()
        self.expect_punct(";")
        return self.builder.nonterminal("Return", [expr])

    def parse_expression(self, min_strength: int = 1) -> int:
        """Precedence climbing over `_BINARY`: operands joined by operators
        of at least `min_strength`, grouped to the left."""
        node = self.parse_unary()
        while True:
            tok = self.peek()
            strength = _BINARY.get(tok.text, 0) if tok.kind == "punct" else 0
            if strength < min_strength:
                return node
            self.advance()
            rhs = self.parse_expression(strength + 1)
            node = self.builder.nonterminal("BinaryExpr", [node, rhs])

    def parse_unary(self) -> int:
        if self.at_punct("!") or self.at_punct("-"):
            with self.nested():
                self.advance()
                return self.builder.nonterminal("UnaryExpr", [self.parse_unary()])
        return self.parse_postfix()

    def parse_postfix(self) -> int:
        node = self.parse_primary()
        while True:
            if self.at_punct("."):
                self.advance()
                field = self.parse_name("field or method name")
                node = self.builder.nonterminal("FieldAccess", [node, field])
            elif self.at_punct("("):
                with self.nested():
                    self.advance()
                    args = self.parenthesised_list(self.parse_expression)
                node = self.builder.nonterminal("Call", [node] + args)
            elif self.at_punct("["):
                with self.nested():
                    self.advance()
                    index = self.parse_expression()
                    self.expect_punct("]")
                node = self.builder.nonterminal("ArrayAccess", [node, index])
            else:
                return node

    def parse_primary(self) -> int:
        tok = self.peek()
        if self.at_punct("("):
            with self.nested():
                self.advance()
                node = self.parse_expression()
                self.expect_punct(")")
            return node
        if tok.kind == "int":
            self.advance()
            return self.builder.terminal("IntegerLiteralExpr", tok.text)
        if tok.kind == "string":
            self.advance()
            return self.builder.terminal("StringLiteralExpr", tok.text)
        if tok.kind == "ident":
            if tok.text in ("true", "false"):
                self.advance()
                return self.builder.terminal("BooleanExpr", tok.text)
            if tok.text in KEYWORDS:
                raise self.error(f"unexpected keyword {tok.text!r}")
            self.advance()
            return self.builder.terminal("NameExpr", tok.text)
        raise self.error(f"unexpected token {tok.text or 'end of input'!r}")


def parse_methods(source: str) -> list[Ast]:
    """Parse a file of one or more MiniJ method declarations."""
    parser = _Parser(source)
    if parser.peek().kind == "eof":  # nothing but the lexer's whitespace
        raise MiniJSyntaxError("empty input", 1, 1)
    methods = []
    while parser.peek().kind != "eof":
        if not parser.at_method_decl():
            raise parser.error("expected a method declaration")
        parser.builder = AstBuilder()
        methods.append(parser.builder.build(parser.parse_method()))
    return methods
