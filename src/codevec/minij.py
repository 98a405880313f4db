"""Recursive-descent parser for MiniJ, a small Java-like statement and
expression language. It covers method declarations, var declarations,
assignments, if/while, foreach (`for (type name : expr)`), return, calls,
field and array access, and the usual boolean/arithmetic operators.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from .ast_tree import Ast, AstBuilder
from .errors import MiniJSyntaxError

KEYWORDS = {"if", "else", "while", "for", "return", "true", "false"}

# Deepest nesting of parenthesised, call and index expressions, unary
# operators and statement bodies. A level costs the parser up to 10 stack
# frames, so this stays well inside Python's default limit of 1000.
MAX_NESTING = 64

_PUNCT = [
    "==", "!=", "<=", ">=", "&&", "||",
    "(", ")", "{", "}", "[", "]", ";", ",", ":", ".",
    "=", "<", ">", "+", "-", "*", "/", "!",
]


@dataclass
class Token:
    kind: str  # 'ident', 'int', 'string', 'punct', 'eof'
    text: str
    line: int
    col: int


def _lex(source: str) -> list[Token]:
    tokens = []
    i, line, col = 0, 1, 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == '"':
            j = i + 1
            while j < n and source[j] != '"':
                j += 2 if source[j] == "\\" else 1
            if j >= n:
                raise MiniJSyntaxError("unterminated string literal", line, col)
            tokens.append(Token("string", source[i + 1:j], line, col))
            newlines = source.count("\n", i, j)
            line += newlines
            col = j + 1 - source.rfind("\n", i, j) if newlines else col + j + 1 - i
            i = j + 1
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(Token("int", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(Token("ident", source[i:j], line, col))
            col += j - i
            i = j
            continue
        for punct in _PUNCT:
            if source.startswith(punct, i):
                tokens.append(Token("punct", punct, line, col))
                i += len(punct)
                col += len(punct)
                break
        else:
            raise MiniJSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _lex(source)
        self.pos = 0
        self.depth = 0
        self.builder = AstBuilder()

    # -- token helpers ----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def at_punct(self, text: str, offset: int = 0) -> bool:
        tok = self.peek(offset)
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
        tok = self.peek()
        if not self.at_punct(text):
            raise MiniJSyntaxError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                                   tok.line, tok.col)
        return self.advance()

    def expect_name(self, what: str) -> Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.text in KEYWORDS:
            raise MiniJSyntaxError(f"expected {what}, found {tok.text or 'end of input'!r}",
                                   tok.line, tok.col)
        return self.advance()

    def error(self, message: str) -> MiniJSyntaxError:
        tok = self.peek()
        return MiniJSyntaxError(message, tok.line, tok.col)

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

    # -- grammar ----------------------------------------------------------

    def at_method_decl(self) -> bool:
        # type name '(' -- possibly with a '[]' after the type
        if self.peek().kind != "ident" or self.peek().text in KEYWORDS:
            return False
        offset = 1
        if self.at_punct("[", 1) and self.at_punct("]", 2):
            offset = 3
        return (self.peek(offset).kind == "ident"
                and self.peek(offset).text not in KEYWORDS
                and self.at_punct("(", offset + 1))

    def parse_type(self) -> int:
        tok = self.expect_name("type name")
        text = tok.text
        if self.at_punct("[") and self.at_punct("]", 1):
            self.advance()
            self.advance()
            text += "[]"
        return self.builder.terminal("Type", text)

    def parse_method(self) -> int:
        ret_type = self.parse_type()
        name_tok = self.expect_name("method name")
        name = self.builder.terminal("Name", name_tok.text)
        self.expect_punct("(")
        params = []
        if not self.at_punct(")"):
            while True:
                ptype = self.parse_type()
                pname_tok = self.expect_name("parameter name")
                pname = self.builder.terminal("Name", pname_tok.text)
                params.append(self.builder.nonterminal("Parameter", [ptype, pname]))
                if not self.at_punct(","):
                    break
                self.advance()
        self.expect_punct(")")
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
            return self.parse_while()
        if self.at_keyword("for"):
            return self.parse_foreach()
        if self.at_keyword("return"):
            return self.parse_return()
        if self._at_var_decl():
            return self.parse_var_decl()
        expr = self.parse_expression()
        if self.at_punct("="):
            self.advance()
            rhs = self.parse_expression()
            expr = self.builder.nonterminal("AssignExpr", [expr, rhs])
        self.expect_punct(";")
        return expr

    def _at_var_decl(self) -> bool:
        if self.peek().kind != "ident" or self.peek().text in KEYWORDS:
            return False
        if self.peek(1).kind == "ident" and self.peek(1).text not in KEYWORDS:
            return True
        return self.at_punct("[", 1) and self.at_punct("]", 2)

    def parse_var_decl(self) -> int:
        vtype = self.parse_type()
        name_tok = self.expect_name("variable name")
        name = self.builder.terminal("Name", name_tok.text)
        children = [vtype, name]
        if self.at_punct("="):
            self.advance()
            children.append(self.parse_expression())
        self.expect_punct(";")
        return self.builder.nonterminal("VarDecl", children)

    def parse_if(self) -> int:
        self.advance()  # 'if'
        self.expect_punct("(")
        cond = self.parse_expression()
        self.expect_punct(")")
        then_body = self.parse_body()
        children = [cond, then_body]
        if self.at_keyword("else"):
            self.advance()
            children.append(self.parse_body())
        return self.builder.nonterminal("IfStmt", children)

    def parse_while(self) -> int:
        self.advance()  # 'while'
        self.expect_punct("(")
        cond = self.parse_expression()
        self.expect_punct(")")
        body = self.parse_body()
        return self.builder.nonterminal("WhileStmt", [cond, body])

    def parse_foreach(self) -> int:
        self.advance()  # 'for'
        self.expect_punct("(")
        vtype = self.parse_type()
        name_tok = self.expect_name("loop variable name")
        name = self.builder.terminal("Name", name_tok.text)
        self.expect_punct(":")
        iterable = self.parse_expression()
        self.expect_punct(")")
        body = self.parse_body()
        return self.builder.nonterminal("Foreach", [vtype, name, iterable, body])

    def parse_return(self) -> int:
        tok = self.advance()  # 'return'
        if self.at_punct(";"):
            raise MiniJSyntaxError("bare 'return;' is not supported", tok.line, tok.col)
        expr = self.parse_expression()
        self.expect_punct(";")
        return self.builder.nonterminal("Return", [expr])

    # Precedence climbing: || < && < (== !=) < (< > <= >=) < (+ -) < (* /)
    _BINARY_LEVELS = [["||"], ["&&"], ["==", "!="], ["<", ">", "<=", ">="],
                      ["+", "-"], ["*", "/"]]

    def parse_expression(self, level: int = 0) -> int:
        if level == len(self._BINARY_LEVELS):
            return self.parse_unary()
        node = self.parse_expression(level + 1)
        while any(self.at_punct(op) for op in self._BINARY_LEVELS[level]):
            self.advance()
            rhs = self.parse_expression(level + 1)
            node = self.builder.nonterminal("BinaryExpr", [node, rhs])
        return node

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
                field_tok = self.expect_name("field or method name")
                field = self.builder.terminal("Name", field_tok.text)
                node = self.builder.nonterminal("FieldAccess", [node, field])
            elif self.at_punct("("):
                with self.nested():
                    self.advance()
                    args = []
                    if not self.at_punct(")"):
                        while True:
                            args.append(self.parse_expression())
                            if not self.at_punct(","):
                                break
                            self.advance()
                    self.expect_punct(")")
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
                raise MiniJSyntaxError(f"unexpected keyword {tok.text!r}", tok.line, tok.col)
            self.advance()
            return self.builder.terminal("NameExpr", tok.text)
        raise MiniJSyntaxError(f"unexpected token {tok.text or 'end of input'!r}",
                               tok.line, tok.col)


def parse_methods(source: str) -> list[Ast]:
    """Parse a file of one or more MiniJ method declarations."""
    if not source.strip():
        raise MiniJSyntaxError("empty input", 1, 1)
    parser = _Parser(source)
    methods = []
    while parser.peek().kind != "eof":
        if not parser.at_method_decl():
            raise parser.error("expected a method declaration")
        parser.builder = AstBuilder()
        methods.append(parser.builder.build(parser.parse_method()))
    return methods
