"""Metamorphic oracles for extraction: transforms of MiniJ text whose
effect on the dataset line is known exactly, so no expected line has to
be written down."""

import re

import numpy as np

from codevec.ast_tree import read_sexpr_asts
from codevec.corpus import format_example
from codevec.minij import parse_methods
from codevec.paths import ExtractionLimits
from codevec.pipeline import method_to_example

from conftest import long_minij_method, toy_minij_corpus, write_sexpr_ast

LIMITS = ExtractionLimits(8, 2)

# A MiniJ token, matched independently of the parser's own lexer: a string
# literal, a number, a name, a two-character operator or any other
# non-blank character.
TOKEN_RE = re.compile(r'"(?:[^"\\]|\\.)*"|\d+|[A-Za-z_]\w*|==|!=|<=|>=|&&|\|\||\S')

# Whitespace runs that may separate two tokens.
GAPS = [" ", "  ", "\t", "\n", "\r\n", " \n\t ", "\n\n    "]


def sources() -> list[str]:
    rng = np.random.default_rng(61)
    return toy_minij_corpus() + [long_minij_method(rng, n) for n in (10, 25, 40)] + [
        'String greet(String who, int n) { String s = "a, b \\"c\\""; '
        'if (!(n >= 1) || n != 2 && who == s) { return s + who; } return who; }']


def dataset_line(source: str) -> str:
    (ast,) = parse_methods(source)
    return format_example(method_to_example(ast, LIMITS))


def reformat(source: str, rng: np.random.Generator) -> str:
    """The same tokens, each preceded by a random run of blanks and line
    breaks."""
    tokens = TOKEN_RE.findall(source)
    assert not TOKEN_RE.sub("", source).strip()  # every character is covered
    return "".join(GAPS[int(rng.integers(len(GAPS)))] + token for token in tokens)


def rename_method(source: str, name: str) -> str:
    """The declaration's name, the first name followed by '(', replaced."""
    renamed, count = re.subn(r"[A-Za-z_]\w*(?=\s*\()", name, source, count=1)
    assert count == 1
    return renamed


def test_front_ends_agree():
    # MiniJ, and MiniJ written as S-expressions and read back, extract to
    # the same dataset line.
    for source in sources():
        (ast,) = parse_methods(source)
        (again,) = read_sexpr_asts(write_sexpr_ast(ast))
        assert format_example(method_to_example(again, LIMITS)) == dataset_line(source)


def test_layout_is_invisible():
    rng = np.random.default_rng(62)
    for source in sources():
        expected = dataset_line(source)
        for _ in range(3):
            assert dataset_line(reformat(source, rng)) == expected


def test_renaming_the_method_changes_the_label_only():
    for source in sources():
        label, *contexts = dataset_line(source).split(" ")
        assert contexts
        for name in ("renamedMethod", label + "Again", "x"):
            assert dataset_line(rename_method(source, name)).split(" ") == [name, *contexts]
