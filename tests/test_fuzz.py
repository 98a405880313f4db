"""Bounded fuzz of the readers: MiniJ text, S-expression text, dataset lines,
the vocabulary block and model bytes, each mutated from a small valid input by
truncation, flipped bytes or a spliced-in run of bytes (and, for the model,
overridden header fields). Each reader returns a result or raises a
`CodevecError`; through `cli.main`, every run exits with a documented code
and prints no traceback."""

import contextlib
import io
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codevec.ast_tree import read_sexpr_asts
from codevec.cli import main
from codevec.corpus import (build_vocabs, format_vocabs, load_dataset,
                            parse_example, parse_vocabs)
from codevec.errors import CodevecError, MiniJSyntaxError
from codevec.minij import parse_methods
from codevec.model import AttentionVariant, ModelDims, init_params, load_model, save_model

SEXPR = ('(MethodDecl (Type "int") (Name "getX") (Block (Return (NameExpr "x"))))\n'
         '(MethodDecl (Type "void") (Name "setY") (Block (AssignExpr '
         '(NameExpr "y") (IntegerLiteralExpr "1"))))\n').encode()
DATASET = ("getX int,Type^MethodDecl_Block_Return_NameExpr,x\n"
           "setY void,Type^MethodDecl_Block_AssignExpr_NameExpr,y "
           "y,NameExpr^AssignExpr_IntegerLiteralExpr,1\n").encode()
MINIJ = b"int getX() { return x; }\nvoid setY() { y = 1; }\n"
EXIT_CODES = {0, 1, 2, 3}


def _flip(base: bytes, flips) -> bytes:
    data = bytearray(base)
    for position, bits in flips:
        data[position % len(data)] ^= bits
    return bytes(data)


def _splice(base: bytes, start: int, stop: int, run: bytes) -> bytes:
    start, stop = sorted((start, stop))
    return base[:start] + run + base[stop:]


def mutations(base: bytes):
    """`base` truncated, with up to 4 bytes flipped, or with a slice
    replaced by up to 8 arbitrary bytes."""
    n = len(base)
    return st.one_of(
        st.integers(0, n).map(lambda end: base[:end]),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 255)),
                 min_size=1, max_size=4).map(lambda flips: _flip(base, flips)),
        st.tuples(st.integers(0, n), st.integers(0, n), st.binary(max_size=8))
        .map(lambda args: _splice(base, *args)))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A tiny valid model over DATASET's vocabulary and its vocabulary
    block, the two valid inputs, and a scratch path for each kind of
    mutated input."""
    root = tmp_path_factory.mktemp("reader-fuzz")
    vocabs = build_vocabs(parse_example(line) for line in DATASET.decode().splitlines())
    dims = ModelDims(2, len(vocabs.values), len(vocabs.paths), len(vocabs.tags), 3)
    paths = {name: root / name for name in
             ("model.bin", "data.c2v", "source.mj", "bad.bin", "bad.c2v", "bad.sexpr",
              "bad.mj")}
    save_model(str(paths["model.bin"]), init_params(dims, AttentionVariant.SOFT, 0), vocabs)
    paths["data.c2v"].write_bytes(DATASET)
    paths["source.mj"].write_bytes(MINIJ)
    paths["vocabs"] = format_vocabs(vocabs).encode()
    return paths


def _runs_cleanly(argv, codes=EXIT_CODES) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    assert code in codes
    assert "Traceback" not in err.getvalue()


@given(data=mutations(MINIJ))
@settings(max_examples=60, deadline=None)
def test_minij_text(files, data):
    # latin-1 maps bytes 0x80-0xff to characters such as '²', '½' and 'é'
    text = data.decode("latin-1")
    with contextlib.suppress(MiniJSyntaxError):
        parse_methods(text)
    files["bad.mj"].write_text(text, encoding="utf-8")
    _runs_cleanly(["extract", files["bad.mj"]], codes={0, 2})


@given(data=mutations(SEXPR))
@settings(max_examples=60, deadline=None)
def test_sexpr_text(files, data):
    with contextlib.suppress(CodevecError):
        read_sexpr_asts(data.decode("latin-1"))
    files["bad.sexpr"].write_bytes(data)
    _runs_cleanly(["extract", files["bad.sexpr"]])


@given(data=mutations(DATASET))
@settings(max_examples=60, deadline=None)
def test_dataset_lines(files, data):
    files["bad.c2v"].write_bytes(data)
    with contextlib.suppress(CodevecError):
        load_dataset(str(files["bad.c2v"]))
    _runs_cleanly(["eval", "--model", files["model.bin"], files["bad.c2v"]])


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_vocabulary_block(files, data):
    block = data.draw(mutations(files["vocabs"]))
    with contextlib.suppress(CodevecError):
        parse_vocabs(block.decode("latin-1"))


def _override(base: bytes, field: int, value: int) -> bytes:
    """`base` with header u32 field `field` (0 variant, 1 d, 2 |X|, 3 |P|,
    4 |Y|, 5 k_max, 6 ablation bits) set to `value`."""
    data = bytearray(base)
    struct.pack_into("<I", data, 4 + 4 * field, value)
    return bytes(data)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # huge finite weights overflow
@given(data=st.data())
@example(data=None)
@settings(max_examples=100, deadline=None)
def test_model_bytes(files, data):
    base = files["model.bin"].read_bytes()
    if data is None:
        # d = 0 in the header, and a vocabulary block that is not UTF-8
        cases = [_override(base, 1, 0), _flip(base, [(36, 0x80)])]
    else:
        cases = [data.draw(mutations(base) | st.builds(
            _override, st.just(base), st.integers(0, 6), st.integers(0, 2**32 - 1)))]
    for model in cases:
        files["bad.bin"].write_bytes(model)
        with contextlib.suppress(CodevecError):
            load_model(str(files["bad.bin"]))
        _runs_cleanly(["eval", "--model", files["bad.bin"], files["data.c2v"]])
        _runs_cleanly(["predict", "--model", files["bad.bin"], files["source.mj"]])
