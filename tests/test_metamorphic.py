"""Metamorphic and differential oracles: transforms of MiniJ text, or two
routes through the pipeline, whose effect on the dataset line or the
encoded ids is known exactly, so no expected output has to be written
down."""

import contextlib
import io
import re

import numpy as np

from codevec.ast_tree import read_sexpr_asts
from codevec.cli import main
from codevec.corpus import (ABLATIONS, build_vocabs, encode_dataset, encode_example,
                            example_rng, format_example, read_dataset, write_dataset)
from codevec.minij import KEYWORDS, parse_methods
from codevec.model import load_model
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


def rename_everything(source: str) -> str:
    """Every identifier but the method's name, and every literal but true
    and false, consistently replaced by a fresh one."""
    method = re.search(r"[A-Za-z_]\w*(?=\s*\()", source).group()
    fresh = {}

    def rename(match):
        token = match.group()
        if token in KEYWORDS or token == method or not re.match(r'[\w"]', token):
            return token
        if token not in fresh:
            n = len(fresh)
            fresh[token] = (f'"s{n}"' if token[0] == '"' else
                            str(1000 + n) if token[0].isdigit() else f"renamed{n}")
        return fresh[token]

    return TOKEN_RE.sub(rename, source)


def examples_of(texts: list[str]):
    return [method_to_example(ast, LIMITS) for text in texts for ast in parse_methods(text)]


def assert_same_ids(got, expected, fields=("sources", "paths", "targets", "mask")):
    assert got.label_id == expected.label_id
    for field in fields:
        a, b = getattr(got, field), getattr(expected, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


def test_two_routes_to_the_same_ids():
    # Extract, write, read, build vocabularies and encode gives the ids
    # that building vocabularies and encoding the extracted examples gives.
    extracted = examples_of(sources())
    buffer = io.StringIO()
    write_dataset(extracted, buffer)
    buffer.seek(0)
    read = list(read_dataset(buffer))
    direct_vocabs, read_vocabs = build_vocabs(extracted), build_vocabs(read)
    for ablation in ABLATIONS.values():
        for epoch in range(3):
            direct = encode_dataset(extracted, direct_vocabs, 20, 7, ablation, epoch)
            routed = encode_dataset(read, read_vocabs, 20, 7, ablation, epoch)
            for got, expected in zip(routed, direct, strict=True):
                assert_same_ids(got, expected)


def test_renaming_under_no_values(tmp_path):
    # A no-values model sees paths only, so renaming every identifier and
    # literal changes neither the encoded ids nor eval's and predict's
    # output. Under full, the same renaming changes source and target ids
    # only.
    original, renamed = sources(), [rename_everything(s) for s in sources()]
    assert all(a != b for a, b in zip(original, renamed))
    for name, texts in (("original", original), ("renamed", renamed)):
        (tmp_path / f"{name}.mj").write_text("\n".join(texts), encoding="utf-8")
        assert main(["extract", str(tmp_path / f"{name}.mj"),
                     "-o", str(tmp_path / f"{name}.c2v")]) == 0
    model = str(tmp_path / "m.bin")
    assert main(["train", "--train", str(tmp_path / "original.c2v"), "-o", model,
                 "--ablation", "no-values", "--dim", "8", "--kmax", "20",
                 "--epochs", "2", "--seed", "3"]) == 0
    params, vocabs = load_model(model)
    assert params.ablation == ABLATIONS["no-values"]

    def encode(example, i, ablation):
        return encode_example(example, vocabs, 20, example_rng(3, i), ablation)

    values_changed = False
    pairs = zip(examples_of(original), examples_of(renamed), strict=True)
    for i, (before, after) in enumerate(pairs):
        assert_same_ids(encode(after, i, params.ablation), encode(before, i, params.ablation))
        full_before, full_after = (encode(e, i, ABLATIONS["full"]) for e in (before, after))
        assert_same_ids(full_after, full_before, fields=("paths", "mask"))
        values_changed |= (full_after.sources.tobytes() != full_before.sources.tobytes()
                           or full_after.targets.tobytes() != full_before.targets.tobytes())
    assert values_changed

    outputs = {}
    for name in ("original", "renamed"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["eval", "--model", model, str(tmp_path / f"{name}.c2v"),
                         "--per-example", str(tmp_path / f"{name}.tsv")]) == 0
            assert main(["predict", "--model", model, str(tmp_path / f"{name}.mj"),
                         "--topk", "5"]) == 0
        outputs[name] = out.getvalue(), (tmp_path / f"{name}.tsv").read_text()
    assert outputs["renamed"] == outputs["original"]
