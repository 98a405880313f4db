"""An example's path-contexts as integer codes over a shared symbol table
(`paths.Contexts`, `paths.SymbolTable`): the sequence behaves as the list of
PathContexts it holds, in-memory contexts are checked to read back, encoding
through the table gives the ids that looking up each string gives, and no
object per context is kept when reading or extracting."""

import gc
import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codevec.corpus import (ABLATIONS, RawExample, Vocab, Vocabs, encode_batch, example_rng,
                            format_vocabs, read_dataset, sample_contexts, write_dataset)
from codevec.errors import DatasetFormatError
from codevec.minij import parse_methods
from codevec.model import AttentionVariant, ModelDims, init_params, save_model
from codevec.paths import (DOWN, UP, AstPath, Contexts, ExtractionLimits, PathContext,
                           extract_path_contexts)
from codevec.pipeline import method_to_example

from conftest import (NONTERMINAL_KINDS, TERMINAL_KINDS, VALUES, long_minij_method, random_ast,
                      reference_encode_batch)


@st.composite
def ast_paths(draw, kinds=st.sampled_from(TERMINAL_KINDS + NONTERMINAL_KINDS)):
    ups, downs = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    return AstPath(tuple(draw(st.lists(kinds, min_size=ups + downs + 1,
                                       max_size=ups + downs + 1))),
                   (UP,) * ups + (DOWN,) * downs)


path_contexts = st.builds(PathContext, st.sampled_from(VALUES), ast_paths(),
                          st.sampled_from(VALUES))


def list_sample(contexts, k_max, rng):
    """`sample_contexts` as it was written for a list of PathContexts."""
    if len(contexts) <= k_max:
        return contexts
    keep = rng.choice(len(contexts), size=k_max, replace=False)
    return [contexts[i] for i in np.sort(keep).tolist()]


class TestSequence:
    @given(st.lists(path_contexts, max_size=12), st.data())
    @settings(max_examples=200)
    def test_behaves_as_the_list(self, given_list, data):
        columns = RawExample("f", given_list).contexts
        assert isinstance(columns, Contexts)
        assert len(columns) == len(given_list)
        assert list(columns) == given_list
        n = len(given_list)
        index = data.draw(st.integers(-n - 2, n + 1))
        if -n <= index < n:
            assert columns[index] == given_list[index]
        else:
            with pytest.raises(IndexError):
                columns[index]
        part = data.draw(st.slices(n + 2))
        assert isinstance(columns[part], Contexts)
        assert columns[part] == given_list[part] and given_list[part] == columns[part]
        assert columns == given_list and given_list == columns
        assert columns == RawExample("g", list(given_list)).contexts
        other = data.draw(st.lists(path_contexts, max_size=12))
        assert (columns == other) == (given_list == other)
        assert (other == columns) == (other == given_list)
        assert (columns == RawExample("g", other).contexts) == (given_list == other)
        assert (columns != other) == (given_list != other)

    @given(st.lists(path_contexts, max_size=40), st.integers(1, 20), st.integers(0, 2**32))
    @settings(max_examples=200)
    def test_sampling_picks_what_the_list_version_picks(self, given_list, k_max, seed):
        columns = RawExample("f", given_list).contexts
        got = sample_contexts(columns, k_max, example_rng(seed, 3, 1))
        assert got == list_sample(given_list, k_max, example_rng(seed, 3, 1))


PATH = AstPath(("NameExpr", "AssignExpr", "IntegerLiteralExpr"), (UP, DOWN))


# Any text, with the characters the line format and the path string split on
# and the line breaks that it does not split on drawn often.
TOKENS = st.text(st.sampled_from("aZ9 ,^_\r\n\t\x0b\x85\u2028") | st.characters(), max_size=4)


class TestChecked:
    @pytest.mark.parametrize("value", ["", "a b", "a,b", "a\rb", "a\nb", "\n"])
    @pytest.mark.parametrize("side", ["source", "target"])
    def test_value_that_would_not_read_back(self, value, side):
        source, target = (value, "c") if side == "source" else ("c", value)
        bad = PathContext(source, PATH, target)
        chunk = f"{source},{PATH},{target}"
        with pytest.raises(DatasetFormatError,
                           match=f"^example 'getX': context {re.escape(repr(chunk))} "):
            RawExample("getX", [PathContext("x", PATH, "y"), bad])

    @pytest.mark.parametrize("path", ["Name Expr^Return", "NameExpr^A,B", "NameExpr\r^Return",
                                      "NameExpr^\nReturn", "^Return", "NameExpr", "A^_B"])
    def test_path_that_would_not_read_back(self, path):
        with pytest.raises(DatasetFormatError, match="^example 'getX': context "):
            RawExample("getX", [PathContext("x", path, "y")])

    @pytest.mark.parametrize("kinds", [("Name Expr", "Return"), ("NameExpr", "A,B"),
                                       ("NameExpr\r", "Return"), ("NameExpr", "\nReturn"),
                                       ("", "Return")])
    def test_path_whose_kind_breaks_the_rule_is_not_built(self, kinds):
        with pytest.raises(DatasetFormatError, match="^kind "):
            AstPath(kinds, (UP,))

    @pytest.mark.parametrize("kinds", [("NameExpr", "A^B"), ("Name_Expr", "Return")])
    def test_kind_holding_a_separator_reads_back_as_its_string(self, kinds):
        path = AstPath(kinds, (UP,))
        example = RawExample("getX", [PathContext("x", path, "y")])
        out = io.StringIO()
        write_dataset([example], out)
        (read,) = read_dataset(io.StringIO(out.getvalue()))
        assert read == example and read.contexts[0].path == path == "^".join(kinds)

    def test_value_with_lf_cannot_reach_a_model(self, tmp_path):
        # Reproduction: vocabularies built over such a value gave a model
        # file that load_model rejected.
        with pytest.raises(DatasetFormatError, match=r"'a\\nb,NameExpr\^"):
            RawExample("getX", [PathContext("a\nb", PATH, "c")])
        vocabs = Vocabs(Vocab([("a\nb", 3)]), Vocab([(PATH, 3)]), Vocab([("getX", 1)]))
        with pytest.raises(DatasetFormatError, match=r"value vocabulary entry 'a\\nb' holds LF"):
            format_vocabs(vocabs)
        params = init_params(ModelDims(4, 3, 3, 3, 2), AttentionVariant.SOFT, 0)
        target = tmp_path / "m.bin"
        with pytest.raises(DatasetFormatError):
            save_model(str(target), params, vocabs)
        assert not target.exists()

    def test_value_with_space_cannot_reach_a_dataset(self):
        # Reproduction: write_dataset wrote `getX a b,A^B,c`, which
        # read_dataset rejected.
        with pytest.raises(DatasetFormatError, match=r"^example 'getX': context 'a b,A\^B,c' "):
            RawExample("getX", [PathContext("a b", AstPath(("A", "B"), (UP,)), "c")])

    @given(st.text(max_size=6),
           st.lists(st.builds(PathContext, TOKENS,
                              st.builds("{}{}{}".format, TOKENS, st.sampled_from("^_"), TOKENS),
                              TOKENS), max_size=4))
    @settings(max_examples=400)
    def test_every_example_that_constructs_reads_back(self, label, contexts):
        try:
            example = RawExample(label, contexts)
        except DatasetFormatError:
            return
        out = io.StringIO()
        write_dataset([example], out)
        # newline=None reads as a text file opened for reading does.
        assert list(read_dataset(io.StringIO(out.getvalue(), newline=None))) == [example]


def tracked_growth(make):
    """`make()`'s result and how many more objects the cyclic GC tracks
    while it is alive."""
    gc.collect()
    before = len(gc.get_objects())
    kept = make()
    gc.collect()
    return kept, len(gc.get_objects()) - before


class TestNoObjectPerContext:
    def test_read_keeps_no_object_per_context(self):
        rng = np.random.default_rng(2)
        paths = [f"NameExpr^{kind}_IntegerLiteralExpr" for kind in NONTERMINAL_KINDS]
        lines = [f"f{e} " + " ".join(f"{VALUES[i % 9]},{paths[i % len(paths)]},{VALUES[j % 9]}"
                                     for i, j in rng.integers(0, 90, size=(2000, 2)))
                 for e in range(10)]
        text = "\n".join(lines) + "\n"
        examples, grown = tracked_growth(lambda: list(read_dataset(io.StringIO(text))))
        assert sum(len(e.contexts) for e in examples) == 20_000
        assert grown <= 10 * len(examples) + 2 * len(paths) + 50

    def test_extraction_keeps_no_object_per_context(self):
        (ast,) = parse_methods(long_minij_method(np.random.default_rng(5), 200))
        example, grown = tracked_growth(lambda: method_to_example(ast, ExtractionLimits(8, 2)))
        table = example.contexts.table
        assert len(example.contexts) > 3 * len(table.texts)
        assert grown <= 50
        # A context read carries its table's path string: no object is parsed.
        assert example.contexts[0].path is table.texts[example.contexts.codes[0, 1]]

    def test_reading_contexts_builds_no_object_per_distinct_path(self):
        (ast,) = parse_methods(long_minij_method(np.random.default_rng(5), 200))
        extracted = method_to_example(ast, ExtractionLimits(8, 2))
        out = io.StringIO()
        write_dataset([extracted], out)
        (read,) = read_dataset(io.StringIO(out.getvalue()))
        for example in (extracted, read):
            assert len(example.contexts.table.texts) > 300
            types, grown = tracked_growth(lambda: {type(ctx.path) for ctx in example.contexts})
            assert grown <= 10 and types == {str}


LABELS = ["getX", "setY", "run", "size"]


@st.composite
def example_routes(draw):
    """(how the examples were made, a list of them or a read's iterator).
    A read codes all its examples in one table, an extraction each method in
    its own, and `RawExample(label, [PathContext...])` each example in its own."""
    route = draw(st.sampled_from(["read", "extract", "list"]))
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=5))
    if route == "extract":
        seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=len(labels),
                              max_size=len(labels)))
        return route, [RawExample(label, extract_path_contexts(
            random_ast(np.random.default_rng(seed), max_terminals=8), ExtractionLimits(4, 2)))
            for label, seed in zip(labels, seeds)]
    examples = [RawExample(label, draw(st.lists(path_contexts, max_size=14)))
                for label in labels]
    if route == "list":
        return route, examples
    out = io.StringIO()
    write_dataset(examples, out)
    return route, read_dataset(io.StringIO(out.getvalue()))


@st.composite
def vocabularies(draw):
    """Vocabs over a part of the strings the examples may hold, plus strings
    they never hold: both in-vocabulary and out-of-vocabulary entries."""
    texts = [str(AstPath((a, b), (UP,))) for a in TERMINAL_KINDS for b in NONTERMINAL_KINDS]

    def vocab(pool):
        entries = draw(st.lists(st.sampled_from(pool + ["zz", "Q^R"]), unique=True, max_size=30))
        return Vocab([(entry, draw(st.integers(1, 9))) for entry in entries])

    return Vocabs(vocab(VALUES), vocab(texts + ["Name^Block_Name"]), vocab(LABELS))


class TestEncodingOracle:
    @given(example_routes(), vocabularies(), vocabularies(), st.sampled_from(sorted(ABLATIONS)),
           st.integers(1, 12), st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=300, deadline=None)
    def test_batches_hold_the_ids_of_looking_up_each_string(self, route_examples, vocabs_a,
                                                           vocabs_b, ablation, k_max, seed,
                                                           data):
        route, examples = route_examples
        ablation = ABLATIONS[ablation]

        def same(examples, positions, vocabs, epoch):
            got = encode_batch(examples, positions, vocabs, k_max, seed, ablation, epoch)
            want = reference_encode_batch(examples, positions, vocabs, k_max, seed, ablation,
                                          epoch)
            for name in ("label_id", "sources", "paths", "targets", "mask"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name), name)

        if route == "read":  # encode before the read is over: the table grows after it
            first = next(examples)
            same([first], [0], vocabs_a, 0)
            examples = [first, *examples]
        positions = data.draw(st.lists(st.sampled_from(range(len(examples))), min_size=1))
        for epoch, vocabs in enumerate([vocabs_a, vocabs_b, vocabs_a]):
            same(examples, positions, vocabs, epoch % 2)


class TestHeldMemory:
    def test_a_read_holds_at_most_40_bytes_per_context(self):
        # 12 B of codes per context, plus the distinct strings packed in
        # their table: about 300 B per context when each context held its
        # strings and AstPath.
        rng = np.random.default_rng(5)
        methods = [parse_methods(long_minij_method(rng, size))[0] for size in (100, 200)]
        out = io.StringIO()
        write_dataset([method_to_example(ast, ExtractionLimits(8, 2)) for ast in methods], out)
        lines = out.getvalue().splitlines(keepends=True)
        gc.collect()
        tracemalloc.start()
        try:
            examples = list(read_dataset(lines))
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        contexts = sum(len(e.contexts) for e in examples)
        assert contexts > 20_000
        assert held <= 40 * contexts
        assert examples == [method_to_example(ast, ExtractionLimits(8, 2)) for ast in methods]
