import io
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codevec.corpus import (ABLATIONS, PAD_ID, UNK_ID, RawExample, Vocab, Vocabs,
                            build_vocabs, encode_batch, encode_batches, encode_example,
                            example_rng, format_example, format_vocabs, load_dataset,
                            parse_example, parse_vocabs, read_dataset, split_subtokens,
                            write_dataset)
from codevec.errors import DatasetFormatError
from codevec.paths import PathContext

from conftest import random_path, reference_parse_vocabs


def ctx(source, path_string, target):
    return PathContext(source, path_string, target)


EXAMPLE_PATH = "NameExpr^AssignExpr_IntegerLiteralExpr"


class TestSubtokens:
    def test_camel_case(self):
        assert split_subtokens("countLines") == ["count", "lines"]

    def test_single_letter(self):
        assert split_subtokens("x") == ["x"]

    def test_three_words(self):
        assert split_subtokens("equalsIgnoreCase") == ["equals", "ignore", "case"]

    def test_underscores_and_digits(self):
        assert split_subtokens("to_string2x") == ["to", "string", "2", "x"]
        assert split_subtokens("parse$Name") == ["parse", "name"]

    def test_acronym_runs(self):
        assert split_subtokens("parseHTMLDoc") == ["parse", "html", "doc"]


class TestBuildVocabs:
    def test_single_tag(self):
        examples = [RawExample("get", [ctx("x", EXAMPLE_PATH, "7")])
                    for _ in range(3)]
        vocabs = build_vocabs(examples)
        assert vocabs.tags.id_of("get") == 2
        assert len(vocabs.tags) == 3

    def test_cutoff_and_tie_break(self):
        examples = []
        for path_string, repeat in (("B^M_B", 5), ("A^M_A", 5), ("C^M_C", 1)):
            examples.extend(
                RawExample("f", [ctx("v", path_string, "w")])
                for _ in range(repeat))
        vocabs = build_vocabs(examples, max_paths=2)
        assert vocabs.paths.id_of("A^M_A") == 2  # tie with B broken lexically
        assert vocabs.paths.id_of("B^M_B") == 3
        assert vocabs.paths.id_of("C^M_C") == UNK_ID

    def test_inactive_cutoff_keeps_everything(self):
        examples = [RawExample("f", [ctx("a", "A^M_B", "b"),
                                     ctx("c", "C^M_D", "d")])]
        vocabs = build_vocabs(examples, max_values=4, max_paths=2, max_tags=1)
        assert set("abcd") <= set(vocabs.values.entries)
        assert {"A^M_B", "C^M_D"} <= set(vocabs.paths.entries)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        examples = [
            RawExample(f"m{rng.integers(5)}",
                       [PathContext("v", random_path(rng), "w")
                        for _ in range(rng.integers(1, 5))])
            for _ in range(50)]
        assert format_vocabs(build_vocabs(examples)) == format_vocabs(
            build_vocabs(examples))


def small_vocabs():
    examples = [RawExample("get", [ctx("x", EXAMPLE_PATH, "7"),
                                   ctx("y", "A^M_B", "z")])]
    return build_vocabs(examples)


class TestEncode:
    def test_padding(self):
        vocabs = small_vocabs()
        raw = RawExample("get", [ctx("x", EXAMPLE_PATH, "7")] * 3)
        encoded = encode_example(raw, vocabs, 5, example_rng(0, 0))
        assert encoded.mask.tolist() == [1, 1, 1, 0, 0]
        assert encoded.sources[3:].tolist() == [PAD_ID, PAD_ID]
        assert encoded.paths[3:].tolist() == [PAD_ID, PAD_ID]

    def test_sampling_reproducible(self):
        vocabs = small_vocabs()
        raw = RawExample("get", [ctx("x", EXAMPLE_PATH, str(i))
                                 for i in range(400)])
        first = encode_example(raw, vocabs, 200, example_rng(7, 3))
        second = encode_example(raw, vocabs, 200, example_rng(7, 3))
        assert first.mask.sum() == 200
        assert (first.targets == second.targets).all()
        other = encode_example(raw, vocabs, 200, example_rng(8, 3))
        assert (first.targets != other.targets).any()

    def test_ablation_no_values(self):
        vocabs = small_vocabs()
        raw = RawExample("get", [ctx("x", EXAMPLE_PATH, "7")])
        encoded = encode_example(raw, vocabs, 2, example_rng(0, 0),
                                 ABLATIONS["no-values"])
        assert encoded.sources[0] == UNK_ID
        assert encoded.targets[0] == UNK_ID
        assert encoded.paths[0] == vocabs.paths.id_of(EXAMPLE_PATH)

    def test_ablation_table(self):
        assert ABLATIONS["full"] == ABLATIONS["full"].__class__(False, False, False)
        assert ABLATIONS["only-values"].hide_path
        assert not ABLATIONS["only-values"].hide_source
        assert ABLATIONS["value-path"].hide_target
        assert ABLATIONS["one-value"] == ABLATIONS["one-value"].__class__(
            False, True, True)

    def test_full_is_identity_on_ids(self):
        vocabs = small_vocabs()
        raw = RawExample("get", [ctx("y", "A^M_B", "z")])
        encoded = encode_example(raw, vocabs, 1, example_rng(0, 0))
        assert encoded.sources[0] == vocabs.values.id_of("y")
        assert encoded.paths[0] == vocabs.paths.id_of("A^M_B")
        assert encoded.targets[0] == vocabs.values.id_of("z")

    def test_oov_maps_to_unk(self):
        vocabs = small_vocabs()
        raw = RawExample("unseen", [ctx("nope", "Q^R_S", "w")])
        encoded = encode_example(raw, vocabs, 1, example_rng(0, 0))
        assert encoded.label_id == UNK_ID
        assert encoded.sources[0] == UNK_ID
        assert encoded.paths[0] == UNK_ID

    def test_zero_contexts_untrainable(self):
        vocabs = small_vocabs()
        encoded = encode_example(RawExample("get", []), vocabs, 3,
                                 example_rng(0, 0))
        assert not encoded.mask.any()

    @given(data=st.data(), k_max=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           epoch=st.integers(0, 3), ablation=st.sampled_from(sorted(ABLATIONS)))
    @settings(max_examples=100, deadline=None)
    def test_dataset_ids_match_explicit_generators(self, data, k_max, seed, epoch,
                                                   ablation):
        # Examples shorter than, as long as and longer than k_max, and
        # without contexts, cut into batches in any way: each row is the
        # example at its position encoded alone with its own example_rng.
        vocabs = small_vocabs()
        lengths = data.draw(st.lists(st.sampled_from([0, 1, k_max, k_max + 1])
                                     | st.integers(0, 3 * k_max), min_size=1, max_size=8))
        component = st.sampled_from(["x", "y", "z", "7", "unseen"])
        path = st.sampled_from([EXAMPLE_PATH, "A^M_B", "Q^R_S"])
        examples = [RawExample("get", [ctx(data.draw(component), data.draw(path),
                                           data.draw(component)) for _ in range(n)])
                    for n in lengths]
        batches = data.draw(st.lists(st.lists(st.integers(0, len(examples) - 1),
                                              min_size=1, max_size=6), min_size=1, max_size=4))
        for positions in batches:
            got = encode_batch(examples, positions, vocabs, k_max, seed,
                               ABLATIONS[ablation], epoch)
            for row, i in enumerate(positions):
                want = encode_example(examples[i], vocabs, k_max,
                                      example_rng(seed, i, epoch), ABLATIONS[ablation])
                assert got.label_id[row] == want.label_id
                for name in ("sources", "paths", "targets", "mask"):
                    a, b = getattr(got, name)[row], getattr(want, name)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), \
                        f"position {i}: {name}"

    def test_batches_are_runs_of_the_positions_with_contexts(self):
        vocabs = small_vocabs()
        examples = [RawExample("get", [ctx("x", EXAMPLE_PATH, "7")] * n)
                    for n in (2, 0, 5, 1, 0, 3, 7, 4)]
        order = [6, 1, 0, 4, 3, 7, 2, 5]
        runs = list(encode_batches(examples, order, 3, vocabs, 4, 9, ABLATIONS["full"], 2))
        assert [run for run, _ in runs] == [[6, 0, 3], [7, 2, 5]]
        for run, batch in runs:
            want = encode_batch(examples, run, vocabs, 4, 9, ABLATIONS["full"], 2)
            for name in ("label_id", "sources", "paths", "targets", "mask"):
                assert np.array_equal(getattr(batch, name), getattr(want, name))
        assert list(encode_batches(examples, [1, 4], 3, vocabs, 4, 9,
                                   ABLATIONS["full"])) == []

    def test_mask_invariant(self):
        vocabs = small_vocabs()
        rng = np.random.default_rng(4)
        for _ in range(20):
            raw = RawExample("get", [PathContext("v", random_path(rng), "w")
                                     for _ in range(rng.integers(0, 8))])
            encoded = encode_example(raw, vocabs, 5, example_rng(1, 0))
            for i in range(5):
                ids = (encoded.sources[i], encoded.paths[i], encoded.targets[i])
                if encoded.mask[i]:
                    assert all(x < len(v) for x, v in
                               zip(ids, (vocabs.values, vocabs.paths, vocabs.values)))
                else:
                    assert ids == (PAD_ID, PAD_ID, PAD_ID)


class TestDatasetFormat:
    def test_example_line(self):
        raw = RawExample("reverse", [ctx("x", EXAMPLE_PATH, "7")])
        assert format_example(raw) == f"reverse x,{EXAMPLE_PATH},7"

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        examples = [
            RawExample(f"name{i}",
                       [PathContext("v", random_path(rng), "w")
                        for _ in range(rng.integers(0, 4))])
            for i in range(100)]
        buffer = io.StringIO()
        write_dataset(examples, buffer)
        buffer.seek(0)
        again = list(read_dataset(buffer))
        assert again == examples

    def test_malformed_context(self):
        with pytest.raises(DatasetFormatError, match="line 1"):
            parse_example("f x,,7", lineno=1)
        with pytest.raises(DatasetFormatError):
            parse_example("f x,A^B", lineno=2)

    def test_empty_label(self):
        with pytest.raises(DatasetFormatError):
            parse_example(" x,A^M_B,7", lineno=3)

    @pytest.mark.parametrize("label", ["get X", "get\nX", "get\rX", "\n"])
    def test_label_the_line_format_would_split(self, label):
        with pytest.raises(DatasetFormatError, match="holds a space, CR or LF"):
            RawExample(label, [])

    def test_label_with_cr_names_its_line(self):
        # A library stream keeps the CR that a text-mode file translates.
        with pytest.raises(DatasetFormatError,
                           match=r"^line 1: label 'getX\\r' holds a space, CR or LF$"):
            list(read_dataset(["getX\r\n"]))
        with pytest.raises(DatasetFormatError,
                           match=r"^line 2: label 'getY\\r' holds a space, CR or LF$"):
            list(read_dataset(["getX x,A^B,y\n", "getY\r x,A^B,y\n"]))

    @pytest.mark.parametrize("make", [io.StringIO, lambda text: text.split("\n")],
                             ids=["StringIO", "list"])
    def test_cr_in_a_context_names_its_line(self, make):
        # Reproduction: a stream that keeps CR read this context, which
        # RawExample refuses and a text-mode read of its written line splits.
        with pytest.raises(DatasetFormatError) as raised:
            list(read_dataset(make("g x,A^B,y\nf a\x0bz,A\rB^C,b\n")))
        assert str(raised.value) == "line 2: malformed context 'a\\x0bz,A\\rB^C,b'"
        with pytest.raises(DatasetFormatError) as raised:
            list(read_dataset(make("f x,A^B,y\r\n")))
        assert str(raised.value) == "line 1: malformed context 'x,A^B,y\\r'"

    def test_lf_in_a_context_of_a_list_names_its_line(self):
        with pytest.raises(DatasetFormatError) as raised:
            list(read_dataset(["g x,A^B,y", "f a\nz,A^B,b"]))
        assert str(raised.value) == "line 2: malformed context 'a\\nz,A^B,b'"

    def test_file_not_utf8(self, tmp_path):
        path = tmp_path / "bad.c2v"
        path.write_bytes(b"getX x,NameExpr^Return,y\nget\xff\n")
        with pytest.raises(DatasetFormatError, match="bad.c2v: not UTF-8"):
            load_dataset(str(path))

    def test_empty_file_names_path(self, tmp_path):
        for text in ("", "\n\n"):
            path = tmp_path / "empty.c2v"
            path.write_text(text, encoding="utf-8")
            with pytest.raises(DatasetFormatError, match=r"empty\.c2v: no examples$"):
                load_dataset(str(path))

    def test_malformed_line_names_path(self, tmp_path):
        path = tmp_path / "bad.c2v"
        path.write_text("getX x,NameExpr^Return,y\n\ngetY y,Return\n", encoding="utf-8")
        with pytest.raises(DatasetFormatError,
                           match=r"bad\.c2v: line 3: malformed context 'y,Return'$"):
            load_dataset(str(path))

    def test_malformed_path_names_its_line(self, tmp_path):
        path = tmp_path / "bad.c2v"
        path.write_text("getX x,NameExpr^Return,y\ngetY y,Return,z y,Return,w\n",
                        encoding="utf-8")
        with pytest.raises(DatasetFormatError,
                           match=r"bad\.c2v: line 2: malformed path string 'Return'$"):
            load_dataset(str(path))
        with pytest.raises(DatasetFormatError, match=r"^line 4: malformed path string"):
            parse_example("f x,A,7", lineno=4)

    def test_one_table_entry_per_distinct_path_string(self):
        lines = ["f x,A^M_B,7 y,A^M_B,8 z,A_M^B,9", "g x,A^M_B,7", "h",
                 "k x,A_M^B,9 y,B^M_A,7"]
        examples = list(read_dataset(io.StringIO("\n".join(lines) + "\n")))
        (table,) = {example.contexts.table for example in examples}
        assert list(table.texts) == ["A^M_B", "A_M^B", "B^M_A"]
        for example in examples:
            for code, ctx in zip(example.contexts.codes[:, 1].tolist(), example.contexts):
                assert type(ctx.path) is str and ctx.path == table.texts[code]
        # The table lives for one read only.
        (again,) = read_dataset(io.StringIO(lines[1]))
        assert again.contexts[0].path == "A^M_B"
        assert again.contexts.table is not table

    def test_bare_label_round_trips(self):
        raw = RawExample("lonely", [])
        assert parse_example(format_example(raw)) == raw


# Counts near the grammar `0|-?[1-9][0-9]*`, most of them outside it.
ODD_COUNTS = ["0", "-3", "-0", "00", "01", "-01", "+1", "1_0", "\u0661", "", "-", " 1", "1 ",
              "7\r"]


@st.composite
def vocab_blocks(draw):
    """Vocabulary blocks near the grammar: interleaved kinds, empty lines,
    entries holding tabs, CR, U+2028 or non-ASCII text, and duplicates; in
    half of them, counts, kinds and tab counts that the grammar refuses."""
    entries = st.text(st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)),
                      max_size=5) | st.sampled_from(
        ["x", "a\tb", "\t", "c\r", "d\u2028e", "é", "日本", "<UNK>"])
    kinds = st.sampled_from(["value", "path", "tag"])
    good = st.builds("{}\t{}\t{}".format, kinds, entries, st.integers(-10**20, 10**20))
    line = st.one_of(good, good, good, st.just(""))
    if draw(st.booleans()):
        counts = st.sampled_from(ODD_COUNTS)
        kinds |= st.sampled_from(["", "val", "tags", "Value", "value ", "x"])
        line |= st.builds("{}\t{}\t{}".format, kinds, entries, counts) | st.builds(
            "{}\t{}".format, kinds, entries) | entries
    lines = draw(st.lists(line, max_size=10))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


def assert_parses_as_the_reference(text: str) -> None:
    """parse_vocabs gives the reference's entries, counts and ids, or raises
    its error message."""
    try:
        expected = reference_parse_vocabs(text)
    except DatasetFormatError as exc:
        with pytest.raises(DatasetFormatError) as raised:
            parse_vocabs(text)
        assert str(raised.value) == str(exc)
        return
    got = parse_vocabs(text)
    for name in ("values", "paths", "tags"):
        vocab, reference = getattr(got, name), getattr(expected, name)
        assert (vocab.entries, vocab.counts) == (reference.entries, reference.counts)
        probes = reference.entries + ["absent", "x\t"]
        assert list(map(vocab.id_of, probes)) == list(map(reference.id_of, probes))


class TestVocabFormat:
    def test_round_trip(self):
        examples = [RawExample("getX", [ctx("x", EXAMPLE_PATH, "7"),
                                        ctx("x", "A^M_B", "b")]),
                    RawExample("getY", [ctx("y", "A^M_B", "b")])]
        vocabs = build_vocabs(examples)
        text = format_vocabs(vocabs)
        again = parse_vocabs(text)
        for name in ("values", "paths", "tags"):
            got, expected = getattr(again, name), getattr(vocabs, name)
            assert (got.entries, got.counts) == (expected.entries, expected.counts)
        assert format_vocabs(again) == text

    def test_counts_descend(self):
        examples = [RawExample("f", [ctx("x", EXAMPLE_PATH, "7")])
                    for _ in range(3)]
        examples.append(RawExample("g", [ctx("y", "A^M_B", "7")]))
        vocabs = build_vocabs(examples)
        counts = vocabs.values.counts[2:]
        assert counts == sorted(counts, reverse=True)

    @given(st.lists(st.lists(st.tuples(st.text().filter(lambda e: "\n" not in e),
                                       st.integers(0, 2**40)),
                             max_size=6, unique_by=lambda entry: entry[0]),
                    min_size=3, max_size=3))
    @settings(max_examples=200)
    def test_parse_inverts_format_for_entries_without_lf(self, kinds):
        # Tabs, CR, U+2028 and the other breaks of str.splitlines included.
        kinds = [[(e, c) for e, c in entries if e not in ("<PAD>", "<UNK>")]
                 for entries in kinds]
        vocabs = Vocabs(*map(Vocab, kinds))
        text = format_vocabs(vocabs)
        again = parse_vocabs(text)
        for name in ("values", "paths", "tags"):
            got, expected = getattr(again, name), getattr(vocabs, name)
            assert (got.entries, got.counts) == (expected.entries, expected.counts)
        assert format_vocabs(again) == text

    @given(st.data())
    @settings(max_examples=300)
    def test_parses_as_the_line_parser_does(self, data):
        assert_parses_as_the_reference(data.draw(vocab_blocks()))

    @pytest.mark.parametrize("count", ODD_COUNTS)
    def test_count_parses_as_the_line_parser_does(self, count):
        assert_parses_as_the_reference(f"value\ty\t4\n\npath\tx\t{count}\ntag\tz\t5")

    def test_count_at_and_past_the_digit_limit(self):
        # int() refuses a count of more digits than its limit (4300 by default).
        limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
        for digits in (limit, limit + 1, 19, 18):
            assert_parses_as_the_reference(f"value\tx\t3\ntag\ty\t-{'7' * digits}\n"
                                           f"tag\tz\t{'9' * digits}\n")

    def test_malformed_line(self):
        with pytest.raises(DatasetFormatError):
            parse_vocabs("value\tonly_two_fields\n")
        with pytest.raises(DatasetFormatError):
            parse_vocabs("nokind\tx\t3\n")

    @pytest.mark.parametrize("count", ["1_0", " 3", "3 ", "+3", "007", "\u0663", "", "-", "x"])
    def test_count_only_as_format_vocabs_writes_it(self, count):
        # Reproduction: int() read `1_0` as 10, so a re-save wrote other bytes.
        with pytest.raises(DatasetFormatError, match=r"^vocab line 2: bad count$"):
            parse_vocabs(f"value\ty\t4\nvalue\tx\t{count}\n")
        assert parse_vocabs("value\ty\t4\nvalue\tx\t10\n").values.counts == [0, 0, 4, 10]
