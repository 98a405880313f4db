"""Vocabulary construction, example encoding (sampling, padding, ablation
masking), the line-based dataset format, and sub-token splitting.
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Iterable, Iterator, TextIO

import numpy as np

from .errors import DatasetFormatError
from .paths import PATH_STRING_RE, Contexts, PathContext, SymbolTable

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<PAD>"
UNK_TOKEN = "<UNK>"

_LABEL_BREAK_RE = re.compile(r"[ \r\n]")
_SUBTOKEN_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z]*|[a-z]+|[0-9]+")


def split_subtokens(name: str) -> list[str]:
    """Split an identifier into lowercase sub-tokens at camelCase,
    letter/digit, and underscore/dollar boundaries."""
    return [t.lower() for t in _SUBTOKEN_RE.findall(name)]


class Vocab:
    """Frequency-ranked index map with reserved PAD=0 and UNK=1 ids."""

    def __init__(self, entries_with_counts: list[tuple[str, int]]):
        self._fill(list(map(itemgetter(0), entries_with_counts)),
                   list(map(itemgetter(1), entries_with_counts)))

    @classmethod
    def from_columns(cls, entries: list[str], counts: list[int]) -> "Vocab":
        """The vocabulary of `entries`, ranked in that order, with their counts."""
        vocab = cls.__new__(cls)
        vocab._fill(entries, counts)
        return vocab

    def _fill(self, entries: list[str], counts: list[int]) -> None:
        self.entries = [PAD_TOKEN, UNK_TOKEN, *entries]
        self.counts = [0, 0, *counts]
        self._index = dict(zip(self.entries, range(len(self.entries))))
        if len(self._index) != len(self.entries):
            raise DatasetFormatError("duplicate vocabulary entry")

    def __len__(self) -> int:
        return len(self.entries)

    def id_of(self, entry: str) -> int:
        return self._index.get(entry, UNK_ID)

    def entry(self, idx: int) -> str:
        return self.entries[idx]

    def ids_of(self, entries: list[str]) -> np.ndarray:
        """The id of each entry, UNK for one not in the vocabulary."""
        return np.fromiter(map(self._index.get, entries, repeat(UNK_ID)), np.int64, len(entries))


@dataclass
class Vocabs:
    values: Vocab
    paths: Vocab
    tags: Vocab


@dataclass
class RawExample:
    label: str
    contexts: Contexts

    def __post_init__(self):
        if not self.label:
            raise DatasetFormatError("empty label")
        # A dataset line splits on ' ', and a file's lines on CR and LF.
        if _LABEL_BREAK_RE.search(self.label):
            raise DatasetFormatError(f"label {self.label!r} holds a space, CR or LF")
        if not isinstance(self.contexts, Contexts):  # PathContexts that must read back
            self.contexts = _checked_contexts(self.label, self.contexts)


def _checked_contexts(label: str, contexts: Iterable[PathContext]) -> Contexts:
    """The contexts as each reads back from its dataset chunk, coded in one
    new table."""
    table, codes = SymbolTable(), [np.empty((0, 3), np.int32)]
    for ctx in contexts:
        chunk = format_context(ctx)
        try:
            read = parse_example(f"{label} {chunk}", table=table).contexts
        except DatasetFormatError:
            read = None
        if read != [ctx]:
            raise DatasetFormatError(f"example {label!r}: context {chunk!r} does not read back")
        codes.append(read.codes)
    table.seal()
    return Contexts(np.concatenate(codes), table)


@dataclass
class EncodedExample:
    """One encoded example, or a batch of them stacked by `stack_examples`:
    then `label_id` is a (B,) array and every other array gains a leading
    batch axis."""

    label_id: int | np.ndarray
    sources: np.ndarray  # (k_max,) int
    paths: np.ndarray
    targets: np.ndarray
    mask: np.ndarray  # (k_max,) float, 1.0 for valid slots


def stack_examples(examples: list[EncodedExample]) -> EncodedExample:
    """The examples as one batch with a leading batch axis."""
    return EncodedExample(np.array([e.label_id for e in examples]),
                          np.stack([e.sources for e in examples]),
                          np.stack([e.paths for e in examples]),
                          np.stack([e.targets for e in examples]),
                          np.stack([e.mask for e in examples]))


@dataclass(frozen=True)
class AblationMask:
    hide_source: bool = False
    hide_path: bool = False
    hide_target: bool = False


ABLATIONS = {
    "full": AblationMask(False, False, False),
    "only-values": AblationMask(False, True, False),
    "no-values": AblationMask(True, False, True),
    "value-path": AblationMask(False, False, True),
    "one-value": AblationMask(False, True, True),
}


def _top_entries(counter: Counter, cutoff: int) -> list[tuple[str, int]]:
    # Descending frequency, ties broken lexicographically.
    ranked = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:cutoff]


def build_vocabs(examples: Iterable[RawExample], max_values: int = 50_000,
                 max_paths: int = 50_000, max_tags: int = 10_000) -> Vocabs:
    """Count components over a training stream and keep the top-N of each:
    the codes of each symbol table are counted at once."""
    if min(max_values, max_paths, max_tags) < 1:
        raise ValueError("cutoffs must be >= 1")
    value_counts: Counter = Counter()
    path_counts: Counter = Counter()
    tag_counts: Counter = Counter()
    by_table: dict[SymbolTable, list[np.ndarray]] = {}
    for example in examples:
        tag_counts[example.label] += 1
        by_table.setdefault(example.contexts.table, []).append(example.contexts.codes)
    for table, codes in by_table.items():
        codes = np.concatenate(codes)
        for counter, strings, column in ((value_counts, table.values, codes[:, ::2]),
                                         (path_counts, table.texts, codes[:, 1])):
            counts = np.bincount(column.ravel(), minlength=len(strings))
            seen = np.flatnonzero(counts).tolist()
            for string, times in zip(map(strings.__getitem__, seen), counts[seen].tolist()):
                counter[string] += times
    return Vocabs(
        values=Vocab(_top_entries(value_counts, max_values)),
        paths=Vocab(_top_entries(path_counts, max_paths)),
        tags=Vocab(_top_entries(tag_counts, max_tags)),
    )


def example_rng(global_seed: int, ordinal: int, epoch: int = 0) -> np.random.Generator:
    """Per-example generator derived from the global seed, the example's
    position in the dataset, and the epoch (for fresh resampling)."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((global_seed, epoch, ordinal))))


def sample_contexts(contexts: Contexts, k_max: int,
                    rng: np.random.Generator | None) -> Contexts:
    """The contexts that fill an example's k_max slots: all of them when
    they fit, else k_max drawn without replacement, in their input order."""
    if len(contexts) <= k_max:
        return contexts
    keep = np.sort(rng.choice(len(contexts), size=k_max, replace=False))
    return Contexts(contexts.codes[keep], contexts.table)


def encode_example(raw: RawExample, vocabs: Vocabs, k_max: int,
                   rng: np.random.Generator | None,
                   ablation: AblationMask = ABLATIONS["full"]) -> EncodedExample:
    """Index a raw example, filling the slots with `sample_contexts` (`rng`
    may be None when the contexts fit) and padding the rest with masked slots.
    The kept codes index the ids of their table's strings, mapped once per Vocab.

    Hidden (ablated) components and out-of-vocabulary components map to
    UNK. An example with zero contexts encodes with an all-zero mask.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    contexts = sample_contexts(raw.contexts, k_max, rng)
    codes, table = contexts.codes, contexts.table
    n = len(codes)
    values = table.ids(vocabs.values, 0)
    sources, paths, targets = (np.full(k_max, PAD_ID, dtype=np.int64) for _ in range(3))
    sources[:n] = UNK_ID if ablation.hide_source else values[codes[:, 0]]
    paths[:n] = UNK_ID if ablation.hide_path else table.ids(vocabs.paths, 1)[codes[:, 1]]
    targets[:n] = UNK_ID if ablation.hide_target else values[codes[:, 2]]
    mask = np.zeros(k_max, dtype=np.float64)
    mask[:n] = 1.0
    return EncodedExample(vocabs.tags.id_of(raw.label), sources, paths, targets, mask)


def encode_batch(examples: list[RawExample], positions: list[int], vocabs: Vocabs, k_max: int,
                 seed: int, ablation: AblationMask, epoch: int = 0) -> EncodedExample:
    """The examples at `positions`, encoded in that order and stacked; one
    longer than k_max samples with `example_rng(seed, position, epoch)`."""
    return stack_examples([
        encode_example(examples[i], vocabs, k_max, example_rng(seed, i, epoch)
                       if len(examples[i].contexts) > k_max else None, ablation)
        for i in positions])


def encode_batches(examples: list[RawExample], positions: Iterable[int], size: int,
                   vocabs: Vocabs, k_max: int, seed: int, ablation: AblationMask,
                   epoch: int = 0) -> Iterator[tuple[list[int], EncodedExample]]:
    """The `positions` whose examples have contexts, in order, in runs of
    `size`: each run with its `encode_batch`, encoded when it is drawn."""
    kept = [i for i in positions if examples[i].contexts]
    for start in range(0, len(kept), size):
        run = kept[start:start + size]
        yield run, encode_batch(examples, run, vocabs, k_max, seed, ablation, epoch)


# --- dataset line format ---------------------------------------------------
#
# One example per line: `<label> <ctx> <ctx> ...`, each <ctx> being
# `<source>,<pathstring>,<target>`. Empty-context examples are a bare label.

def format_context(ctx: PathContext) -> str:
    return f"{ctx.source_value},{ctx.path},{ctx.target_value}"


def format_example(example: RawExample) -> str:
    codes, table = example.contexts.codes, example.contexts.table
    if not len(codes):
        return example.label
    # Each context as six picks from the table's symbols: source, ',', path,
    # ',', target, ' '; the last ' ' is dropped.
    symbols = table.symbols()
    picks = np.empty((len(codes), 6), np.intp)
    picks[:, 0::2] = codes
    picks[:, 2] += len(table.values)
    picks[:, 1::2] = len(symbols) - 2, len(symbols) - 2, len(symbols) - 1
    return example.label + " " + "".join(symbols[picks.ravel()[:-1]].tolist())


def parse_example(line: str, lineno: int = 0, table: SymbolTable | None = None) -> RawExample:
    """One dataset line, its contexts coded in `table` (a new one when None).
    A path string new to the table is checked once."""
    table = SymbolTable() if table is None else table
    label, space, rest = line.partition(" ")
    if not label:
        raise DatasetFormatError(f"line {lineno}: empty label")
    chunks = rest.split(" ") if space else []
    pieces = rest.replace(" ", ",").split(",") if chunks else []
    # A CR or LF would split the line when it is written and read back.
    if chunks and (set(map(str.count, chunks, repeat(","))) != {2} or "" in pieces
                   or "\r" in rest or "\n" in rest):
        bad = next(c for c in chunks if c.count(",") != 2 or "" in c.split(",")
                   or "\r" in c or "\n" in c)
        raise DatasetFormatError(f"line {lineno}: malformed context {bad!r}")
    value_codes, path_codes = table.value_codes, table.path_codes
    codes = np.empty((len(chunks), 3), np.int32)
    codes[:, 1] = np.fromiter(map(path_codes.__getitem__, pieces[1::3]), np.int32, len(chunks))
    new = path_codes.since(len(table.texts))
    for text in new:
        if not PATH_STRING_RE.fullmatch(text):
            while len(path_codes) > len(table.texts):
                path_codes.popitem()  # the table stays as it was
            raise DatasetFormatError(f"line {lineno}: malformed path string {text!r}")
    table.texts += new
    for column in (0, 2):
        codes[:, column] = np.fromiter(map(value_codes.__getitem__, pieces[column::3]),
                                       np.int32, len(chunks))
    table.values += value_codes.since(len(table.values))
    try:
        return RawExample(label, Contexts(codes, table))
    except DatasetFormatError as exc:
        raise DatasetFormatError(f"line {lineno}: {exc}") from None


def write_dataset(examples: Iterable[RawExample], stream: TextIO) -> None:
    for example in examples:
        stream.write(format_example(example) + "\n")


def read_dataset(stream: Iterable[str]) -> Iterator[RawExample]:
    """The stream's examples, coded in one SymbolTable: each distinct
    string is kept and each distinct path string checked once."""
    table = SymbolTable()
    for lineno, line in enumerate(stream, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        yield parse_example(line, lineno, table)
    table.seal()


def load_dataset(path: str) -> list[RawExample]:
    """Every example of a dataset file. Each fault, a file without
    examples included, is a DatasetFormatError that starts with the path."""
    with open(path, encoding="utf-8") as handle:
        try:
            examples = list(read_dataset(handle))
        except UnicodeDecodeError as exc:
            raise DatasetFormatError(f"{path}: not UTF-8 text: {exc}") from None
        except DatasetFormatError as exc:
            raise DatasetFormatError(f"{path}: {exc}") from None
    if not examples:
        raise DatasetFormatError(f"{path}: no examples")
    return examples


# --- vocabulary block format (embedded in the model file) --------------------
#
# `<kind>\t<entry>\t<count>` lines, frequency-descending, kinds grouped as
# value / path / tag. Reserved PAD and UNK entries are implicit.

_KIND_ORDER = ("value", "path", "tag")
_POWERS_OF_TEN = 10 ** np.arange(19, dtype=np.int64)


def format_vocabs(vocabs: Vocabs) -> str:
    lines = []
    for kind, vocab in zip(_KIND_ORDER, (vocabs.values, vocabs.paths, vocabs.tags)):
        for entry, count in zip(vocab.entries[2:], vocab.counts[2:]):
            if "\n" in entry:
                raise DatasetFormatError(f"{kind} vocabulary entry {entry!r} holds LF")
            lines.append(f"{kind}\t{entry}\t{count}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_vocabs(text: str) -> Vocabs:
    """Inverse of format_vocabs: LF-split lines, each cut at its first and last
    tab, with no Python statement per line."""
    kind, entries, counts = _vocab_columns(text)
    if (kind[1:] < kind[:-1]).any():  # kinds interleaved: group them, in line order
        order = np.argsort(kind, kind="stable")
        kind = kind[order]
        entries = np.array(entries, object)[order].tolist()
        counts = np.array(counts, object)[order].tolist()
    bounds = np.searchsorted(kind, np.arange(len(_KIND_ORDER) + 1)).tolist()
    values, paths, tags = (Vocab.from_columns(entries[a:b], counts[a:b])
                           for a, b in zip(bounds, bounds[1:]))
    return Vocabs(values=values, paths=paths, tags=tags)


def _vocab_columns(text: str) -> tuple[np.ndarray, list[str], list[int]]:
    """Each line's kind code, entry and count. The block's UTF-8 bytes are
    checked as arrays, and the entries cut by one split; the arrays are
    freed before the caller builds the vocabularies."""
    data = np.frombuffer(text.encode("utf-8", "surrogatepass"), np.uint8)
    # Every tab and LF in block order, then an LF past the end for the last line.
    marks = np.flatnonzero(data < 11)
    marks = np.append(marks[data[marks] >= 9], len(data))
    breaks = np.flatnonzero(data[marks[:-1]] == 10)  # the marks that end a line
    ends = np.append(breaks, len(marks) - 1)
    opens = np.concatenate(([-1], breaks))  # the mark before each line
    starts, tab_count = marks[opens] + 1, ends - opens - 1
    starts[0] = 0
    lines = np.flatnonzero(marks[ends] > starts)  # empty lines are skipped
    starts, tab_count = starts[lines], tab_count[lines]
    first, last, ends = marks[opens[lines] + 1], marks[ends[lines] - 1], marks[ends[lines]]
    malformed = tab_count < 2
    kind = np.full(len(lines), -1)
    for code, name in enumerate(_KIND_ORDER):
        rows = np.flatnonzero(first - starts == len(name))
        for offset, byte in enumerate(name.encode()):
            rows = rows[data[starts[rows] + offset] == byte]
        kind[rows] = code
    malformed |= kind < 0
    written, counts = _read_counts(data, np.where(malformed, ends, last + 1), ends)
    if (malformed | ~written).any():
        at = np.flatnonzero(malformed | ~written)[0]
        what = "malformed entry" if malformed[at] else "bad count"
        raise DatasetFormatError(f"vocab line {lines[at] + 1}: {what}")
    # Each line's first and last tab become LF and each LF a tab: then the
    # entries, a tab inside one kept, are every other field of one split,
    # and the rest of a line, its count and the next line's kind, one field.
    cut = data.copy()
    cut[marks[breaks]] = 9
    cut[first] = cut[last] = 10
    return kind, str(cut.data, "utf-8", "surrogatepass").split("\n")[1::2], counts


def _read_counts(data: np.ndarray, starts: np.ndarray,
                 ends: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Whether each `data[start:end]` is a count as `str(int)` writes it,
    `0` or `-?[1-9][0-9]*` within int()'s digit limit, and, when all are,
    their values. Only the count bytes are read."""
    widths = ends - starts
    offsets = np.cumsum(widths) - widths
    at = np.arange(widths.sum()) + np.repeat(starts - offsets, widths)
    digit = data[at] - ord("0")  # uint8: a byte below "0" wraps past 9
    nondigit = digit > 9
    nondigits = np.concatenate(([0], np.cumsum(nondigit)))
    nondigits = nondigits[offsets + widths] - nondigits[offsets]
    sign = (widths > 0) & (data[np.minimum(starts, len(data) - 1)] == ord("-"))
    digits = widths - sign
    lead = data[np.minimum(starts + sign, len(data) - 1)]
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or np.inf
    written = ((digits >= 1) & (digits <= limit) & (nondigits == sign)
               & ((lead != ord("0")) | (digits == 1) & ~sign))
    if not len(at) or not written.all():
        return written, []
    # The sum of digit * 10^place over each count is exact up to 18 digits;
    # a longer count is read by int().
    digit[nondigit] = 0
    place = np.minimum(np.repeat(ends - 1, widths) - at, 18)
    values = np.add.reduceat(digit * _POWERS_OF_TEN[place], offsets)
    counts = np.where(sign, -values, values).tolist()
    for i in np.flatnonzero(digits > 18).tolist():
        counts[i] = int(data[starts[i]:ends[i]].tobytes())
    return written, counts
