"""Vocabulary construction, example encoding (sampling, padding, ablation
masking), the line-based dataset format, and sub-token splitting.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
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
        self.entries = [PAD_TOKEN, UNK_TOKEN] + [e for e, _ in entries_with_counts]
        self.counts = [0, 0] + [c for _, c in entries_with_counts]
        self._index = {e: i for i, e in enumerate(self.entries)}
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
        if read != [ctx] or _LABEL_BREAK_RE.search(chunk):
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
    return f"{ctx.source_value},{ctx.path.text},{ctx.target_value}"


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
    A path string new to the table is checked once; its AstPath is built
    when a context that holds it is read."""
    table = SymbolTable() if table is None else table
    label, space, rest = line.partition(" ")
    if not label:
        raise DatasetFormatError(f"line {lineno}: empty label")
    chunks = rest.split(" ") if space else []
    pieces = rest.replace(" ", ",").split(",") if chunks else []
    if chunks and (set(map(str.count, chunks, repeat(","))) != {2} or "" in pieces):
        bad = next(c for c in chunks if c.count(",") != 2 or "" in c.split(","))
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
    string is kept once and each distinct path string parsed once."""
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


def format_vocabs(vocabs: Vocabs) -> str:
    lines = []
    for kind, vocab in zip(_KIND_ORDER, (vocabs.values, vocabs.paths, vocabs.tags)):
        for entry, count in zip(vocab.entries[2:], vocab.counts[2:]):
            if "\n" in entry:
                raise DatasetFormatError(f"{kind} vocabulary entry {entry!r} holds LF")
            lines.append(f"{kind}\t{entry}\t{count}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_vocabs(text: str) -> Vocabs:
    """Inverse of format_vocabs: LF-split lines, each cut at its first and last tab."""
    buckets: dict[str, list[tuple[str, int]]] = {k: [] for k in _KIND_ORDER}
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        kind, _, rest = line.partition("\t")
        entry, tab, count_text = rest.rpartition("\t")
        if not tab or kind not in buckets:
            raise DatasetFormatError(f"vocab line {lineno}: malformed entry")
        try:
            count = int(count_text)
            if str(count) != count_text:  # only the digits format_vocabs writes
                raise ValueError(count_text)
        except ValueError:
            raise DatasetFormatError(f"vocab line {lineno}: bad count") from None
        buckets[kind].append((entry, count))
    return Vocabs(values=Vocab(buckets["value"]), paths=Vocab(buckets["path"]),
                  tags=Vocab(buckets["tag"]))

