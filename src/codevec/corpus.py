"""Vocabulary construction, example encoding (sampling, padding, ablation
masking), the line-based dataset format, and sub-token splitting.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

import numpy as np

from .errors import DatasetFormatError
from .paths import AstPath, PathContext, path_from_string

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


@dataclass
class Vocabs:
    values: Vocab
    paths: Vocab
    tags: Vocab


@dataclass
class RawExample:
    label: str
    contexts: list[PathContext]

    def __post_init__(self):
        if not self.label:
            raise DatasetFormatError("empty label")
        # A dataset line splits on ' ', and a file's lines on CR and LF.
        if _LABEL_BREAK_RE.search(self.label):
            raise DatasetFormatError(f"label {self.label!r} holds a space, CR or LF")


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
    """Count components over a training stream and keep the top-N of each."""
    if min(max_values, max_paths, max_tags) < 1:
        raise ValueError("cutoffs must be >= 1")
    value_counts: Counter = Counter()
    path_counts: Counter = Counter()
    tag_counts: Counter = Counter()
    for example in examples:
        tag_counts[example.label] += 1
        for ctx in example.contexts:
            value_counts[ctx.source_value] += 1
            value_counts[ctx.target_value] += 1
            path_counts[ctx.path.text] += 1
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


def sample_contexts(contexts: list[PathContext], k_max: int,
                    rng: np.random.Generator | None) -> list[PathContext]:
    """The contexts that fill an example's k_max slots: all of them when
    they fit, else k_max drawn without replacement, in their input order."""
    if len(contexts) <= k_max:
        return contexts
    keep = rng.choice(len(contexts), size=k_max, replace=False)
    return [contexts[i] for i in np.sort(keep).tolist()]


def encode_example(raw: RawExample, vocabs: Vocabs, k_max: int,
                   rng: np.random.Generator | None,
                   ablation: AblationMask = ABLATIONS["full"]) -> EncodedExample:
    """Index a raw example, filling the slots with `sample_contexts` (`rng`
    may be None when the contexts fit) and padding the rest with masked slots.

    Hidden (ablated) components and out-of-vocabulary components map to
    UNK. An example with zero contexts encodes with an all-zero mask.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    contexts = sample_contexts(raw.contexts, k_max, rng)
    n = len(contexts)
    value_id, path_id = vocabs.values._index.get, vocabs.paths._index.get
    sources, paths, targets = (np.full(k_max, PAD_ID, dtype=np.int64) for _ in range(3))
    sources[:n] = (UNK_ID if ablation.hide_source
                   else [value_id(c.source_value, UNK_ID) for c in contexts])
    paths[:n] = UNK_ID if ablation.hide_path else [path_id(c.path.text, UNK_ID) for c in contexts]
    targets[:n] = (UNK_ID if ablation.hide_target
                   else [value_id(c.target_value, UNK_ID) for c in contexts])
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
    return " ".join([example.label, *map(format_context, example.contexts)])


def parse_example(line: str, lineno: int = 0,
                  paths: dict[str, AstPath] | None = None) -> RawExample:
    """One dataset line. `paths` maps each path string read so far to its
    AstPath, so that repeats share one object."""
    paths = {} if paths is None else paths
    fields = line.split(" ")
    label = fields[0]
    if not label:
        raise DatasetFormatError(f"line {lineno}: empty label")
    contexts = []
    for chunk in fields[1:]:
        pieces = chunk.split(",")
        if len(pieces) != 3 or not all(pieces):
            raise DatasetFormatError(f"line {lineno}: malformed context {chunk!r}")
        path = paths.get(pieces[1])
        if path is None:
            try:
                path = paths[pieces[1]] = path_from_string(pieces[1])
            except DatasetFormatError as exc:
                raise DatasetFormatError(f"line {lineno}: {exc}") from None
        contexts.append(PathContext(pieces[0], path, pieces[2]))
    return RawExample(label, contexts)


def write_dataset(examples: Iterable[RawExample], stream: TextIO) -> None:
    for example in examples:
        stream.write(format_example(example) + "\n")


def read_dataset(stream: Iterable[str]) -> Iterator[RawExample]:
    """The stream's examples. Within one read, each distinct path string is
    parsed once and its AstPath shared."""
    paths: dict[str, AstPath] = {}
    for lineno, line in enumerate(stream, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        yield parse_example(line, lineno, paths)


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
            lines.append(f"{kind}\t{entry}\t{count}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_vocabs(text: str) -> Vocabs:
    buckets: dict[str, list[tuple[str, int]]] = {k: [] for k in _KIND_ORDER}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 3 or fields[0] not in buckets:
            raise DatasetFormatError(f"vocab line {lineno}: malformed entry")
        try:
            count = int(fields[2])
        except ValueError:
            raise DatasetFormatError(f"vocab line {lineno}: bad count") from None
        buckets[fields[0]].append((fields[1], count))
    return Vocabs(values=Vocab(buckets["value"]), paths=Vocab(buckets["path"]),
                  tags=Vocab(buckets["tag"]))

