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
from .paths import PathContext, path_from_string, path_to_string

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<PAD>"
UNK_TOKEN = "<UNK>"

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

    def __eq__(self, other):
        return (isinstance(other, Vocab) and self.entries == other.entries
                and self.counts == other.counts)


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

    @property
    def trainable(self) -> bool:
        return bool(self.mask.any())


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
    seen = False
    for example in examples:
        seen = True
        tag_counts[example.label] += 1
        for ctx in example.contexts:
            value_counts[ctx.source_value] += 1
            value_counts[ctx.target_value] += 1
            path_counts[path_to_string(ctx.path)] += 1
    if not seen:
        raise DatasetFormatError("empty dataset")
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
                    rng: np.random.Generator) -> list[PathContext]:
    """The contexts that fill an example's k_max slots: all of them when
    they fit, else k_max drawn without replacement, in their input order."""
    if len(contexts) <= k_max:
        return contexts
    keep = rng.choice(len(contexts), size=k_max, replace=False)
    return [contexts[i] for i in sorted(keep)]


def encode_example(raw: RawExample, vocabs: Vocabs, k_max: int,
                   rng: np.random.Generator,
                   ablation: AblationMask = ABLATIONS["full"]) -> EncodedExample:
    """Index a raw example, filling the slots with `sample_contexts` and
    padding the rest with masked slots.

    Hidden (ablated) components and out-of-vocabulary components map to
    UNK. An example with zero contexts encodes with an all-zero mask.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    contexts = sample_contexts(raw.contexts, k_max, rng)
    sources = np.full(k_max, PAD_ID, dtype=np.int64)
    paths = np.full(k_max, PAD_ID, dtype=np.int64)
    targets = np.full(k_max, PAD_ID, dtype=np.int64)
    mask = np.zeros(k_max, dtype=np.float64)
    for i, ctx in enumerate(contexts):
        sources[i] = UNK_ID if ablation.hide_source else vocabs.values.id_of(ctx.source_value)
        paths[i] = UNK_ID if ablation.hide_path else vocabs.paths.id_of(path_to_string(ctx.path))
        targets[i] = UNK_ID if ablation.hide_target else vocabs.values.id_of(ctx.target_value)
        mask[i] = 1.0
    return EncodedExample(vocabs.tags.id_of(raw.label), sources, paths, targets, mask)


def encode_dataset(examples: list[RawExample], vocabs: Vocabs, k_max: int,
                   seed: int, ablation: AblationMask,
                   epoch: int = 0) -> list[EncodedExample]:
    """Encode every example with its own `example_rng(seed, i, epoch)`."""
    return [encode_example(raw, vocabs, k_max, example_rng(seed, i, epoch), ablation)
            for i, raw in enumerate(examples)]


# --- dataset line format ---------------------------------------------------
#
# One example per line: `<label> <ctx> <ctx> ...`, each <ctx> being
# `<source>,<pathstring>,<target>`. Empty-context examples are a bare label.

def format_example(example: RawExample) -> str:
    parts = [example.label]
    for ctx in example.contexts:
        parts.append(f"{ctx.source_value},{path_to_string(ctx.path)},{ctx.target_value}")
    return " ".join(parts)


def parse_example(line: str, lineno: int = 0) -> RawExample:
    fields = line.split(" ")
    label = fields[0]
    if not label:
        raise DatasetFormatError(f"line {lineno}: empty label")
    contexts = []
    for chunk in fields[1:]:
        pieces = chunk.split(",")
        if len(pieces) != 3 or not all(pieces):
            raise DatasetFormatError(f"line {lineno}: malformed context {chunk!r}")
        contexts.append(PathContext(pieces[0], path_from_string(pieces[1]), pieces[2]))
    return RawExample(label, contexts)


def write_dataset(examples: Iterable[RawExample], stream: TextIO) -> None:
    for example in examples:
        stream.write(format_example(example) + "\n")


def read_dataset(stream: Iterable[str]) -> Iterator[RawExample]:
    for lineno, line in enumerate(stream, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        yield parse_example(line, lineno)


def load_dataset(path: str) -> list[RawExample]:
    with open(path, encoding="utf-8") as handle:
        try:
            return list(read_dataset(handle))
        except UnicodeDecodeError as exc:
            raise DatasetFormatError(f"{path}: not UTF-8 text: {exc}") from None


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

