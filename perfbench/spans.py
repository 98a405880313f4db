"""In-memory spans around calls into the codevec layers.

`Tracer.install` replaces each traced function under the name it is bound to
in its calling module (for example `codevec.training.forward`, which is what
`train` calls), so the library runs unmodified apart from the wrapper. A
binding that no longer exists is recorded as absent rather than as zero.
Spans keep name, start, end, parent and run id; `dump` writes them as JSON.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

import numpy as np

from codevec.corpus import PAD_ID, UNK_ID

# (module, attribute, span name). A dotted attribute is a method of a class
# in that module. Several bindings may share one span name.
BINDINGS = [
    ("codevec.minij", "parse_methods", "minij.parse"),
    ("codevec.pipeline", "method_to_example", "pipeline.method_to_example"),
    ("codevec.pipeline", "strip_method_name", "pipeline.strip"),
    ("codevec.pipeline", "extract_path_contexts", "paths.extract"),
    ("codevec.corpus", "write_dataset", "corpus.dataset_write"),
    ("codevec.corpus", "read_dataset", "corpus.dataset_read"),
    ("codevec.corpus", "build_vocabs", "corpus.vocab"),
    ("codevec.corpus", "encode_example", "corpus.encode"),
    ("codevec.training", "encode_example", "corpus.encode"),
    ("codevec.metrics", "encode_example", "corpus.encode"),
    ("codevec.training", "forward", "model.forward_train"),
    ("codevec.model", "forward", "model.forward_infer"),
    ("codevec.model", "predict_topk", "model.topk"),
    ("codevec.metrics", "predict_topk", "model.topk"),
    ("codevec.model", "init_params", "model.init"),
    ("codevec.training", "init_params", "model.init"),
    ("codevec.model", "save_model", "model.save"),
    ("codevec.model", "load_model", "model.load"),
    ("codevec.training", "train", "training.train"),
    ("codevec.training", "backward", "training.backward"),
    ("codevec.training", "Gradients.zeros_like", "training.grad_accum"),
    ("codevec.training", "Gradients.add_", "training.grad_accum"),
    ("codevec.training", "adam_step", "training.adam"),
    ("codevec.training", "evaluate_encoded", "training.val_eval"),
    ("codevec.metrics", "evaluate", "metrics.eval"),
    ("codevec.vectors", "NameVectorTable.from_params", "vectors.table"),
    ("codevec.vectors", "NameVectorTable.nearest", "vectors.query"),
    ("codevec.vectors", "NameVectorTable.combine", "vectors.query"),
    ("codevec.vectors", "NameVectorTable.analogy", "vectors.query"),
]

# Span opened by the benchmark itself around calls that cannot be rebound
# (the `Vocab` constructor); it reuses the layer's span name.
VOCAB_SPAN = "corpus.vocab"
PROBE_SPAN = "trace.probe"
TRAIN_SPAN = "training.train"

# Counters fed by probes; each needs the span it is measured at.
COUNTERS = {
    "minij.methods": "minij.parse",
    "paths.pairs_visited": "paths.extract",
    "paths.contexts": "paths.extract",
    "corpus.contexts_truncated": "corpus.encode",
    "corpus.unk_components": "corpus.encode",
    "corpus.components": "corpus.encode",
    "training.steps": "training.adam",
    "training.rows_touched": "training.adam",
    "training.rows_updated": "training.adam",
}


class Tracer:
    """Span recorder. `span` is usable directly from benchmark code."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self.absent_probes: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._pending_rows: list[tuple[np.ndarray, np.ndarray]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, span_id: int) -> None:
        name, start, _, parent = self.spans[span_id]
        self.spans[span_id] = (name, start, time.perf_counter(), parent)
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = self._open(name)
        try:
            yield
        finally:
            self._close(span_id)

    # -- installing wrappers -------------------------------------------------

    def install(self) -> None:
        present = set()
        for module_name, attr, span_name in BINDINGS:
            module = importlib.import_module(module_name)
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            raw = inspect.getattr_static(holder, leaf, None) if holder else None
            if raw is None:
                continue
            present.add(span_name)
            self._restore.append((holder, leaf, raw))
            if isinstance(raw, classmethod):
                setattr(holder, leaf, classmethod(self._wrap(raw.__func__, span_name)))
            else:
                setattr(holder, leaf, self._wrap(raw, span_name))
        self.absent = {name for _, _, name in BINDINGS} - present

    def uninstall(self) -> None:
        for holder, leaf, raw in reversed(self._restore):
            setattr(holder, leaf, raw)
        self._restore.clear()

    def _wrap(self, fn, span_name: str):
        probe = _PROBES.get(fn.__name__)
        signature = inspect.signature(fn)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def generator(*args, **kwargs):
                span_id = tracer._open(span_name)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer._close(span_id)
            return generator

        def run_probe(bound, result, before, state=None):
            if span_name in tracer.absent_probes:
                return None
            with tracer.span(PROBE_SPAN):
                try:
                    return probe(tracer, bound, result, before=before, state=state)
                except (KeyError, AttributeError, TypeError, ValueError):
                    # The probed signature or result changed shape: report
                    # the counters as absent rather than wrong.
                    tracer.absent_probes.add(span_name)
                    return None

        def wrapper(*args, **kwargs):
            if probe is None:
                span_id = tracer._open(span_name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(span_id)
            try:
                bound = signature.bind(*args, **kwargs).arguments
            except TypeError:
                bound = {}
            state = run_probe(bound, None, True)
            span_id = tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span_id)
            run_probe(bound, result, False, state)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- reporting ------------------------------------------------------------

    def missing(self) -> set[str]:
        """Span and counter names to report as absent: bindings that no
        longer exist, and counters whose probe no longer fits its call."""
        gone = self.absent | self.absent_probes
        return self.absent | {c for c, span_name in COUNTERS.items() if span_name in gone}

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, and self seconds (duration
        minus the part covered by direct children)."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span_id, (name, start, end, _) in enumerate(self.spans):
            entry = stats[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[span_id]
        return dict(stats)

    def breakdown(self, root_name: str) -> tuple[float, dict[str, float]]:
        """Total duration of every `root_name` span, and the self time of
        each span name inside them (the root's own self time included)."""
        inside: dict[int, bool] = {}
        child_time = defaultdict(float)
        for span_id, (name, start, end, parent) in enumerate(self.spans):
            inside[span_id] = name == root_name or (parent is not None and inside[parent])
            if parent is not None:
                child_time[parent] += end - start
        total = 0.0
        selves: dict[str, float] = defaultdict(float)
        for span_id, (name, start, end, _) in enumerate(self.spans):
            if not inside[span_id]:
                continue
            if name == root_name:
                total += end - start
            selves[name] += end - start - child_time[span_id]
        return total, dict(selves)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run_id": self.run_id,
                       "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans,
                       "counts": dict(self.counts),
                       "absent": sorted(self.absent)}, handle)


# --- probes: counts measured at the layer boundaries ------------------------------
#
# A probe runs outside the span it describes, inside a `trace.probe` span, so
# its cost shows as tracing overhead and not as time of the layer or its
# parent.

def _probe_parse(tracer, args, result, before, state=None):
    if not before:
        tracer.counts["minij.methods"] += len(result)


def _probe_extract(tracer, args, result, before, state=None):
    if before:
        return len(args["ast"].terminals())
    tracer.counts["paths.pairs_visited"] += state * (state - 1) // 2
    tracer.counts["paths.contexts"] += len(result)


def _probe_encode(tracer, args, result, before, state=None):
    if before:
        return
    tracer.counts["corpus.contexts_truncated"] += max(
        0, len(args["raw"].contexts) - args["k_max"])
    valid = result.mask > 0
    ids = (result.sources[valid], result.paths[valid], result.targets[valid])
    tracer.counts["corpus.unk_components"] += sum(int((a == UNK_ID).sum()) for a in ids)
    tracer.counts["corpus.components"] += 3 * int(valid.sum())


def _probe_backward(tracer, args, result, before, state=None):
    if before:
        example = args["example"]
        valid = example.mask > 0
        tracer._pending_rows.append((
            np.concatenate([example.sources[valid], example.targets[valid]]),
            example.paths[valid]))


def _probe_adam(tracer, args, result, before, state=None):
    params = args["params"]
    if before:
        return params.value_vocab.copy(), params.path_vocab.copy()
    values_before, paths_before = state
    touched_values = np.unique(np.concatenate(
        [v for v, _ in tracer._pending_rows] or [np.empty(0, np.int64)]))
    touched_paths = np.unique(np.concatenate(
        [p for _, p in tracer._pending_rows] or [np.empty(0, np.int64)]))
    tracer._pending_rows.clear()
    tracer.counts["training.steps"] += 1
    tracer.counts["training.rows_touched"] += (
        int((touched_values != PAD_ID).sum()) + int((touched_paths != PAD_ID).sum()))
    tracer.counts["training.rows_updated"] += (
        int(np.any(params.value_vocab != values_before, axis=1).sum())
        + int(np.any(params.path_vocab != paths_before, axis=1).sum()))


_PROBES = {
    "parse_methods": _probe_parse,
    "extract_path_contexts": _probe_extract,
    "encode_example": _probe_encode,
    "backward": _probe_backward,
    "adam_step": _probe_adam,
}
