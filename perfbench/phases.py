"""The workloads and the pipeline pass they share.

A pass runs the library's public functions once in the CLI's order: parse
-> method_to_example -> write_dataset, read_dataset -> vocabularies -> train
-> save_model/load_model. Measurement rounds follow. They repeat the same
units of work, spaced out over the run: extraction per file (or chunk of
raw examples), train() on the same inputs, evaluate, predict_topk per
input and NameVectorTable queries per name triple, and the program-side
set-up. Each timed metric is taken from the best time of each unit over
its repeats (see `_Best`); set-up time is the median of its repetitions.
Every call into the library goes through its module attribute, so the
tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import time
import traceback
from dataclasses import dataclass, field
from statistics import median

import numpy as np

from codevec.corpus import format_vocabs
from codevec import corpus, metrics, minij, model, pipeline, training, vectors
from codevec.paths import ExtractionLimits

import checks
import inputs
import spans

# Work per run at the nominal run length; other run lengths scale it.
NOMINAL_SECONDS = 40
PREDICT_TOPK = 5     # `codevec predict` default
QUERY_TOPK = 10      # `codevec nearest|combine|analogy` default
LIMITS = ExtractionLimits()  # `codevec extract` defaults
SLICES = 4  # predict/query alternations per round
RAW_CHUNK = 8  # raw examples per extraction unit


@dataclass
class Workload:
    """Generated inputs and the amount of work for one run."""

    name: str
    config: training.TrainConfig
    # MiniJ workloads: source files; otherwise raw examples and the entries
    # of the paper-scale vocabularies.
    train_files: list[str] | None = None
    heldout_files: list[str] | None = None
    train_raw: list | None = None
    heldout_raw: list | None = None
    vocab_entries: tuple | None = None
    predict_inputs: list = field(default_factory=list)
    check_sources: list[str] = field(default_factory=list)
    # Measurement rounds after training; the repeated work below is spread
    # evenly over them.
    rounds: int = 8
    # Times each extraction unit (a MiniJ file, or RAW_CHUNK raw examples)
    # is extracted, the CLI-order pass included.
    extract_repeats: int = 3
    train_repeats: int = 2  # train() calls, the CLI-order one included
    evals_per_round: int = 1
    setup_reps: int = 3
    predictions: int = 1000  # cycling through predict_inputs
    queries: int = 1000  # cycling through query_picks triples of names
    query_picks: int = 200

    @property
    def minij(self) -> bool:
        return self.train_files is not None


def _count(base: int, scale: float, floor: int = 1) -> int:
    return max(floor, round(base * scale))


def make_workload(name: str, seed: int, seconds: int) -> Workload:
    """Inputs for `name`, generated from `seed`; work scales with `seconds`."""
    rng = np.random.default_rng([seed, sum(name.encode())])
    scale = seconds / NOMINAL_SECONDS
    if name == "long-methods":
        labels = list(inputs.LONG_LABELS)

        def methods(sizes):
            return [inputs.long_method(rng, labels[i % len(labels)], size)
                    for i, size in enumerate(sizes)]

        # A ladder of sizes up to 400 statements, plus methods at the small
        # end so that every label has training examples. Predictions run on
        # short methods: a thousand long ones would not fit in a run.
        ladder = [50, 70, 100, 140, 200, 400]
        if scale < 1:
            ladder = ladder[:max(2, round(len(ladder) * scale))]
        small = [50 + i % 11 for i in range(_count(12, scale, 6))]
        train = methods(ladder + small)
        heldout = methods(small + small)
        short = methods([3 + i % 6 for i in range(_count(250, scale, 30))])
        return Workload(
            name, training.TrainConfig(max_epochs=10, patience=10),
            train_files=train, heldout_files=heldout,
            predict_inputs=short,
            check_sources=[heldout[0]] + short[:5],
            rounds=10, extract_repeats=3, train_repeats=3, evals_per_round=3,
            setup_reps=3, predictions=_count(2500, scale, 120),
            queries=_count(48000, scale, 600), query_picks=_count(2000, scale, 200))
    if name == "paper-train":
        paper = inputs.PaperCorpus(rng)
        batch = training.TrainConfig().batch_size
        # One batch per epoch: each epoch is one timed segment of train().
        train = paper.examples(batch)
        heldout = paper.examples(_count(128, scale, 32))
        return Workload(
            name, training.TrainConfig(max_epochs=2, patience=2),
            train_raw=train, heldout_raw=heldout,
            vocab_entries=paper.vocab_entries(),
            predict_inputs=heldout + paper.examples(_count(122, scale, 1)),
            rounds=8, extract_repeats=40, train_repeats=2, evals_per_round=2,
            setup_reps=3, predictions=_count(2000, scale, 100),
            queries=_count(1200, scale, 100), query_picks=_count(400, scale, 50))
    raise ValueError(f"unknown workload {name!r}")


class Ops:
    """Operations attempted and failed. A failure is an exception from the
    program or an output that disagrees with its reference."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 10:
            self.notes.append(note)

    def call(self, what: str, fn, *args, **kwargs):
        """Run one operation; on an exception count it and return None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # every failure is counted and reported, not raised
            self.fail(f"{what}: {traceback.format_exc(limit=3)}")
            return None

    def need(self, what: str, fn, *args, **kwargs):
        """Run an operation the rest of the pass depends on."""
        failed = self.failed
        result = self.call(what, fn, *args, **kwargs)
        if self.failed != failed:
            raise Aborted(what)
        return result


class Aborted(Exception):
    """A pass stopped because an operation it depends on failed."""


@dataclass
class PassResult:
    wall_s: float
    phase_s: dict[str, float]
    # Outputs compared against references after the pass.
    model_path: str
    vocabs: object
    params: object
    table: object
    predictions: list
    combines: list
    train_path: str
    train_raw: list
    # Per timed metric: distinct units of work, and timed repeats of them.
    samples: dict[str, tuple[int, int]]


def _read(path: str) -> list:
    with open(path, encoding="utf-8") as handle:
        return list(corpus.read_dataset(handle))


def _vocabs(work: Workload, train_set: list, tracer):
    if work.vocab_entries is None:
        return corpus.build_vocabs(train_set)
    values, paths, tags = work.vocab_entries
    with tracer.span(spans.VOCAB_SPAN) if tracer else contextlib.nullcontext():
        return corpus.Vocabs(corpus.Vocab(values), corpus.Vocab(paths),
                             corpus.Vocab(tags))


def _units(work: Workload) -> list[tuple[bool, object]]:
    """Extraction units in the CLI's order, as (training split?, MiniJ file
    text or a chunk of raw examples)."""
    if work.minij:
        return ([(True, text) for text in work.train_files]
                + [(False, text) for text in work.heldout_files])

    def chunks(examples):
        return [examples[i:i + RAW_CHUNK] for i in range(0, len(examples), RAW_CHUNK)]

    return ([(True, chunk) for chunk in chunks(work.train_raw)]
            + [(False, chunk) for chunk in chunks(work.heldout_raw)])


def _extract_unit(work: Workload, ops: Ops, unit, handle) -> list:
    """parse + method_to_example + write_dataset of one unit; returns the
    examples written."""
    if work.minij:
        examples = []
        for ast in ops.call("parse", minij.parse_methods, unit) or []:
            example = ops.call("extract", pipeline.method_to_example, ast, LIMITS)
            if example is not None:
                examples.append(example)
    else:
        examples = unit
    ops.need("write_dataset", corpus.write_dataset, examples, handle)
    return examples


def _contexts(examples: list) -> int:
    return sum(len(e.contexts) for e in examples)


def _train(work: Workload, ops: Ops, train_set: list, heldout_set: list, vocabs,
           clock: "_Best"):
    """One train() call. Each epoch is a timed segment of it, marked by the
    checkpoint callback; the return belongs to the last epoch."""
    marks: list[float] = []
    start = time.perf_counter()
    params, history = ops.need(
        "train", training.train, train_set, heldout_set, vocabs, work.config,
        checkpoint=lambda epoch, params: marks.append(time.perf_counter()))
    marks[-1] = time.perf_counter()
    trainable = sum(1 for e in train_set if e.contexts)
    for epoch, end in enumerate(marks):
        clock.add(epoch, trainable, end - start)
        start = end
    return params, history


def _fingerprint(params) -> bytes:
    digest = hashlib.blake2b()
    for array in params.groups().values():
        digest.update(np.ascontiguousarray(array).data)
    return digest.digest()


def _predict_one(work: Workload, params, vocabs, item):
    if work.minij:
        (ast,) = minij.parse_methods(item)
        item = pipeline.method_to_example(ast, LIMITS)
    encoded = corpus.encode_example(item, vocabs, params.dims.k_max,
                                    corpus.example_rng(0, 0))
    return encoded, model.predict_topk(params, encoded, PREDICT_TOPK, vocabs)


def _share(total: int, part: int, parts: int) -> range:
    """Indices of `part` when `total` items are cut into `parts` runs."""
    return range(part * total // parts, (part + 1) * total // parts)


def _due(r: int, reps: int, rounds: int) -> bool:
    """Whether round `r` holds one of `reps` repetitions spread evenly over
    `rounds` rounds."""
    return (r + 1) * reps // rounds > r * reps // rounds


class _Best:
    """Best time of each unit of work over its repeats.

    On a shared host the same work runs up to about 1.5x slower while a
    neighbour is busy, and the busy share drifts over minutes. The fastest
    of several repeats spaced out over the run is the program's own cost.
    """

    def __init__(self):
        self.work: dict = {}
        self.seconds: dict = {}
        self.timed = 0

    def add(self, key, work: int, seconds: float) -> None:
        self.timed += 1
        self.work[key] = work
        self.seconds[key] = min(seconds, self.seconds.get(key, seconds))

    @property
    def rate(self) -> float:
        return sum(self.work.values()) / sum(self.seconds.values())

    def percentile_ms(self, q: float) -> float:
        return 1e3 * float(np.percentile(list(self.seconds.values()), q))


def run_pass(work: Workload, workdir: str, tracer, seed: int,
             out: dict[str, tuple[float, str]], ops: Ops) -> PassResult:
    """One pass over the pipeline. Fills `out` with the end-to-end metrics
    as they are measured and returns the outputs the checks need. Raises
    `Aborted` when an operation the rest of the pass depends on fails."""
    train_path = os.path.join(workdir, "train.c2v")
    heldout_path = os.path.join(workdir, "heldout.c2v")
    model_path = os.path.join(workdir, "model.bin")
    round_path = os.path.join(workdir, "round.c2v")
    pass_start = phase_start = time.perf_counter()
    phases: dict[str, float] = {}

    def phase_done(name: str) -> None:
        nonlocal phase_start
        now = time.perf_counter()
        phases[name] = now - phase_start
        phase_start = now

    # The CLI's order once: extract, read, vocabularies, train, save, load.
    units = _units(work)
    extract, train_clock = _Best(), _Best()
    train_raw: list = []
    with open(train_path, "w", encoding="utf-8") as train_out, \
            open(heldout_path, "w", encoding="utf-8") as heldout_out:
        for key, (is_train, unit) in enumerate(units):
            start = time.perf_counter()
            examples = _extract_unit(work, ops, unit,
                                     train_out if is_train else heldout_out)
            extract.add(key, _contexts(examples), time.perf_counter() - start)
            if is_train:
                train_raw += examples
    phase_done("extract")

    train_set = ops.need("read_dataset", _read, train_path)
    heldout_set = ops.need("read_dataset", _read, heldout_path)
    vocabs = ops.need("vocab", _vocabs, work, train_set, tracer)
    trained, history = _train(work, ops, train_set, heldout_set, vocabs, train_clock)
    trained_fingerprint = _fingerprint(trained)
    phase_done("train")

    ops.need("save_model", model.save_model, model_path, trained, vocabs)
    del trained
    params, vocabs = ops.need("load_model", model.load_model, model_path)
    table = ops.need("table", vectors.NameVectorTable.from_params, params, vocabs)
    phase_done("save_load")

    # Measurement rounds: the repeats of every unit of work, spread over the
    # run so that each unit has repeats in different spells of the host.
    evaluate, predict, query = _Best(), _Best(), _Best()
    f1s, setup_s, sampled, combines = set(), [], [], []
    stride = max(1, work.predictions // 50)
    rng = np.random.default_rng([seed, 7])
    picks = [[table.names[j] for j in rng.choice(len(table.names), 3, replace=False)]
             for _ in range(work.query_picks)]
    calls = (lambda a, b, c: table.nearest(a, QUERY_TOPK),
             lambda a, b, c: table.combine(a, b, QUERY_TOPK),
             lambda a, b, c: table.analogy(a, b, c, QUERY_TOPK))
    schedule = list(range(len(units))) * (work.extract_repeats - 1)
    for r in range(work.rounds):
        with open(round_path, "w", encoding="utf-8") as round_out:
            for i in _share(len(schedule), r, work.rounds):
                start = time.perf_counter()
                examples = _extract_unit(work, ops, units[schedule[i]][1], round_out)
                extract.add(schedule[i], _contexts(examples),
                            time.perf_counter() - start)

        if _due(r, work.train_repeats - 1, work.rounds):
            again, again_history = _train(work, ops, train_set, heldout_set,
                                          vocabs, train_clock)
            if again_history != history or _fingerprint(again) != trained_fingerprint:
                ops.fail("train() repeated on the same inputs gave another model")
            del again

        for _ in range(work.evals_per_round):
            start = time.perf_counter()
            scores = ops.need("evaluate", metrics.evaluate, params, heldout_set, vocabs)
            evaluate.add(0, len(heldout_set), time.perf_counter() - start)
            f1s.add(scores.f1)

        # Predictions and queries alternate in slices, so that the repeats
        # of one input fall in different spells of the host.
        for k in range(SLICES):
            part = r * SLICES + k

            # predict: one method in, top-5 names out; one caller, closed loop
            for i in _share(work.predictions, part, work.rounds * SLICES):
                j = i % len(work.predict_inputs)
                start = time.perf_counter()
                result = ops.call("predict", _predict_one, work, params, vocabs,
                                  work.predict_inputs[j])
                if result is not None:
                    predict.add(j, 1, time.perf_counter() - start)
                    if i % stride == 0:
                        sampled.append(result)

            # query: nearest, combine and analogy in turn; one caller,
            # closed loop
            for i in _share(work.queries, part, work.rounds * SLICES):
                j = i % len(picks)
                start = time.perf_counter()
                result = ops.call("query", calls[j % 3], *picks[j])
                if result is not None:
                    query.add(j, 1, time.perf_counter() - start)
                    if j % 3 == 1 and len(combines) < 5:
                        combines.append((picks[j][0], picks[j][1], result))

        # set-up: dataset read, vocabularies, init_params, load_model,
        # NameVectorTable.from_params
        if _due(r, work.setup_reps, work.rounds):
            start = time.perf_counter()
            rep_train = ops.need("read_dataset", _read, train_path)
            ops.need("read_dataset", _read, heldout_path)
            rep_vocabs = ops.need("vocab", _vocabs, work, rep_train, tracer)
            ops.need("init_params", model.init_params, params.dims,
                     work.config.variant, work.config.seed)
            rep_params, rep_loaded = ops.need("load_model", model.load_model, model_path)
            ops.need("table", vectors.NameVectorTable.from_params, rep_params, rep_loaded)
            setup_s.append(time.perf_counter() - start)
            if format_vocabs(rep_vocabs) != format_vocabs(rep_loaded):
                ops.fail("vocabularies differ between set-up and the saved model")
    phase_done("rounds")

    if len(f1s) != 1:
        ops.fail(f"evaluate is not deterministic: F1 values {sorted(f1s)}")
    out["extract_contexts_per_s"] = (extract.rate, "1/s")
    out["train_examples_per_s"] = (train_clock.rate, "1/s")
    out["fit_f1"] = (scores.f1, "ratio")
    out["eval_examples_per_s"] = (evaluate.rate, "1/s")
    out["predict_p50_ms"] = (predict.percentile_ms(50), "ms")
    out["predict_p99_ms"] = (predict.percentile_ms(99), "ms")
    out["query_p50_ms"] = (query.percentile_ms(50), "ms")
    out["query_p99_ms"] = (query.percentile_ms(99), "ms")
    out["setup_s"] = (median(setup_s), "s")
    samples = {name: (len(clock.seconds), clock.timed) for name, clock in
               (("extract", extract), ("train epochs", train_clock),
                ("evaluate", evaluate), ("predict", predict), ("query", query))}
    samples["setup"] = (1, len(setup_s))
    return PassResult(time.perf_counter() - pass_start, phases, model_path, vocabs,
                      params, table, sampled, combines, train_path, train_raw,
                      samples)


def check_pass(work: Workload, result: PassResult, ops: Ops, workdir: str) -> int:
    """Compare a pass's outputs with the references; each mismatch is a
    failed operation. Returns the number of comparisons made."""
    compared = 0

    def expect(ok: bool, what: str) -> None:
        nonlocal compared
        compared += 1
        if not ok:
            ops.fail(f"check failed: {what}")

    for source in work.check_sources:
        (ast,) = minij.parse_methods(source)
        got = checks.as_triples(pipeline.method_to_example(ast, LIMITS))
        expect(got == checks.reference_contexts(ast, LIMITS),
               f"extraction of {pipeline.method_label(ast)} in DFS pair order")

    expect(_read(result.train_path) == result.train_raw,
           "write_dataset -> read_dataset round trip")

    for encoded, got in result.predictions:
        expect(checks.same_ranking(got, checks.reference_topk(
            result.params, encoded, PREDICT_TOPK, result.vocabs)),
            "predict_topk against a full sort of forward().q")

    for name_a, name_b, got in result.combines:
        expect(checks.same_ranking(got, vectors.sum_of_cosines_ranking(
            result.table, name_a, name_b, QUERY_TOPK), rel_tol=1e-9),
            f"combine({name_a}, {name_b}) against sum_of_cosines_ranking")

    resaved = os.path.join(workdir, "resaved.bin")
    model.save_model(resaved, result.params, result.vocabs)
    with open(result.model_path, "rb") as first, open(resaved, "rb") as second:
        expect(first.read() == second.read(), "save -> load -> save is byte-identical")
    return compared
