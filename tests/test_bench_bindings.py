"""The benchmark times layers by rebinding names in `src/` (perfbench/spans.py).
A binding that no longer resolves drops its span from a traced run, so every
span name must keep at least one live binding, and every probed function
the parameters its probe reads. Every other name the benchmark takes from
`codevec` must resolve too, or the benchmark stops at its first use."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

from codevec.corpus import RawExample, build_vocabs
from codevec.metrics import evaluate
from codevec.minij import parse_methods
from codevec.paths import ExtractionLimits
from codevec.pipeline import method_to_example
from codevec.training import TrainConfig, train

from conftest import toy_minij_corpus

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Probed function name -> the parameters its probe reads from the call.
PROBED_PARAMETERS = {
    "extract_path_contexts": {"ast"},
    "encode_example": {"raw", "k_max"},
    "backward": {"example"},
    "adam_step": {"params"},
}


@pytest.fixture(scope="module")
def spans():
    """perfbench/spans.py, imported without writing bytecode beside it."""
    sys.path.insert(0, str(PERFBENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        yield importlib.import_module("spans")
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))
        sys.modules.pop("spans", None)


def resolve(module_name: str, attr: str):
    """The binding as `Tracer.install` finds it, or None."""
    module = importlib.import_module(module_name)
    owner, _, leaf = attr.rpartition(".")
    holder = getattr(module, owner, None) if owner else module
    return inspect.getattr_static(holder, leaf, None) if holder else None


def test_every_span_has_a_live_binding(spans):
    live = {span for module, attr, span in spans.BINDINGS if resolve(module, attr)}
    assert {span for _, _, span in spans.BINDINGS} - live == set()


def test_the_dead_bindings_are_exactly_the_four_known_ones(spans):
    # These four share their span name with a live binding, so the test
    # above cannot see them; a binding that dies later shows up here.
    dead = {(module, attr) for module, attr, _ in spans.BINDINGS
            if resolve(module, attr) is None}
    assert dead == {("codevec.training", "encode_example"),
                    ("codevec.metrics", "encode_example"),
                    ("codevec.metrics", "predict_topk"),
                    ("codevec.training", "Gradients.add_")}


def test_probed_functions_keep_the_parameters_their_probes_read(spans):
    assert set(PROBED_PARAMETERS) <= set(spans._PROBES)
    checked = set()
    for module, attr, _ in spans.BINDINGS:
        fn = resolve(module, attr)
        name = attr.rpartition(".")[2]
        if fn is None or name not in PROBED_PARAMETERS:
            continue
        assert PROBED_PARAMETERS[name] <= set(inspect.signature(fn).parameters), (
            f"{module}.{attr}")
        checked.add(name)
    assert checked == set(PROBED_PARAMETERS)


def codevec_references(source: str) -> set[tuple[str, str]]:
    """(module, dotted name) of each name a perfbench file imports from
    codevec, and of each attribute chain it reads from such a name."""
    tree = ast.parse(source)
    imported = {}  # local name -> (module, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("codevec"):
            for alias in node.names:
                imported[alias.asname or alias.name] = (node.module, alias.name)
    found = set(imported.values())
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in imported:
            module, name = imported[node.id]
            found.add((module, ".".join([name, *reversed(parts)])))
    return found


def resolves(module_name: str, dotted: str) -> bool:
    """Whether `from module_name import dotted` (with attribute access past
    its first part) would find the name, importing submodules as Python does."""
    obj = importlib.import_module(module_name)
    for part in dotted.split("."):
        if inspect.ismodule(obj) and not hasattr(obj, part):
            try:
                importlib.import_module(f"{obj.__name__}.{part}")
            except ModuleNotFoundError:
                return False
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_every_name_perfbench_takes_from_codevec_resolves():
    references = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        references |= {(path.name, *ref)
                       for ref in codevec_references(path.read_text(encoding="utf-8"))}
    names = {dotted for _, _, dotted in references}
    assert {"path_to_string", "AstPath", "PathContext", "RawExample", "format_vocabs",
            "normalize_value", "PAD_ID", "UNK_ID", "corpus.read_dataset",
            "model.forward"} <= names
    assert [ref for ref in sorted(references) if not resolves(*ref[1:])] == []


def test_the_spans_see_every_encode_and_validation(spans):
    # Training encodes each example with contexts once per epoch, when its
    # batch is drawn; validation once per run; evaluate once per call. The
    # probe of each encode fits its call. Nothing calls the gradient
    # accumulator any more.
    examples = [method_to_example(ast, ExtractionLimits(8, 2))
                for ast in parse_methods("\n".join(toy_minij_corpus()))]
    empty = RawExample("emptyBody", [])
    train_set = examples[::2] + [empty]
    val_set = [empty] + examples[1::4]
    eval_set = examples[1::2] + [empty]
    config = TrainConfig(dim=8, k_max=20, max_epochs=3, patience=3, seed=2)
    assert any(len(raw.contexts) > config.k_max for raw in train_set)

    vocabs = build_vocabs(train_set)
    tracer = spans.Tracer("test")
    tracer.install()
    try:
        params, history = train(train_set, val_set, vocabs, config)
        evaluate(params, eval_set, vocabs)
    finally:
        tracer.uninstall()
    trained, validated, evaluated = (sum(1 for raw in dataset if raw.contexts)
                                     for dataset in (train_set, val_set, eval_set))
    stats = tracer.layer_stats()
    assert tracer.missing() == set()
    assert stats["corpus.encode"]["calls"] == trained * len(history) + validated + evaluated
    assert stats["training.val_eval"]["calls"] == len(history) == config.max_epochs
    assert stats.get("training.grad_accum", {"calls": 0})["calls"] == 0
    assert tracer.counts["corpus.contexts_truncated"] > 0
