"""The benchmark times layers by rebinding names in `src/` (perfbench/spans.py).
A binding that no longer resolves drops its span from a traced run, so every
span name must keep at least one live binding, and every probed function
the parameters its probe reads."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

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
