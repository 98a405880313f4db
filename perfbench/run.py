"""Benchmark of the codevec pipeline: parse -> extract -> train -> eval ->
predict -> query, on seeded synthetic inputs.

    python3 perfbench/run.py --workload long-methods --seed 1 --seconds 40 --trace 0

Workloads (see phases.make_workload):
  paper-train   50k/50k/10k vocabularies, 100-400 Zipf contexts per example,
                no MiniJ step; dense gradients and Adam dominate training.
  long-methods  MiniJ methods of 50-400 statements; the O(T^2) pair walk,
                the name-stripping tree copy and k_max truncation dominate.

`--trace 0` prints the end-to-end metrics. `--trace 1` runs the same pass
untraced and then traced, and prints per-layer self times, call counts and
counters; the difference of the two passes is the tracing overhead. The
last line of standard output is one JSON object: correct, attempted,
failed, metrics. Human-readable lines, the environment and the spans are
written before it and under perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread unless the caller chose otherwise: with two threads on two
# shared cores, run-to-run spread of the BLAS-bound metrics about doubled.
# Must be set before NumPy is imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

END_TO_END = ["extract_contexts_per_s", "train_examples_per_s", "fit_f1",
              "eval_examples_per_s", "predict_p50_ms", "predict_p99_ms",
              "query_p50_ms", "query_p99_ms", "peak_rss_mb", "setup_s"]

# Timed layers: each reports <name>_s (self time) and <name>_calls.
TIMED_LAYERS = [
    "minij.parse", "pipeline.strip", "paths.extract", "corpus.dataset_write",
    "corpus.dataset_read", "corpus.vocab", "corpus.encode", "model.forward_train",
    "model.forward_infer", "model.topk", "model.init", "model.save", "model.load",
    "training.backward", "training.grad_accum", "training.adam",
    "training.val_eval", "metrics.eval", "vectors.table", "vectors.query",
]
COUNT_LAYERS = ["minij.methods", "paths.pairs_visited", "paths.contexts",
                "corpus.contexts_truncated", "training.steps",
                "training.rows_touched", "training.rows_updated"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper-train", "long-methods"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def blas_info() -> dict:
    """BLAS library as NumPy was built with it, and its live thread count."""
    import numpy as np
    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def environment() -> dict:
    import numpy as np
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_info(),
            "thread_env": {k: os.environ[k] for k in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                            "MKL_NUM_THREADS") if k in os.environ}}


def per_layer(tracer, overhead_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced pass, and report lines."""
    import spans
    stats = tracer.layer_stats()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    absent = tracer.missing()
    metrics, lines = {}, []
    for name in TIMED_LAYERS:
        if name in absent:
            lines.append(f"layer {name}: absent")
            continue
        entry = stats.get(name, zero)
        metrics[f"{name}_s"] = (entry["self_s"], "s")
        metrics[f"{name}_calls"] = (entry["calls"], "count")
        lines.append(f"layer {name}: self {entry['self_s']:.6f} s, total "
                     f"{entry['total_s']:.6f} s, {entry['calls']} calls")
    for name in COUNT_LAYERS:
        if name in absent:
            lines.append(f"count {name}: absent")
            continue
        metrics[name] = (tracer.counts[name], "count")
        lines.append(f"count {name}: {tracer.counts[name]}")

    def ratio(name, num, den):
        if num in absent or den in absent:
            lines.append(f"ratio {name}: absent")
            return
        n, d = tracer.counts[num], tracer.counts[den]
        metrics[name] = (n / d if d else 0.0, "ratio")
        lines.append(f"ratio {name}: {metrics[name][0]:.6f} = {num} {n} / {den} {d}")

    ratio("paths.yield", "paths.contexts", "paths.pairs_visited")
    ratio("corpus.unk_rate", "corpus.unk_components", "corpus.components")

    train_total, inside = tracer.breakdown(spans.TRAIN_SPAN)
    metrics["training.train_s"] = (train_total, "s")
    metrics["training.uncovered_s"] = (inside.get(spans.TRAIN_SPAN, 0.0), "s")
    lines.append(f"train() span {train_total:.6f} s; self times inside it:")
    for name, value in sorted(inside.items(), key=lambda kv: -kv[1]):
        label = "uncovered remainder (train self)" if name == spans.TRAIN_SPAN else name
        share = value / train_total if train_total else 0.0
        lines.append(f"  {label}: {value:.6f} s ({share:.1%} of {train_total:.6f} s)")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "codevec" / "__init__.py").is_file():
        print(f"run.py: no codevec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import phases
    import spans

    started = time.perf_counter()
    work = phases.make_workload(args.workload, args.seed, args.seconds)
    generate_s = time.perf_counter() - started
    # The generated inputs live for the whole run; keep the cyclic collector
    # from rescanning them, which a real caller's process would not hold.
    gc.collect()
    gc.freeze()
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_id = f"{tag}-pid{os.getpid()}"
    ops = phases.Ops()
    e2e: dict = {}
    lines: list[str] = [f"workload {args.workload} seed {args.seed} "
                        f"seconds {args.seconds} trace {args.trace}",
                        f"input generation {generate_s:.3f} s (not measured)"]
    layer_metrics: dict = {}
    compared = 0
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        try:
            result = phases.run_pass(work, workdir, None, args.seed, e2e, ops)
            if args.trace:
                tracer = spans.Tracer(run_id)
                tracer.install()
                try:
                    result_traced = phases.run_pass(work, workdir, tracer, args.seed,
                                                    {}, ops)
                finally:
                    tracer.uninstall()
                overhead = result_traced.wall_s - result.wall_s
                layer_metrics, layer_lines = per_layer(tracer, overhead)
                lines += layer_lines
                lines.append(f"pass wall: untraced {result.wall_s:.3f} s, traced "
                             f"{result_traced.wall_s:.3f} s, overhead {overhead:.3f} s")
                tracer.dump(OUT_DIR / f"{tag}-spans.json")
            lines.append("phases " + ", ".join(f"{k} {v:.3f} s"
                                               for k, v in result.phase_s.items()))
            lines.append("samples " + ", ".join(
                f"{k} {units} units {timed} timed" for k, (units, timed)
                in result.samples.items()))
            compared = phases.check_pass(work, result, ops, workdir)
        except phases.Aborted as exc:
            lines.append(f"pass aborted: {exc} failed")
    usage = resource.getrusage(resource.RUSAGE_SELF)
    e2e["peak_rss_mb"] = (usage.ru_maxrss / 1024, "MB")
    env = environment()
    env.update(user_s=usage.ru_utime, system_s=usage.ru_stime,
               wall_s=time.perf_counter() - started)

    failed_frac = ops.failed / ops.attempted if ops.attempted else 1.0
    lines.append(f"failed_ops_frac {failed_frac:.6f} ratio "
                 f"({ops.failed} failed of {ops.attempted} attempted; "
                 f"{compared} reference comparisons)")
    for name in END_TO_END:
        if name in e2e:
            value, unit = e2e[name]
            lines.append(f"{name} {value:.6g} {unit}")
    lines.append("environment " + json.dumps(env, sort_keys=True))
    for note in ops.notes:
        print(note, file=sys.stderr)

    chosen = layer_metrics if args.trace else e2e
    report = {"correct": ops.failed == 0 and all(n in e2e for n in END_TO_END),
              "attempted": ops.attempted, "failed": ops.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in chosen.items()}}
    with open(OUT_DIR / f"{tag}.json", "w", encoding="utf-8") as handle:
        json.dump({"report": report, "environment": env, "lines": lines,
                   "end_to_end": {k: v[0] for k, v in e2e.items()}}, handle, indent=1)
    print("\n".join(lines))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
