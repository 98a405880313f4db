"""Tiny-size smoke run of every workload, traced and untraced.

    python3 perfbench/smoke.py

Asserts that each run exits 0, that its last line is the result object
with every metric BENCHMARK.json names (end-to-end untraced, per-layer
traced) and its unit, that every end-to-end metric is also printed by name
with its unit, and that no operation failed. Then checks that the benchmark
refuses to run, without printing a result, in a directory that holds only
BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TIMEOUT_S = 180


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def check_run(spec: dict, workload: str, trace: int) -> None:
    done = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    assert done.returncode == 0, f"{where}: exit {done.returncode}\n{done.stderr}"
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: not correct\n{done.stderr}"
    assert result["failed"] == 0 and result["attempted"] >= 1, where
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    for metric in expected:
        got = result["metrics"].get(metric["name"])
        assert got is not None, f"{where}: {metric['name']} missing"
        assert got["unit"] == metric["unit"], f"{where}: {metric['name']} unit"
        assert isinstance(got["value"], (int, float)), f"{where}: {metric['name']}"
    assert set(result["metrics"]) == {m["name"] for m in expected}, where
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line}
    for metric in spec["end_to_end"]:
        assert printed.get(metric["name"]) == metric["unit"], \
            f"{where}: {metric['name']} not printed with its unit"
    frac = next(line for line in lines if line.startswith("failed_ops_frac "))
    assert float(frac.split()[1]) == 0.0, f"{where}: {frac}"
    print(f"ok {where}: {result['attempted']} operations, "
          f"{len(result['metrics'])} metrics")


def check_refuses_without_sources(workload: str) -> None:
    with tempfile.TemporaryDirectory(dir=BENCH_DIR / "out") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = run(bare, workload, 0)
    assert done.returncode != 0, "ran without the program's sources"
    assert not done.stdout.strip(), "printed a result without the program's sources"
    print("ok: refuses to run without the program's sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, workload["name"], trace)
    check_refuses_without_sources(spec["workloads"][0]["name"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
