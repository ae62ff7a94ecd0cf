"""Self-test of the benchmark; takes about a minute.

    python3 bench/selftest.py

Checks that BENCHMARK.json names exactly the metrics run.py prints, that the
same seed gives the same input digest while another seed gives the same
per-cycle composition, and that a very short run of every workload prints
every end-to-end and per-layer metric with its unit and correct outputs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run
import workloads


def _fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def check_manifest() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    for key, declared in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in manifest[key]]
        if listed != list(declared):
            _fail(f"BENCHMARK.json {key} differs from run.py: {set(listed) ^ set(declared)}")
    names = [w["name"] for w in manifest["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        _fail(f"BENCHMARK.json workloads {names}")
    print("PASS manifest lists the metrics and workloads run.py reports")
    return manifest


def check_inputs() -> None:
    for name, workload in workloads.WORKLOADS.items():
        if workloads.input_digest(workload, 7) != workloads.input_digest(workload, 7):
            _fail(f"{name}: same seed, different input digest")
        if workloads.input_digest(workload, 7) == workloads.input_digest(workload, 8):
            _fail(f"{name}: different seeds, same input digest")
        counts = {seed: workloads.composition(workload.cycle(seed, index))
                  for seed in (7, 8) for index in (0, 3)}
        if len({json.dumps(c, sort_keys=True) for c in counts.values()}) != 1:
            _fail(f"{name}: per-cycle composition depends on the seed: {counts}")
        print(f"PASS {name}: digest repeats per seed, composition {counts[7]}")


def check_short_runs(manifest: dict) -> None:
    for name in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, os.path.join(run.BENCH_DIR, "run.py"), "--workload", name,
                 "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
                capture_output=True, text=True, cwd=run.ROOT, timeout=170,
            )
            if proc.returncode != 0:
                _fail(f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
                _fail(f"{name} trace {trace}: result {result}")
            expected = {m["name"]: m["unit"] for m in manifest[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected or not all(isinstance(v["value"], float)
                                          for v in result["metrics"].values()):
                _fail(f"{name} trace {trace}: metrics {set(got) ^ set(expected)}")
            print(f"PASS {name} trace {trace}: {len(got)} metrics with units, "
                  f"{result['attempted']} ops checked")


def main() -> int:
    manifest = check_manifest()
    check_inputs()
    check_short_runs(manifest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
