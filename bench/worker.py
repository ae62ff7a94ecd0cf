"""One benchmark process: set up, run whole cycles of a workload, report.

Started by ``run.py`` with a hermetic environment. Set-up runs from the
parent's spawn of this process to the first timed op: interpreter start,
``import bose_eos`` and a checked warm-up, minus input generation; it is
reported both as wall time and as the CPU time this process (and, for the
CLI workload, its warm-up child) used up to that point. With
``--probe`` the process stops after set-up. Otherwise it runs whole cycles
of the workload, one op at a time (a closed loop with one client); past the
workload's minimum number of cycles it starts another only while the cycles
so far predict that it ends within the time budget. Only the public calls are timed, in wall time and in CPU time
of the process and its children; each output is checked after its timers
stop. With ``--trace`` the budget is split into an untraced phase
and a traced phase, so the trace's overhead is measured in the same process.

The last line of stdout is one JSON object with the raw results.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
from time import perf_counter

import workloads

# Stop mid-cycle past this many seconds of one phase, so a pathologically slow
# program still ends the run well inside its time limit.
HARD_CAP_S = 120.0
# Longest wall time between an op and the reference sample taken before it.
REF_INTERVAL_S = 0.25
# Reference samples taken right after set-up.
SETUP_REF_SAMPLES = 3


def cpu_s() -> float:
    """CPU seconds used by this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def reference_kernel() -> float:
    """Fixed work independent of bose_eos: a scalar math loop and numpy sums.

    Timed between ops, it measures how fast the CPU runs at the moment; on a
    shared host that speed drifts by tens of percent within seconds.
    """
    import numpy

    acc = 0.0
    for i in range(1, 20000):
        acc += math.exp(-i * 1e-4) / i**1.5
    n = numpy.arange(1.0, 65537.0)
    for _ in range(8):
        acc += float(numpy.sum(numpy.exp(-1e-5 * n) * n**-1.5))
    return acc


def reference_ms() -> float:
    t0 = perf_counter()
    reference_kernel()
    return (perf_counter() - t0) * 1e3


def run_phase(be, runner, workload, seed, first_cycle, budget, tracer=None, max_ops=None):
    """Run whole cycles (from ``first_cycle``) for about ``budget`` seconds."""
    phase = {"latencies_ms": [], "cpu_ms": [], "labels": [],
             "failed": {}, "wrong": [], "cycles": 0, "rows": 0, "serialize_ms": 0.0,
             "ref_ms": [], "ref_index": []}
    t_begin = perf_counter()
    last_ref = t_begin - REF_INTERVAL_S
    index = first_cycle
    done = False
    while not done:
        for op in workload.cycle(seed, index):
            prep = runner.prepare(op)
            # Every op has a reference sample at most REF_INTERVAL_S before it,
            # and the next sample (or the closing one) right after it.
            if perf_counter() - last_ref >= REF_INTERVAL_S:
                phase["ref_ms"].append(reference_ms())
                last_ref = perf_counter()
            phase["ref_index"].append(len(phase["ref_ms"]) - 1)
            if tracer is not None:
                tracer.active = True
            c0 = cpu_s()
            t0 = perf_counter()
            try:
                out, error = runner.call(prep), None
            except be.BoseEosError as exc:
                out, error = None, exc
            elapsed_ms = (perf_counter() - t0) * 1e3
            phase["cpu_ms"].append((cpu_s() - c0) * 1e3)
            if tracer is not None:
                tracer.active = False
            label = op["label"]
            phase["latencies_ms"].append(elapsed_ms)
            phase["labels"].append(label)
            if error is None:
                try:
                    runner.check(prep, out)
                except (workloads.WrongAnswer, be.BoseEosError) as exc:
                    error = exc
                    phase["wrong"].append(f"{label}: {type(exc).__name__}: {exc}")
                phase["rows"] += runner.rows(out)
                phase["serialize_ms"] += runner.serialize_s(out) * 1e3
            if error is not None:
                phase["failed"][label] = phase["failed"].get(label, 0) + 1
            if len(phase["labels"]) == max_ops or perf_counter() - t_begin > HARD_CAP_S:
                done = True
                break
        else:
            phase["cycles"] += 1
            index += 1
            elapsed = perf_counter() - t_begin
            done = (phase["cycles"] >= workload.MIN_CYCLES
                    and elapsed * (phase["cycles"] + 1) / phase["cycles"] > budget)
    phase["ref_ms"].append(reference_ms())
    return phase, index


def warm_up(be, runner, workload, seed) -> None:
    """Call and check the first op of each warm-up label, untimed."""
    seen = set()
    for op in workload.cycle(seed, 0):
        label = op["label"]
        if label in seen or (workload.WARMUP is not None and label not in workload.WARMUP):
            continue
        seen.add(label)
        prep = runner.prepare(op)
        try:
            runner.check(prep, runner.call(prep))
        except be.BoseEosError:
            pass  # failures are counted in the timed phases


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's perf_counter() just before spawning this process")
    parser.add_argument("--tmp", required=True, help="directory for CLI output files")
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    parser.add_argument("--trace", action="store_true", help="add a traced phase")
    parser.add_argument("--max-ops", type=int, help="stop each phase after this many ops")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    t0, c0 = perf_counter(), cpu_s()
    digest = workloads.input_digest(workload, args.seed)
    composition = workloads.composition(workload.cycle(args.seed, 0))
    gen_s, gen_cpu_s = perf_counter() - t0, cpu_s() - c0

    import bose_eos as be

    runner = workload(be, args.tmp)
    warm_up(be, runner, workload, args.seed)
    result = {"setup_wall_s": perf_counter() - args.spawned_at - gen_s,
              "setup_cpu_s": cpu_s() - gen_cpu_s,
              "setup_ref_ms": [reference_ms() for _ in range(SETUP_REF_SAMPLES)]}
    if args.probe:
        print(json.dumps(result))
        return 0

    import numpy
    import scipy

    thread_count = getattr(be, "thread_count", None)
    result.update(
        input_digest=digest,
        composition=composition,
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__},
        default_thread_count=thread_count() if thread_count else None,
    )
    budget = args.seconds / 2 if args.trace else args.seconds
    phase, next_cycle = run_phase(be, runner, workload, args.seed, 0, budget,
                                  max_ops=args.max_ops)
    result["phases"] = [phase]
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        phase, _ = run_phase(be, runner, workload, args.seed, next_cycle, budget,
                             tracer=tracer, max_ops=args.max_ops)
        result["phases"].append(phase)
        result["layers"] = dict(tracer.stats)
        result["absent"] = tracer.absent
    who = resource.RUSAGE_CHILDREN if workload.OPS_IN_CHILDREN else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
