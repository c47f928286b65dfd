"""Benchmark of bethearr: one workload per run, in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--held-out]

Run from the root of a checkout.  The run generates its inputs from the
seed, sets them up several times (setup_s is the least import time plus
the median set-up), then repeats passes over the inputs until the next
pass would end after S seconds, with at least two passes.  Operations and
set-ups are timed in process CPU time: the program is single-threaded, so
that is its wall time less the time it waited for a CPU.  Every
operation's output is checked; the last line of stdout is one JSON object
with correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones.  With --trace 1, untraced and traced passes alternate
and the metrics are the per-layer ones from the traced passes, plus
trace_overhead; the spans are written under perfbench/work/spans/.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter, process_time

_T_START = perf_counter()

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "work"

# Deadline for the whole run: every later operation gets at most what is left.
RUN_LIMIT_S = 150.0
SETUP_REPEATS = 5
# Import time in a fresh interpreter; the run's own import is one more probe.
IMPORT_PROBES = 7
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.process_time(); "
                "import bethearr; print(time.process_time() - t)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="draw inputs from the held-out stream of the seed")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bethearr" / "__init__.py").is_file():
        print(f"error: no bethearr package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    t0 = process_time()
    import instances
    import workloads
    from tracer import Tracer, median_metrics, metric_units
    import_s = process_time() - t0

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tag = f"{workload.name}-seed{args.seed}{'-held-out' if args.held_out else ''}"
    inputs = WORK / "inputs" / tag
    inputs.mkdir(parents=True, exist_ok=True)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = process_time()
        ops = workload.setup(instances.stream(workload.name, args.seed, args.held_out), inputs)
        setup_times.append(process_time() - t0)
    import_times = [import_s] + [import_time() for _ in range(IMPORT_PROBES)]
    setup_s = min(import_times) + statistics.median(setup_times)
    print(f"setup: import {', '.join(f'{t:.3f}' for t in import_times)} s, "
          f"inputs {', '.join(f'{t:.3f}' for t in setup_times)} s", file=sys.stderr)

    # Passes: (traced, attempts, tracer or None).
    passes = []
    measure_start = perf_counter()
    longest = 0.0
    while len(passes) < 2 or perf_counter() - measure_start + longest <= args.seconds:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer = Tracer() if traced else None
        t0 = perf_counter()
        attempts = []
        with tracer or contextlib.nullcontext():
            for index, op in enumerate(ops):
                if tracer:
                    tracer.begin_op(index)
                left = RUN_LIMIT_S - (perf_counter() - _T_START)
                attempts.append(workloads.run_op(op, max(0.01, min(op.deadline, left))))
        longest = max(longest, perf_counter() - t0)
        passes.append((traced, attempts, tracer))

    # Determinism: every completed output must equal the first one of its op.
    for index in range(len(ops)):
        done = [attempts[index] for _, attempts, _ in passes if attempts[index].outcome]
        for a in done[1:]:
            if a.outcome.text != done[0].outcome.text:
                a.problems.append("stdout differs from the first pass")

    all_attempts = [a for _, attempts, _ in passes for a in attempts]
    failed = sum(bool(a.problems) for a in all_attempts)
    correct = not any(a.problems and not workloads.known_hang(op, a)
                      for _, attempts, _ in passes for op, a in zip(ops, attempts))
    for index, op in enumerate(ops):
        seen = {p for _, attempts, _ in passes for p in attempts[index].problems}
        times = ", ".join(f"{attempts[index].seconds:.3f}" for _, attempts, _ in passes)
        print(f"{op.label}: [{times}] s {'; '.join(sorted(seen)) or 'ok'}", file=sys.stderr)

    def wall(traced):
        chosen = [attempts for t, attempts, _ in passes if t == traced]
        return sum(statistics.median(attempts[i].seconds for attempts in chosen)
                   for i in range(len(ops)))

    if args.trace:
        per_pass = []
        spans_path = WORK / "spans" / f"{tag}.jsonl.gz"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.unlink(missing_ok=True)
        for number, (traced, _, tracer) in enumerate(passes):
            if traced:
                per_pass.append(tracer.metrics())
                tracer.dump(spans_path, number)
        units = metric_units()
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in median_metrics(per_pass).items()}
        metrics["trace_overhead"] = {"value": wall(True) / wall(False), "unit": "ratio"}
        print(f"spans: {spans_path}", file=sys.stderr)
    else:
        first = passes[0][1]
        found = sum(a.outcome.found if a.outcome else 0 for a in first)
        expected = sum(op.expected for op in ops)
        ratios = {"points_found_ratio": 1.0, "orbits_found_ratio": 1.0}
        if workload.found_metric:
            ratios[workload.found_metric] = found / expected
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall(False), "unit": "s"},
            "completed_ratio": {"value": (len(all_attempts) - failed) / len(all_attempts),
                                "unit": "ratio"},
            "points_found_ratio": {"value": ratios["points_found_ratio"], "unit": "ratio"},
            "orbits_found_ratio": {"value": ratios["orbits_found_ratio"], "unit": "ratio"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": len(all_attempts),
                      "failed": failed, "metrics": metrics}))
    return 0


def import_time() -> float:
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout)


if __name__ == "__main__":
    sys.exit(main())
