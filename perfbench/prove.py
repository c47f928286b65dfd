"""Run the benchmark over several seeds and record medians and spreads.

    python3 perfbench/prove.py [--out FILE] [--held-out]

Runs perfbench/run.py once per workload and seed 1-10, one process at a time,
with the run length from BENCHMARK.json, then one traced run per workload
(first seed).  For each end-to-end metric it reports the median, the
quartiles from statistics.quantiles(values, n=4), and the spread
(Q3 - Q1) / median next to the metric's bound.  With --out it writes the
whole record, with the environment it was measured in, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


SEEDS = list(range(1, 11))


def run_once(spec, workload, seed, trace, held_out):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    if held_out:
        argv.append("--held-out")
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "nproc": os.cpu_count(),
        "blas_threads": "OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1 (set by run.py)",
        "machine": f"{platform.system()} {platform.machine()}",
    }


def summarize(runs, spec) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[metric["name"]] = {
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "bound": metric["bound"], "unit": metric["unit"],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None)
    parser.add_argument("--held-out", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    record = {"environment": environment(), "run_seconds": spec["run_seconds"],
              "seeds": SEEDS, "held_out": args.held_out, "workloads": {}}
    for name in names:
        runs = []
        for seed in SEEDS:
            result = run_once(spec, name, seed, 0, args.held_out)
            runs.append(result)
            shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)
        entry = {"runs": [{"seed": s, **r} for s, r in zip(SEEDS, runs)],
                 "summary": summarize(runs, spec)}
        for metric, s in entry["summary"].items():
            flag = "ok" if s["spread"] <= s["bound"] / 3 else "WIDE"
            print(f"  {metric}: median {s['median']:.4g} spread {s['spread']:.3f} "
                  f"(bound {s['bound']}) {flag}", flush=True)
        traced = run_once(spec, name, SEEDS[0], 1, args.held_out)
        entry["traced"] = {"seed": SEEDS[0], **traced}
        print(f"  trace_overhead {traced['metrics']['trace_overhead']['value']:.3f}", flush=True)
        record["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
