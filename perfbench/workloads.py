"""The benchmark's workloads: seeded inputs, the operations of one pass,
and the correctness gate applied to every operation's output.

A pass runs each operation once.  CLI operations call
``bethearr.cli.main(argv)`` in-process on an input file, exactly as the
``bethearr`` command does; ``exponent-sweep`` calls the library.  Each
operation runs under a deadline kept by an in-process SIGALRM timer, so no
thread or process is started, and is timed in process CPU time.
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from time import process_time
from typing import Callable

import bethearr
from bethearr import cli
from bethearr.arrangement import WeightedArrangement

import instances

# Deadline of every operation that is expected to finish.
OP_DEADLINE_S = 60.0
# The k=3, m=(2,2,2) discriminantal analyze rung does not finish in 13 CPU
# minutes; it keeps its place in the ladder and counts as failed until a
# change makes it finish within this deadline.
HANG_DEADLINE_S = 2.0

# Instance ladders.  Sizes fit several passes into one run of the benchmark
# (see README.md for the sizes left out and why).
ANALYZE_GENERIC = [(2, 4), (2, 5), (2, 6), (2, 7), (3, 5)]
ANALYZE_DISCRIMINANTAL = [((1, 1, 1, 1), 2, OP_DEADLINE_S), ((2, 2, 2), 3, HANG_DEADLINE_S)]
VERIFY_GENERIC = [(2, 4), (2, 5), (2, 6)]
GAUDIN_PROBLEMS = [((1, 1, 1), 1), ((1, 1, 1, 1), 1), ((2, 2), 2), ((2, 2, 2), 2)]
SWEEP_BASES = [(2, 6, 4), (3, 5, 2)]   # (k, n, number of exponent vectors)
SWEEP_SAMPLE_POINTS = 3


class DeadlineExceeded(Exception):
    pass


@dataclass
class Outcome:
    """What one operation produced: its output text, compared byte for byte
    across passes, the checks it failed, and the points or orbits found."""

    text: str
    problems: list[str]
    found: int = 0


@dataclass
class Op:
    label: str
    run: Callable[[], Outcome]
    expected: int = 0
    deadline: float = OP_DEADLINE_S


@dataclass
class Attempt:
    seconds: float
    missed: bool = False
    outcome: Outcome | None = None
    problems: list[str] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    setup: Callable[[object, Path], list[Op]]
    found_metric: str | None = None   # end-to-end ratio its found counts feed


# -- operations ------------------------------------------------------------------


def _write(workdir: Path, name: str, data: dict) -> str:
    path = workdir / name
    path.write_text(json.dumps(data, indent=1) + "\n")
    return str(path)


def cli_op(label: str, argv: list[str], check, expected=0, deadline=OP_DEADLINE_S) -> Op:
    """An operation running ``bethearr <argv>``; check(report) returns
    (problems, found)."""

    def run() -> Outcome:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        text = out.getvalue()
        problems = [] if code == 0 else [f"exit code {code}"]
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            return Outcome(text, problems + ["stdout is not one JSON report"])
        more, found = check(report)
        return Outcome(text, problems + more, found)

    return Op(label, run, expected, deadline)


def _check_analyze(n_hyperplanes, dims=None, chi=None):
    """dim A^0 = 1 and dim A^1 = n hold for every arrangement; a generic
    one also has dims = C(n, p) and chi = sum (-1)^p C(n, p)."""

    def check(report):
        problems = []
        got = report.get("dims", [])
        if got[:2] != [1, n_hyperplanes]:
            problems.append(f"dims {got} do not start with [1, {n_hyperplanes}]")
        if dims is not None and got != dims:
            problems.append(f"dims {got} != {dims}")
        if chi is not None and report.get("chi") != chi:
            problems.append(f"chi {report.get('chi')} != {chi}")
        return problems, 0

    return check


def _check_pass(report, found, expected, what):
    problems = []
    if report.get("pass") is not True:
        failing = [c["name"] for c in report.get("checks", []) if not c.get("pass")]
        problems.append(f"report pass is not true (failing: {failing[:5]})")
    if found > expected:
        problems.append(f"{found} {what} reported, at most {expected} exist")
    return problems


def sl2_singular_dimension(weights, k: int) -> int:
    """dim Sing V[Lambda - k alpha] = w(k) - w(k-1), with w(j) the number of
    compositions of j bounded by the highest weights (2k <= sum m)."""

    def w(j):
        counts = [1] + [0] * j
        for m in weights:
            counts = [sum(counts[i - t] for t in range(min(m, i) + 1)) for i in range(j + 1)]
        return counts[j]

    return w(k) - w(k - 1)


def sweep_op(label: str, data: dict, cold: dict, first: bool, exponents) -> Op:
    """Library calls on one re-weighting of a generic arrangement.  The first
    operation of a sweep builds the base arrangement from its JSON and keeps
    it in ``cold`` for the rest of the sweep, so every pass starts cold and
    can reuse work only within its own sweep."""
    k, n = data["dim"], len(data["hyperplanes"])

    def run() -> Outcome:
        if first:
            cold["base"] = WeightedArrangement.from_json(data)
        arr = bethearr.with_exponents(cold["base"], exponents)
        dims = arr.dims()
        sing = bethearr.singular_basis(arr)
        norms = [bethearr.verify_norm_identity(arr, t)
                 for t in arr.sample_points(SWEEP_SAMPLE_POINTS)]
        gram = [[bethearr.shapovalov_form(arr, x, y) for y in sing] for x in sing]
        problems = []
        if dims != instances.generic_dims(k, n):
            problems.append(f"dims {dims} != {instances.generic_dims(k, n)}")
        for i, r in enumerate(norms):
            if r["lhs"] != r["rhs"]:
                problems.append(f"norm identity at sample point {i}: {r['lhs']} != {r['rhs']}")
        text = repr((dims, [f.coords for f in sing],
                     [(r["lhs"], r["rhs"]) for r in norms], gram))
        return Outcome(text, problems)

    return Op(label, run)


# -- workloads -----------------------------------------------------------------------


def analyze_ladder(rng, workdir: Path) -> list[Op]:
    ops = []
    for k, n in ANALYZE_GENERIC:
        path = _write(workdir, f"generic-k{k}-n{n}.json", instances.generic_arrangement(rng, k, n))
        check = _check_analyze(n, instances.generic_dims(k, n), instances.generic_chi(k, n))
        ops.append(cli_op(f"analyze generic k={k} n={n}", ["analyze", path], check))
    for weights, k, deadline in ANALYZE_DISCRIMINANTAL:
        data = instances.discriminantal_arrangement(rng, weights, k)
        tag = "".join(map(str, weights))
        path = _write(workdir, f"discriminantal-m{tag}-k{k}.json", data)
        check = _check_analyze(len(data["hyperplanes"]))
        ops.append(cli_op(f"analyze discriminantal m={weights} k={k}", ["analyze", path],
                          check, deadline=deadline))
    return ops


def verify_newton(rng, workdir: Path) -> list[Op]:
    ops = []
    for k, n in VERIFY_GENERIC:
        path = _write(workdir, f"generic-k{k}-n{n}.json", instances.generic_arrangement(rng, k, n))
        expected = comb(n - 1, k)   # |chi(U)| of a generic arrangement

        def check(report, expected=expected):
            found = report.get("n_points", 0)
            return _check_pass(report, found, expected, "critical points"), found

        ops.append(cli_op(f"verify generic k={k} n={n}", ["verify", path], check, expected))
    return ops


def gaudin_sl2(rng, workdir: Path) -> list[Op]:
    ops = []
    for weights, k in GAUDIN_PROBLEMS:
        problem = instances.sl2_problem(rng, weights, k)
        tag = "".join(map(str, weights))
        path = _write(workdir, f"sl2-m{tag}-k{k}.json", problem.to_json())
        expected = sl2_singular_dimension(weights, k)

        def check(report, expected=expected):
            found = report.get("n_orbits", 0)
            problems = _check_pass(report, found, expected, "orbits")
            if report.get("sing_dim") != expected:
                problems.append(f"sing_dim {report.get('sing_dim')} != {expected}")
            return problems, found

        ops.append(cli_op(f"gaudin m={weights} k={k}", ["gaudin", path], check, expected))
    return ops


def exponent_sweep(rng, workdir: Path) -> list[Op]:
    ops = []
    for k, n, count in SWEEP_BASES:
        data = instances.generic_arrangement(rng, k, n)
        _write(workdir, f"generic-k{k}-n{n}.json", data)
        cold = {}
        for i in range(count):
            exponents = instances.exponent_vector(rng, n)
            ops.append(sweep_op(f"sweep k={k} n={n} #{i}", data, cold, i == 0, exponents))
    return ops


WORKLOADS = {
    w.name: w for w in [
        Workload("analyze-ladder", analyze_ladder),
        Workload("verify-newton", verify_newton, "points_found_ratio"),
        Workload("gaudin-sl2", gaudin_sl2, "orbits_found_ratio"),
        Workload("exponent-sweep", exponent_sweep),
    ]
}


# -- running a pass ----------------------------------------------------------------


def known_hang(op: Op, attempt: Attempt) -> bool:
    """A miss of the known hanging rung: it counts as failed, but does not
    make the run incorrect.  Every other failure does."""
    return attempt.missed and op.deadline == HANG_DEADLINE_S


def _on_alarm(signum, frame):
    raise DeadlineExceeded


def run_op(op: Op, deadline: float) -> Attempt:
    """Run one operation under a deadline.  A miss is charged the full
    deadline; any exception is a failed operation, never retried."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    t0 = process_time()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            outcome = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        return Attempt(deadline, missed=True, problems=[f"missed its {deadline:g} s deadline"])
    except Exception as exc:  # the benchmark reports every failure and goes on
        return Attempt(process_time() - t0, problems=[f"raised {type(exc).__name__}: {exc}"])
    finally:
        signal.signal(signal.SIGALRM, previous)
    return Attempt(process_time() - t0, outcome=outcome, problems=list(outcome.problems))
