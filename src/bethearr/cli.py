"""Command-line front end: load JSON instances, run analyses and
verification suites, emit machine-readable JSON reports.

Exit codes: 0 pass, 1 verification failure, 2 input error, 3 precondition
violation.  Reports go to stdout (or --out); human-readable summaries go to
stderr only.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
from fractions import Fraction

from . import gaudin as gd
from .arrangement import CertificateError, NoVertexError, WeightedArrangement
from .master import (CriticalPoint, chamber_critical_points, find_critical_points,
                     newton_solve, point_key)
from .scalars import format_scalar
from .special import point_checks

SCHEMA_VERSION = 1

EXIT_PASS = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT_ERROR = 2
EXIT_PRECONDITION = 3


class InputError(Exception):
    pass


class PreconditionError(Exception):
    pass


def _scalar(value):
    """json's default hook: rationals as "p/q", complex as [re, im];
    TypeError on a value of any type a report does not hold."""
    if isinstance(value, (Fraction, complex)):
        return format_scalar(value)
    raise TypeError(f"cannot render a {type(value).__name__} in a report")


def _load(path: str, parse):
    """parse applied to the JSON read from path: an arrangement with no
    vertex is a precondition violation, any other ValueError an input error."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc
    try:
        return parse(data)
    except NoVertexError as exc:
        raise PreconditionError(str(exc)) from exc
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _emit(report: dict, args) -> None:
    report = {"schema_version": SCHEMA_VERSION, **report}
    text = json.dumps(report, indent=2, sort_keys=True, default=_scalar)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write report to {args.out}: {exc}") from exc
    else:
        print(text)


def _emit_checks(report: dict, checks: list, args) -> int:
    """Emit report with its check rows and their verdict, summarize them on
    stderr, and return the exit code."""
    report["checks"] = checks
    report["pass"] = ok = all(c["pass"] for c in checks)
    _emit(report, args)
    print(f"{report['command']}: {sum(c['pass'] for c in checks)}/{len(checks)} checks passed",
          file=sys.stderr)
    return EXIT_PASS if ok else EXIT_VERIFY_FAIL


def _critical_points(arr, args):
    """The chamber search for positive exponents and simple vertices, else
    multi-start.  The arrangement has a vertex, so some vertex lies on more
    than k hyperplanes exactly when some circuit is consistent."""
    if (all(not isinstance(a, complex) and a > 0 for a in arr.exponents)
            and not arr.broken_circuits()):
        return chamber_critical_points(arr, tol=args.tol_newton)
    return find_critical_points(arr, seed=args.seed, n_starts=args.starts, tol=args.tol_newton)


# -- subcommands -------------------------------------------------------------


def cmd_analyze(args) -> int:
    arr = _load(args.file, WeightedArrangement.from_json)
    report = {
        "command": "analyze",
        "n_hyperplanes": arr.n,
        "dim": arr.ambient_dim,
        "dims": arr.dims(),
        "chi": arr.euler_characteristic(),
        "circuits": [list(c) for c in arr.circuits()],
        "has_vertex": True,
    }
    _emit(report, args)
    paths = ", ".join(f"{p}: {arr.basis_path(p)}" for p in range(arr.ambient_dim + 1))
    print(f"analyze: dims={report['dims']} chi={report['chi']} basis by degree: {paths}",
          file=sys.stderr)
    return EXIT_PASS


def cmd_critical(args) -> int:
    arr = _load(args.file, WeightedArrangement.from_json)
    points = _critical_points(arr, args)
    report = {
        "command": "critical",
        "seed": args.seed,
        "n_starts": args.starts,
        "abs_chi": abs(arr.euler_characteristic()),
        "points": [dataclasses.asdict(cp) for cp in points],
    }
    _emit(report, args)
    print(f"critical: found {len(points)} points, |chi|={report['abs_chi']}",
          file=sys.stderr)
    return EXIT_PASS


def cmd_verify(args) -> int:
    arr = _load(args.file, WeightedArrangement.from_json)
    points = [cp.t for cp in _critical_points(arr, args)]
    # the standard library's generator: numpy.random would add ~6 MB to the process
    rng = random.Random(args.seed + 1)
    controls = []
    while len(controls) < 20:
        t = tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                  for _ in range(arr.ambient_dim))
        if not arr.contains_point(t):
            controls.append(t)
    checks = point_checks(arr, points, controls, args.tol_verify)
    report = {
        "command": "verify",
        "seed": args.seed,
        "n_points": len(points),
    }
    return _emit_checks(report, checks, args)


def cmd_gaudin(args) -> int:
    problem = _load(args.file, gd.GaudinProblem.from_json)
    if not problem.is_sl2:
        raise PreconditionError("module-level checks require sl2 data")
    if not gd.weight_basis(problem):
        raise PreconditionError(
            f"the weight space is zero: k = {problem.k} exceeds the sum of the "
            "highest weights")
    k = problem.k
    report = {"command": "gaudin", "k": k,
              "sing_dim": gd.singular_dimension(problem)}
    representatives = []
    if k:
        polished = [newton_solve(problem.arrangement, t, tol=args.tol_newton)
                    for t in gd.bethe_roots(problem)]
        points = [cp for cp in polished if isinstance(cp, CriticalPoint)]
        # one orbit per polished root tuple; keep those with k distinct coordinates
        representatives = [cp for cp in points
                           if cp.nondegenerate and len(set(point_key(cp.t))) == k]
        report["n_points"] = len(points)
        report["n_orbits"] = len(representatives)

    checks = gd.verify_bethe(problem, [cp.t for cp in representatives], tol=args.tol_verify)
    if 0 < k <= 3:
        checks.append(gd.verify_shap_correspondence(problem))
        if representatives:
            checks.extend(gd.verify_canonical_element(
                problem, representatives[0].t,
                representatives[1].t if len(representatives) > 1 else None,
                tol=args.tol_verify,
            ))
    return _emit_checks(report, checks, args)


# -- argument parsing --------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bethearr",
        description="Analyze weighted arrangements and verify Bethe-ansatz "
                    "identities on desk-scale instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text in [
        ("analyze", cmd_analyze, "combinatorial summary of an arrangement"),
        ("critical", cmd_critical, "critical points: one per bounded chamber, or multi-start"),
        ("verify", cmd_verify, "singularity/norm/orthogonality checks at critical points"),
        ("gaudin", cmd_gaudin, "end-to-end Bethe checks for a Gaudin problem"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="input JSON file")
        if name in ("critical", "verify"):
            p.add_argument("--seed", type=int, default=0, help="multi-start and control-point seed")
            p.add_argument("--starts", type=int, default=100, help="multi-start starts")
        if name != "analyze":
            p.add_argument("--tol-newton", type=float, default=1e-12)
        if name in ("verify", "gaudin"):
            p.add_argument("--tol-verify", type=float, default=1e-8)
        p.add_argument("--out", default=None, help="write the report here")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if any(getattr(args, name, 1) <= 0 for name in ("tol_newton", "tol_verify")):
        print("error: tolerances must be positive", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if any(getattr(args, name, 0) < 0 for name in ("seed", "starts")):
        print("error: --seed and --starts must be nonnegative", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (PreconditionError, CertificateError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
