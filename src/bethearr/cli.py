"""Command-line front end: load JSON instances, run analyses and
verification suites, emit machine-readable JSON reports.

Exit codes: 0 pass, 1 verification failure, 2 input error, 3 precondition
violation.  Reports go to stdout (or --out); human-readable summaries go to
stderr only.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from fractions import Fraction

import numpy as np

from . import gaudin as gd
from .arrangement import CertificateError, WeightedArrangement
from .master import CriticalPoint, find_critical_points, newton_solve
from .scalars import format_scalar
from .special import (verify_norm_identity, verify_orthogonality, verify_singular,
                      verify_singular_at_critical)

SCHEMA_VERSION = 1

EXIT_PASS = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT_ERROR = 2
EXIT_PRECONDITION = 3


class InputError(Exception):
    pass


class PreconditionError(Exception):
    pass


def _render(value):
    """JSON-ready rendering: rationals as "p/q", complex as [re, im]."""
    if isinstance(value, (bool, int, float)):
        return value
    if isinstance(value, (Fraction, complex)):
        return format_scalar(value)
    if isinstance(value, dict):
        return {str(k): _render(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_render(v) for v in value]
    return str(value)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


def _load_arrangement(path: str) -> WeightedArrangement:
    data = _load_json(path)
    try:
        return WeightedArrangement.from_json(data)
    except ValueError as exc:
        if "no vertex" in str(exc):
            raise PreconditionError(str(exc)) from exc
        raise InputError(str(exc)) from exc


def _load_gaudin(path: str) -> gd.GaudinProblem:
    data = _load_json(path)
    try:
        return gd.GaudinProblem.from_json(data)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _emit(report: dict, args) -> None:
    report = {"schema_version": SCHEMA_VERSION, **report}
    text = json.dumps(_render(report), indent=2, sort_keys=True)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write report to {args.out}: {exc}") from exc
    else:
        print(text)


def _critical_points(arr, args):
    return find_critical_points(
        arr, seed=args.seed, n_starts=args.starts, tol=args.tol_newton
    )


def _point_report(cp: CriticalPoint) -> dict:
    return {
        "t": list(cp.t),
        "grad_residual": cp.grad_residual,
        "hess_det": cp.hess_det,
        "nondegenerate": cp.nondegenerate,
        "orbit_id": cp.orbit_id,
    }


# -- subcommands -------------------------------------------------------------


def cmd_analyze(args) -> int:
    arr = _load_arrangement(args.file)
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
    print(f"analyze: dims={report['dims']} chi={report['chi']}", file=sys.stderr)
    return EXIT_PASS


def cmd_critical(args) -> int:
    arr = _load_arrangement(args.file)
    points = _critical_points(arr, args)
    report = {
        "command": "critical",
        "seed": args.seed,
        "n_starts": args.starts,
        "abs_chi": abs(arr.euler_characteristic()),
        "points": [_point_report(cp) for cp in points],
    }
    _emit(report, args)
    print(f"critical: found {len(points)} points, |chi|={report['abs_chi']}",
          file=sys.stderr)
    return EXIT_PASS


def cmd_verify(args) -> int:
    arr = _load_arrangement(args.file)
    points = _critical_points(arr, args)
    tol = args.tol_verify
    checks = []

    for idx, cp in enumerate(points):
        checks.append(verify_singular_at_critical(
            arr, cp.t, tol=max(tol, 1e-8), name=f"singular_at_critical_{idx}"))
        checks.append(verify_norm_identity(arr, cp.t, tol=tol, name=f"norm_identity_{idx}"))

    rng = np.random.default_rng(args.seed + 1)
    controls = 0
    while controls < 20:
        t = tuple(
            complex(a, b) for a, b in zip(
                rng.uniform(-2, 2, arr.ambient_dim),
                rng.uniform(-2, 2, arr.ambient_dim),
            )
        )
        if arr.contains_point(t):
            continue
        controls += 1
        checks.append(verify_singular(arr, t, name=f"control_point_{controls}"))

    for i, j in itertools.combinations(range(len(points)), 2):
        checks.append(verify_orthogonality(arr, points[i].t, points[j].t,
                                           tol=max(tol, 1e-10), name=f"orthogonality_{i}_{j}"))

    ok = all(c["pass"] for c in checks)
    report = {
        "command": "verify",
        "seed": args.seed,
        "n_points": len(points),
        "checks": checks,
        "pass": ok,
    }
    _emit(report, args)
    print(f"verify: {sum(c['pass'] for c in checks)}/{len(checks)} checks passed",
          file=sys.stderr)
    return EXIT_PASS if ok else EXIT_VERIFY_FAIL


def cmd_gaudin(args) -> int:
    problem = _load_gaudin(args.file)
    if not problem.is_sl2:
        raise PreconditionError("module-level checks require sl2 data")
    if not gd.weight_basis(problem):
        raise PreconditionError(
            f"the weight space is zero: k = {problem.k} exceeds the sum of the "
            "highest weights")
    k = problem.k
    report = {"command": "gaudin", "seed": args.seed, "k": k,
              "sing_dim": gd.singular_dimension(problem)}
    representatives = []
    if k:
        arr = problem.arrangement
        seeds = gd.bethe_roots(problem)[:args.starts]
        points = [cp for cp in (newton_solve(arr, t, tol=args.tol_newton) for t in seeds)
                  if isinstance(cp, CriticalPoint)]
        # one orbit per polished seed; keep those with k distinct coordinates
        representatives = [cp for cp in points if cp.nondegenerate and len(
            {round(x.real, 9) + 1j * round(x.imag, 9) for x in map(complex, cp.t)}) == k]
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

    ok = all(c["pass"] for c in checks)
    report["checks"] = checks
    report["pass"] = ok
    _emit(report, args)
    print(f"gaudin: {sum(c['pass'] for c in checks)}/{len(checks)} checks passed",
          file=sys.stderr)
    return EXIT_PASS if ok else EXIT_VERIFY_FAIL


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
        ("critical", cmd_critical, "multi-start search for critical points"),
        ("verify", cmd_verify, "singularity/norm/orthogonality checks"),
        ("gaudin", cmd_gaudin, "end-to-end Bethe checks for a Gaudin problem"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="input JSON file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--starts", type=int, default=100)
        p.add_argument("--tol-newton", type=float, default=1e-12)
        p.add_argument("--tol-verify", type=float, default=1e-8)
        p.add_argument("--out", default=None, help="write the report here")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.tol_newton <= 0 or args.tol_verify <= 0:
        print("error: tolerances must be positive", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if args.seed < 0 or args.starts < 0:
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
