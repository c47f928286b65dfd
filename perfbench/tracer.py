"""Outside-in tracer: times calls into bethearr's public functions without
touching the package's source.

On entry the tracer replaces each target with a wrapper in its defining
module or class and in every other ``bethearr.*`` module that bound it with
``from ... import``, so calls between modules are caught as well as calls
from the benchmark.  Each call becomes a span (id, parent id, operation id,
target, start, end) kept in memory; on exit the originals are restored.
Spans are nested and come from one thread, so a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# (owner, attribute, self-time metric, call-count metric or None).  The
# owner is a module, or "module:Class" for a method.
TARGETS = [
    ("bethearr.arrangement:WeightedArrangement", "__init__",
     "arrangement.construct_s", "arrangement.construct_calls"),
    ("bethearr.arrangement:WeightedArrangement", "basis",
     "arrangement.basis_s", "arrangement.basis_calls"),
    ("bethearr.arrangement:WeightedArrangement", "evaluation_matrix",
     "arrangement.evaluation_matrix_s", "arrangement.evaluation_matrix_calls"),
    ("bethearr.arrangement:WeightedArrangement", "circuits",
     "arrangement.circuits_s", "arrangement.circuits_calls"),
    ("bethearr.arrangement:WeightedArrangement", "closure",
     "arrangement.closure_s", "arrangement.closure_calls"),
    ("bethearr.arrangement:WeightedArrangement", "evaluate_all",
     "arrangement.evaluate_all_s", "arrangement.evaluate_all_calls"),
    ("bethearr.linalg", "rank", "linalg.rank_s", "linalg.rank_calls"),
    ("bethearr.linalg", "independent_rows",
     "linalg.independent_rows_s", "linalg.independent_rows_calls"),
    ("bethearr.linalg", "solve_coords", "linalg.solve_coords_s", "linalg.solve_coords_calls"),
    ("bethearr.linalg", "nullspace", "linalg.nullspace_s", "linalg.nullspace_calls"),
    ("bethearr.linalg", "det", "linalg.det_s", "linalg.det_calls"),
    ("bethearr.osflag", "straighten_coords", "osflag.straighten_s", "osflag.straighten_calls"),
    ("bethearr.osflag", "d_A_matrix", "osflag.d_A_s", "osflag.d_A_calls"),
    ("bethearr.osflag", "flag_vector", "osflag.flag_vector_s", "osflag.flag_vector_calls"),
    ("bethearr.osflag", "singular_basis",
     "osflag.singular_basis_s", "osflag.singular_basis_calls"),
    ("bethearr.shapovalov", "shapovalov_form", "shapovalov.form_s", "shapovalov.form_calls"),
    ("bethearr.shapovalov", "special_pairing",
     "shapovalov.special_pairing_s", "shapovalov.special_pairing_calls"),
    ("bethearr.master", "find_critical_points", "master.search_s", "master.search_calls"),
    ("bethearr.master", "newton_solve", "master.newton_s", None),
    ("bethearr.master", "log_grad", "master.log_grad_s", "master.log_grad_calls"),
    ("bethearr.master", "log_hessian", "master.log_hessian_s", "master.log_hessian_calls"),
    ("bethearr.master", "hess_det", "master.hess_det_s", "master.hess_det_calls"),
    ("bethearr.master", "group_orbits", "master.group_orbits_s", "master.group_orbits_calls"),
    ("bethearr.special", "specialize", "special.specialize_s", "special.specialize_calls"),
    ("bethearr.special", "verify_singular",
     "special.verify_singular_s", "special.verify_singular_calls"),
    ("bethearr.special", "verify_norm_identity",
     "special.verify_norm_s", "special.verify_norm_calls"),
    ("bethearr.special", "verify_orthogonality",
     "special.verify_orthogonality_s", "special.verify_orthogonality_calls"),
    ("bethearr.special", "isotypic_project",
     "special.isotypic_project_s", "special.isotypic_project_calls"),
    ("bethearr.gaudin", "build_discriminantal",
     "gaudin.build_discriminantal_s", "gaudin.build_discriminantal_calls"),
    ("bethearr.gaudin", "canonical_weight_function",
     "gaudin.weight_function_s", "gaudin.weight_function_calls"),
    ("bethearr.gaudin", "gaudin_hamiltonian", "gaudin.hamiltonian_s", "gaudin.hamiltonian_calls"),
    ("bethearr.gaudin", "tensor_shapovalov",
     "gaudin.tensor_shapovalov_s", "gaudin.tensor_shapovalov_calls"),
    ("bethearr.gaudin", "verify_bethe", "gaudin.verify_bethe_s", "gaudin.verify_bethe_calls"),
    ("bethearr.gaudin", "verify_shap_correspondence",
     "gaudin.shap_correspondence_s", "gaudin.shap_correspondence_calls"),
    ("bethearr.gaudin", "composition_flag",
     "gaudin.composition_flag_s", "gaudin.composition_flag_calls"),
    ("bethearr.gaudin", "verify_canonical_element",
     "gaudin.canonical_element_s", "gaudin.canonical_element_calls"),
    ("bethearr.cli", "main", "cli.self_s", "cli.calls"),
]

# DivergenceReport.cause values at the time the benchmark was written; any
# other cause is counted under master.diverged.other.
DIVERGENCE_CAUSES = [
    "escaped to infinity",
    "hyperplane collision",
    "singular Jacobian",
    "non-finite step",
    "line search failed",
    "max iterations exceeded",
]


def cause_metric(cause: str) -> str:
    slug = cause.replace(" ", "_") if cause in DIVERGENCE_CAUSES else "other"
    return f"master.diverged.{slug}"


DERIVED_METRICS = [
    ("arrangement.nbc_fallbacks", "count"),
    ("master.newton_starts", "count"),
    ("master.newton_converged", "count"),
    ("master.converged_ratio", "ratio"),
    ("master.duplicates_merged", "count"),
    ("master.newton_s_per_start", "s"),
    *[(cause_metric(c), "count") for c in DIVERGENCE_CAUSES],
    (cause_metric("?"), "count"),
]


def metric_units() -> dict:
    """Every metric one traced pass yields, with its unit."""
    units = {}
    for _, _, time_metric, calls_metric in TARGETS:
        units[time_metric] = "s"
        if calls_metric:
            units[calls_metric] = "count"
    units.update(DERIVED_METRICS)
    return units


def self_times(spans) -> dict:
    """Span id -> duration minus the durations of its direct children."""
    covered = defaultdict(float)
    for _, parent, _, _, t0, t1 in spans:
        if parent:
            covered[parent] += t1 - t0
    return {sid: (t1 - t0) - covered[sid] for sid, _, _, _, t0, t1 in spans}


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Context manager that records one traced pass."""

    def __init__(self):
        self.targets = TARGETS
        self.spans: list[tuple] = []
        self.op = 0
        self.newton_causes: list[str | None] = []   # None for a converged start
        self.points_returned = 0
        self.bases: dict = {}                       # (id(arr), p) -> arr
        self._stack = [0]
        self._ids = itertools.count(1)
        self._undo: list[tuple] = []

    def begin_op(self, op: int) -> None:
        """Start a new operation; a deadline can leave the stack unwound."""
        self.op = op
        self._stack[:] = [0]

    # -- patching ------------------------------------------------------------

    def __enter__(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "bethearr" or name.startswith("bethearr.")) and m is not None]
        for index, (owner, attr, _, _) in enumerate(self.targets):
            target = _resolve(owner)
            original = target.__dict__[attr]
            wrapper = self._wrap(original, index, self._hooks.get(attr))
            self._set(target, attr, wrapper)
            if isinstance(target, type):
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original and (module, name) != (target, attr):
                        self._set(module, name, wrapper)
        return self

    def __exit__(self, *exc):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()
        return False

    def _set(self, target, attr, value):
        self._undo.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, value)

    def _wrap(self, fn, index, hook):
        spans, stack, ids = self.spans, self._stack, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, parent, self.op, index, t0, t1))
            if hook:
                hook(self, args, result)
            return result

        return traced

    # -- return-value hooks (no private state of the package is read) ---------

    def _on_basis(self, args, result):
        arr, p = args[0], args[1]
        self.bases[(id(arr), p)] = arr

    def _on_newton(self, args, result):
        self.newton_causes.append(getattr(result, "cause", None))

    def _on_search(self, args, result):
        self.points_returned += len(result)

    _hooks = {"basis": _on_basis, "newton_solve": _on_newton,
              "find_critical_points": _on_search}

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of the recorded pass.  Call after exiting, since
        counting nbc fallbacks calls back into the (now untraced) package."""
        out = {name: 0 for name in metric_units()}
        selfs = self_times(self.spans)
        for sid, _, _, index, _, _ in self.spans:
            _, _, time_metric, calls_metric = self.targets[index]
            out[time_metric] += selfs[sid]
            if calls_metric:
                out[calls_metric] += 1
        starts = len(self.newton_causes)
        converged = self.newton_causes.count(None)
        out["master.newton_starts"] = starts
        out["master.newton_converged"] = converged
        out["master.converged_ratio"] = converged / starts if starts else 0.0
        out["master.duplicates_merged"] = converged - self.points_returned
        out["master.newton_s_per_start"] = out["master.newton_s"] / starts if starts else 0.0
        for cause in self.newton_causes:
            if cause is not None:
                out[cause_metric(cause)] += 1
        out["arrangement.nbc_fallbacks"] = sum(
            arr.basis(p) != arr.nbc_sets(p) for (_, p), arr in self.bases.items()
        )
        return out

    def dump(self, path, pass_index: int) -> None:
        """Append this pass's spans to a gzip JSON-lines file."""
        with gzip.open(path, "at") as fh:
            names = [t[2] for t in self.targets]
            for sid, parent, op, index, t0, t1 in self.spans:
                fh.write(json.dumps({"pass": pass_index, "id": sid, "parent": parent,
                                     "op": op, "name": names[index],
                                     "t0": t0, "t1": t1}) + "\n")


def median_metrics(per_pass: list[dict]) -> dict:
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
