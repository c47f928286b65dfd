"""The tracer's self-time arithmetic and its patching of bethearr."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import bethearr
from bethearr import cli, linalg, master, special
from bethearr.arrangement import Hyperplane, WeightedArrangement
from tracer import TARGETS, Tracer, metric_units, self_times


def span(sid, parent, t0, t1):
    return (sid, parent, 0, 0, t0, t1)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(3, 2, 2.0, 3.0),     # grandchild
        span(2, 1, 1.0, 4.0),     # child
        span(4, 1, 5.0, 6.5),     # second child
        span(1, 0, 0.0, 10.0),    # root
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({1: 10.0 - 3.0 - 1.5, 2: 3.0 - 1.0, 3: 1.0, 4: 1.5})
    # self times partition the root's duration
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([span(7, 0, 1.25, 2.0)]) == {7: 0.75}


def _generic4():
    rows = [(0, 1, 0), (0, 0, 1), (-1, 1, 1), (-3, 1, 2)]
    return WeightedArrangement(
        2, [Hyperplane(Fraction(b0), (Fraction(x), Fraction(y))) for b0, x, y in rows],
        [Fraction(1)] * 4)


def test_tracer_catches_calls_through_from_imports_and_restores_them():
    originals = (linalg.det, special.hess_det, cli.find_critical_points,
                 bethearr.find_critical_points, WeightedArrangement.basis)
    with Tracer() as tracer:
        assert cli.find_critical_points is master.find_critical_points
        assert special.hess_det is not originals[1]
        arr = _generic4()
        assert arr.dims() == [1, 4, 6]
        points = cli.find_critical_points(arr, seed=0, n_starts=6)
        bethearr.verify_norm_identity(arr, (Fraction(1, 3), Fraction(1, 5)))
    assert (linalg.det, special.hess_det, cli.find_critical_points,
            bethearr.find_critical_points, WeightedArrangement.basis) == originals

    metrics = tracer.metrics()
    assert set(metrics) == set(metric_units())
    assert metrics["arrangement.construct_calls"] == 1
    assert metrics["master.search_calls"] == 1
    # special -> master.hess_det -> linalg.det is an internal call chain
    assert metrics["linalg.det_calls"] >= 1
    assert metrics["special.verify_norm_calls"] == 1
    starts = metrics["master.newton_starts"]
    diverged = sum(v for k, v in metrics.items() if k.startswith("master.diverged."))
    assert starts == 6
    assert metrics["master.newton_converged"] + diverged == starts
    assert metrics["master.duplicates_merged"] == metrics["master.newton_converged"] - len(points)
    assert metrics["arrangement.nbc_fallbacks"] == 0


def test_self_times_of_a_traced_pass_add_up_to_its_root_spans():
    with Tracer() as tracer:
        _generic4().dims()
    selfs = self_times(tracer.spans)
    roots = [t1 - t0 for _, parent, _, _, t0, t1 in tracer.spans if parent == 0]
    assert sum(selfs.values()) == pytest.approx(sum(roots), rel=1e-9)
    assert all(v >= -1e-9 for v in selfs.values())


def test_every_target_resolves_and_is_restored():
    before = [(owner, attr) for owner, attr, _, _ in TARGETS]
    with Tracer():
        assert linalg.rank.__wrapped__ is not None
    assert not hasattr(linalg.rank, "__wrapped__")
    assert len(before) == len(set(before))


def test_benchmark_json_lists_every_traced_metric():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == {**metric_units(), "trace_overhead": "ratio"}
