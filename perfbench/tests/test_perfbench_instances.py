"""The generator is deterministic in its seed and its generic instances are
in exact general position."""

import json
from fractions import Fraction

import pytest

from bethearr.arrangement import WeightedArrangement
from bethearr.gaudin import singular_dimension
import instances
import workloads


@pytest.mark.parametrize("k,n", [(2, 4), (2, 6), (3, 5)])
def test_generic_arrangements_are_in_general_position(k, n):
    for seed in range(3):
        data = instances.generic_arrangement(instances.stream("t", seed), k, n)
        normals = [[Fraction(x) for x in h["b"]] for h in data["hyperplanes"]]
        b0s = [Fraction(h["b0"]) for h in data["hyperplanes"]]
        assert instances.in_general_position(b0s, normals)
        arr = WeightedArrangement.from_json(data)
        assert arr.dims() == instances.generic_dims(k, n)
        assert arr.euler_characteristic() == instances.generic_chi(k, n)


def test_general_position_rejects_degenerate_arrangements():
    # t1 = 0, t2 = 0 and t1 + t2 = 0 share the origin
    assert not instances.in_general_position([0, 0, 0], [[1, 0], [0, 1], [1, 1]])
    # parallel normals
    assert not instances.in_general_position([0, 1, 2], [[1, 1], [2, 2], [1, -1]])
    assert instances.in_general_position([0, 0, -1], [[1, 0], [0, 1], [1, 1]])


def test_inputs_are_a_function_of_the_seed(tmp_path):
    def inputs(seed, held_out=False):
        rng = instances.stream("analyze-ladder", seed, held_out)
        workdir = tmp_path / f"{seed}-{held_out}"
        workdir.mkdir(exist_ok=True)
        workloads.analyze_ladder(rng, workdir)
        return {p.name: p.read_text() for p in sorted(workdir.iterdir())}

    assert inputs(1) == inputs(1)
    assert inputs(1) != inputs(2)
    assert inputs(1) != inputs(1, held_out=True)
    assert len(inputs(1)) == len(workloads.ANALYZE_GENERIC) + len(workloads.ANALYZE_DISCRIMINANTAL)


def test_exponent_vectors_are_nonzero_and_seeded():
    a = instances.exponent_vector(instances.stream("s", 4), 6)
    assert a == instances.exponent_vector(instances.stream("s", 4), 6)
    assert all(x != 0 for x in a)


@pytest.mark.parametrize("weights,k", workloads.GAUDIN_PROBLEMS)
def test_closed_form_singular_dimension(weights, k):
    problem = instances.sl2_problem(instances.stream("g", 0), weights, k)
    assert workloads.sl2_singular_dimension(weights, k) == singular_dimension(problem)


def test_discriminantal_inputs_keep_their_size():
    for seed in range(3):
        data = instances.discriminantal_arrangement(instances.stream("d", seed), (2, 2, 2), 3)
        assert data["dim"] == 3 and len(data["hyperplanes"]) == 12
        json.dumps(data)
