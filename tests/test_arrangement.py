"""Combinatorics of weighted arrangements: ranks, circuits, certified bases,
straightening, dimensions, JSON round trips."""

import itertools
import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bethearr import linalg
from bethearr.arrangement import (CertificateError, Hyperplane, WeightedArrangement,
                                  with_exponents)
from bethearr.gaudin import GaudinProblem, build_discriminantal
from bethearr.osflag import d_A_matrix, flag_vector
from conftest import line, point_arrangement, small_arrangements
import os_oracle
from os_oracle import evaluation_coords

F = Fraction


class TestHyperplane:
    def test_integer_row(self):
        """Coprime integers, first nonzero normal entry positive, and equal
        for proportional equations."""
        assert Hyperplane(F(-1, 2), (F(0), F(-3, 4))).integer_row() == (2, 0, 3)
        assert Hyperplane(F(6), (F(4), F(-2))).integer_row() == (3, 2, -1)
        assert Hyperplane(F(-3), (F(-2), F(1))).integer_row() == (3, 2, -1)

    def test_rejects_zero_coefficients(self):
        with pytest.raises(ValueError):
            Hyperplane(F(1), (F(0), F(0)))

    def test_evaluate(self):
        h = line(-1, 1, 1)
        assert h.evaluate((F(2), F(3))) == 4


class TestConstruction:
    def test_rejects_proportional_hyperplanes(self):
        with pytest.raises(ValueError, match="proportional"):
            WeightedArrangement(
                2, [line(1, 1, 1), line(2, 2, 2)], [F(1), F(1)]
            )

    def test_rejects_no_vertex(self):
        with pytest.raises(ValueError, match="no vertex"):
            WeightedArrangement(
                2, [line(0, 1, 0), line(1, 1, 0)], [F(1), F(1)]
            )

    def test_names_the_least_proportional_pair(self):
        # two classes, rows 0 ~ 3 and 1 ~ 2; (0, 3) precedes (1, 2)
        with pytest.raises(ValueError, match="hyperplanes 0 and 3 are proportional"):
            WeightedArrangement(
                2, [line(1, 1, 0), line(0, 0, 1), line(0, 0, -2), line(-3, -3, 0)],
                [F(1)] * 4,
            )

    @pytest.mark.parametrize("rows", [
        [(0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 1, 0)],    # three planes through a line
        [(-1, 1, 0, 0), (0, 0, 1, 0), (-2, 1, 1, 0)],  # normals in one plane, no common line
    ])
    def test_rejects_no_vertex_in_c3(self, rows):
        with pytest.raises(ValueError, match="no vertex"):
            WeightedArrangement(
                3, [Hyperplane(F(r[0]), tuple(map(F, r[1:]))) for r in rows], [F(1)] * 3)

    def test_rejects_exponent_count_mismatch(self):
        with pytest.raises(ValueError):
            WeightedArrangement(2, [line(0, 1, 0)], [F(1), F(2)])


class TestRanks:
    def test_general_position_pair(self, generic3):
        assert generic3.general_position((0, 1))

    def test_parallel_pair_not_general(self):
        arr = WeightedArrangement(
            2, [line(0, 1, 0), line(1, 1, 0), line(0, 0, 1)], [F(1)] * 3
        )
        report = arr.rank_report((0, 1))
        assert report.coeff_rank == 1
        assert not report.consistent
        assert not report.general_position

    def test_concurrent_triple(self, concurrent3):
        report = concurrent3.rank_report((0, 1, 2))
        assert report.coeff_rank == 2
        assert report.consistent
        assert not report.general_position

    def test_closure_of_concurrent_stratum(self, concurrent3):
        assert concurrent3.closure((0, 1)) == frozenset({0, 1, 2})

    def test_closure_of_generic_stratum(self, generic3):
        assert generic3.closure((0, 1)) == frozenset({0, 1})

    def test_closure_rejects_empty_intersection(self, generic3):
        with pytest.raises(ValueError, match="empty"):
            generic3.closure((0, 1, 2))


class TestCircuits:
    def test_generic3_circuits(self, generic3):
        # the only dependent subset up to size 3 is the full triple
        assert generic3.circuits() == [(0, 1, 2)]

    def test_empty_intersection_circuit_gives_no_broken_circuit(self, generic3):
        # (0,1,2) has empty intersection, so no relation and no broken circuit
        assert generic3.broken_circuits() == []

    def test_concurrent_broken_circuit(self, concurrent3):
        assert concurrent3.broken_circuits() == [(1, 2)]

    def test_nbc_matches_validated_basis(self, generic4, concurrent3):
        for arr in (generic4, concurrent3):
            for p in range(arr.ambient_dim + 1):
                assert arr.nbc_sets(p) == arr.basis(p)


class TestDims:
    def test_generic3(self, generic3):
        assert generic3.dims() == [1, 3, 3]
        assert generic3.euler_characteristic() == 1

    def test_generic4(self, generic4):
        assert generic4.dims() == [1, 4, 6]
        assert generic4.euler_characteristic() == 3

    def test_concurrent3(self, concurrent3):
        assert concurrent3.dims() == [1, 3, 2]
        assert concurrent3.euler_characteristic() == 0

    def test_points(self):
        arr = point_arrangement([0, 1, 3])
        assert arr.dims() == [1, 3]
        assert arr.euler_characteristic() == -2

    def test_k3_discriminantal(self, sl2):
        """The sl2 m = (2, 2, 2), k = 3 discriminantal arrangement (12 planes)
        took about 35 s of CPU time when the basis came from eliminating
        evaluation rows; the bound leaves a wide margin over straightening."""
        arr = build_discriminantal(
            GaudinProblem(sl2, ((2,), (2,), (2,)), (3,), (F(0), F(1), F(3))))
        start = time.process_time()
        assert arr.dims() == [1, 12, 47, 60]
        assert arr.euler_characteristic() == -24
        assert time.process_time() - start < 10


class TestSamplePoints:
    def test_points_avoid_arrangement(self, generic4):
        for t in generic4.sample_points(10):
            assert not generic4.contains_point(t)

    def test_deterministic(self, generic4):
        assert generic4.sample_points(5) == generic4.sample_points(5)

    def test_evaluation_rows_have_full_rank(self, generic4):
        """N rows by N + 3 columns of residues, of full rank modulo PRIME."""
        nbc, rows = generic4.evaluation_matrix(2)
        assert nbc == generic4.nbc_sets(2)
        assert len(rows) == 6 and all(len(row) == 9 for row in rows)
        assert all(type(x) is int and 0 <= x < linalg.PRIME for row in rows for x in row)
        assert linalg.rank_mod_p(rows) == 6


def _scaled(arr, factors):
    """arr with equation j divided by factors[j]: the same hyperplanes."""
    return WeightedArrangement(arr.ambient_dim,
                               [Hyperplane(h.b0 / d, tuple(x / d for x in h.b))
                                for h, d in zip(arr.hyperplanes, factors)], arr.exponents)


class TestCertificate:
    def test_short_rank_mod_p_raises(self, concurrent3, monkeypatch):
        monkeypatch.setattr(linalg, "rank_mod_p", lambda rows: 0)
        for p in range(3):
            with pytest.raises(RuntimeError, match=f"degree {p}"):
                concurrent3.basis(p)

    def test_integer_scaling(self, concurrent3):
        """An equation divided by PRIME has coefficients with no residue
        unless they are scaled to integers first."""
        arr = _scaled(concurrent3, [linalg.PRIME, 1, 1])
        assert arr.hyperplanes[0].integer_row() == (0, 1, 0)
        for p in range(3):
            assert arr.basis(p) == arr.nbc_sets(p)
            assert arr.evaluation_matrix(p)[1] == os_oracle.certificate_rows(arr, p)

    def test_a_point_on_a_hyperplane_modulo_the_prime_is_skipped(self, generic4):
        """The plane t1 + t2 + b0 = 0 with b0 = PRIME - t1 - t2 at the first
        point t drawn for k = 2 misses t, but passes through it mod PRIME."""
        t = next(generic4.certificate_samples(0))[0]
        h = Hyperplane(F(linalg.PRIME - t[0] - t[1]), (F(1), F(1)))
        arr = WeightedArrangement(2, [*generic4.hyperplanes[:2], h], [F(1)] * 3)
        assert not arr.contains_point(t)
        for p in range(3):
            assert next(generic4.certificate_samples(p))[0] == t
            assert next(arr.certificate_samples(p))[0] != t
            nbc, rows = arr.evaluation_matrix(p)
            assert all(len(row) == len(nbc) + 3 for row in rows)
            assert arr.basis(p) == nbc
            assert rows == os_oracle.certificate_rows(arr, p)

    @pytest.mark.parametrize("lines", [
        [(0, 46341, 2), (1, 2317, 46341), (-1, 1, 1)],
        [(1, linalg.PRIME, 0), (0, 0, 1), (-1, 1, 1)],
    ], ids=["det-prime", "coefficient-prime"])
    def test_minors_divisible_by_the_prime(self, lines):
        """Some nbc set has every minor a multiple of PRIME: 46341^2 - 2 * 2317
        = PRIME at p = 2, and (PRIME, 0) at p = 1.  Dividing its minors by
        their gcd keeps its row off 0, and every degree certifies."""
        arr = WeightedArrangement(2, [line(*row) for row in lines], [F(1)] * 3)
        for p in range(3):
            nbc, rows = arr.evaluation_matrix(p)
            assert all(any(row) for row in rows)
            assert arr.basis(p) == nbc == arr.nbc_sets(p)
            assert rows == os_oracle.certificate_rows(arr, p)
        assert arr.dims() == [1, 3, 3]

    def test_hyperplanes_that_coincide_modulo_the_prime_raise(self):
        """The lines 46341 t1 + 2 t2 = 0 and 2317 t1 + 46341 t2 = 0 are
        distinct, but their equations are proportional modulo PRIME, so
        their degree-1 rows agree there: the certificate cannot decide."""
        arr = WeightedArrangement(2, [line(0, 46341, 2), line(0, 2317, 46341)], [F(1)] * 2)
        nbc, rows = arr.evaluation_matrix(1)
        assert nbc == [(0,), (1,)] and rows[0] == rows[1]
        assert arr.basis(0) == [()]
        with pytest.raises(CertificateError, match="degree 1"):
            arr.basis(1)

    def test_dependent_nbc_sets_raise(self, concurrent3, monkeypatch):
        nbc_sets = WeightedArrangement.nbc_sets
        # (1, 2) is in general position but contains the broken circuit (1, 2)
        monkeypatch.setattr(WeightedArrangement, "nbc_sets",
                            lambda self, p: nbc_sets(self, p) + [(1, 2)] * (p == 2))
        assert concurrent3.basis(1) == [(0,), (1,), (2,)]
        with pytest.raises(RuntimeError, match="degree 2"):
            concurrent3.basis(2)


@pytest.mark.parametrize("name", ["generic3", "generic4", "concurrent3", "points3"])
def test_certificate_matches_the_exact_oracle(request, name):
    """Every residue of every degree, for a fixture and for the same
    hyperplanes with non-integer rational coefficients."""
    arr = request.getfixturevalue(name)
    for a in (arr, _scaled(arr, [F(-3, 2), F(5), F(2, 7), F(1, 4)][:arr.n])):
        for p in range(a.ambient_dim + 1):
            assert a.evaluation_matrix(p) == (a.nbc_sets(p), os_oracle.certificate_rows(a, p))


@settings(max_examples=40, deadline=None)
@given(small_arrangements())
def test_certificate_matches_the_exact_oracle_on_random_arrangements(arr):
    for p in range(arr.ambient_dim + 1):
        assert arr.evaluation_matrix(p)[1] == os_oracle.certificate_rows(arr, p)


@settings(max_examples=40, deadline=None)
@given(small_arrangements())
def test_straightening_matches_the_evaluation_oracle(arr):
    """basis_coords of every sorted monomial holds exactly the nonzero
    coordinates from the logarithmic forms, with ascending keys, and the nbc
    count is the rank of all form rows."""
    for p in range(arr.ambient_dim + 1):
        rank, coords = evaluation_coords(arr, p)
        assert len(arr.basis(p)) == rank
        for s in itertools.combinations(range(arr.n), p):
            sparse = arr.basis_coords(s)
            assert list(sparse) == sorted(sparse) and 0 not in sparse.values()
            assert sparse == {i: c for i, c in enumerate(coords[s]) if c != 0}


def test_cancelling_circuit_terms_leave_no_zero_coordinate():
    """Straightening (4, 5, 6) on these seven planes gives two terms on basis
    monomial 6 that cancel; the coordinate is dropped, not stored as 0.  The
    random arrangements above have at most six hyperplanes and never cancel."""
    rows = [(-6, 2, 2, -2), (-2, -1, -2, -1), (6, -2, 0, 2), (0, -2, -2, -2),
            (1, 0, 1, 1), (4, -2, 2, 0), (-5, 2, -1, -1)]
    arr = WeightedArrangement(3, [Hyperplane(F(r[0]), tuple(map(F, r[1:]))) for r in rows],
                              [F(1)] * len(rows))
    _, coords = evaluation_coords(arr, 3)
    sparse = arr.basis_coords((4, 5, 6))
    assert 6 not in sparse and coords[(4, 5, 6)][6] == 0
    assert sparse == {i: c for i, c in enumerate(coords[(4, 5, 6)]) if c != 0}


@settings(max_examples=40, deadline=None)
@given(small_arrangements())
def test_flats_and_flags_match_the_rank_oracle(arr):
    """rank_report and closure of every subset, and flag_vector of every
    general-position ordered tuple, equal their rank-per-row references.
    The flag search reads each subset's reference closure, computed once."""
    flats = {}
    for p in range(arr.n + 1):
        for s in itertools.combinations(range(arr.n), p):
            report = arr.rank_report(s)
            expected = os_oracle.rank_report(arr, s)
            assert (report.coeff_rank, report.consistent, report.general_position) == expected
            if report.consistent:
                flats[frozenset(s)] = os_oracle.closure(arr, s)
                assert arr.closure(s) == flats[frozenset(s)]

    def flat(subset):
        return flats[frozenset(subset)]

    for p in range(1, arr.ambient_dim + 1):
        for s in arr.candidate_monomials(p):
            for ordered in itertools.permutations(s):
                assert flag_vector(arr, ordered).coords == os_oracle.flag_vector(
                    arr, ordered, flat)


@settings(max_examples=40, deadline=None)
@given(small_arrangements())
def test_vertex_test_matches_the_subset_scan(arr):
    """Every nonempty set of the hyperplanes is accepted exactly when some k
    of them are in general position, as the k-subset scan finds."""
    k = arr.ambient_dim
    for size in range(1, arr.n + 1):
        for s in itertools.combinations(arr.hyperplanes, size):
            if os_oracle.has_vertex(k, s):
                assert WeightedArrangement(k, s, [F(1)] * size).has_vertex()
            else:
                with pytest.raises(ValueError, match="no vertex"):
                    WeightedArrangement(k, s, [F(1)] * size)


class TestJson:
    def test_round_trip(self, generic4):
        data = json.loads(json.dumps(generic4.to_json()))
        again = WeightedArrangement.from_json(data)
        assert again.hyperplanes == generic4.hyperplanes
        assert again.exponents == generic4.exponents

    def test_malformed_raises(self):
        with pytest.raises(ValueError, match="malformed"):
            WeightedArrangement.from_json({"dim": 2})


def test_with_exponents_keeps_geometry(generic3):
    arr = with_exponents(generic3, [F(2), F(3), F(5)])
    assert arr.hyperplanes == generic3.hyperplanes
    assert arr.exponents == (F(2), F(3), F(5))
    assert arr.dims() == generic3.dims()


def test_with_exponents_shares_the_exponent_free_core(concurrent3):
    arr = with_exponents(concurrent3, [F(2), F(3), F(5)])
    for p in range(3):
        assert arr.basis(p) is concurrent3.basis(p)
    assert arr.basis_coords((1, 2)) is concurrent3.basis_coords((1, 2))
    assert d_A_matrix(arr, 1) != d_A_matrix(concurrent3, 1)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-20, 20).filter(lambda z: True), min_size=2,
                max_size=5, unique=True))
def test_point_arrangement_dims_property(zs):
    """k = 1: dim A^1 = n and chi = 1 - n for any distinct points."""
    arr = point_arrangement(zs)
    assert arr.dims() == [1, len(zs)]
    assert arr.euler_characteristic() == 1 - len(zs)
