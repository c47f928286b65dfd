"""Combinatorics of weighted arrangements: ranks, circuits, certified bases,
straightening, dimensions, JSON round trips."""

import itertools
import json
import random
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bethearr import linalg
from bethearr.arrangement import (CertificateError, Hyperplane, WeightedArrangement,
                                  with_exponents)
from bethearr.gaudin import CartanDatum, GaudinProblem, build_discriminantal
from bethearr.osflag import chain_pairing, d_A_matrix, flag_vector
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

    def test_int_and_fraction_coefficients_agree(self):
        """Plain int coefficients give the same integer row, arrangement and
        certified dims as the same values as Fractions."""
        assert Hyperplane(0, (3, 2)).integer_row() == Hyperplane(F(0), (F(3), F(2))).integer_row()
        assert Hyperplane(-3, (-2, 1)).integer_row() == (3, 2, -1)
        rows = [(0, 1, 0), (0, 0, 1), (0, 1, 1), (-1, 1, -1)]  # a triple point at 0
        ints = WeightedArrangement(2, [Hyperplane(b0, b) for b0, *b in rows], [1] * 4)
        fracs = WeightedArrangement(2, [line(*row) for row in rows], [F(1)] * 4)
        assert ints.integer_rows() == fracs.integer_rows()
        assert ints.dims() == fracs.dims() == [1, 4, 5]

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

    @pytest.mark.parametrize("name", ["concurrent3", "generic4", "discriminantal_1111"])
    def test_one_elimination_per_subset(self, name, request, sl2, monkeypatch):
        """circuits() gives each subset of size up to k+1 at most one
        rank_report; the readers of its pass eliminate nothing more."""
        if name == "discriminantal_1111":
            arr = build_discriminantal(
                GaudinProblem(sl2, ((1,),) * 4, (2,), (F(0), F(1), F(3), F(7))))
        else:
            arr = request.getfixturevalue(name)
        seen = []
        rank_report = WeightedArrangement.rank_report
        monkeypatch.setattr(WeightedArrangement, "rank_report",
                            lambda self, s: seen.append(tuple(s)) or rank_report(self, s))
        arr.circuits()
        assert len(seen) == len(set(seen))
        assert all(len(s) <= arr.ambient_dim + 1 for s in seen)
        seen.clear()
        arr.dims()
        arr.broken_circuits()
        for p in range(arr.ambient_dim + 2):
            arr.candidate_monomials(p)
            if p <= arr.ambient_dim:
                arr.nbc_sets(p)
        assert seen == []


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
        assert rows.dtype == np.int64 and rows.shape == (6, 9)
        assert 0 <= rows.min() and rows.max() < linalg.PRIME
        assert linalg.rank_mod_p(rows) == 6


def _scaled(arr, factors):
    """arr with equation j divided by factors[j]: the same hyperplanes."""
    return WeightedArrangement(arr.ambient_dim,
                               [Hyperplane(h.b0 / d, tuple(x / d for x in h.b))
                                for h, d in zip(arr.hyperplanes, factors)], arr.exponents)


class TestCertificate:
    def test_short_rank_mod_p_raises(self, concurrent3_unsorted, monkeypatch):
        monkeypatch.setattr(linalg, "rank_mod_p", lambda rows, prime=linalg.PRIME: 0)
        for p in range(3):
            with pytest.raises(RuntimeError, match=f"degree {p}"):
                concurrent3_unsorted.basis(p)

    def test_the_second_prime_is_tried_only_after_a_shortfall(self, concurrent3_unsorted,
                                                               monkeypatch):
        """A shortfall at the first prime alone certifies at the second; only
        one at both raises, naming both primes."""
        rank_mod_p, seen = linalg.rank_mod_p, []

        def short_at_first(rows, prime=linalg.PRIME):
            seen.append(prime)
            return 0 if prime == linalg.PRIMES[0] else rank_mod_p(rows, prime)

        monkeypatch.setattr(linalg, "rank_mod_p", short_at_first)
        assert concurrent3_unsorted.dims() == [1, 3, 2]
        assert seen == list(linalg.PRIMES) * 3
        arr = WeightedArrangement(2, concurrent3_unsorted.hyperplanes,
                                  concurrent3_unsorted.exponents)
        monkeypatch.setattr(linalg, "rank_mod_p", lambda rows, prime=linalg.PRIME: 0)
        with pytest.raises(CertificateError, match=f"degree 0: .* modulo {linalg.PRIMES[0]} "
                                                   f"and {linalg.PRIMES[1]}$"):
            arr.basis(0)

    def test_integer_scaling(self, concurrent3):
        """An equation divided by PRIME has coefficients with no residue
        unless they are scaled to integers first."""
        arr = _scaled(concurrent3, [linalg.PRIME, 1, 1])
        assert arr.hyperplanes[0].integer_row() == (0, 1, 0)
        for p in range(3):
            assert arr.basis(p) == arr.nbc_sets(p)
            assert arr.evaluation_matrix(p)[1].tolist() == os_oracle.certificate_rows(arr, p)

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
            assert rows.tolist() == os_oracle.certificate_rows(arr, p)

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
            assert rows.tolist() == os_oracle.certificate_rows(arr, p)
        assert arr.dims() == [1, 3, 3]

    def test_hyperplanes_that_coincide_modulo_the_first_prime_are_decided_at_the_second(self):
        """The lines 46341 t1 + 2 t2 = 0 and 2317 t1 + 46341 t2 = 0 are
        distinct, but their equations are proportional modulo 2^31 - 1, so
        their degree-1 rows agree there.  Modulo the second prime they are
        not, and the basis is certified there."""
        arr = WeightedArrangement(2, [line(0, 46341, 2), line(0, 2317, 46341)], [F(1)] * 2)
        first, second = linalg.PRIMES
        nbc, rows = arr.evaluation_matrix(1, first)
        assert nbc == [(0,), (1,)] and rows[0].tolist() == rows[1].tolist()
        assert linalg.rank_mod_p(rows, first) == 1
        nbc, rows = arr.evaluation_matrix(1, second)
        assert rows.tolist() == os_oracle.certificate_rows(arr, 1, second)
        assert linalg.rank_mod_p(rows, second) == 2
        assert arr.basis(1) == nbc
        assert arr.dims() == [1, 2, 1]

    def test_dependent_nbc_sets_raise(self, concurrent3_unsorted, monkeypatch):
        nbc_sets = WeightedArrangement.nbc_sets
        # (1, 2) is in general position but contains the broken circuit (1, 2)
        monkeypatch.setattr(WeightedArrangement, "nbc_sets",
                            lambda self, p: nbc_sets(self, p) + [(1, 2)] * (p == 2))
        assert concurrent3_unsorted.basis(1) == [(0,), (1,), (2,)]
        with pytest.raises(RuntimeError, match="degree 2"):
            concurrent3_unsorted.basis(2)


SL3 = CartanDatum(rank=2, a=((2, -1), (-1, 2)), d=(1, 1))

# (Cartan datum, highest weights, k) of discriminantal arrangements
DISCRIMINANTAL = {
    "sl2-m1111-k2": (CartanDatum.sl2(), ((1,),) * 4, (2,)),
    "sl2-m222-k3": (CartanDatum.sl2(), ((2,),) * 3, (3,)),
    "sl2-m111111-k3": (CartanDatum.sl2(), ((1,),) * 6, (3,)),
    "sl2-m2222-k4": (CartanDatum.sl2(), ((2,),) * 4, (4,)),
    "sl3-w1x4-k21": (SL3, ((1, 0),) * 4, (2, 1)),
}


def discriminantal(name):
    cartan, weights, k = DISCRIMINANTAL[name]
    z = tuple(map(F, (0, 1, 3, 7, -2, 5)[:len(weights)]))
    return build_discriminantal(GaudinProblem(cartan, weights, k, z))


def witness_orders(arr, rng, count):
    """count random orders of arr's hyperplanes in which each same-level
    pair comes after its witness (random linear extensions)."""
    before = {j: set() for j in range(arr.n)}
    for (i, j), w in os_oracle.witnesses(arr).items():
        before[i].add(w)
        before[j].add(w)
    for _ in range(count):
        order = []
        while len(order) < arr.n:
            order.append(rng.choice([j for j in range(arr.n)
                                     if j not in order and before[j] <= set(order)]))
        yield order


class TestLevels:
    @pytest.mark.parametrize("name", DISCRIMINANTAL)
    def test_the_product_is_the_certified_nbc_basis(self, name):
        """The one-per-level sets are the circuits-based nbc sets, and the
        certificate reaches full rank on them at every degree."""
        arr = discriminantal(name)
        levels = arr.levels()
        assert levels is not None and sorted(itertools.chain(*levels)) == list(range(arr.n))
        for p in range(arr.ambient_dim + 1):
            assert arr.basis(p) == arr.nbc_sets(p) == os_oracle.nbc_sets(arr, p)
            assert arr.basis_path(p) == "levels"
            nbc, rows = arr.evaluation_matrix(p)
            assert linalg.rank_mod_p(rows) == len(nbc)

    @pytest.mark.parametrize("name", ["sl2-m1111-k2", "sl2-m222-k3", "sl3-w1x4-k21"])
    def test_witness_respecting_reorders(self, name):
        """Orders that keep every witness before its pair, most of them not
        sorted by level, still take the level path and give the nbc sets,
        which the certificate confirms."""
        base = discriminantal(name)
        unsorted = 0
        for order in witness_orders(base, random.Random(name), 8):
            arr = WeightedArrangement(base.ambient_dim, [base.hyperplanes[j] for j in order],
                                      [base.exponents[j] for j in order])
            levels = [max(c for c, x in enumerate(h.b) if x) for h in arr.hyperplanes]
            unsorted += levels != sorted(levels)
            assert arr.levels() is not None
            for p in range(arr.ambient_dim + 1):
                nbc, rows = arr.evaluation_matrix(p)
                assert nbc == os_oracle.nbc_sets(arr, p)
                assert linalg.rank_mod_p(rows) == len(nbc)
        assert unsorted >= 6

    def test_generic_arrangements_take_the_certificate(self, generic4):
        assert generic4.levels() is None
        for p in range(3):
            assert generic4.basis(p) == os_oracle.nbc_sets(generic4, p)
            assert generic4.basis_path(p) == f"certificate mod {linalg.PRIME}"

    def test_a_witness_after_its_pair_takes_the_certificate(self, concurrent3,
                                                            concurrent3_unsorted):
        """t1 + t2, t2 meet on t1, which comes last: the one-per-level sets
        {0, 2}, {1, 2} are not the nbc sets {0, 1}, {0, 2}, so the order
        check is needed.  In concurrent3's order t1 comes first."""
        assert concurrent3.levels() == ((0,), (1, 2))
        assert concurrent3.basis_path(2) == "levels"
        arr = concurrent3_unsorted
        assert os_oracle.witnesses(arr) == {(0, 1): 2}
        assert arr.levels() is None
        assert arr.nbc_sets(2) == os_oracle.nbc_sets(arr, 2) == [(0, 1), (0, 2)]
        assert arr.basis(2) == [(0, 1), (0, 2)]
        assert arr.basis_path(2).startswith("certificate mod ")

    def test_dims_make_no_circuits_pass(self, monkeypatch):
        """dims() of m = (1^8), k = 4 (38 hyperplanes) calls neither
        circuits() nor the certificate."""
        arr = build_discriminantal(GaudinProblem(
            CartanDatum.sl2(), ((1,),) * 8, (4,), tuple(map(F, (0, 1, 3, 7, -2, 5, 11, -6)))))
        monkeypatch.setattr(WeightedArrangement, "circuits", None)
        monkeypatch.setattr(WeightedArrangement, "evaluation_matrix", None)
        assert arr.dims() == [1, 38, 539, 3382, 7920]

    def test_nbc_sets_are_memoized(self, generic4, concurrent3):
        for arr in (generic4, concurrent3):
            assert arr.nbc_sets(2) is arr.nbc_sets(2)


@settings(max_examples=40, deadline=None)
@given(small_arrangements())
def test_nbc_sets_match_the_scan_on_random_arrangements(arr):
    """On either path; the level path exactly when every same-level pair
    with independent normals has a witness before it."""
    rule = all(w is not None and w < i for (i, _), w in os_oracle.witnesses(arr).items())
    assert (arr.levels() is not None) == rule
    for p in range(arr.ambient_dim + 1):
        assert arr.nbc_sets(p) == os_oracle.nbc_sets(arr, p)


@pytest.mark.parametrize("name", ["generic3", "generic4", "concurrent3", "points3"])
def test_certificate_matches_the_exact_oracle(request, name):
    """Every residue of every degree, for a fixture and for the same
    hyperplanes with non-integer rational coefficients."""
    arr = request.getfixturevalue(name)
    for a in (arr, _scaled(arr, [F(-3, 2), F(5), F(2, 7), F(1, 4)][:arr.n])):
        for p, prime in itertools.product(range(a.ambient_dim + 1), linalg.PRIMES):
            nbc, rows = a.evaluation_matrix(p, prime)
            assert nbc == a.nbc_sets(p)
            assert rows.tolist() == os_oracle.certificate_rows(a, p, prime)


@settings(max_examples=40, deadline=None)
@given(small_arrangements())
def test_certificate_matches_the_exact_oracle_on_random_arrangements(arr):
    for p in range(arr.ambient_dim + 1):
        assert arr.evaluation_matrix(p)[1].tolist() == os_oracle.certificate_rows(arr, p)


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


@pytest.mark.parametrize("monomial", [(1, 0), (0, 9), (-1, 2), (3, 1, 0)])
def test_basis_coords_rejects_unsorted_or_unknown_monomials(generic4, monomial):
    """An unsorted monomial, or one naming no hyperplane, is refused rather
    than read as zero or left to fail inside the circuit recursion."""
    with pytest.raises(ValueError):
        generic4.basis_coords(monomial)


def test_basis_coords_keeps_repeated_and_sorted_monomials(generic4):
    """A repeated index is sorted, and e_H e_H = 0 has no coordinates."""
    assert generic4.basis_coords((1, 1)) == {}
    assert generic4.basis_coords((0, 1)) == {0: 1}


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
    """rank_report and closure of every subset, circuits, candidate monomials
    and broken circuits, and flag_vector of every general-position ordered
    tuple, equal their rank-per-row references.
    The flag search reads each subset's reference closure, computed once.
    chain_pairing of a top-degree tuple reaches only general-position top
    subsets, and on them it is the pairing of its flag_vector with each
    straightened monomial."""
    flats, reports = {}, {}
    for p in range(arr.n + 1):
        for s in itertools.combinations(range(arr.n), p):
            report = arr.rank_report(s)
            reports[s] = expected = os_oracle.rank_report(arr, s)
            assert (report.coeff_rank, report.consistent, report.general_position) == expected
            if report.consistent:
                flats[frozenset(s)] = os_oracle.closure(arr, s)
                assert arr.closure(s) == flats[frozenset(s)]

    # the one pass of circuits(): minimal dependent subsets by size then lex,
    # general-position subsets, and tails of the circuits with a common point
    dependent = [s for s, r in reports.items() if not r[2]]
    circuits = [s for s in dependent if not any(set(c) < set(s) for c in dependent)]
    assert arr.circuits() == circuits
    for p in range(arr.ambient_dim + 2):
        assert arr.candidate_monomials(p) == [
            s for s in itertools.combinations(range(arr.n), p) if reports[s][2]]
    assert arr.broken_circuits() == sorted({c[1:] for c in circuits if reports[c][1]})

    def flat(subset):
        return flats[frozenset(subset)]

    for p in range(1, arr.ambient_dim + 1):
        for s in arr.candidate_monomials(p):
            for ordered in itertools.permutations(s):
                flag = flag_vector(arr, ordered)
                assert flag.coords == os_oracle.flag_vector(arr, ordered, flat)
                if p == arr.ambient_dim:
                    pairs = chain_pairing(arr, ordered)
                    assert set(pairs) <= set(arr.top_minors())
                    assert [pairs.get(top, 0) for top in arr.top_minors()] == [
                        os_oracle.monomial_pairing(arr, top, flag) for top in arr.top_minors()]


@settings(max_examples=40, deadline=None)
@given(small_arrangements())
def test_general_position_is_a_look_up(arr):
    """general_position of every tuple of at most k + 1 indices, in any order
    and with repeats, equals the rank-per-row reference, and once circuits()
    has run it makes no elimination."""
    arr.circuits()
    with mock.patch.object(WeightedArrangement, "rank_report", None):
        for size in range(arr.ambient_dim + 2):
            for s in itertools.combinations_with_replacement(range(arr.n), size):
                expected = os_oracle.rank_report(arr, s)[2]
                assert arr.general_position(s) == arr.general_position(s[::-1]) == expected


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


def test_numeric_view(generic4):
    """Float equations shared with every re-weighting, complex exponents per
    arrangement, all read-only."""
    b0, B, a = generic4.numeric()
    assert b0.tolist() == [0.0, 0.0, -1.0, -3.0]
    assert B.tolist() == [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 2.0]]
    assert a.dtype == complex and a.tolist() == [1, 1, 1, 1]
    assert generic4.numeric()[1] is B
    with pytest.raises(ValueError):
        B[0, 0] = 2.0
    b0w, Bw, aw = with_exponents(generic4, [F(1, 2), 2, F(3), 1.5]).numeric()
    assert (b0w, Bw) == (b0, B) and aw.tolist() == [0.5, 2, 3, 1.5]


def test_with_exponents_shares_the_exponent_free_core(concurrent3):
    arr = with_exponents(concurrent3, [F(2), F(3), F(5)])
    for p in range(3):
        assert arr.basis(p) is concurrent3.basis(p)
    assert arr.basis_coords((1, 2)) is concurrent3.basis_coords((1, 2))
    assert d_A_matrix(arr, 1) != d_A_matrix(concurrent3, 1)


def test_with_exponents_shares_only_the_exponent_free_tables(generic4):
    """top_index(), the equation arrays of numeric() and at(), top_arrays and
    basis_index(p) are the same objects across re-weightings; weighted_top()
    and the exponent arrays are each instance's own, even at equal exponents."""
    same, other = with_exponents(generic4, generic4.exponents), with_exponents(generic4, [2] * 4)
    point = generic4.sample_points(1)
    for arr in (same, other):
        assert arr.top_index() is generic4.top_index()
        assert all(x is y for x, y in zip(arr.numeric()[:2], generic4.numeric()[:2]))
        assert arr.at(point)[1] is generic4.at(point)[1]
        assert arr.top_arrays(complex) is generic4.top_arrays(complex)
        for p in range(3):
            assert arr.basis_index(p) is generic4.basis_index(p)
        assert arr.weighted_top() is arr.weighted_top() is not generic4.weighted_top()
        for dtype in (complex, object):
            assert arr.exponent_array(dtype) is arr.exponent_array(dtype)
            assert arr.exponent_array(dtype) is not generic4.exponent_array(dtype)
    assert same.weighted_top() == generic4.weighted_top() != other.weighted_top()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-20, 20).filter(lambda z: True), min_size=2,
                max_size=5, unique=True))
def test_point_arrangement_dims_property(zs):
    """k = 1: dim A^1 = n and chi = 1 - n for any distinct points."""
    arr = point_arrangement(zs)
    assert arr.dims() == [1, len(zs)]
    assert arr.euler_characteristic() == 1 - len(zs)
