"""Shapovalov form, the closed-form pairing of special vectors, and the
generic-arrangement operator oracle."""

import gc
import itertools
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bethearr import linalg
from bethearr.arrangement import WeightedArrangement, with_exponents
from bethearr.gaudin import CartanDatum, GaudinProblem, build_discriminantal
from bethearr.osflag import FlagVector
from bethearr.master import chamber_critical_points
from bethearr.shapovalov import shapovalov_form, special_gram, special_pairing
from bethearr.special import orthogonality_checks, specialize
from conftest import line, small_arrangements
from generic_ops import (dependency_constant, is_generic, k_operator,
                         l_operator, random_generic, standard_basis)
import os_oracle

F = Fraction

rational = st.fractions(
    min_value=F(-5), max_value=F(5), max_denominator=6
)


class TestShapovalovForm:
    def test_symmetric(self, generic4):
        f1 = FlagVector(2, (F(1), F(0), F(2), F(-1), F(0), F(3)))
        f2 = FlagVector(2, (F(0), F(1), F(-1), F(2), F(1), F(0)))
        assert shapovalov_form(generic4, f1, f2) == shapovalov_form(generic4, f2, f1)

    def test_degree_checked(self, generic4):
        with pytest.raises(ValueError):
            shapovalov_form(generic4, FlagVector(1, (F(1),) * 4),
                            FlagVector(2, (F(1),) * 6))

    @pytest.mark.parametrize("size", [5, 9])
    @pytest.mark.parametrize("call", [
        lambda arr, f: shapovalov_form(arr, f, FlagVector(2, (F(1),) * 6)),
        lambda arr, f: shapovalov_form(arr, FlagVector(2, (F(1),) * 6), f),
        lambda arr, f: os_oracle.pairing(arr, {(2, 3): F(1)}, f),
        lambda arr, f: os_oracle.monomial_pairing(arr, (3, 2), f),
    ], ids=["form-left", "form-right", "pairing", "monomial-pairing"])
    def test_flag_length_checked(self, generic4, call, size):
        """generic4 has 6 basis monomials in degree 2; a flag with any other
        number of coordinates is rejected, not truncated."""
        with pytest.raises(ValueError, match="coordinates"):
            call(generic4, FlagVector(2, (F(1),) * size))

    def test_linear_in_exponents(self, generic3):
        f = FlagVector(2, (F(1), F(2), F(3)))
        doubled = with_exponents(generic3, [2 * a for a in generic3.exponents])
        # each k-subset term carries a product of k = 2 exponents
        assert shapovalov_form(doubled, f, f) == 4 * shapovalov_form(generic3, f, f)

    def test_map_reproduces_form(self, generic3):
        """The dense map of f1, paired with f2, is the form."""
        f1 = FlagVector(2, (F(1), F(-1), F(2)))
        f2 = FlagVector(2, (F(0), F(3), F(1)))
        eta = os_oracle.shapovalov_map(generic3, f1)
        assert os_oracle.pairing(generic3, eta, f2) == shapovalov_form(generic3, f1, f2)


@settings(max_examples=40, deadline=None)
@given(small_arrangements(), st.data())
def test_form_and_map_match_the_dense_oracle(arr, data):
    """The form over nonzero straightened coordinates equals the dense
    reference: exactly on random rational flags, where the dense map paired
    with the second flag gives it too, and to the last bit (== and repr) on
    special vectors at random complex points.  Zero exponents (drawn, or
    forced on at most one hyperplane) drop the top subsets that contain
    them; the others keep their non-unit coordinates."""
    exponents = data.draw(st.lists(rational, min_size=arr.n, max_size=arr.n))
    for j in data.draw(st.sets(st.integers(0, arr.n - 1), max_size=1)):
        exponents[j] = F(0)
    arr = with_exponents(arr, exponents)
    k = arr.ambient_dim
    coords = st.lists(rational, min_size=len(arr.basis(k)), max_size=len(arr.basis(k)))
    f1 = FlagVector(k, tuple(data.draw(coords)))
    f2 = FlagVector(k, tuple(data.draw(coords)))
    form = shapovalov_form(arr, f1, f2)
    assert form == os_oracle.shapovalov_form(arr, f1, f2)
    assert form == os_oracle.pairing(arr, os_oracle.shapovalov_map(arr, f1), f2)

    # Generic floats: a component that is exactly zero in every term could
    # take a different sign of zero in the two sums.
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    t1, t2 = (tuple(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(k))
              for _ in range(2))
    assume(not arr.contains_point(t1) and not arr.contains_point(t2))
    v1, v2 = specialize(arr, t1), specialize(arr, t2)
    got, expected = shapovalov_form(arr, v1, v2), os_oracle.shapovalov_form(arr, v1, v2)
    assert got == expected
    assert repr(got) == repr(expected)


def assert_bitwise(got, want):
    """Equal, and equal in repr: exact values, or complex ones to the last bit."""
    assert got == want
    assert repr(got) == repr(want)


def random_flags(arr, rng, count):
    """Top-degree flags with small random rational coordinates."""
    size = len(arr.basis(arr.ambient_dim))
    return [FlagVector(arr.ambient_dim,
                       tuple(F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(size)))
            for _ in range(count)]


def complex_specials(arr, rng, count):
    """specialize at random complex points off the arrangement."""
    vectors = []
    while len(vectors) < count:
        t = tuple(complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                  for _ in range(arr.ambient_dim))
        if not arr.contains_point(t):
            vectors.append(specialize(arr, t))
    return vectors


class TestWeightedTop:
    def test_each_reweighting_has_its_own_table(self):
        """Three re-weightings of one arrangement, called in interleaved
        order twice round, each match the dense oracle: a table shared
        through the exponent-free core would give the first one's terms to
        all three."""
        base = WeightedArrangement(
            2, [line(0, 1, 0), line(0, 0, 1), line(0, 1, 1), line(-3, 1, 2), line(-1, 1, 0)],
            [F(1)] * 5)
        arrs = [with_exponents(base, [F(1, 2), F(-3), F(2, 3), F(5), F(-1, 4)]),
                with_exponents(base, [F(2), F(1), F(0), F(-7, 3), F(3)]),
                with_exponents(base, [complex(1 + j, 0.5 - j / 4) for j in range(5)])]
        rng = random.Random("reweightings")
        flags = random_flags(base, rng, 2) + complex_specials(base, rng, 2)
        for _ in range(2):
            for arr in arrs:
                for f1, f2 in itertools.combinations_with_replacement(flags, 2):
                    assert_bitwise(shapovalov_form(arr, f1, f2),
                                   os_oracle.shapovalov_form(arr, f1, f2))
        assert len(arrs[1].weighted_top()) < len(arrs[0].weighted_top())

    def test_table_does_not_keep_the_arrangement_alive(self, generic4):
        """With the collector off, the last reference going frees a
        re-weighting whose table is built: no module cache, no cycle."""
        arr = with_exponents(generic4, [F(2), F(3), F(5), F(7)])
        f = FlagVector(2, (F(1),) * 6)
        ref = weakref.ref(arr)
        enabled = gc.isenabled()
        gc.disable()
        try:
            shapovalov_form(arr, f, f)
            del arr
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_discriminantal(self):
        """sl2 m=(1,1,1,1), k=2, whose basis comes from the levels: the form
        equals the dense oracle exactly on rational flags and to the last
        bit on complex special vectors."""
        p = GaudinProblem(CartanDatum.sl2(), ((1,),) * 4, (2,), tuple(map(F, (0, 1, 3, 7))))
        arr = build_discriminantal(p)
        assert arr.basis_path(2) == "levels"
        rng = random.Random("discriminantal")
        for flags in (random_flags(arr, rng, 4), complex_specials(arr, rng, 4)):
            for f1, f2 in itertools.combinations_with_replacement(flags, 2):
                assert_bitwise(shapovalov_form(arr, f1, f2),
                               os_oracle.shapovalov_form(arr, f1, f2))


class TestSpecialPairing:
    def test_matches_flag_path(self, generic4):
        pts = generic4.sample_points(2)
        t1, t2 = pts[0], pts[1]
        direct = special_pairing(generic4, t1, t2)
        via_flags = shapovalov_form(
            generic4, specialize(generic4, t1), specialize(generic4, t2)
        )
        assert direct == via_flags

    def test_rejects_points_on_arrangement(self, generic4):
        with pytest.raises(ValueError):
            special_pairing(generic4, (F(0), F(1)), (F(1), F(1)))

    @settings(max_examples=20, deadline=None)
    @given(rational, rational)
    def test_symmetric_property(self, x, y):
        from conftest import line
        from bethearr.arrangement import WeightedArrangement
        arr = WeightedArrangement(
            2, [line(0, 1, 0), line(0, 0, 1), line(-1, 1, 1)], [F(1)] * 3
        )
        t1, t2 = (x, x + 7), (y - 3, y + 11)
        if arr.contains_point(t1) or arr.contains_point(t2):
            return
        assert special_pairing(arr, t1, t2) == special_pairing(arr, t2, t1)


class TestSpecialGram:
    def test_exact_at_rational_points(self, generic4):
        pts = generic4.sample_points(3)
        gram = special_gram(generic4, pts)
        assert gram.tolist() == [[os_oracle.special_pairing(generic4, s, t) for t in pts]
                                 for s in pts]

    @pytest.mark.parametrize("exponents", ["unit", "complex"])
    def test_matches_the_pairwise_oracle(self, exponents):
        """At the 21 critical points of a generic k=2, n=8 arrangement (and at
        the same points under complex exponents), every entry agrees with
        the pairwise sum to 1e-12 of the geometric mean of the two
        self-pairings, and so do the orthogonality rows."""
        arr = random_generic(random.Random("gram"), 2, 8)
        points = [cp.t for cp in chamber_critical_points(arr)]
        assert len(points) == 21
        if exponents == "complex":
            arr = with_exponents(arr, [complex(1 + j, 0.5 - j / 4) for j in range(8)])
        gram = special_gram(arr, points)
        oracle = np.array([[complex(os_oracle.special_pairing(arr, s, t)) for t in points]
                           for s in points])
        scale = np.sqrt(np.outer(np.abs(np.diag(oracle)), np.abs(np.diag(oracle))))
        assert np.all(np.abs(gram - oracle) <= 1e-12 * scale)
        rows = orthogonality_checks(arr, points)
        assert len(rows) == 21 * 20 // 2
        pairs = itertools.combinations(range(21), 2)
        for row, (i, l) in zip(rows, pairs):
            assert row["name"] == f"orthogonality_{i}_{l}"
            assert abs(row["lhs"] - oracle[i, l]) <= 1e-12 * scale[i, l]
            assert row["pass"] == (abs(oracle[i, l]) <= 1e-10 * scale[i, l])


class TestGenericOperators:
    def test_is_generic(self, generic4, concurrent3):
        assert is_generic(generic4)
        assert not is_generic(concurrent3)

    def test_standard_basis(self, generic4):
        assert standard_basis(generic4) == list(itertools.combinations(range(4), 2))

    def test_dependency_constant_cancels_t(self, generic4):
        # sum_p (-1)^p D(J \ j_p) f_{j_p}(t) is constant: compare two points
        for jtuple in itertools.combinations(range(4), 3):
            c = dependency_constant(generic4, jtuple)
            for t in generic4.sample_points(2):
                total = F(0)
                for p, j in enumerate(jtuple):
                    minor = [x for x in jtuple if x != j]
                    d = linalg.det(
                        [list(generic4.hyperplanes[m].b) for m in minor]
                    )
                    total += (-1) ** p * d * generic4.hyperplanes[j].evaluate(t)
                assert total == c

    def test_k_operators_self_adjoint(self, generic4):
        """S^(a)(K_j x, y) = S^(a)(x, K_j y) on the standard basis."""
        basis = standard_basis(generic4)
        n = len(basis)
        gram = [
            [
                shapovalov_form(
                    generic4,
                    FlagVector(2, tuple(F(int(a == i)) for a in range(n))),
                    FlagVector(2, tuple(F(int(a == j)) for a in range(n))),
                )
                for j in range(n)
            ]
            for i in range(n)
        ]
        for j in range(4):
            km = k_operator(generic4, j)
            left = os_oracle.mat_mul(linalg.transpose(km), gram)
            right = os_oracle.mat_mul(gram, km)
            assert left == right

    def test_k_operator_eigenvector_at_critical_points(self, generic4):
        """K_j v(t) = (a_j / f_j(t)) v(t) at every critical point."""
        from bethearr.master import find_critical_points
        points = find_critical_points(generic4, seed=0, n_starts=200)
        assert points
        for cp in points:
            v = list(specialize(generic4, cp.t).coords)
            scale = max(abs(complex(x)) for x in v)
            for j in range(4):
                kv = os_oracle.mat_vec(k_operator(generic4, j), v)
                lam = complex(generic4.exponents[j]) / complex(
                    generic4.hyperplanes[j].evaluate(cp.t)
                )
                err = max(abs(complex(a) - lam * complex(b))
                          for a, b in zip(kv, v))
                assert err <= 1e-10 * abs(lam) * scale

    def test_l_operator_requires_full_tuple(self, generic4):
        with pytest.raises(ValueError):
            l_operator(generic4, (0, 1))
