"""The exact elimination engine checked against independent oracles: the
Leibniz expansion for determinants, the largest nonzero minor for rank, and
the Fraction echelon of tests/os_oracle.py for pivots, spans, kernels and
determinants."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bethearr import linalg
import os_oracle

F = Fraction

entries = st.one_of(
    st.sampled_from([0, 0, 1, -1, 2]),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def matrices(draw, max_rows=4, max_cols=4, square=False):
    """Small rational matrices; half are products through a narrow inner
    dimension, so rank deficiency is common."""
    nrows = draw(st.integers(0 if square else 1, max_rows))
    ncols = nrows if square else draw(st.integers(1, max_cols))
    if draw(st.booleans()):
        return [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    inner = draw(st.integers(0, max(nrows, ncols)))
    left = [[draw(entries) for _ in range(inner)] for _ in range(nrows)]
    right = [[draw(entries) for _ in range(ncols)] for _ in range(inner)]
    return [[sum((left[i][t] * right[t][j] for t in range(inner)), F(0))
             for j in range(ncols)] for i in range(nrows)]


def leibniz_det(m):
    n = len(m)
    total = F(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        term = F((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def minor_rank(m):
    """Size of the largest square submatrix with nonzero determinant."""
    if not m:
        return 0
    for r in range(min(len(m), len(m[0])), 0, -1):
        for rows in itertools.combinations(m, r):
            for cols in itertools.combinations(range(len(m[0])), r):
                if leibniz_det([[row[c] for c in cols] for row in rows]) != 0:
                    return r
    return 0


def combine(coeffs, rows):
    return [sum((c * row[j] for c, row in zip(coeffs, rows)), F(0))
            for j in range(len(rows[0]))]


@settings(max_examples=100, deadline=None)
@given(matrices(square=True))
def test_det_matches_leibniz(m):
    assert linalg.det(m) == leibniz_det(m)


@st.composite
def det_cases(draw):
    """Square int or rational matrices, some made singular by a repeated
    row and some with a zero leading entry, so that elimination swaps rows."""
    n = draw(st.integers(1, 5))
    ints = draw(st.booleans())
    entry = st.integers(-9, 9) if ints else entries
    m = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        m[draw(st.integers(1, n - 1))] = list(m[0])
    if draw(st.booleans()):
        m[0][0] = 0
    return m


@settings(max_examples=200, deadline=None)
@given(det_cases())
def test_bareiss_det_matches_the_echelon_det(m):
    """The fraction-free determinant against the oracle Fraction echelon's."""
    assert linalg.det(m) == os_oracle.echelon_det(m)
    assert type(linalg.det(m)) is F


@pytest.mark.parametrize("m", [[[1, 2]], [[1, 2], [3, 4], [5, 6]], [[1, 2], [3]], [[]]])
@pytest.mark.parametrize("kind", [F, float])
def test_det_refuses_a_non_square_matrix(m, kind):
    """Both the exact and the numpy path."""
    with pytest.raises(ValueError):
        linalg.det([[kind(x) for x in row] for row in m])


big_entries = st.one_of(
    entries,
    st.floats(min_value=-4, max_value=4, allow_nan=False, allow_infinity=False, width=32),
    st.integers(2**63, 2**70),
    st.fractions(min_value=-2**66, max_value=2**66, max_denominator=2**64 + 13),
)


@st.composite
def echelon_cases(draw):
    """(rows, probe rows): rational matrices with float entries, zero
    rows, repeated rows and entries above 2^63, and rows to test for
    membership in their span: the rows themselves, combinations of them
    and arbitrary ones."""
    ncols = draw(st.integers(1, 5))
    rows = [[draw(big_entries) for _ in range(ncols)] for _ in range(draw(st.integers(0, 5)))]
    for _ in range(draw(st.integers(0, 2))):
        repeat = rows and draw(st.booleans())
        extra = list(draw(st.sampled_from(rows))) if repeat else [0] * ncols
        rows.insert(draw(st.integers(0, len(rows))), extra)
    probes = list(rows)
    if rows:
        coeffs = [draw(entries) for _ in rows]
        probes.append(combine(coeffs, [[F(x) for x in row] for row in rows]))
    probes.append([draw(big_entries) for _ in range(ncols)])
    return rows, probes


@settings(max_examples=200, deadline=None)
@given(echelon_cases())
def test_integer_echelon_matches_the_fraction_oracle(case):
    """Same kept rows and pivot columns, the same span answers, the same
    kernel and, for a square matrix, the same determinant."""
    rows, probes = case
    ech, oracle = linalg.Echelon(), os_oracle.Echelon()
    assert [ech.add(row) for row in rows] == [oracle.add(row) for row in rows]
    assert len(ech) == len(oracle) and ech.pivots == oracle.pivots
    assert all(isinstance(x, int) for row in ech.rows for x in row)
    assert [ech.spans(v) for v in probes] == [oracle.spans(v) for v in probes]
    exact = [[F(x) for x in row] for row in rows]
    ncols = len(probes[0])
    assert linalg.nullspace(exact, ncols) == os_oracle.reduced_nullspace(exact, ncols)
    square = [row[:len(rows)] for row in exact]
    if rows and len(rows) <= ncols:
        assert linalg.det(square) == os_oracle.echelon_det(square)


def _planted(rng, nrows, ncols, prime, dependent=0, zero_cols=()):
    """Random residues in [2^30, prime) (so above 2^30), with the given rows
    replaced by combinations of three others and the given columns zero."""
    a = rng.integers(2**30, prime, (nrows, ncols))
    a[:, list(zero_cols)] = 0
    rows = rng.choice(nrows, dependent, replace=False)
    for i in rows:
        src = rng.choice(np.setdiff1d(np.arange(nrows), rows), 3, replace=False)
        coeffs = rng.integers(1, prime, 3)
        a[i] = sum(int(c) * a[j].astype(object) for c, j in zip(coeffs, src)) % prime
    return a


@pytest.mark.parametrize("prime", linalg.PRIMES)
@pytest.mark.parametrize("shape, dependent, zero_cols", [
    ((300, 520), 0, ()),
    ((300, 520), 37, (3, 255, 256, 300)),
    ((2100, 300), 0, ()),
    ((2100, 300), 0, range(20, 70)),
    ((290, 290), 45, (0, 31, 32, 289)),
    ((300, 600), 0, range(256, 512)),
], ids=["wide", "wide-dependent", "tall", "tall-zero-columns", "square-dependent",
        "zero-panel"])
def test_blocked_rank_mod_p_matches_the_unblocked_oracle(prime, shape, dependent, zero_cols):
    """More than one panel of columns, or more than one chunk of rows."""
    a = _planted(np.random.default_rng(shape[0] + dependent), *shape, prime, dependent, zero_cols)
    expected = min(shape[0] - dependent, shape[1] - len(zero_cols))
    assert linalg.rank_mod_p(a, prime) == os_oracle.rank_mod_p(a, prime) == expected


@pytest.mark.parametrize("prime", linalg.PRIMES)
@pytest.mark.parametrize("shape", [(3, 0, 2), (7, 1, 3), (40, 256, 30)])
def test_mul_mod_is_the_exact_product(prime, shape):
    """Residues at both ends of [0, prime) and either side of prime / 2, up
    to the largest inner dimension whose float sums stay exact."""
    m, inner, n = shape
    rng = np.random.default_rng(inner)
    a, b = rng.integers(0, prime, (m, inner)), rng.integers(0, prime, (inner, n))
    a[0], b[:, 0], a[1], a[2] = prime - 1, prime - 1, prime // 2, prime // 2 + 1
    exact = (a.astype(object) @ b.astype(object)) % prime if inner else np.zeros((m, n), int)
    product = linalg.mul_mod(a, b, prime)
    assert product.dtype == np.int64 and product.tolist() == exact.tolist()


def test_mul_mod_refuses_an_inner_dimension_past_256():
    with pytest.raises(ValueError):
        linalg.mul_mod(np.ones((2, 257), np.int64), np.ones((257, 2), np.int64))


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rank_is_largest_nonzero_minor(m):
    assert linalg.rank(m) == minor_rank(m)


@settings(max_examples=100, deadline=None)
@given(matrices(max_cols=5))
def test_nullspace_is_the_kernel_in_reduced_form(m):
    ncols = len(m[0])
    kernel = linalg.nullspace(m)
    assert len(kernel) == ncols - minor_rank(m)
    for v in kernel:
        assert os_oracle.mat_vec(m, v) == [0] * len(m)
        assert all(isinstance(x, Fraction) for x in v)
    # one vector per column that is a combination of the columns before it,
    # 1 there and 0 at the other such columns: the fully reduced echelon basis
    free = [c for c in range(ncols)
            if minor_rank([row[:c + 1] for row in m]) == minor_rank([row[:c] for row in m])]
    assert [[v[c] for c in free] for v in kernel] == [
        [int(a == b) for b in free] for a in free]


@settings(max_examples=100, deadline=None)
@given(matrices(max_rows=5))
def test_independent_rows_skip_only_dependent_rows(m):
    chosen = linalg.independent_rows(m)
    assert len(chosen) == minor_rank(m)
    for i in range(len(m)):
        before = [m[j] for j in chosen if j < i]
        if i in chosen:
            assert minor_rank(before + [m[i]]) == len(before) + 1
        else:
            assert minor_rank(before + [m[i]]) == len(before)


@settings(max_examples=100, deadline=None)
@given(matrices(max_rows=4, max_cols=4), st.data())
def test_solve_coords_rebuilds_the_target(m, data):
    basis = [m[i] for i in linalg.independent_rows(m)]
    if not basis:
        return
    coeffs = data.draw(st.lists(entries, min_size=len(basis), max_size=len(basis)))
    assert linalg.solve_coords(basis, combine(coeffs, basis)) == coeffs
    ncols = len(basis[0])
    for j in range(ncols):
        unit = [F(int(c == j)) for c in range(ncols)]
        if minor_rank(basis + [unit]) > len(basis):
            with pytest.raises(ValueError):
                linalg.solve_coords(basis, unit)


def test_solve_coords_rejects_dependent_basis_rows():
    with pytest.raises(ValueError):
        linalg.solve_coords([[1, 2], [2, 4]], [1, 2])


def test_echelon_coords_are_over_the_kept_rows():
    """The oracle Fraction echelon that evaluation_coords solves with."""
    ech = os_oracle.Echelon()
    assert ech.add([0, 2, 1])
    assert ech.add([1, 1, 0])
    assert not ech.add([2, 4, 1])
    assert ech.coords([3, 1, -1]) == [F(-1), F(3)]
    with pytest.raises(ValueError):
        ech.coords([0, 0, 1])


@st.composite
def scaled_integer_matrices(draw):
    """Up to 4 rows of integers of modulus at most 45 (products through an
    inner dimension of at most 5 of entries in -3..3), each row divided by
    its own denominator in 1..9.  Clearing the denominators leaves an integer
    matrix whose nonzero minors are below (2 * 45)^4 < PRIME (Hadamard), so
    they stay nonzero modulo PRIME and the two ranks must agree."""
    nrows, ncols, inner = (draw(st.integers(1, 4)), draw(st.integers(1, 5)),
                           draw(st.integers(0, 5)))
    small = st.integers(-3, 3)
    left = [[draw(small) for _ in range(inner)] for _ in range(nrows)]
    right = [[draw(small) for _ in range(ncols)] for _ in range(inner)]
    dens = [draw(st.integers(1, 9)) for _ in range(nrows)]
    return [[F(sum(row[t] * right[t][j] for t in range(inner)), d) for j in range(ncols)]
            for row, d in zip(left, dens)]


@settings(max_examples=100, deadline=None)
@given(scaled_integer_matrices())
def test_rank_mod_p_matches_exact_rank(m):
    assert linalg.rank_mod_p(m) == linalg.rank(m)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(-3 * linalg.PRIME, 3 * linalg.PRIME), min_size=3,
                         max_size=3), min_size=1, max_size=4))
def test_rank_mod_p_reduces_ints_as_their_fractions(m):
    """Int entries of any sign and size are reduced directly; the residues
    are those of the same entries as Fractions."""
    assert linalg.rank_mod_p(m) == linalg.rank_mod_p([[F(x) for x in row] for row in m])


def test_rank_mod_p_needs_residues_and_bounds_the_rank_from_below():
    m = [[1, F(1, linalg.PRIME)], [0, 1]]
    with pytest.raises(ValueError):
        linalg.rank_mod_p(m)
    assert linalg.rank(m) == 2
    assert linalg.rank_mod_p([[linalg.PRIME, 0]]) == 0
    assert linalg.rank([[linalg.PRIME, 0]]) == 1
    assert linalg.rank_mod_p([]) == 0
