"""Small dense linear algebra over exact rationals, over integer residues
modulo a prime, and over complex floats where values at points need it.

Matrices are lists of row lists.  Exact arithmetic goes through one engine,
the incremental fraction-free echelon `Echelon`: rows are scaled to
integers as they are added (`integer_row`) and eliminated one at a time
with exact integer divisions, and the echelon answers whether a row is new
or in the span of the rows kept so far.  `rank` and `independent_rows` use
only the echelon (a float entry is read at its exact binary value; a
complex one raises TypeError): they serve the combinatorics, which the
rational coefficients of an arrangement fix.  On rational input `nullspace`
reads its kernel off the echelon, reduced once (each kept row divided by
its pivot), `solve_coords` reads its coefficients off that kernel, and
`det` is the echelon's last pivot with the sign of its pivot-column order,
divided by the rows' scales.  On anything else, such as a log-Hessian at a
complex point or a matrix built from complex exponents, `nullspace` and
`det` use numpy with a relative tolerance.

The nbc basis certificate works on int64 arrays of residues modulo one of
`PRIMES` (2^31 - 1, then 2^31 - 19), below 2^31 so that a product of two
fits.  `mul_mod` multiplies two such arrays exactly through float64 BLAS
products of 15-bit pieces.  `rank_mod_p` eliminates in panels of 256
columns (each itself in panels of 32, eliminated one pivot at a time) and
replaces the rows below a panel by their Schur complement, one `mul_mod`
per chunk of 2,048 rows; a matrix of at most 256 columns is eliminated one
pivot at a time.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .scalars import is_exact

_FLOAT_TOL = 1e-9


def _matrix_exact(rows) -> bool:
    return all(is_exact(x) for row in rows for x in row)


def sort_with_sign(indices):
    """(sorted tuple, (-1)^(number of inversions)) of a tuple of indices."""
    inversions = sum(a > b for a, b in itertools.combinations(indices, 2))
    return tuple(sorted(indices)), (-1) ** inversions


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def integer_row(row) -> tuple[list[int], int]:
    """(d * row, d) with d the least positive integer that makes every
    entry an integer.  Entries are read as Fractions: a float at its exact
    binary value, and a complex entry raises TypeError."""
    row = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    d = math.lcm(*[x.denominator for x in row])
    return [x.numerator * (d // x.denominator) for x in row], d


class Echelon:
    """Forward row echelon over the integers, grown one row at a time by
    fraction-free elimination (Bareiss, Math. Comp. 22 (1968)).

    A row is scaled to integers once, when it is added (integer_row).  Kept
    row i is stored reduced against kept rows 0..i-1; its pivot p_i is its
    entry at its pivot column c_i, its first nonzero one, and every later
    kept row is zero in that column.  A row v is reduced against the kept
    rows in order, v <- (p_i v - v[c_i] e_i) / p_(i-1) with p_(-1) = 1;
    each division is exact (Sylvester's identity), and after step i v[c]
    is the minor of kept rows 0..i and v at the columns c_0, ..., c_i, c.
    So p_i is the minor of kept rows 0..i at their pivot columns, in pivot
    order.  The pivot columns are the leading columns of the row space,
    the same set a fully reduced echelon form has.
    """

    def __init__(self, rows=()):
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []
        for row in rows:
            self.add(row)

    def __len__(self) -> int:
        return len(self.rows)

    def _reduce(self, row) -> list[int]:
        """The residual of row, scaled to integers, against the kept rows."""
        v, prev = integer_row(row)[0], 1
        for e, c in zip(self.rows, self.pivots):
            p, f = e[c], v[c]
            if f:
                v = [(p * x - f * y) // prev for x, y in zip(v, e)]
            elif p != prev:
                v = [p * x // prev for x in v]
            prev = p
        return v

    def add(self, row) -> bool:
        """Keep row if it is independent of the kept rows; True if kept."""
        v = self._reduce(row)
        c = next((i for i, x in enumerate(v) if x), None)
        if c is None:
            return False
        self.rows.append(v)
        self.pivots.append(c)
        return True

    def spans(self, row) -> bool:
        """True if row is in the span of the kept rows."""
        return not any(self._reduce(row))


def rank(rows) -> int:
    """Exact rank of a rational matrix."""
    return len(Echelon(rows))


# The basis certificate's primes, tried in order: 2^31 - 1, then the next
# prime below it.  Residues stay below 2^31, so products of two fit int64.
PRIMES = (2**31 - 1, 2**31 - 19)
PRIME = PRIMES[0]
PANELS = (256, 32)  # panel widths: a panel of one width is eliminated in panels of the next
CHUNK = 2048  # rows of the trailing update (and of the certificate rows) at a time


def _residues(rows, prime) -> np.ndarray:
    """rows reduced modulo prime as a new 2-d int64 array: an int array
    directly, int entries by % and Fractions by the inverse of their
    denominator (ValueError if the prime divides it)."""
    if isinstance(rows, np.ndarray) and rows.dtype.kind == "i":
        return np.atleast_2d(rows.astype(np.int64, copy=False)) % prime
    return np.array([[x % prime if isinstance(x, int) else
                      x.numerator * pow(x.denominator, -1, prime) % prime
                      for x in row] for row in rows], dtype=np.int64, ndmin=2)


def mul_mod(a, b, prime=PRIME) -> np.ndarray:
    """a @ b modulo prime for int64 arrays of residues and an inner dimension
    of at most 256, exactly, by two float64 BLAS products.  The residues are
    centred (below 2^30 in modulus) and a is split as a1 * 2^15 + a0 with
    |a1| <= 2^15 and |a0| <= 2^14, so each term of a1 @ b and a0 @ b is
    below 2^45 and their sums stay below 2^53.  Each product is made
    positive by adding prime * 2^23 before it is reduced."""
    if a.shape[1] > 256:
        raise ValueError(f"inner dimension {a.shape[1]} > 256")
    half, offset = prime // 2, prime << 23
    a = np.where(a > half, a - prime, a)
    b = np.where(b > half, b - prime, b).astype(np.float64)
    a0 = (a + (1 << 14)) % (1 << 15) - (1 << 14)
    h = ((a - a0) >> 15).astype(np.float64) @ b
    x = h.astype(np.int64)
    x += offset
    x %= prime
    x <<= 15
    np.matmul(a0.astype(np.float64), b, out=h)
    x += h.astype(np.int64)
    x += offset
    x %= prime
    return x


def _echelon_pivots(a, prime):
    """Forward elimination of the residue array a in place, one pivot column
    at a time: (pivot rows of a, in pivot order; pivot columns)."""
    order, cols, r = np.arange(a.shape[0]), [], 0
    for c in range(a.shape[1]):
        nz = r + np.flatnonzero(a[r:, c])
        if nz.size:
            a[[r, nz[0]]] = a[[nz[0], r]]  # nz[1:] are then the rows below r to clear
            order[[r, nz[0]]] = order[[nz[0], r]]
            a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, prime) % prime
            a[nz[1:], c:] = (a[nz[1:], c:] - np.outer(a[nz[1:], c], a[r, c:])) % prime
            cols.append(c)
            r += 1
    return order[:r], np.array(cols, dtype=np.intp)


def _inverse_mod(a, prime) -> np.ndarray:
    """Inverse modulo prime of a square residue array whose leading
    principal minors are all nonzero, so that no row swaps are needed.  Up
    to PANELS[-1] rows by Gauss-Jordan elimination in place (step c
    replaces column c by the inverse's), above that by the block formula
    over the leading half A and its Schur complement S = D - C A^-1 B:
    [[A^-1 + A^-1 B S^-1 C A^-1, -A^-1 B S^-1], [-S^-1 C A^-1, S^-1]]."""
    n = len(a)
    if n > PANELS[-1]:
        h = n // 2
        a_inv = _inverse_mod(a[:h, :h], prime)
        b = mul_mod(a_inv, a[:h, h:], prime)
        c = mul_mod(a[h:, :h], a_inv, prime)
        s_inv = _inverse_mod((a[h:, h:] - mul_mod(a[h:, :h], b, prime)) % prime, prime)
        sc = mul_mod(s_inv, c, prime)
        return np.block([[(a_inv + mul_mod(b, sc, prime)) % prime, -mul_mod(b, s_inv, prime) % prime],
                         [-sc % prime, s_inv]])
    a = a.copy()
    for c in range(n):
        inv = pow(int(a[c, c]), -1, prime)
        a[c, c] = 1
        a[c] = a[c] * inv % prime
        f = a[:, c].copy()
        f[c] = 0
        a[:, c] -= f
        a -= np.outer(f, a[c])
        a %= prime
    return a


def _pivots(a, prime, widths=PANELS):
    """(pivot rows in pivot order, pivot columns) of a forward elimination of
    the residue array a, which is overwritten.

    At most widths[0] columns: one pivot at a time (_echelon_pivots).
    Wider: each panel of widths[0] columns of the rows not yet used as
    pivots is eliminated by _pivots with the next widths.  With A the
    panel's pivot rows at its pivot columns (in pivot order, its leading
    principal minors are products of pivots, all nonzero), P the other rows
    there and T1, T2 the two row sets right of the panel, the rows of T2
    are replaced by the Schur complement T2 - P A^-1 T1, CHUNK rows at a
    time by mul_mod, and moved up in place; its pivots are those of a."""
    m, ncols = a.shape
    if not widths or ncols <= widths[0]:
        return _echelon_pivots(a, prime)
    ids, rows, cols = np.arange(m), [], []  # ids: the row of a held in each active row
    for c0 in range(0, ncols, widths[0]):
        c1 = c0 + widths[0]
        piv_rows, piv_cols = _pivots(a[:m, c0:c1].copy(), prime, widths[1:])
        rows.append(ids[piv_rows])
        cols.append(c0 + piv_cols)
        if piv_rows.size == 0:
            continue
        others = np.setdiff1d(np.arange(m), piv_rows)
        m = others.size
        if m == 0 or c1 >= ncols:
            break
        z = mul_mod(_inverse_mod(a[np.ix_(piv_rows, c0 + piv_cols)], prime),
                    a[piv_rows, c1:], prime)
        # others[i] >= i, so each chunk writes only rows no later chunk reads
        for i in range(0, m, CHUNK):
            src = others[i:i + CHUNK]
            t2 = a[src, c1:]
            t2 -= mul_mod(a[np.ix_(src, c0 + piv_cols)], z, prime)
            t2 %= prime
            a[i:i + src.size, c1:] = t2
        ids[:m] = ids[others]
    return np.concatenate(rows), np.concatenate(cols)


def rank_mod_p(rows, prime=PRIME) -> int:
    """Rank modulo prime of an int or Fraction matrix or an int64 array, by
    blocked elimination (_pivots); it never exceeds the rank over Q.  Raises
    ValueError if a Fraction's denominator is divisible by prime."""
    return len(_pivots(_residues(rows, prime), prime)[0])


def independent_rows(rows) -> list[int]:
    """Indices of a maximal independent subset of rows, greedy in order."""
    ech = Echelon()
    return [i for i, row in enumerate(rows) if ech.add(row)]


def solve_coords(basis_rows, target):
    """Coefficients x with sum_i x_i * basis_rows[i] == target, exactly,
    read off the nullspace of the columns [basis rows | target]: its one
    vector has 1 at the target's column and -x at the others.

    Raises ValueError if basis_rows are linearly dependent or target is not
    in their span.
    """
    m = len(basis_rows)
    columns = transpose([list(map(Fraction, row)) for row in (*basis_rows, target)])
    kernel = nullspace(columns, m + 1)
    if not kernel:
        raise ValueError("target not in span of basis rows")
    if not kernel[0][m]:  # a free column before the target's: a dependency
        raise ValueError("basis rows are linearly dependent")
    return [-x for x in kernel[0][:m]]


def nullspace(rows, ncols=None):
    """Basis of the right kernel {v : A v = 0} of the matrix with given rows.
    At rational input: per non-pivot column f, 1 at f, 0 at the others and
    minus the entry at f of the reduced echelon row with pivot c at each
    pivot column c.  Else the SVD's orthonormal one, in Python complex."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if _matrix_exact(rows):
        ech = Echelon(rows)
        free = sorted(set(range(ncols)) - set(ech.pivots))
        # the reduced echelon rows at the free columns, {column: entry}: kept
        # row j, divided by its pivot, is zero at earlier pivots, so reduce
        # it by the later reduced rows, from the last up
        reduced = []
        for j in reversed(range(len(ech))):
            e = ech.rows[j]
            p = e[ech.pivots[j]]
            r = {c: Fraction(e[c], p) for c in free if e[c]}
            for later, c in zip(reduced, reversed(ech.pivots[j + 1:])):
                if e[c]:
                    f = Fraction(e[c], p)
                    for fc, x in later.items():
                        r[fc] = r.get(fc, 0) - f * x
            reduced.append({fc: x for fc, x in r.items() if x})
        reduced.reverse()
        basis = []
        for fc in free:
            v = [Fraction(0)] * ncols
            v[fc] = Fraction(1)
            for r, c in zip(reduced, ech.pivots):
                if fc in r:
                    v[c] = -r[fc]
            basis.append(v)
        return basis
    _, s, vh = np.linalg.svd(np.array(rows, dtype=complex))
    tol = _FLOAT_TOL * max(1.0, s[0] if s.size else 0.0)
    nz = int(np.sum(s > tol))
    return vh[nz:ncols].conj().tolist()


def det(rows):
    """Determinant; exact for rational entries, from one Echelon of the
    rows: 0 if a row is dependent, else the sign of the pivot-column order
    times the last pivot, divided by the rows' integer scales.  ValueError
    unless the matrix is square."""
    if any(len(row) != len(rows) for row in rows):
        raise ValueError(f"determinant of a non-square matrix with {len(rows)} rows")
    if not rows:
        return Fraction(1)
    if _matrix_exact(rows):
        ints, ech = [integer_row(row) for row in rows], Echelon()
        if not all(ech.add(row) for row, _ in ints):
            return Fraction(0)
        sign, last = sort_with_sign(ech.pivots)[1], ech.pivots[-1]
        return Fraction(sign * ech.rows[-1][last], math.prod(d for _, d in ints))
    return complex(np.linalg.det(np.array(rows, dtype=complex)))
