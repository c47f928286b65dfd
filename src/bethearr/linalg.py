"""Small dense linear algebra over exact rationals, and over complex floats
where values at points need it.

Matrices are lists of row lists.  Exact arithmetic goes through one engine,
the incremental row echelon `Echelon`: rows are added one at a time, and the
echelon answers whether a row is new and, if it is not, its coordinates over
the rows kept so far.  `rank`, `independent_rows` and `solve_coords` use
only the echelon (a float entry is read at its exact binary value; a complex
one raises TypeError): they serve the combinatorics, which the rational
coefficients of an arrangement fix.  `rank_mod_p`, int64 numpy elimination
modulo a 31-bit prime, certifies the nbc basis from integer residues.
`nullspace` and `det` use the echelon on rational input and numpy, with a
relative tolerance, on anything else, such as a log-Hessian at a complex
point or a matrix built from complex exponents.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .scalars import is_exact

_FLOAT_TOL = 1e-9


def _matrix_exact(rows) -> bool:
    return all(is_exact(x) for row in rows for x in row)


def _to_ndarray(rows, ncols=None):
    if not rows:
        return np.zeros((0, ncols or 0), dtype=complex)
    return np.array([[complex(x) for x in row] for row in rows], dtype=complex)


def dot(u, v):
    """Sum of a * b over the pairs in order, skipping int or Fraction zeros a."""
    return sum((a * b for a, b in zip(u, v) if a or not isinstance(a, (int, Fraction))),
               start=Fraction(0))


def transpose(rows):
    return [list(col) for col in zip(*rows)]


class Echelon:
    """Forward row echelon over Fraction, grown one row at a time.

    Kept row j is stored reduced against kept rows 0..j-1 and scaled so that
    its pivot, its first nonzero entry, is 1; every later kept row is zero in
    that column.  One pass over the kept rows in order therefore reduces any
    row against their span.  Kept rows are never reduced against later ones.
    The pivot columns are the leading columns of the row space, the same set
    a fully reduced echelon form has.
    """

    def __init__(self, rows=()):
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []
        # kept row j, as added, == scales[j] * rows[j] + sum_{i<j} mults[j][i] * rows[i]
        self._mults: list[list[Fraction]] = []
        self._scales: list[Fraction] = []
        for row in rows:
            self.add(row)

    def __len__(self) -> int:
        return len(self.rows)

    def _reduce(self, row):
        """(residual of row against the kept rows, multiplier of each)."""
        v = [Fraction(x) for x in row]
        mults = []
        for e, c in zip(self.rows, self.pivots):
            f = v[c]
            mults.append(f)
            if f:
                v = [x - f * y if y else x for x, y in zip(v, e)]
        return v, mults

    def add(self, row) -> bool:
        """Keep row if it is independent of the kept rows; True if kept."""
        v, mults = self._reduce(row)
        c = next((i for i, x in enumerate(v) if x), None)
        if c is None:
            return False
        scale = v[c]
        self.rows.append([x / scale for x in v])
        self.pivots.append(c)
        self._mults.append(mults)
        self._scales.append(scale)
        return True

    def spans(self, row) -> bool:
        """True if row is in the span of the kept rows."""
        return not any(self._reduce(row)[0])

    def coords(self, row) -> list:
        """Coefficients x with sum_j x_j * (kept row j as added) == row;
        raises ValueError if row is not in their span."""
        v, x = self._reduce(row)
        if any(v):
            raise ValueError("target not in span of basis rows")
        for j in reversed(range(len(x))):
            x[j] /= self._scales[j]
            if x[j]:
                for i, m in enumerate(self._mults[j]):
                    x[i] -= x[j] * m
        return x


def rank(rows) -> int:
    """Exact rank of a rational matrix."""
    return len(Echelon(rows))


PRIME = 2**31 - 1


def rank_mod_p(rows) -> int:
    """Rank modulo PRIME of an int or Fraction matrix, by int64 elimination
    (residues stay below 2^31, so products fit).  It never exceeds the rank
    over Q.  Raises ValueError if a Fraction's denominator is divisible by PRIME."""
    a = np.array([[x % PRIME if isinstance(x, int) else
                   x.numerator * pow(x.denominator, -1, PRIME) % PRIME
                   for x in row] for row in rows], dtype=np.int64, ndmin=2)
    r = 0
    for c in range(a.shape[1]):
        nz = r + np.flatnonzero(a[r:, c])
        if nz.size:
            a[[r, nz[0]]] = a[[nz[0], r]]  # nz[1:] are then the rows below r to clear
            a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, PRIME) % PRIME
            a[nz[1:], c:] = (a[nz[1:], c:] - np.outer(a[nz[1:], c], a[r, c:])) % PRIME
            r += 1
    return r


def independent_rows(rows) -> list[int]:
    """Indices of a maximal independent subset of rows, greedy in order."""
    ech = Echelon()
    return [i for i, row in enumerate(rows) if ech.add(row)]


def solve_coords(basis_rows, target):
    """Coefficients x with sum_i x_i * basis_rows[i] == target, exactly.

    Raises ValueError if basis_rows are linearly dependent or target is not
    in their span.
    """
    ech = Echelon()
    if not all(map(ech.add, basis_rows)):
        raise ValueError("basis rows are linearly dependent")
    return ech.coords(target)


def nullspace(rows, ncols=None):
    """Basis of the right kernel {v : A v = 0} of the matrix with given rows:
    one vector per non-pivot column, 1 there and 0 in the other non-pivot
    columns."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if _matrix_exact(rows):
        ech = Echelon(rows)
        basis = []
        for fc in sorted(set(range(ncols)) - set(ech.pivots)):
            v = [Fraction(0)] * ncols
            v[fc] = Fraction(1)
            solved = [fc]
            # kept row j is zero at earlier pivots: solve from the last row up
            for e, c in reversed(list(zip(ech.rows, ech.pivots))):
                v[c] = -dot((e[i] for i in solved), (v[i] for i in solved))
                solved.append(c)
            basis.append(v)
        return basis
    a = _to_ndarray(rows, ncols)
    _, s, vh = np.linalg.svd(a)
    tol = _FLOAT_TOL * max(1.0, s[0] if s.size else 0.0)
    nz = int(np.sum(s > tol))
    return [list(vh[i].conj()) for i in range(nz, ncols)]


def det(rows):
    """Determinant; exact for rational entries."""
    if not rows:
        return Fraction(1)
    if _matrix_exact(rows):
        ech = Echelon()
        if not all(map(ech.add, rows)):
            return Fraction(0)
        # the kept rows times the pivot permutation are unit upper triangular
        p = ech.pivots
        d = Fraction((-1) ** sum(a > b for i, a in enumerate(p) for b in p[i + 1:]))
        for scale in ech._scales:
            d *= scale
        return d
    return complex(np.linalg.det(_to_ndarray(rows)))
