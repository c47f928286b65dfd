"""Small dense linear algebra over exact rationals or complex floats.

Matrices are lists of row lists.  Every routine dispatches on the entry
types.  Exact input (ints and Fractions) goes through one engine, the
incremental row echelon `Echelon`: rows are added one at a time, and the
echelon answers whether a row is new and, if it is not, its coordinates over
the rows kept so far.  `rank`, `independent_rows`, `solve_coords`,
`nullspace` and `det` are thin uses of it, and their results are exact.  Any
other input goes to numpy with a relative tolerance.  The exact path is the
authoritative one for basis selection and straightening.
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
    return sum((a * b for a, b in zip(u, v)), start=Fraction(0))


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def mat_mul(a, b):
    bt = transpose(b)
    return [[dot(row, col) for col in bt] for row in a]


def mat_vec(a, v):
    return [dot(row, v) for row in a]


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
    if _matrix_exact(rows):
        return len(Echelon(rows))
    a = _to_ndarray(rows)
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0:
        return 0
    return int(np.sum(s > _FLOAT_TOL * max(1.0, s[0])))


def independent_rows(rows) -> list[int]:
    """Indices of a maximal independent subset of rows, greedy in order."""
    if _matrix_exact(rows):
        ech = Echelon()
        return [i for i, row in enumerate(rows) if ech.add(row)]
    chosen = []
    basis: list[np.ndarray] = []
    for i, row in enumerate(rows):
        v = np.array([complex(x) for x in row])
        scale = max(1.0, float(np.linalg.norm(v)))
        for b in basis:
            v = v - np.vdot(b, v) * b
        if np.linalg.norm(v) > _FLOAT_TOL * scale:
            basis.append(v / np.linalg.norm(v))
            chosen.append(i)
    return chosen


def solve_coords(basis_rows, target):
    """Coefficients x with sum_i x_i * basis_rows[i] == target.

    basis_rows must be linearly independent (ValueError otherwise, on exact
    input); raises ValueError if target is not in their span.
    """
    if not basis_rows:
        if any(x != 0 for x in target):
            raise ValueError("target not in span of empty basis")
        return []
    if _matrix_exact(basis_rows) and all(is_exact(x) for x in target):
        ech = Echelon()
        if not all(map(ech.add, basis_rows)):
            raise ValueError("basis rows are linearly dependent")
        return ech.coords(target)
    a = _to_ndarray(basis_rows).T
    b = np.array([complex(x) for x in target])
    x, _, _, _ = np.linalg.lstsq(a, b, rcond=None)
    resid = np.linalg.norm(a @ x - b)
    if resid > 1e-6 * max(1.0, float(np.linalg.norm(b))):
        raise ValueError(f"target not in span of basis rows (residual {resid:.3e})")
    return list(x)


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
