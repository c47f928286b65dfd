"""Reference oracles for the Orlik-Solomon combinatorics.

Evaluation oracle for straightening:

The map e_H -> df_H / f_H realizes the Orlik-Solomon algebra as an algebra
of logarithmic forms (Brieskorn), so the coordinates of a monomial over the
nbc basis are the coefficients that rebuild its form from the nbc forms.
Values at rational sample points make that exact linear algebra: the nbc
rows go into one echelon and every monomial's row is solved against it.
The entries grow to hundreds of bits, so this serves as a test oracle on
small arrangements only.

Exact reference for the basis certificate: each residue of
evaluation_matrix recomputed as a Fraction from the unscaled equations, as
the weighted sum of the form's values at the sample point over the gcd of
the integer minors, then reduced.  Unblocked references for its rank and
for determinants: rank_mod_p eliminates one pivot column at a time over
the whole matrix, echelon_det reads the determinant off the pivots of
one Echelon, and reduced_nullspace reads the kernel off its Gauss-Jordan
reduction.

The Fraction echelon that the library's integer one is checked against:
`Echelon` keeps each row reduced against the earlier ones and scaled to
pivot 1, with the bookkeeping that gives a spanned row's coordinates over
the rows as added (`coords`).  `rank` is its length.  Every rank an oracle
here needs is that one, so no oracle checks the engine against itself.

Scan reference for the nbc sets: the general-position p-subsets that
contain no broken circuit, each tested against every broken circuit as a
set.  With it, the witness order of the level rule: each same-level pair
of hyperplanes with independent normals and the lower-level hyperplane
whose row their rows span, found by exact ranks.

Rank-per-row references for the flats: `rank_report` from two ranks,
`closure` by one rank per hyperplane, and `flag_vector` by a search over
every ordering of each basis monomial for one whose chain of prefix
closures is the tuple's.  The search costs p! chains per monomial.

Straightening into an element of A^p as {basis monomial: coefficient}:
the coordinates of an ordered monomial keyed by basis monomial rather than
basis index.  pairing pairs such an element with a flag, one
monomial_pairing per monomial.

Dense references for the Shapovalov form and map: every weighted top
subset pairs with the flags by a full dot product of its straightened
coordinates, zeros included (dense() fills in the zeros that the library's
sparse coordinates leave out).  The map sends a flag to its element of A^k,
{basis monomial: coefficient}, and pairs with a second flag to the form.

Pairwise reference for the Gram matrix of special vectors: one
S(v(t1), v(t2)) at a time, each term d^2 prod a_j / (f_j(t1) f_j(t2))
accumulated in Python scalars.

Enumeration references: the vertex test by a scan of the k-subsets, the
canonical weight function by its sum over k! permutations of chain
fractions, and the symmetry action on flags by the transposed matrix of
the inverse element on A^k.

Pairing references for the symmetry action: monomial_pairing pairs a flag
with any ordered monomial through its straightening, and apply_flag_action
takes (R_g F)_S as the pairing of F with e_{pi^-1(S)}, pi the hyperplane
permutation of g.  isotypic_project applies the matrix action to a flag,
(1/|G|) sum_g chi(g) R_g F, the projector that the library's projection of
special vectors along the orbit of a point is checked against.

Term-by-term references for the evaluation at a point: the gradient and
Hessian of ln Phi, the value u_S(t) of one top form, and the Bethe
equations of an sl2 Gaudin problem, each summed in Python scalars one
hyperplane at a time (the library computes them from
WeightedArrangement.at).

Per-point reference for the rows of `bethearr verify`
(special.point_checks), one point at a time: v(t) from the term-by-term
form values, delta v(t) through delta_F_matrix and mat_vec, the gradient
term by term, and S(v(t), v(t)) through shapovalov_form.
dot, mat_vec and mat_mul are the list-of-rows products over Python
scalars that it and the matrix identities in the tests use.

Recursion reference for the sl2 Shapovalov diagonal: S(F^q v, F^q v) from
S(F^(q-1) v, F^(q-1) v), one factor q (m - q + 1) at a time.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from bethearr import linalg
from bethearr.arrangement import WeightedArrangement, sort_with_sign
from bethearr.gaudin import GaudinProblem, TensorVector, weight_basis
from bethearr.osflag import (FlagVector, check_length, delta_F_matrix, sparse_dot,
                             straighten_coords)
from bethearr.shapovalov import shapovalov_form as library_shapovalov_form


def dot(u, v):
    """Sum of a * b over the pairs in order, skipping int or Fraction zeros a."""
    return sum((a * b for a, b in zip(u, v) if a or not isinstance(a, (int, Fraction))),
               start=Fraction(0))


def mat_mul(a, b):
    bt = linalg.transpose(b)
    return [[dot(row, col) for col in bt] for row in a]


def mat_vec(a, v):
    return [dot(row, v) for row in a]


def form_row(arr: WeightedArrangement, subset, points) -> list:
    """Values of the logarithmic form of a sorted monomial: for each point t
    and each column set (i1<...<ip), the minor det(b^{i}_{j}) over the
    product of the f_j(t)."""
    columns = itertools.combinations(range(arr.ambient_dim), len(subset))
    minors = [echelon_det([[arr.hyperplanes[j].b[c] for c in cols] for j in subset])
              for cols in columns]
    row = []
    for t in points:
        denom = math.prod((arr.hyperplanes[j].evaluate(t) for j in subset), start=Fraction(1))
        row.extend(m / denom for m in minors)
    return row


def certificate_rows(arr: WeightedArrangement, p: int, prime: int = linalg.PRIME) -> list:
    """The certificate rows of the nbc sets at the first N + 3 samples of
    arr.certificate_samples(p, prime), N = len(nbc): for each sample
    (t, w, _), the Fraction sum_I w(I) * form_row(S, [t])[I] over the column
    sets I, divided by the gcd g of the p x p minors of the integer_row
    normals of S, and reduced modulo prime."""
    nbc = arr.nbc_sets(p)
    samples = list(itertools.islice(arr.certificate_samples(p, prime), len(nbc) + 3))
    rows = []
    for s in nbc:
        normals = [arr.hyperplanes[j].integer_row()[1:] for j in s]
        g = math.gcd(*(int(echelon_det([[n[c] for c in cols] for n in normals]))
                       for cols in itertools.combinations(range(arr.ambient_dim), p)))
        values = [dot(w, form_row(arr, s, [t])) / g for t, w, _ in samples]
        rows.append([x.numerator * pow(x.denominator, -1, prime) % prime for x in values])
    return rows


def nbc_sets(arr: WeightedArrangement, p: int) -> list:
    """General-position p-subsets, lex order, with no broken circuit as a
    subset, by a scan of every broken circuit."""
    broken = arr.broken_circuits()
    return [s for s in arr.candidate_monomials(p) if not any(set(b) <= set(s) for b in broken)]


def witnesses(arr: WeightedArrangement) -> dict:
    """{(i, j): w} over the pairs i < j of one level L (the last coordinate
    of their normals) with independent normals: w is the hyperplane of
    level < L whose row (b0, *b) their rows span, or None if there is none."""
    rows = [(h.b0, *h.b) for h in arr.hyperplanes]
    level = [max(c for c, x in enumerate(h.b) if x) for h in arr.hyperplanes]
    return {(i, j): next((w for w in range(arr.n) if level[w] < level[i]
                          and rank([rows[w], rows[i], rows[j]]) == 2), None)
            for i, j in itertools.combinations(range(arr.n), 2)
            if level[i] == level[j]
            and rank([arr.hyperplanes[i].b, arr.hyperplanes[j].b]) == 2}


class Echelon:
    """Forward row echelon over Fraction, grown one row at a time.

    Kept row j is stored reduced against kept rows 0..j-1 and scaled so that
    its pivot, its first nonzero entry, is 1; every later kept row is zero in
    that column.  One pass over the kept rows in order therefore reduces any
    row against their span.
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
    """Exact rank of a rational matrix: the length of one Fraction Echelon."""
    return len(Echelon(rows))


def reduced_nullspace(rows, ncols: int) -> list:
    """Kernel basis of a rational matrix from the reduced row echelon form,
    by Gauss-Jordan on the rows of one Echelon: per non-pivot column f, 1
    at f, 0 at the others and minus the reduced row's entry at f at each
    pivot column."""
    ech = Echelon(rows)
    reduced = [list(row) for row in ech.rows]
    for i, c in enumerate(ech.pivots):
        for j, row in enumerate(reduced):
            if j != i and row[c]:
                reduced[j] = [x - row[c] * y for x, y in zip(row, reduced[i])]
    basis = []
    for f in sorted(set(range(ncols)) - set(ech.pivots)):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, c in zip(reduced, ech.pivots):
            v[c] = -row[f]
        basis.append(v)
    return basis


def rank_mod_p(rows, prime: int = linalg.PRIME) -> int:
    """Rank modulo prime of an int matrix by int64 elimination, one pivot
    column at a time, each pivot clearing the rows below it."""
    a = np.array(rows, dtype=np.int64, ndmin=2) % prime
    r = 0
    for c in range(a.shape[1]):
        nz = r + np.flatnonzero(a[r:, c])
        if nz.size:
            a[[r, nz[0]]] = a[[nz[0], r]]
            a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, prime) % prime
            a[nz[1:], c:] = (a[nz[1:], c:] - np.outer(a[nz[1:], c], a[r, c:])) % prime
            r += 1
    return r


def echelon_det(rows):
    """Determinant of a rational matrix from one Echelon: 0 if a row is
    dependent, else the sign of the pivot permutation times the pivots."""
    ech = Echelon()
    if not all(map(ech.add, rows)):
        return Fraction(0)
    p = ech.pivots
    d = Fraction((-1) ** sum(a > b for i, a in enumerate(p) for b in p[i + 1:]))
    for scale in ech._scales:
        d *= scale
    return d


def evaluation_coords(arr: WeightedArrangement, p: int):
    """(rank of the rows of all p-monomials, {sorted p-subset: coordinates
    of its row over the nbc rows}).  Raises ValueError if the nbc rows are
    dependent or some row is outside their span."""
    nbc = arr.nbc_sets(p)
    subsets = list(itertools.combinations(range(arr.n), p))
    points = arr.sample_points(len(arr.candidate_monomials(p)) + 3)
    rows = {s: form_row(arr, s, points) for s in subsets}
    echelon = Echelon()
    if not all(echelon.add(rows[s]) for s in nbc):
        raise ValueError(f"degree {p}: nbc rows are dependent")
    return rank(list(rows.values())), {s: echelon.coords(rows[s]) for s in subsets}


def rank_report(arr: WeightedArrangement, subset):
    """(coefficient rank, consistent, general position) of a subset, from
    the ranks of its b-rows and of its rows (b, b0)."""
    coeff_rank = rank([list(arr.hyperplanes[j].b) for j in subset])
    consistent = rank([[*arr.hyperplanes[j].b, arr.hyperplanes[j].b0]
                       for j in subset]) == coeff_rank
    return coeff_rank, consistent, consistent and coeff_rank == len(subset)


def closure(arr: WeightedArrangement, subset) -> frozenset:
    """Hyperplanes containing the stratum of a consistent subset: those
    whose row (b, b0) leaves the rank of the subset's rows unchanged."""
    rows = [[*arr.hyperplanes[j].b, arr.hyperplanes[j].b0] for j in subset]
    base = rank(rows)
    return frozenset(j for j, h in enumerate(arr.hyperplanes)
                     if rank(rows + [[*h.b, h.b0]]) == base)


def flag_vector(arr: WeightedArrangement, indices, flat) -> tuple:
    """Dual coordinates of the flag of an ordered general-position tuple:
    a basis monomial pairs to the sign of the first of its orderings whose
    prefix closures are the tuple's chain of strata, and to 0 if none is.
    flat(subset) gives the closures, such as closure(arr, subset) looked
    up from a table."""
    target = [flat(indices[: q + 1]) for q in range(len(indices))]
    coords = []
    for s in arr.basis(len(indices)):
        value = Fraction(0)
        for perm in itertools.permutations(range(len(s))):
            ordered = [s[i] for i in perm]
            if all(flat(ordered[: q + 1]) == f for q, f in enumerate(target)):
                value = Fraction(sort_with_sign(perm)[1])
                break
        coords.append(value)
    return tuple(coords)


def straighten(arr: WeightedArrangement, monomial) -> dict:
    """straighten_coords of the monomial, keyed by basis monomial."""
    basis = arr.basis(len(monomial))
    return {basis[i]: c for i, c in straighten_coords(arr, monomial).items()}


def pairing(arr: WeightedArrangement, eta: dict, flag):
    """Pairing of an element {monomial: coefficient} of A^p with a flag of
    degree p: the sum of each coefficient times its monomial_pairing."""
    check_length(flag, arr.basis(flag.degree))
    return sum((c * monomial_pairing(arr, s, flag) for s, c in eta.items()), start=Fraction(0))


def dense(coords: dict, size: int) -> list:
    """The full coordinate list of sparse coordinates {basis index: value}."""
    return [coords.get(i, Fraction(0)) for i in range(size)]


def _dense_top(arr: WeightedArrangement):
    """(exponent product, coordinates over the top basis) of each
    general-position k-subset whose exponent product is nonzero."""
    size = len(arr.basis(arr.ambient_dim))
    for subset in arr.candidate_monomials(arr.ambient_dim):
        prod = math.prod(arr.exponents[j] for j in subset)
        if prod != 0:
            yield prod, dense(arr.basis_coords(subset), size)


def shapovalov_form(arr: WeightedArrangement, f1, f2):
    total = Fraction(0)
    for prod, coords in _dense_top(arr):
        total = total + prod * dot(coords, f1.coords) * dot(coords, f2.coords)
    return total


def shapovalov_map(arr: WeightedArrangement, flag) -> dict:
    basis = arr.basis(arr.ambient_dim)
    out = [Fraction(0)] * len(basis)
    for prod, coords in _dense_top(arr):
        p = dot(coords, flag.coords)
        if p == 0:
            continue
        for i, c in enumerate(coords):
            out[i] = out[i] + prod * p * c
    return {s: c for s, c in zip(basis, out) if c != 0}


def special_pairing(arr: WeightedArrangement, t1, t2):
    values1, values2 = arr.evaluate_all(t1), arr.evaluate_all(t2)
    total = Fraction(0)
    for subset, d in arr.top_minors().items():
        term = d * d
        for j in subset:
            term = term * arr.exponents[j] / (values1[j] * values2[j])
        total = total + term
    return total


def has_vertex(k: int, hyperplanes) -> bool:
    """True if some k of the hyperplanes are in general position: a scan of
    the k-subsets in lex order for one whose normals have rank k (k such
    equations are consistent)."""
    return any(rank([list(hyperplanes[j].b) for j in subset]) == k
               for subset in itertools.combinations(range(len(hyperplanes)), k))


def symmetric_group(k: int):
    """All coordinate permutations of {0..k-1}."""
    return [tuple(p) for p in itertools.permutations(range(k))]


def sl2_shapovalov_diagonal(m: int) -> list:
    """S(F^p v, F^p v) for p = 0..m on the irreducible module of highest
    weight m: e F^q v = q (m - q + 1) F^(q-1) v gives each value from the
    one before."""
    out = [Fraction(1)]
    for q in range(1, m + 1):
        out.append(out[-1] * q * (m - q + 1))
    return out


def _chain_factor(t, block, z_s):
    """1/((t_{a1}-t_{a2})...(t_{a_{j-1}}-t_{a_j})(t_{a_j}-z_s)) for a block of
    0-based variable indices; an empty block contributes 1."""
    denom = Fraction(1) if not block else t[block[-1]] - z_s
    for a, b in zip(block, block[1:]):
        denom = denom * (t[a] - t[b])
    return 1 / denom


def canonical_weight_function(p: GaudinProblem, t) -> TensorVector:
    """omega(z, t): for each composition I, the sum over permutations sigma
    of the variables of the product of per-slot chain fractions, slot s
    taking its block of j_s variables in sigma-order."""
    basis = tuple(weight_basis(p))
    coords = []
    for comp in basis:
        bounds = list(itertools.accumulate(comp, initial=0))
        total = Fraction(0)
        for sigma in itertools.permutations(range(p.k)):
            term = Fraction(1)
            for s in range(p.n):
                term = term * _chain_factor(t, sigma[bounds[s]:bounds[s + 1]], p.z[s])
            total = total + term
        coords.append(total)
    return TensorVector(basis, tuple(coords))


def flag_action(arr: WeightedArrangement, action, idx: int, flag) -> FlagVector:
    """R_g on top-degree dual coordinates as a matrix: the transpose of the
    A^k matrix of g^-1, whose columns are the straightened images of the
    basis monomials.  g^-1 must be in the group."""
    sigma = action.perms[idx]
    inverse = tuple(sorted(range(len(sigma)), key=sigma.__getitem__))
    pi = action.hyperplane_perms[action.perms.index(inverse)]
    basis = arr.basis(arr.ambient_dim)
    os_matrix = linalg.transpose([dense(straighten_coords(arr, tuple(pi[m] for m in s)),
                                        len(basis)) for s in basis])
    return FlagVector(flag.degree, tuple(mat_vec(linalg.transpose(os_matrix),
                                                 list(flag.coords))))


def monomial_pairing(arr: WeightedArrangement, monomial, flag):
    """Pairing of an arbitrary (possibly non-basis) monomial with a flag
    vector, through straightening."""
    if len(monomial) != flag.degree:
        raise ValueError("degree mismatch in pairing")
    check_length(flag, arr.basis(flag.degree))
    return sparse_dot(straighten_coords(arr, monomial), flag.coords)


def apply_flag_action(arr: WeightedArrangement, action, idx: int, flag) -> FlagVector:
    """R_g on dual coordinates: (R_g F)_S pairs F with e_{pi^-1(S)}, pi the
    hyperplane permutation of g, so the duality pairing is invariant."""
    pi = action.hyperplane_perms[idx]
    inverse = tuple(sorted(range(len(pi)), key=pi.__getitem__))
    return FlagVector(flag.degree, tuple(monomial_pairing(arr, tuple(inverse[j] for j in s), flag)
                                         for s in arr.basis(flag.degree)))


def isotypic_project(arr: WeightedArrangement, action, flag) -> FlagVector:
    """(1/|G|) sum_g chi(g) R_g F, with R_g the matrix action flag_action."""
    total = [Fraction(0)] * len(flag.coords)
    for idx in range(len(action)):
        image = flag_action(arr, action, idx, flag)
        total = [x + action.chi(idx) * y for x, y in zip(total, image.coords)]
    return FlagVector(flag.degree, tuple(x / len(action) for x in total))


def log_grad(arr: WeightedArrangement, t):
    """Gradient of ln Phi: component i = sum_j a_j b^i_j / f_j(t)."""
    if arr.contains_point(t):
        raise ValueError("point on arrangement")
    values = arr.evaluate_all(t)
    out = []
    for i in range(arr.ambient_dim):
        out.append(sum(
            (a * h.b[i] / v for h, a, v in zip(arr.hyperplanes, arr.exponents, values)
             if h.b[i] != 0 and a != 0),
            start=Fraction(0),
        ))
    return out


def log_hessian(arr: WeightedArrangement, t):
    """Hessian of ln Phi: entry (i,l) = -sum_j a_j b^i_j b^l_j / f_j(t)^2,
    filled on and above the diagonal and mirrored."""
    if arr.contains_point(t):
        raise ValueError("point on arrangement")
    values = arr.evaluate_all(t)
    k = arr.ambient_dim
    mat = [[Fraction(0)] * k for _ in range(k)]
    for h, a, v in zip(arr.hyperplanes, arr.exponents, values):
        if a == 0:
            continue
        w = a / (v * v)
        for i in range(k):
            if h.b[i] == 0:
                continue
            for l in range(i, k):
                if h.b[l] != 0:
                    mat[i][l] = mat[i][l] - w * h.b[i] * h.b[l]
    for i in range(k):
        for l in range(i + 1, k):
            mat[l][i] = mat[i][l]
    return mat


def evaluate_form(arr: WeightedArrangement, subset, t):
    """u_S(t) = det(b-rows of S) / prod f_j(t): the coefficient of the top
    logarithmic form of a k-subset against dt_1^...^dt_k."""
    subset = tuple(subset)
    if len(subset) != arr.ambient_dim:
        raise ValueError("evaluate_form needs a top-degree subset")
    values = [arr.hyperplanes[j].evaluate(t) for j in subset]
    for v in values:
        if (v == 0) if isinstance(v, (int, Fraction)) else abs(complex(v)) < 1e-14:
            raise ValueError("point on arrangement")
    ordered, sign = sort_with_sign(subset)
    d = sign * arr.top_minors().get(ordered, Fraction(0))
    return d / math.prod(values, start=Fraction(1))


def apply_delta(arr: WeightedArrangement, flag) -> FlagVector:
    """delta F: delta_F_matrix at the flag's degree times its coordinates."""
    m = delta_F_matrix(arr, flag.degree)
    return FlagVector(flag.degree - 1, tuple(mat_vec(m, list(flag.coords))))


def point_values(arr: WeightedArrangement, t) -> dict:
    """The values the rows of `bethearr verify` read at one point, each
    computed on its own: the vectors delta v(t) and v(t), the gradient of
    ln Phi and S(v(t), v(t)), exact at rational input."""
    k = arr.ambient_dim
    v = FlagVector(k, tuple(evaluate_form(arr, s, t) for s in arr.basis(k)))
    return {"delta_v": list(apply_delta(arr, v).coords), "v": list(v.coords),
            "grad": log_grad(arr, t), "norm": library_shapovalov_form(arr, v, v)}


def _vanishes(x) -> bool:
    """x is zero, or within 1e-12 of it when inexact."""
    return x == 0 or (not isinstance(x, (int, Fraction)) and abs(complex(x)) < 1e-12)


def bethe_residual(p: GaudinProblem, t):
    """Left-hand sides of the Bethe equations, one per variable t_i:
    sum_s -(alpha_c(i), Lambda_s) / (t_i - z_s)
    + sum_{j != i} (alpha_c(i), alpha_c(j)) / (t_i - t_j),
    identically log_grad of build_discriminantal at t."""
    k = p.k
    if len(t) != k:
        raise ValueError("wrong number of coordinates")
    out = []
    for i in range(k):
        total = Fraction(0)
        for s in range(p.n):
            denom = t[i] - p.z[s]
            if _vanishes(denom):
                raise ValueError(f"t_{i+1} collides with z_{s+1}")
            total = total - p.cartan.weight_pairing(p.level(i), p.weights[s]) / denom
        for j in range(k):
            if j == i:
                continue
            pairing = p.cartan.bilinear(p.level(i), p.level(j))
            if pairing == 0:
                continue
            denom = t[i] - t[j]
            if _vanishes(denom):
                raise ValueError(f"t_{i+1} collides with t_{j+1}")
            total = total + pairing / denom
        out.append(total)
    return out
