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
the integer minors, then reduced.

Rank-per-row references for the flats: `rank_report` from two ranks,
`closure` by one rank per hyperplane, and `flag_vector` by a search over
every ordering of each basis monomial for one whose chain of prefix
closures is the tuple's.  The search costs p! chains per monomial.

Dense references for the Shapovalov form and map: every weighted top
subset pairs with the flags by a full dot product of its straightened
coordinates, zeros included (dense() fills in the zeros that the library's
sparse coordinates leave out).

Enumeration references: the vertex test by a scan of the k-subsets, the
canonical weight function by its sum over k! permutations of chain
fractions, and the symmetry action on flags by the transposed matrix of
the inverse element on A^k.

Recursion reference for the sl2 Shapovalov diagonal: S(F^q v, F^q v) from
S(F^(q-1) v, F^(q-1) v), one factor q (m - q + 1) at a time.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from bethearr import linalg
from bethearr.arrangement import WeightedArrangement, sort_with_sign
from bethearr.gaudin import GaudinProblem, TensorVector, weight_basis
from bethearr.osflag import FlagVector, OSElement, straighten_coords


def form_row(arr: WeightedArrangement, subset, points) -> list:
    """Values of the logarithmic form of a sorted monomial: for each point t
    and each column set (i1<...<ip), the minor det(b^{i}_{j}) over the
    product of the f_j(t)."""
    columns = itertools.combinations(range(arr.ambient_dim), len(subset))
    minors = [linalg.det([[arr.hyperplanes[j].b[c] for c in cols] for j in subset])
              for cols in columns]
    row = []
    for t in points:
        denom = math.prod((arr.hyperplanes[j].evaluate(t) for j in subset), start=Fraction(1))
        row.extend(m / denom for m in minors)
    return row


def certificate_rows(arr: WeightedArrangement, p: int) -> list:
    """The certificate rows of the nbc sets at the first N + 3 samples of
    arr.certificate_samples(p), N = len(nbc): for each sample (t, w, _), the
    Fraction sum_I w(I) * form_row(S, [t])[I] over the column sets I,
    divided by the gcd g of the p x p minors of the integer_row normals of
    S, and reduced modulo PRIME."""
    nbc = arr.nbc_sets(p)
    samples = list(itertools.islice(arr.certificate_samples(p), len(nbc) + 3))
    rows = []
    for s in nbc:
        normals = [arr.hyperplanes[j].integer_row()[1:] for j in s]
        g = math.gcd(*(int(linalg.det([[n[c] for c in cols] for n in normals]))
                       for cols in itertools.combinations(range(arr.ambient_dim), p)))
        values = [linalg.dot(w, form_row(arr, s, [t])) / g for t, w, _ in samples]
        rows.append([x.numerator * pow(x.denominator, -1, linalg.PRIME) % linalg.PRIME
                     for x in values])
    return rows


def evaluation_coords(arr: WeightedArrangement, p: int):
    """(rank of the rows of all p-monomials, {sorted p-subset: coordinates
    of its row over the nbc rows}).  Raises ValueError if the nbc rows are
    dependent or some row is outside their span."""
    nbc = arr.nbc_sets(p)
    subsets = list(itertools.combinations(range(arr.n), p))
    points = arr.sample_points(len(arr.candidate_monomials(p)) + 3)
    rows = {s: form_row(arr, s, points) for s in subsets}
    echelon = linalg.Echelon()
    if not all(echelon.add(rows[s]) for s in nbc):
        raise ValueError(f"degree {p}: nbc rows are dependent")
    return linalg.rank(list(rows.values())), {s: echelon.coords(rows[s]) for s in subsets}


def rank_report(arr: WeightedArrangement, subset):
    """(coefficient rank, consistent, general position) of a subset, from
    the ranks of its b-rows and of its rows (b, b0)."""
    coeff_rank = linalg.rank([list(arr.hyperplanes[j].b) for j in subset])
    consistent = linalg.rank([[*arr.hyperplanes[j].b, arr.hyperplanes[j].b0]
                              for j in subset]) == coeff_rank
    return coeff_rank, consistent, consistent and coeff_rank == len(subset)


def closure(arr: WeightedArrangement, subset) -> frozenset:
    """Hyperplanes containing the stratum of a consistent subset: those
    whose row (b, b0) leaves the rank of the subset's rows unchanged."""
    rows = [[*arr.hyperplanes[j].b, arr.hyperplanes[j].b0] for j in subset]
    base = linalg.rank(rows)
    return frozenset(j for j, h in enumerate(arr.hyperplanes)
                     if linalg.rank(rows + [[*h.b, h.b0]]) == base)


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
        total = total + prod * linalg.dot(coords, f1.coords) * linalg.dot(coords, f2.coords)
    return total


def shapovalov_map(arr: WeightedArrangement, flag) -> OSElement:
    basis = arr.basis(arr.ambient_dim)
    out = [Fraction(0)] * len(basis)
    for prod, coords in _dense_top(arr):
        p = linalg.dot(coords, flag.coords)
        if p == 0:
            continue
        for i, c in enumerate(coords):
            out[i] = out[i] + prod * p * c
    return OSElement(arr.ambient_dim, {s: c for s, c in zip(basis, out) if c != 0})


def has_vertex(k: int, hyperplanes) -> bool:
    """True if some k of the hyperplanes are in general position: a scan of
    the k-subsets in lex order for one whose normals have rank k (k such
    equations are consistent)."""
    return any(linalg.rank([list(hyperplanes[j].b) for j in subset]) == k
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
    return FlagVector(flag.degree, tuple(linalg.mat_vec(linalg.transpose(os_matrix),
                                                        list(flag.coords))))
