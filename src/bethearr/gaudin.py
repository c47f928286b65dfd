"""Gaudin-model application of the arrangement machinery.

Discriminantal arrangements compile from Lie-algebra data for any Cartan
datum; module-level objects (weight-space bases, Hamiltonians, the canonical
weight function, the tensor Shapovalov form S_V, whose Gram matrices are
shapovalov.gram since it is diagonal on the weight basis) are implemented
for sl2, where every module is a string F^p v, p = 0..m.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Real

import numpy as np

from . import linalg
from .arrangement import Hyperplane, WeightedArrangement
from .master import hess_det, point_key
from .osflag import FlagVector, chain_pairing
from .scalars import (Scalar, format_scalar, parse_scalar, scalar_abs, to_int,
                      to_rational, vanishes)
from .shapovalov import gram
from .special import (check, full_symmetric_action, isotypic_values, norm_row,
                      orthogonality_row, permutation_sign)


@dataclass(frozen=True)
class CartanDatum:
    """Cartan matrix with symmetrizers; bilinear(i, j) = d_i a_{ij}."""

    rank: int
    a: tuple
    d: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(tuple(row) for row in self.a))
        object.__setattr__(self, "d", tuple(self.d))
        if len(self.a) != self.rank or any(len(row) != self.rank for row in self.a):
            raise ValueError("Cartan matrix shape does not match rank")
        if len(self.d) != self.rank:
            raise ValueError("need one symmetrizer per simple root")
        for i in range(self.rank):
            if self.a[i][i] != 2:
                raise ValueError("Cartan matrix diagonal must be 2")
            if self.d[i] <= 0:
                raise ValueError("symmetrizers must be positive")
            for j in range(self.rank):
                if self.d[i] * self.a[i][j] != self.d[j] * self.a[j][i]:
                    raise ValueError("symmetrized Cartan matrix is not symmetric")

    def bilinear(self, i: int, j: int):
        """(alpha_i, alpha_j)."""
        return self.d[i] * self.a[i][j]

    def weight_pairing(self, i: int, coroot_values):
        """(alpha_i, Lambda) for Lambda given by its coroot values."""
        return self.d[i] * coroot_values[i]

    @classmethod
    def sl2(cls) -> "CartanDatum":
        return cls(rank=1, a=((2,),), d=(Fraction(1),))


@dataclass(frozen=True)
class GaudinProblem:
    """Weights at marked points plus a root multiplicity vector.

    weights[s] lists the coroot values of Lambda_s; kvec[i] counts the
    variables attached to simple root alpha_{i+1}.  The marked points z are
    rational (scalars.to_rational), since they are coefficients of the
    discriminantal arrangement.
    """

    cartan: CartanDatum
    weights: tuple
    kvec: tuple
    z: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(tuple(w) for w in self.weights))
        object.__setattr__(self, "kvec", tuple(self.kvec))
        object.__setattr__(self, "z", tuple(map(to_rational, self.z)))
        for w in self.weights:
            if len(w) != self.cartan.rank:
                raise ValueError("each weight needs one coroot value per simple root")
        if len(self.kvec) != self.cartan.rank:
            raise ValueError("k vector length must equal the rank")
        if any(k < 0 or k != int(k) for k in self.kvec):
            raise ValueError("k entries must be nonnegative integers")
        object.__setattr__(self, "kvec", tuple(map(int, self.kvec)))
        if len(self.z) != len(self.weights):
            raise ValueError("need one marked point per weight")
        if len(set(self.z)) != len(self.z):
            raise ValueError("marked points must be distinct")

    @property
    def n(self) -> int:
        return len(self.z)

    @property
    def k(self) -> int:
        return int(sum(self.kvec))

    def level(self, i: int) -> int:
        """c(i): the simple-root index of variable t_{i+1} under the unique
        non-decreasing level function (0-based on both sides)."""
        total = 0
        for root, count in enumerate(self.kvec):
            total += count
            if i < total:
                return root
        raise IndexError(f"variable index {i} out of range 0..{self.k - 1}")

    @cached_property
    def is_sl2(self) -> bool:
        """Rank one with every highest weight a nonnegative integer; a
        complex weight is not sl2 data, even with zero imaginary part."""
        return self.cartan.rank == 1 and all(
            isinstance(w[0], Real) and w[0] >= 0 and w[0] == int(w[0])
            for w in self.weights
        )

    def sl2_highest_weights(self) -> tuple:
        if not self.is_sl2:
            raise ValueError("module-level operations require sl2 data")
        return tuple(int(w[0]) for w in self.weights)

    @cached_property
    def k_factorials(self) -> int:
        """k_1!...k_r!, the normalization of the composition flags."""
        return math.prod(map(math.factorial, self.kvec))

    @cached_property
    def arrangement(self) -> WeightedArrangement:
        """build_discriminantal(self), built on first use."""
        return build_discriminantal(self)

    @cached_property
    def shapovalov_weights(self) -> dict:
        """{composition: module_shapovalov_value}, in weight_basis order."""
        return {comp: module_shapovalov_value(self, comp) for comp in weight_basis(self)}

    @cached_property
    def eigenvalue_constants(self) -> tuple:
        """lambda_s = sum_{u != s} m_s m_u / (2 (z_s - z_u)): the eigenvalue
        of K_s on v, the constant term of bethe_eigenvalue."""
        m = self.sl2_highest_weights()
        return tuple(sum((Fraction(m[s] * m[u], 2) / (self.z[s] - self.z[u])
                          for u in range(self.n) if u != s), start=Fraction(0))
                     for s in range(self.n))

    @cached_property
    def raising(self) -> list:
        """raising_matrix(self), built on first use."""
        return raising_matrix(self)

    @cached_property
    def singular_vectors(self) -> list:
        """An exact basis of Sing V[Lambda - k alpha], the kernel of
        raising; all of the weight space at k = 0."""
        return linalg.nullspace(self.raising if self.k else [], len(weight_basis(self)))

    @cached_property
    def hamiltonians(self) -> list:
        """The K_s of gaudin_hamiltonian as complex arrays, built on first use."""
        return [np.array(gaudin_hamiltonian(self, s), dtype=complex) for s in range(self.n)]

    # -- JSON ----------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "cartan": {
                "rank": self.cartan.rank,
                "A": [list(row) for row in self.cartan.a],
                "d": [format_scalar(x) for x in self.cartan.d],
            },
            "weights": [[format_scalar(x) for x in w] for w in self.weights],
            "k": list(self.kvec),
            "z": [format_scalar(x) for x in self.z],
        }

    @classmethod
    def from_json(cls, data: dict) -> "GaudinProblem":
        try:
            c = data["cartan"]
            rank = to_int(c["rank"])
            cartan = CartanDatum(
                rank=rank,
                a=tuple(tuple(to_int(x) for x in row) for row in c["A"]),
                d=tuple(parse_scalar(x) for x in c.get("d", [1] * rank)),
            )
            weights = tuple(tuple(parse_scalar(x) for x in w) for w in data["weights"])
            kvec = tuple(to_int(x) for x in data["k"])
            z = tuple(parse_scalar(x) for x in data["z"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed Gaudin problem JSON: {exc}") from exc
        return cls(cartan, weights, kvec, z)


# -- discriminantal arrangement ---------------------------------------------


def point_hyperplane_index(p: GaudinProblem, i: int, s: int) -> int:
    """Index of the hyperplane t_{i+1} - z_{s+1} in build_discriminantal."""
    return i * p.n + s


def build_discriminantal(p: GaudinProblem) -> WeightedArrangement:
    """The discriminantal arrangement of the problem in C^k.

    Hyperplanes t_i - z_s carry exponent -(alpha_{c(i)}, Lambda_s) and the
    diagonals t_i - t_j carry (alpha_{c(i)}, alpha_{c(j)}): the exponents
    of the master-function product, so log_grad of the result is the Bethe
    system.
    """
    k = p.k
    if k == 0:
        raise ValueError("k = 0 has no discriminantal arrangement")
    hyperplanes = []
    exponents = []
    for i in range(k):
        for s in range(p.n):
            b = [Fraction(0)] * k
            b[i] = Fraction(1)
            hyperplanes.append(Hyperplane(-p.z[s], tuple(b), label=f"t{i+1}-z{s+1}"))
            exponents.append(-p.cartan.weight_pairing(p.level(i), p.weights[s]))
    for i, j in itertools.combinations(range(k), 2):
        b = [Fraction(0)] * k
        b[i] = Fraction(1)
        b[j] = Fraction(-1)
        hyperplanes.append(Hyperplane(Fraction(0), tuple(b), label=f"t{i+1}-t{j+1}"))
        exponents.append(p.cartan.bilinear(p.level(i), p.level(j)))
    return WeightedArrangement(k, hyperplanes, exponents)


# -- sl2 modules and the weight space ---------------------------------------


def _compositions(m, k) -> list[tuple]:
    """Compositions (j_1..j_n) of k with 0 <= j_s <= m_s, in lex order."""
    if not m:
        return [()] if k == 0 else []
    return [(j, *tail) for j in range(min(m[0], k) + 1) for tail in _compositions(m[1:], k - j)]


def weight_basis(p: GaudinProblem) -> list[tuple]:
    """The compositions of k bounded by the highest weights m_s, lex order:
    the basis F_I v of the weight space V[Lambda - k alpha]."""
    return _compositions(p.sl2_highest_weights(), p.k)


@dataclass(frozen=True)
class TensorVector:
    """Vector in the weight space, coordinates over the weight_basis order."""

    basis: tuple
    coords: tuple


def canonical_weight_function(p: GaudinProblem, t) -> TensorVector:
    """omega(z, t) on the F_I v basis.  Symmetrizing one slot's chain gives
    sum_sigma 1/((t_sigma1 - t_sigma2)...(t_sigmaj - z)) = prod_i 1/(t_i - z)
    (Schechtman-Varchenko), so omega_I sums prod_i 1/(t_i - z_slot(i)) over
    the assignments of the variables to slots with j_s of them in slot s.
    The sum is built one variable at a time, keyed by partial composition.
    A point with t_i = z_s raises ValueError; omega is regular on the
    diagonals t_i = t_j."""
    m = p.sl2_highest_weights()
    if len(t) != p.k:
        raise ValueError("wrong number of coordinates")
    partial = {(0,) * p.n: Fraction(1)}
    for i, ti in enumerate(t):
        inverses = []
        for s, zs in enumerate(p.z):
            if vanishes(ti - zs):
                raise ValueError(f"t_{i+1} collides with z_{s+1}")
            inverses.append(1 / (ti - zs))
        grown = {}
        for comp, value in partial.items():
            for s, inverse in enumerate(inverses):
                if comp[s] < m[s]:
                    key = comp[:s] + (comp[s] + 1,) + comp[s + 1:]
                    grown[key] = grown.get(key, 0) + value * inverse
        partial = grown
    basis = tuple(p.shapovalov_weights)
    return TensorVector(basis, tuple(partial[comp] for comp in basis))


def tensor_shapovalov(p: GaudinProblem, x: TensorVector, y: TensorVector) -> Scalar:
    """S = S_1 x ... x S_n, diagonal on the weight basis; x and y must be on it."""
    weights = p.shapovalov_weights
    if not x.basis == y.basis == tuple(weights):
        raise ValueError("basis mismatch")
    total = Fraction(0)
    for w, xc, yc in zip(weights.values(), x.coords, y.coords, strict=True):
        if xc != 0 and yc != 0:
            total = total + w * xc * yc
    return total


def module_shapovalov_value(p: GaudinProblem, comp) -> int:
    """S_V(F_I v, F_I v) = prod_s j_s! m_s!/(m_s - j_s)! for the composition
    I = (j_1..j_n) (off-diagonal pairs vanish); 0 when some j_s > m_s, since
    then F^j_s v = 0."""
    m = p.sl2_highest_weights()
    if len(comp) != p.n:
        raise ValueError(f"composition {tuple(comp)} has {len(comp)} slots, not {p.n}")
    return math.prod(math.factorial(j) * math.perm(ms, j) for ms, j in zip(m, comp))


def raising_matrix(p: GaudinProblem):
    """Matrix of e_total from the weight space of degree k to degree k-1
    (rows indexed by the degree-(k-1) basis)."""
    m = p.sl2_highest_weights()
    src, dst = weight_basis(p), _compositions(m, p.k - 1)
    pos = {comp: i for i, comp in enumerate(dst)}
    mat = [[0] * len(src) for _ in dst]
    for col, comp in enumerate(src):
        for s in range(p.n):
            j = comp[s]
            if j == 0:
                continue
            image = tuple(j - 1 if q == s else comp[q] for q in range(p.n))
            mat[pos[image]][col] = mat[pos[image]][col] + Fraction(j * (m[s] - j + 1))
    return mat


def singular_dimension(p: GaudinProblem) -> int:
    """dim Sing V[Lambda - k alpha]: kernel of the raising operator."""
    return len(p.singular_vectors)


def gaudin_hamiltonian(p: GaudinProblem, i: int):
    """Matrix of K_i = sum_{j != i} Omega^(i,j) / (z_i - z_j) on the weight
    basis, with Omega = e x f + f x e + h x h / 2."""
    m = p.sl2_highest_weights()
    basis = weight_basis(p)
    pos = {comp: idx for idx, comp in enumerate(basis)}
    size = len(basis)
    mat = [[0] * size for _ in range(size)]
    for col, comp in enumerate(basis):
        for j in range(p.n):
            if j == i:
                continue
            w = 1 / (p.z[i] - p.z[j])
            # e x f + f x e: one F moves from slot a to slot b, within the weight basis
            for a, b in ((i, j), (j, i)):
                if comp[a] > 0 and comp[b] < m[b]:
                    img = list(comp)
                    img[a] -= 1
                    img[b] += 1
                    mat[pos[tuple(img)]][col] += w * comp[a] * (m[a] - comp[a] + 1)
            # h x h / 2
            mat[col][col] += w * Fraction(m[i] - 2 * comp[i]) * (m[j] - 2 * comp[j]) / 2
    return mat


def bethe_roots(p: GaudinProblem) -> list[tuple]:
    """Approximate Bethe roots, one sorted tuple per orbit of critical
    points, read off the spectrum of the Hamiltonians on Sing V[Lambda - k
    alpha] (Scherbak-Varchenko; Mukhin-Tarasov-Varchenko).

    The K_s preserve Sing, the kernel of raising_matrix.  Each eigenvector
    of a fixed generic combination of them gives eigenvalues E_s (Rayleigh
    quotients), and y(x) = prod (x - t_i) is the degree-k solution of
    Z y'' - Q y' + V y = 0 with Z = prod (x - z_s), Q = sum m_s Z/(x - z_s)
    and V = -sum (E_s - lambda_s) Z/(x - z_s), lambda_s the constant term of
    bethe_eigenvalue.  An eigenvector whose solution space is not clearly
    one-dimensional (a repeated eigenvalue mixes Bethe vectors) gives no
    tuple.  The roots are accurate to rounding; newton_solve polishes them.
    """
    if p.k == 0:
        return [()]
    m = p.sl2_highest_weights()
    if not p.singular_vectors:
        return []
    basis, _ = np.linalg.qr(np.array(p.singular_vectors, dtype=complex).T)
    restricted = [basis.conj().T @ h @ basis for h in p.hamiltonians]
    # coefficients outside span(1, z): sum K_s vanishes and sum z_s K_s is scalar on Sing
    mix = sum(math.cos(s + 1) * h for s, h in enumerate(restricted))
    z = [complex(x) for x in p.z]
    lam = list(map(complex, p.eigenvalue_constants))
    # coefficients from x^0 up: Z, Q and Z / (x - z_s)
    zpoly = np.polynomial.polynomial.polyfromroots(z)
    others = [np.polynomial.polynomial.polyfromroots(z[:s] + z[s + 1:]) for s in range(p.n)]
    qpoly = sum(ms * c for ms, c in zip(m, others))
    roots = []
    for vec in np.linalg.eig(mix)[1].T:
        energy = [np.vdot(vec, h @ vec) / np.vdot(vec, vec) for h in restricted]
        # the x^(n-1) coefficient, -sum (E_s - lambda_s), is zero up to rounding
        vpoly = -sum((e - l) * c for e, l, c in zip(energy, lam, others))[:-1]
        # column j: Z (x^j)'' - Q (x^j)' + V x^j, all of degree <= n + k - 2
        ode = np.zeros((p.n + p.k - 1, p.k + 1), dtype=complex)
        for j in range(p.k + 1):
            ode[j:j + p.n - 1, j] += vpoly
            if j >= 1:
                ode[j - 1:j + p.n - 1, j] -= j * qpoly
            if j >= 2:
                ode[j - 2:j + p.n - 1, j] += j * (j - 1) * zpoly
        s, vh = np.linalg.svd(ode)[1:]
        if not s[-1] <= 1e-8 * s[0] < s[-2]:
            continue
        roots.append(tuple(sorted(map(complex, np.roots(vh[-1].conj()[::-1])),
                                  key=lambda x: (x.real, x.imag))))
    return sorted(roots, key=point_key)


# -- flags of the discriminantal arrangement ---------------------------------


def _composition_pairings(p: GaudinProblem, arr: WeightedArrangement, comp) -> dict:
    """{S: k_1!...k_r! <e_S, f_I>} over sorted top subsets S, zeros
    dropped: the chain_pairing of each ordering sigma of the variables,
    signed and summed.  Slot s takes its block of variables in sigma-order,
    each with the hyperplane t_. - z_s.
    ValueError unless I is a composition of k into n nonnegative slots."""
    comp = tuple(comp)
    if len(comp) != p.n or sum(comp) != p.k or any(j < 0 for j in comp):
        raise ValueError(f"{comp} is not a composition of k = {p.k} into {p.n} slots")
    slots = [s for s, j in enumerate(comp) for _ in range(j)]
    total = {}
    for sigma in itertools.permutations(range(p.k)):
        sign = permutation_sign(sigma)
        indices = [point_hyperplane_index(p, i, s) for i, s in zip(sigma, slots)]
        for s, value in chain_pairing(arr, indices).items():
            total[s] = total.get(s, 0) + sign * value
    return {s: value for s, value in total.items() if value}


def composition_flag(p: GaudinProblem, arr: WeightedArrangement, comp) -> FlagVector:
    """f_I: the skew-symmetrized flag of the composition I, normalized by
    1/(k_1!...k_r!), over basis(k) (_composition_pairings)."""
    total = _composition_pairings(p, arr, comp)
    return FlagVector(p.k, tuple(Fraction(total.get(s, 0), p.k_factorials)
                                 for s in arr.basis(p.k)))


# -- verification reports -----------------------------------------------------


def bethe_eigenvalue(p: GaudinProblem, t, s: int):
    """Eigenvalue of K_s on the Bethe vector of a critical point t,
    d log Phi / d z_s (Reshetikhin-Varchenko):
    sum_{u != s} m_s m_u / (2 (z_s - z_u)) + sum_i m_s / (t_i - z_s)."""
    m = p.sl2_highest_weights()
    return p.eigenvalue_constants[s] + sum(m[s] / (ti - p.z[s]) for ti in t)


def _weight_function_columns(p: GaudinProblem, points, dtype=None):
    """(w, s) for shapovalov.gram: omega(t) of each point as a column of w,
    and the S_V weights s; the dtype is numpy's for omega unless given."""
    weights = p.shapovalov_weights
    w = np.array([canonical_weight_function(p, t).coords for t in points],
                 dtype=dtype).reshape(len(points), len(weights)).T
    return w, np.array(list(weights.values()), dtype=w.dtype)


def verify_bethe(p: GaudinProblem, points, tol=1e-8) -> list[dict]:
    """Report rows for the Bethe vectors omega(t) of critical points t, one
    point per orbit.  For each point: omega is singular, has norm equal to
    the log-Hessian determinant of the master function, is an eigenvector
    of every Hamiltonian with the closed-form eigenvalue (lhs is the
    Rayleigh quotient) and is orthogonal to the omega of every other point.
    A last row, present even with no points, passes only when their Gram
    matrix (one shapovalov.gram) has rank len(points) == dim Sing V: a
    complete Bethe basis.  For k = 0 the only Bethe vector is omega = v,
    and the one row checks S(v, v) = 1."""
    if p.k == 0:
        omega = canonical_weight_function(p, ())
        norm = tensor_shapovalov(p, omega, omega)
        return [check("trivial_norm", norm, Fraction(1), abs(complex(norm) - 1), norm == 1)]
    raising = np.array(p.raising, dtype=complex)
    omegas, weights = _weight_function_columns(p, points, complex)
    values = gram(omegas, weights, omegas).tolist()
    rows = []
    for idx, t in enumerate(points):
        w = omegas[:, idx]
        wnorm = float(np.linalg.norm(w))
        if wnorm == 0.0:
            raise ValueError("weight function vanished at the given point")
        singular_err = float(np.linalg.norm(raising @ w)) / wnorm
        rows.append(check(f"bethe_singular_{idx}", singular_err, 0.0, singular_err,
                          singular_err <= tol))
        rows.append(norm_row(f"bethe_norm_{idx}", values[idx][idx],
                             complex(hess_det(p.arrangement, tuple(t))), tol))
        for s, mat in enumerate(p.hamiltonians):
            kw = mat @ w
            rayleigh = complex(np.vdot(w, kw) / np.vdot(w, w))
            lam = bethe_eigenvalue(p, t, s)
            err = float(np.linalg.norm(kw - complex(lam) * w)) / wnorm
            rows.append(check(f"bethe_eigenvector_{idx}_K{s + 1}", rayleigh, lam, err,
                              err <= tol))
        others = [j for j in range(len(points)) if j != idx]
        for o, j in enumerate(others):
            rows.append(orthogonality_row(f"bethe_orthogonality_{idx}_{o}", values, idx, j, tol))
    rank = int(np.linalg.matrix_rank(np.array(values))) if points else 0
    sing_dim = singular_dimension(p)
    rows.append(check("gram_rank_vs_sing_dim", rank, sing_dim, abs(rank - sing_dim),
                      rank == len(points) == sing_dim))
    return rows


def composition_gram(p: GaudinProblem) -> list:
    """S^(a)(f_I, f_J) over the weight_basis compositions, exactly: one gram
    of the integers X_{S,I} = k_1!...k_r! <e_S, f_I> (_composition_pairings)
    on the top subsets S that some f_I reaches (each in general position:
    see chain_pairing), with the exponent products c_S = prod_{j in S} a_j
    times their common denominator, divided once."""
    arr, factor = p.arrangement, p.k_factorials
    columns = [_composition_pairings(p, arr, comp) for comp in weight_basis(p)]
    rows = sorted(set().union(*columns))
    x = np.array([[pairs.get(s, 0) for pairs in columns] for s in rows],
                 dtype=object).reshape(len(rows), len(columns))
    c = [math.prod((arr.exponents[j] for j in s), start=Fraction(1)) for s in rows]
    d = math.lcm(*(v.denominator for v in c))
    g = gram(x, np.array([int(v * d) for v in c], dtype=object), x)
    return [[Fraction(v, d * factor ** 2) for v in row] for row in g.tolist()]


def verify_shap_correspondence(p: GaudinProblem) -> dict:
    """Module Shapovalov values against arrangement flag values:
    S_V(F_I v, F_J v) = (-1)^k factor * S^(a)(f_I, f_J), from composition_gram.
    lhs is the factor read off the first pair where either side is nonzero,
    rhs the expected k_1!...k_r!; every such pair must give exactly it."""
    weights = p.shapovalov_weights
    g = composition_gram(p)
    ratios = []
    for (i, a), (j, b) in itertools.combinations_with_replacement(enumerate(weights), 2):
        module_side = weights[a] if a == b else 0
        arr_side = (-1) ** p.k * g[i][j]
        if arr_side != 0 and module_side != 0:
            ratios.append(module_side / arr_side)
        elif (arr_side == 0) != (module_side == 0):
            ratios.append(None)
    expected = Fraction(p.k_factorials)
    ok = bool(ratios) and all(r == expected for r in ratios)
    return check("shapovalov_correspondence", ratios[0] if ratios else None, expected,
                 0 if ok else 1, ok)


def verify_canonical_element(p: GaudinProblem, t, t2=None, tol=1e-10) -> list[dict]:
    """The coordinates of omega over F_I v against the flag-space pairing
    chain: S_V(omega(t), omega(t')) = (-1)^k k_1!...k_r! S^(a)(v-(t), v-(t'))
    with v- the sign-isotypic projection of the specialization, each side
    one shapovalov.gram (of special.isotypic_values on the right).  One row
    per pair of the points t and t2; abs_err is relative to
    max(|lhs|, |rhs|, 1)."""
    arr = p.arrangement
    action = full_symmetric_action(arr, "sign")
    factor = Fraction(p.k_factorials) * (-1) ** p.k

    points = [tuple(t)] + ([tuple(t2)] if t2 is not None else [])
    omegas, weights = _weight_function_columns(p, points)
    x, c = isotypic_values(arr, action, points)
    module_side, flag_side = gram(omegas, weights, omegas).tolist(), gram(x, c, x).tolist()

    rows = []
    pairs = itertools.combinations_with_replacement(range(len(points)), 2)
    for i, (i1, i2) in enumerate(pairs):
        lhs, rhs = module_side[i1][i2], factor * flag_side[i1][i2]
        err = scalar_abs(lhs - rhs)
        scale = max(scalar_abs(lhs), scalar_abs(rhs), 1.0)
        rows.append(check(f"canonical_element_{i}", lhs, rhs, err / scale, err <= tol * scale))
    return rows
