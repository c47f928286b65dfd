"""Weighted affine hyperplane arrangements and their combinatorics.

An arrangement is a finite ordered list of affine hyperplanes in C^k with
rational coefficients and an exponent attached to each hyperplane.  Ranks
and circuits come from exact rational linear algebra.  The basis of each
degree A^p of the Orlik-Solomon algebra is the set of nbc monomials, and any
other monomial straightens onto it by the circuit relations, with integer
coefficients.  When the order passes the level rule (levels(), which the
discriminantal arrangements pass), the nbc sets are the sets with one
hyperplane from each of p levels, built from the product of the levels
with no circuits pass and no certificate.  Otherwise the values of the
logarithmic forms at sample points certify the basis: with the equations
scaled to integers, their residues modulo a large prime have full rank.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .linalg import sort_with_sign
from .scalars import (Scalar, format_scalar, is_exact, parse_scalar, to_int, to_rational,
                      vanishes)


def _memo(table: str):
    """Decorator: keep a method's result in the instance's dict named table,
    under (method name, *arguments), so that the body, checks included, runs
    only on a miss and a raise keeps nothing.  Callers must not mutate what
    a memoized method returns."""
    def decorate(method):
        @functools.wraps(method)
        def memoized(self, *args):
            memo, key = getattr(self, table), (method.__name__, *args)
            if key not in memo:
                memo[key] = method(self, *args)
            return memo[key]
        return memoized
    return decorate


# _core: what the hyperplanes fix, shared by re-weightings; _own: what needs the exponents
_shared, _own = _memo("_core"), _memo("_own")


def apply_permutation(sigma, t):
    """Coordinate permutation acting on a point: (sigma.t)_{sigma(i)} = t_i."""
    out = [None] * len(t)
    for src, dst in enumerate(sigma):
        out[dst] = t[src]
    return tuple(out)


class CertificateError(RuntimeError):
    """The nbc rows of some degree fall short of full rank modulo each of
    linalg.PRIMES, so the basis certificate cannot decide."""


class NoVertexError(ValueError):
    """The hyperplanes' normals do not span C^k: the arrangement has no vertex."""


@dataclass(frozen=True)
class Hyperplane:
    """Affine hyperplane b0 + b[0]*t_1 + ... + b[k-1]*t_k = 0 with rational
    coefficients; floats are taken at their exact binary value
    (scalars.to_rational), and complex or non-finite ones raise ValueError."""

    b0: Scalar
    b: tuple
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "b0", to_rational(self.b0))
        object.__setattr__(self, "b", tuple(map(to_rational, self.b)))
        if all(x == 0 for x in self.b):
            raise ValueError(f"hyperplane {self.label!r}: coefficient vector is zero")

    def evaluate(self, t):
        return self.b0 + sum(bi * ti for bi, ti in zip(self.b, t))

    def integer_row(self) -> tuple:
        """The row (b0, *b) scaled to coprime integers with the first nonzero
        b entry positive: the same hyperplane and logarithmic form df / f,
        and equal rows exactly for proportional equations."""
        return primitive_row(linalg.integer_row((self.b0, *self.b))[0])


def primitive_row(ints) -> tuple:
    """An integer row (b0, *b) divided by its gcd and signed so that its
    first nonzero b entry is positive: the integer_row of its hyperplane."""
    g = math.gcd(*ints) * (1 if next(x for x in ints[1:] if x) > 0 else -1)
    return tuple(x // g for x in ints)


@dataclass(frozen=True)
class SubsetRankReport:
    subset: tuple
    coeff_rank: int
    consistent: bool
    general_position: bool


class WeightedArrangement:
    """An ordered weighted arrangement; immutable after construction.

    Its tables are memoized: combinatorial data (circuits, bases,
    straightening) in an exponent-free memo shared with every re-weighting
    (with_exponents), data that depends on the exponents per instance.
    """

    def __init__(self, ambient_dim: int, hyperplanes, exponents):
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be positive")
        hyperplanes = list(hyperplanes)
        exponents = list(exponents)
        if len(hyperplanes) != len(exponents):
            raise ValueError("need one exponent per hyperplane")
        for h in hyperplanes:
            if len(h.b) != ambient_dim:
                raise ValueError(f"hyperplane {h.label!r} has wrong dimension")
        self.ambient_dim = ambient_dim
        self.hyperplanes = tuple(hyperplanes)
        self.exponents = tuple(exponents)
        self._core, self._own = {}, {}
        self._check_distinct()
        if not self.has_vertex():
            raise NoVertexError("arrangement has no vertex")
        self.exponent_array(complex)  # exponents that are not numbers raise here

    # -- construction checks ------------------------------------------------

    def _check_distinct(self):
        """ValueError naming the least pair of proportional rows (b, b0)."""
        classes = {}
        for i, row in enumerate(self.integer_rows()):
            classes.setdefault(row, []).append(i)
        pairs = [c[:2] for c in classes.values() if len(c) > 1]
        if pairs:
            i, j = min(pairs)
            raise ValueError(f"hyperplanes {i} and {j} are proportional as projective equations")

    def has_vertex(self) -> bool:
        """Some k hyperplanes meet in a point exactly when the normals b_j
        have rank k: k independent normals give k consistent equations."""
        normals = linalg.Echelon()
        return any(normals.add(row[1:]) and len(normals) == self.ambient_dim
                   for row in self.integer_rows())

    # -- basic properties ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.hyperplanes)

    @_shared
    def integer_rows(self) -> tuple:
        """Hyperplane.integer_row of each hyperplane."""
        return tuple(h.integer_row() for h in self.hyperplanes)

    def evaluate_all(self, t):
        return [h.evaluate(t) for h in self.hyperplanes]

    @_shared
    def equations(self, dtype) -> tuple:
        """(b0, B): the offsets and the normals (n x k) as read-only arrays
        of dtype, float or object (exact)."""
        rows = np.array([[h.b0, *h.b] for h in self.hyperplanes], dtype=dtype)
        rows.setflags(write=False)
        return rows[:, 0], rows[:, 1:]

    @_own
    def exponent_array(self, dtype):
        """The exponents as an array of dtype, complex or object (exact)."""
        return np.array(self.exponents, dtype=dtype)

    def numeric(self):
        """(b0, B, a): equations(float) and exponent_array(complex)."""
        return (*self.equations(float), self.exponent_array(complex))

    @_shared
    def box_radius(self) -> float:
        """2 max(1, |b0_j|, |b^i_j|): the half-width of the multi-start box."""
        b0, B = self.equations(float)
        return 2.0 * float(max(1.0, np.max(np.abs(b0)), np.max(np.abs(B))))

    def at(self, points):
        """(f, B, a): the values f_j(t_i) as an n x len(points) array, the
        normals B (n x k) and the exponents a.  Exact (dtype object, f of
        Fractions) when every coordinate and exponent is rational, else
        from numeric(), with f complex.  ValueError when some f_j(t_i)
        vanishes (scalars.vanishes)."""
        points = list(points)
        if all(map(is_exact, itertools.chain(self.exponents, *points))):
            f = np.array([list(map(Fraction, self.evaluate_all(t))) for t in points],
                         dtype=object).reshape(len(points), self.n).T
            B, a = self.equations(object)[1], self.exponent_array(object)
        else:
            b0, B, a = self.numeric()
            t = np.array(points, dtype=complex).reshape(len(points), self.ambient_dim)
            f = b0[:, None] + B @ t.T
        if vanishes(f).any():
            raise ValueError("point on arrangement")
        return f, B, a

    def contains_point(self, t) -> bool:
        """True if some f_j(t) vanishes (scalars.vanishes)."""
        return any(map(vanishes, self.evaluate_all(t)))

    # -- ranks and circuits -------------------------------------------------

    @_shared
    def _rows(self) -> tuple:
        """integer_rows() in the order (b, b0)."""
        return tuple((*row[1:], row[0]) for row in self.integer_rows())

    def _equations(self, subset) -> linalg.Echelon:
        """One echelon of the integer rows (b, b0) of the subset's
        hyperplanes; the b0 column, last, holds a pivot exactly when they
        have no common point."""
        rows = self._rows()
        return linalg.Echelon(rows[j] for j in subset)

    def rank_report(self, subset) -> SubsetRankReport:
        subset = tuple(subset)
        pivots = self._equations(subset).pivots
        coeff_rank = sum(c < self.ambient_dim for c in pivots)
        consistent = self.ambient_dim not in pivots
        general = consistent and coeff_rank == len(subset)
        return SubsetRankReport(subset, coeff_rank, consistent, general)

    def general_position(self, subset) -> bool:
        """A look-up among the general-position subsets circuits() records."""
        return tuple(sorted(subset)) in self._recorded("general").get(len(subset), ())

    def closure(self, subset) -> frozenset:
        """All hyperplane indices containing the intersection stratum of the
        subset: those whose row (b, b0) the subset's rows span.  The subset
        must have a nonempty intersection."""
        equations = self._equations(subset)
        if self.ambient_dim in equations.pivots:
            raise ValueError(f"subset {tuple(subset)} has empty intersection")
        return frozenset(j for j, row in enumerate(self._rows()) if equations.spans(row))

    @_shared
    def circuits(self) -> list[tuple]:
        """Minimal dependent subsets (2 to k+1 members), by size then lex.  The
        same pass, at most one rank_report per subset, records the
        general-position subsets of each size, in lex order ("candidates") and
        as a set ("general"), and the circuits with a common point
        ("relations"), in circuits order: see _recorded."""
        candidates, general, relations, found = {0: [()]}, {}, [], []
        for size in range(1, self.ambient_dim + 2):
            below = general[size - 1] = set(candidates[size - 1])
            for subset in itertools.combinations(range(self.n), size):
                if not all(f in below for f in itertools.combinations(subset, size - 1)):
                    continue
                report = self.rank_report(subset)
                if report.general_position:
                    candidates.setdefault(size, []).append(subset)
                else:
                    found.append(subset)
                    if report.consistent:
                        relations.append(subset)
        self._core.update(candidates=candidates, general=general, relations=relations)
        return found

    def _recorded(self, table: str):
        """A table of the circuits() pass, which runs if it has not."""
        self.circuits()
        return self._core[table]

    def broken_circuits(self) -> list[tuple]:
        """Sorted tails of the relations; a circuit with empty intersection
        gives no relation in the affine algebra, so no broken circuit."""
        return sorted({c[1:] for c in self._recorded("relations")})

    @_shared
    def levels(self) -> tuple | None:
        """The hyperplane indices of each level 0..k-1 when the order
        satisfies the witness rule, else None.

        The level of a hyperplane is the last coordinate with a nonzero
        entry in its normal.  For each pair i < j of one level L whose
        normals are not proportional, eliminating t_L between their
        integer_rows (scaled as integer_row does) gives the equation of a
        hyperplane through their intersection, of level < L.  The rule: it
        is the row of some hyperplane w < i, the pair's witness.  The
        discriminantal arrangements of gaudin.build_discriminantal satisfy
        it in their own order (w is t_i - z_s or t_i - t_l).

        Then the nbc p-subsets are exactly the p-subsets with one member in
        each of p distinct levels (the arrangement is fiber-type; Falk and
        Randell, Invent. Math. 82 (1985); Bjorner and Ziegler, JCTB 51
        (1991)):
        - Such a subset is in general position: its normals are triangular.
        - Two members of one level are either parallel, so not in general
          position, or a pair whose rows span w's: {w, i, j} is a
          consistent circuit, and (i, j) its broken circuit.
        - Suppose a one-per-level set S contains the broken circuit C - c_0
          of a consistent circuit C = (c_0 < ... < c_m).  The relation of C
          has every coefficient nonzero, so its top level L holds at least
          two members of C; as c_1..c_m have distinct levels, it holds
          exactly c_0 and one c_a.  Their combination in the relation has no
          t_L term, so it is a nonzero multiple of w's row, with w the
          witness of (c_0, c_a).  That gives a relation on
          D = {w} + C - {c_0, c_a}, every proper subset of which is
          independent (C - {c_0, c_a} is, and w cannot be eliminated), so D
          is a consistent circuit with least element w < c_0, broken circuit
          C - {c_0, c_a} inside S, and top level below L.  Repeating this
          reaches a top level 0, whose hyperplanes are all parallel, so no
          two of them lie in a consistent circuit: a contradiction."""
        k, rows = self.ambient_dim, self.integer_rows()
        index = {row: j for j, row in enumerate(rows)}
        levels = [[] for _ in range(k)]
        for j, h in enumerate(self.hyperplanes):
            levels[max(c for c, x in enumerate(h.b) if x)].append(j)

        def witnessed(i, j, L):
            ci, cj = rows[i][1 + L], rows[j][1 + L]
            meet = [cj * x - ci * y for x, y in zip(rows[i], rows[j])]
            return not any(meet[1:]) or index.get(primitive_row(meet), i) < i

        ok = all(witnessed(i, j, L) for L, members in enumerate(levels)
                 for i, j in itertools.combinations(members, 2))
        return tuple(map(tuple, levels)) if ok else None

    @_shared
    def nbc_sets(self, p: int) -> list[tuple]:
        """General-position p-subsets containing no broken circuit, lex order.
        When levels() holds, the product of p distinct levels, sorted, with
        no circuits() pass; otherwise the candidate_monomials(p) with no
        subset among the broken circuits."""
        if not 0 <= p <= self.ambient_dim:
            raise ValueError(f"degree {p} out of range 0..{self.ambient_dim}")
        levels = self.levels()
        if levels is not None:
            return sorted(tuple(sorted(s)) for chosen in itertools.combinations(levels, p)
                          for s in itertools.product(*chosen))
        broken = set(self.broken_circuits())
        sizes = sorted({len(b) for b in broken if len(b) <= p})
        return [s for s in self.candidate_monomials(p)
                if not any(b in broken for r in sizes for b in itertools.combinations(s, r))]

    # -- certified basis and straightening -------------------------------------

    def sample_points(self, count: int) -> list[tuple]:
        """Deterministic rational points in U from a fixed linear-congruential
        sequence, skipping any on a hyperplane: exact points at which tests
        and benchmarks evaluate forms (the basis certificate does not)."""
        points = []
        state = 123456789
        tries = 0
        while len(points) < count:
            tries += 1
            coords = []
            for _ in range(self.ambient_dim):
                state = (1103515245 * state + 12345) % (1 << 31)
                num = state % 4001 - 2000
                den = (state >> 12) % 37 + 1
                coords.append(Fraction(num, den))
            t = tuple(coords)
            if not self.contains_point(t):
                points.append(t)
            if tries > 100 * count + 100:
                raise RuntimeError("could not find enough sample points off the arrangement")
        return points

    def candidate_monomials(self, p: int) -> list[tuple]:
        """General-position p-subsets, lex order, from circuits(); none for p > k."""
        return self._recorded("candidates").get(p, [])

    @_shared
    def top_minors(self) -> dict:
        """det of the b-rows of each general-position k-subset (every other
        k-subset's is zero)."""
        return {s: linalg.det([list(self.hyperplanes[j].b) for j in s])
                for s in self.candidate_monomials(self.ambient_dim)}

    @_shared
    def basis_rows(self) -> list[int]:
        """The position in top_minors() of each basis(k) monomial: the rows of
        shapovalov.top_forms that are the basis top forms."""
        index = {s: i for i, s in enumerate(self.top_minors())}
        return [index[s] for s in self.basis(self.ambient_dim)]

    @_shared
    def top_arrays(self, dtype) -> tuple:
        """(members, d): the subsets of top_minors() as the rows of an int
        array and their minors as an array of dtype."""
        minors = self.top_minors()
        return np.array(list(minors), dtype=int), np.array(list(minors.values()), dtype=dtype)

    def certificate_samples(self, p: int, prime: int = linalg.PRIME):
        """The endless stream of samples (t, w, inv) of the degree-p basis
        certificate modulo prime, drawn from a fixed seed: an integer point t,
        an integer weight w(I) per p-subset I of coordinates, and the
        inverses modulo prime of the values f_j(t) of the integer_rows
        equations.  A point where some f_j(t) is 0 modulo prime is skipped.
        The first point drawn depends on k and prime only."""
        k, rng, eqs = self.ambient_dim, random.Random(1), self.integer_rows()
        while True:
            t = tuple(rng.randrange(prime) for _ in range(k))
            w = tuple(rng.randrange(prime) for _ in range(math.comb(k, p)))
            f = [(e[0] + sum(b * x for b, x in zip(e[1:], t))) % prime for e in eqs]
            if all(f):
                yield t, w, [pow(x, -1, prime) for x in f]

    def evaluation_matrix(self, p: int, prime: int = linalg.PRIME):
        """(nbc_sets(p), rows): an int64 array of residues modulo prime, one
        row per nbc set S and one column for each of the first len(nbc) + 3
        certificate samples (t, w, inv).  With the equations scaled by
        integer_rows, the entry is sum_I w(I) m(I) / prod_{j in S} f_j(t),
        m(I) = det(b^I_S) / g with g the gcd of these minors (so no row
        vanishes just because they are all multiples of the prime): a
        rational combination of the values at t of the logarithmic form of
        S.  So full rank modulo the prime proves the nbc forms independent
        over Q.  The rows are the minors times the weights, one
        linalg.mul_mod per 256 of the C(k, p) subsets I summed modulo the
        prime, times inv[S_q] for each position q, linalg.CHUNK rows at a
        time."""
        nbc, eqs = self.nbc_sets(p), self.integer_rows()
        samples = list(itertools.islice(self.certificate_samples(p, prime), len(nbc) + 3))
        minors = np.empty((len(nbc), math.comb(self.ambient_dim, p)), dtype=np.int64)
        for i, s in enumerate(nbc):
            m = [int(linalg.det([[eqs[j][1 + c] for c in cols] for j in s]))
                 for cols in itertools.combinations(range(self.ambient_dim), p)]
            g = math.gcd(*m)
            minors[i] = [x // g % prime for x in m]
        weights = np.array([w for _, w, _ in samples], dtype=np.int64).T
        inverses = np.array([inv for _, _, inv in samples], dtype=np.int64).T
        members = np.array(nbc, dtype=np.intp).reshape(len(nbc), p)
        rows = np.empty((len(nbc), len(samples)), dtype=np.int64)
        for i in range(0, len(nbc), linalg.CHUNK):
            m = minors[i:i + linalg.CHUNK]
            x = sum(linalg.mul_mod(m[:, c:c + 256], weights[c:c + 256], prime)
                    for c in range(0, m.shape[1], 256)) % prime
            for j in members[i:i + linalg.CHUNK].T:
                x = x * inverses[j] % prime
            rows[i:i + linalg.CHUNK] = x
        return nbc, rows

    def basis(self, p: int) -> list[tuple]:
        """The nbc sets of degree p, a basis of A^p (basis_coords shows that
        they span), once basis_path(p) has shown that they are independent."""
        self.basis_path(p)
        return self.nbc_sets(p)

    @_shared
    def basis_path(self, p: int) -> str:
        """How basis(p) is shown independent: "levels", when levels() holds,
        so that the nbc sets are the one-per-level sets, independent by the
        nbc basis theorem, and nothing is certified; else "certificate mod
        <prime>", full rank of evaluation_matrix modulo one of linalg.PRIMES.
        The second prime is tried only when the first falls short.  A
        shortfall at both, which the nbc basis theorem leaves only to
        degenerate reductions modulo both primes (say, two hyperplanes that
        coincide there) or to unlucky samples, raises CertificateError."""
        nbc = self.nbc_sets(p)
        if self.levels() is not None:
            return "levels"
        for prime in linalg.PRIMES:
            if linalg.rank_mod_p(self.evaluation_matrix(p, prime)[1], prime) == len(nbc):
                return f"certificate mod {prime}"
        raise CertificateError(f"degree {p}: the nbc rows fall short of full rank modulo "
                               + " and ".join(map(str, linalg.PRIMES)))

    @_shared
    def basis_index(self, p: int) -> dict:
        """{monomial: position} over basis(p)."""
        return {s: i for i, s in enumerate(self.basis(p))}

    def basis_coords(self, subset) -> dict:
        """Coordinates of a sorted monomial e_S over basis(p), p = len(S), as
        {basis index: coefficient} with ascending keys and no zero value.

        A basis monomial gives one unit coordinate, and one not in general
        position gives none.  Any other S contains a broken circuit B = C[1:]
        of a consistent circuit C = (c_0, ..., c_m); then e_S = +-e_B e_R
        with R = S - B, and the relation sum_i (-1)^i e_{C - c_i} = 0 gives
        e_B = sum_{i>=1} (-1)^(i+1) e_{C - c_i}.  Each resulting monomial
        is S with some c_i replaced by c_0 < c_i, so the index sum falls and
        the recursion is less than p * n deep.  An unsorted S, or one with
        an index outside 0..n-1, raises ValueError."""
        return self._coords(tuple(subset))

    @_shared
    def _coords(self, subset: tuple) -> dict:
        """basis_coords of a tuple."""
        if list(subset) != sorted(subset) or not all(0 <= j < self.n for j in subset):
            raise ValueError(f"monomial {subset} is not sorted within 0..{self.n - 1}")
        index = self.basis_index(len(subset))
        coords = {}
        if subset in index:
            coords[index[subset]] = Fraction(1)
        elif self.general_position(subset):
            circuit = next(c for c in self._recorded("relations") if set(c[1:]) <= set(subset))
            rest = tuple(j for j in subset if j not in circuit)
            _, sign = sort_with_sign(circuit[1:] + rest)
            for i in range(1, len(circuit)):
                term, term_sign = sort_with_sign(circuit[:i] + circuit[i + 1:] + rest)
                w = (-1) ** (i + 1) * sign * term_sign
                for row, c in self._coords(term).items():
                    coords[row] = coords.get(row, Fraction(0)) + w * c
        return {row: c for row, c in sorted(coords.items()) if c}

    @_own
    def weighted_top(self) -> tuple:
        """(prod_{j in S} a_j, basis_coords(S)) of each general-position
        k-subset S whose exponent product is nonzero, in candidate_monomials(k)
        order: the terms of the Shapovalov form.  It depends on the exponents,
        so it is kept per instance and not shared with re-weightings."""
        terms = []
        for s in self.candidate_monomials(self.ambient_dim):
            prod = math.prod((self.exponents[j] for j in s), start=Fraction(1))
            if prod != 0:
                terms.append((prod, self.basis_coords(s)))
        return tuple(terms)

    def dims(self) -> list[int]:
        return [len(self.basis(p)) for p in range(self.ambient_dim + 1)]

    def euler_characteristic(self) -> int:
        return sum((-1) ** p * d for p, d in enumerate(self.dims()))

    # -- JSON ----------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "dim": self.ambient_dim,
            "hyperplanes": [
                {"label": h.label, "b0": format_scalar(h.b0),
                 "b": [format_scalar(x) for x in h.b]}
                for h in self.hyperplanes
            ],
            "exponents": [format_scalar(a) for a in self.exponents],
        }

    @classmethod
    def from_json(cls, data: dict) -> "WeightedArrangement":
        try:
            k = to_int(data["dim"])
            hyperplanes = [
                Hyperplane(
                    b0=parse_scalar(h["b0"]),
                    b=tuple(parse_scalar(x) for x in h["b"]),
                    label=h.get("label", ""),
                )
                for h in data["hyperplanes"]
            ]
            exponents = [parse_scalar(a) for a in data["exponents"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed arrangement JSON: {exc}") from exc
        return cls(k, hyperplanes, exponents)


def with_exponents(arr: WeightedArrangement, exponents) -> WeightedArrangement:
    """Same hyperplanes with different exponents.  The result shares arr's
    exponent-free memo, so circuits, bases and straightened coordinates are
    computed once for both; data that depends on the exponents, such as
    weighted_top() and osflag.d_A_matrix, is computed per instance."""
    out = WeightedArrangement(arr.ambient_dim, arr.hyperplanes, exponents)
    out._core = arr._core
    return out
