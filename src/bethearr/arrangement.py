"""Weighted affine hyperplane arrangements and their combinatorics.

An arrangement is a finite ordered list of affine hyperplanes in C^k with
rational coefficients and an exponent attached to each hyperplane.  Ranks
and circuits come from exact rational linear algebra.  The basis of each
degree A^p of the Orlik-Solomon algebra is the set of nbc monomials, and any
other monomial straightens onto it by the circuit relations, with integer
coefficients.  The values of the logarithmic forms at sample points only
certify that basis: with the equations scaled to integers, their residues
modulo a large prime have full rank.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .scalars import Scalar, format_scalar, is_exact, parse_scalar, to_int, to_rational


def sort_with_sign(indices):
    """(sorted tuple, (-1)^(number of inversions)) of a tuple of indices."""
    inversions = sum(a > b for a, b in itertools.combinations(indices, 2))
    return tuple(sorted(indices)), (-1) ** inversions


class CertificateError(RuntimeError):
    """The nbc rows of some degree fall short of full rank modulo
    linalg.PRIME, so the basis certificate cannot decide."""


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
        lead = next(x for x in self.b if x)
        row = [x / lead for x in (self.b0, *self.b)]
        lcm = math.lcm(*(x.denominator for x in row))
        return tuple(int(x * lcm) for x in row)


@dataclass(frozen=True)
class SubsetRankReport:
    subset: tuple
    coeff_rank: int
    consistent: bool
    general_position: bool


class _Core:
    """What the hyperplanes of an arrangement determine, whatever its
    exponents.  Filled lazily, only ever appended to, and shared by every
    re-weighting made with with_exponents."""

    def __init__(self):
        self.circuits = None
        self.candidates = {}  # p -> general-position p-subsets, lex order
        self.top_minors = None  # general-position k-subset -> det of its b-rows
        self.bases = {}       # p -> certified nbc basis of A^p
        self.coords = {}      # sorted monomial -> coordinates over its basis


class WeightedArrangement:
    """An ordered weighted arrangement; immutable after construction.

    Combinatorial data (circuits, bases, straightening) lives in an
    exponent-free core that is filled lazily.
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
        self._check_distinct()
        if not self.has_vertex():
            raise ValueError("arrangement has no vertex")
        self._core = _Core()

    # -- construction checks ------------------------------------------------

    def _check_distinct(self):
        """ValueError naming the least pair of proportional rows (b, b0)."""
        classes = {}
        for i, h in enumerate(self.hyperplanes):
            classes.setdefault(h.integer_row(), []).append(i)
        pairs = [c[:2] for c in classes.values() if len(c) > 1]
        if pairs:
            i, j = min(pairs)
            raise ValueError(f"hyperplanes {i} and {j} are proportional as projective equations")

    def has_vertex(self) -> bool:
        """Some k hyperplanes meet in a point exactly when the normals b_j
        have rank k: k independent normals give k consistent equations."""
        normals = linalg.Echelon()
        return any(normals.add(h.b) and len(normals) == self.ambient_dim
                   for h in self.hyperplanes)

    # -- basic properties ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.hyperplanes)

    def evaluate_all(self, t):
        return [h.evaluate(t) for h in self.hyperplanes]

    def contains_point(self, t, tol=1e-12) -> bool:
        """True if t lies on some hyperplane (within tol at an inexact point)."""
        for v in self.evaluate_all(t):
            if is_exact(v):
                if v == 0:
                    return True
            elif abs(complex(v)) < tol:
                return True
        return False

    # -- ranks and circuits -------------------------------------------------

    def _equations(self, subset) -> linalg.Echelon:
        """One echelon of the rows (b, b0) of the subset's hyperplanes; the
        b0 column, last, holds a pivot exactly when they have no common
        point."""
        return linalg.Echelon([*self.hyperplanes[j].b, self.hyperplanes[j].b0] for j in subset)

    def rank_report(self, subset) -> SubsetRankReport:
        subset = tuple(subset)
        pivots = self._equations(subset).pivots
        coeff_rank = sum(c < self.ambient_dim for c in pivots)
        consistent = self.ambient_dim not in pivots
        general = consistent and coeff_rank == len(subset)
        return SubsetRankReport(subset, coeff_rank, consistent, general)

    def general_position(self, subset) -> bool:
        return self.rank_report(subset).general_position

    def closure(self, subset) -> frozenset:
        """All hyperplane indices containing the intersection stratum of the
        subset: those whose row (b, b0) the subset's rows span.  The subset
        must have a nonempty intersection."""
        equations = self._equations(subset)
        if self.ambient_dim in equations.pivots:
            raise ValueError(f"subset {tuple(subset)} has empty intersection")
        return frozenset(j for j, h in enumerate(self.hyperplanes)
                         if equations.spans([*h.b, h.b0]))

    def circuits(self) -> list[tuple]:
        """Minimal dependent subsets, up to size k+1."""
        if self._core.circuits is None:
            found: list[tuple] = []
            for size in range(1, self.ambient_dim + 2):
                for subset in itertools.combinations(range(self.n), size):
                    s = set(subset)
                    if any(set(c) <= s for c in found):
                        continue
                    if not self.general_position(subset):
                        found.append(subset)
            self._core.circuits = found
        return self._core.circuits

    def broken_circuits(self) -> list[tuple]:
        """Tails of circuits with nonempty intersection.  Circuits whose
        hyperplanes have empty common intersection give no relation in the
        affine algebra, so they contribute no broken circuits."""
        return sorted({
            c[1:]
            for c in self.circuits()
            if len(c) > 1 and self.rank_report(c).consistent
        })

    def nbc_sets(self, p: int) -> list[tuple]:
        """General-position p-subsets containing no broken circuit, lex order."""
        if not 0 <= p <= self.ambient_dim:
            raise ValueError(f"degree {p} out of range 0..{self.ambient_dim}")
        broken = self.broken_circuits()
        return [s for s in self.candidate_monomials(p)
                if not any(set(b) <= set(s) for b in broken)]

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
        """All general-position p-subsets, lex order (the monomial spanning set)."""
        if p not in self._core.candidates:
            self._core.candidates[p] = [
                s
                for s in itertools.combinations(range(self.n), p)
                if self.general_position(s)
            ]
        return self._core.candidates[p]

    def top_minors(self) -> dict:
        """det of the b-rows of each general-position k-subset (every other
        k-subset's is zero).  Memoized; callers must not mutate the result."""
        core = self._core
        if core.top_minors is None:
            core.top_minors = {
                s: linalg.det([list(self.hyperplanes[j].b) for j in s])
                for s in self.candidate_monomials(self.ambient_dim)
            }
        return core.top_minors

    def certificate_samples(self, p: int):
        """The endless stream of samples (t, w, inv) of the degree-p basis
        certificate, drawn from a fixed seed: an integer point t, an integer
        weight w(I) per p-subset I of coordinates, and the inverses modulo
        linalg.PRIME of the values f_j(t) of the integer_row equations.  A
        point where some f_j(t) is 0 modulo the prime is skipped.  The first
        point drawn depends on k only."""
        k, rng = self.ambient_dim, random.Random(1)
        eqs = [h.integer_row() for h in self.hyperplanes]
        while True:
            t = tuple(rng.randrange(linalg.PRIME) for _ in range(k))
            w = tuple(rng.randrange(linalg.PRIME) for _ in range(math.comb(k, p)))
            f = [(e[0] + sum(b * x for b, x in zip(e[1:], t))) % linalg.PRIME for e in eqs]
            if all(f):
                yield t, w, [pow(x, -1, linalg.PRIME) for x in f]

    def evaluation_matrix(self, p: int):
        """(nbc_sets(p), rows): residues modulo linalg.PRIME, one row per nbc
        set S and one column for each of the first len(nbc) + 3 certificate
        samples (t, w, inv).  With the equations scaled by integer_row, the
        entry is sum_I w(I) m(I) / prod_{j in S} f_j(t), m(I) = det(b^I_S) / g
        with g the gcd of these minors (so no row vanishes just because they
        are all multiples of the prime): a rational combination of the values
        at t of the logarithmic form of S.  So full rank modulo the prime
        proves the nbc forms independent over Q."""
        nbc, eqs = self.nbc_sets(p), [h.integer_row() for h in self.hyperplanes]
        samples = list(itertools.islice(self.certificate_samples(p), len(nbc) + 3))
        rows = []
        for s in nbc:
            minors = [int(linalg.det([[eqs[j][1 + c] for c in cols] for j in s]))
                      for cols in itertools.combinations(range(self.ambient_dim), p)]
            g = math.gcd(*minors)
            m = [x // g for x in minors]
            rows.append([sum(a * b for a, b in zip(w, m)) * math.prod(inv[j] for j in s)
                         % linalg.PRIME for _, w, inv in samples])
        return nbc, rows

    def basis(self, p: int) -> list[tuple]:
        """The nbc sets of degree p, a basis of A^p: basis_coords shows that
        they span, and full rank of evaluation_matrix mod the prime that they
        are independent.  A shortfall, which the nbc basis theorem leaves
        only to a degenerate reduction modulo PRIME (say, two hyperplanes
        that coincide there) or to unlucky samples, raises CertificateError."""
        core = self._core
        if p not in core.bases:
            nbc, rows = self.evaluation_matrix(p)
            if linalg.rank_mod_p(rows) < len(nbc):
                raise CertificateError(f"degree {p}: the nbc rows fall short of full rank "
                                       f"modulo {linalg.PRIME}")
            core.bases[p] = nbc
        return core.bases[p]

    def basis_coords(self, subset) -> dict:
        """Coordinates of a sorted monomial e_S over basis(p), p = len(S), as
        {basis index: coefficient} with ascending keys and no zero value.

        A basis monomial gives one unit coordinate, and one not in general
        position gives none.  Any other S contains a broken circuit B = C[1:]
        of a consistent circuit C = (c_0, ..., c_m); then e_S = +-e_B e_R
        with R = S - B, and the relation sum_i (-1)^i e_{C - c_i} = 0 gives
        e_B = sum_{i>=1} (-1)^(i+1) e_{C - c_i}.  Each resulting monomial
        is S with some c_i replaced by c_0 < c_i, so the index sum falls and
        the recursion is less than p * n deep.
        Memoized; callers must not mutate the result."""
        subset = tuple(subset)
        core = self._core
        if subset not in core.coords:
            basis = self.basis(len(subset))
            coords = {}
            if subset in basis:
                coords[basis.index(subset)] = Fraction(1)
            elif self.general_position(subset):
                circuit = next(c for c in self.circuits() if len(c) > 1 and
                               set(c[1:]) <= set(subset) and self.rank_report(c).consistent)
                rest = tuple(j for j in subset if j not in circuit)
                _, sign = sort_with_sign(circuit[1:] + rest)
                for i in range(1, len(circuit)):
                    term, term_sign = sort_with_sign(circuit[:i] + circuit[i + 1:] + rest)
                    w = (-1) ** (i + 1) * sign * term_sign
                    for row, c in self.basis_coords(term).items():
                        coords[row] = coords.get(row, Fraction(0)) + w * c
            core.coords[subset] = {row: c for row, c in sorted(coords.items()) if c}
        return core.coords[subset]

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
    exponent-free core, so circuits, bases and straightened coordinates are
    computed once for both; data that depends on the exponents, such as
    osflag.d_A_matrix, is computed per instance."""
    out = WeightedArrangement(arr.ambient_dim, arr.hyperplanes, exponents)
    out._core = arr._core
    return out
