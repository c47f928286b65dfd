"""Weighted affine hyperplane arrangements and their combinatorics.

An arrangement is a finite ordered list of affine hyperplanes in C^k with
rational coefficients and an exponent attached to each hyperplane.  All
combinatorial questions (ranks, circuits, bases, straightening) are answered
by exact rational linear algebra; basis dimensions are cross-checked against
the evaluation-rank oracle built from the logarithmic-form realization.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .scalars import Scalar, format_scalar, is_exact, parse_scalar, to_int, to_rational

log = logging.getLogger(__name__)


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
        self.rows = {}        # p -> {candidate: its evaluation row}
        self.bases = {}       # p -> validated basis of A^p
        self.echelons = {}    # p -> Echelon of the basis rows
        self.coords = {}      # sorted monomial -> coordinates over its basis


class WeightedArrangement:
    """An ordered weighted arrangement; immutable after construction.

    Combinatorial data (circuits, evaluation rows, bases, straightening)
    lives in an exponent-free core that is filled lazily.
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
        rows = [[h.b0, *h.b] for h in self.hyperplanes]
        for i, j in itertools.combinations(range(len(rows)), 2):
            if linalg.rank([rows[i], rows[j]]) < 2:
                raise ValueError(
                    f"hyperplanes {i} and {j} are proportional as projective equations"
                )

    def has_vertex(self) -> bool:
        k = self.ambient_dim
        if len(self.hyperplanes) < k:
            return False
        for subset in itertools.combinations(range(len(self.hyperplanes)), k):
            if self.rank_report(subset).general_position:
                return True
        return False

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

    def rank_report(self, subset) -> SubsetRankReport:
        subset = tuple(subset)
        coeff_rows = [list(self.hyperplanes[j].b) for j in subset]
        aug_rows = [[*self.hyperplanes[j].b, self.hyperplanes[j].b0] for j in subset]
        coeff_rank = linalg.rank(coeff_rows)
        consistent = linalg.rank(aug_rows) == coeff_rank
        general = consistent and coeff_rank == len(subset)
        return SubsetRankReport(subset, coeff_rank, consistent, general)

    def general_position(self, subset) -> bool:
        return self.rank_report(subset).general_position

    def closure(self, subset) -> frozenset:
        """All hyperplane indices containing the intersection stratum of the
        subset.  The subset must have a nonempty intersection."""
        subset = tuple(subset)
        rows = [[*self.hyperplanes[j].b, self.hyperplanes[j].b0] for j in subset]
        report = self.rank_report(subset)
        if not report.consistent:
            raise ValueError(f"subset {subset} has empty intersection")
        base_rank = report.coeff_rank
        members = []
        for j in range(self.n):
            row = [*self.hyperplanes[j].b, self.hyperplanes[j].b0]
            if linalg.rank(rows + [row]) == base_rank:
                members.append(j)
        return frozenset(members)

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
        if p == 0:
            return [()]
        broken = self.broken_circuits()
        out = []
        for subset in itertools.combinations(range(self.n), p):
            s = set(subset)
            if any(set(b) <= s for b in broken):
                continue
            if self.general_position(subset):
                out.append(subset)
        return out

    # -- evaluation-rank oracle and validated basis ---------------------------

    def sample_points(self, count: int) -> list[tuple]:
        """Deterministic rational points in U, skipping any that land on a
        hyperplane.  Coordinates come from a fixed linear-congruential
        sequence; points on a low-degree curve (such as powers of a single
        base) would make the evaluation rows rank-deficient."""
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

    def evaluation_matrix(self, p: int, points=None):
        """Stacked evaluation rows, one long row per candidate monomial.

        The row of w_{j1}^...^w_{jp} holds, for each point t and each column
        set (i1<...<ip), the minor det(b^{i}_{j}) divided by the product of
        the f_j(t).  Each minor is computed once per monomial.
        """
        candidates = self.candidate_monomials(p)
        if points is None:
            points = self.sample_points(len(candidates) + 3)
        values = [self.evaluate_all(t) for t in points]
        columns = list(itertools.combinations(range(self.ambient_dim), p))
        rows = []
        for s in candidates:
            minors = [
                linalg.det([[self.hyperplanes[j].b[c] for c in cols] for j in s])
                for cols in columns
            ]
            row = []
            for v in values:
                denom = Fraction(1)
                for j in s:
                    denom = denom * v[j]
                row.extend(m / denom for m in minors)
            rows.append(row)
        return candidates, rows

    def basis(self, p: int) -> list[tuple]:
        """Validated basis of A^p: nbc sets if the oracle confirms them,
        otherwise a greedy lex-first independent subset of monomial rows.

        One echelon takes the nbc rows first and then the other candidate
        rows: the nbc sets are a basis iff their rows are independent and no
        other row leaves their span.  The echelon of the basis rows is kept
        for straightening.
        """
        core = self._core
        if p in core.bases:
            return core.bases[p]
        if not 0 <= p <= self.ambient_dim:
            raise ValueError(f"degree {p} out of range 0..{self.ambient_dim}")
        candidates, rows = self.evaluation_matrix(p)
        row_of = core.rows[p] = dict(zip(candidates, rows))
        nbc = self.nbc_sets(p)
        echelon = linalg.Echelon()
        others = [row for s, row in row_of.items() if s not in nbc]
        confirmed = all(echelon.add(row_of[s]) for s in nbc) and not any(
            map(echelon.add, others))
        basis = nbc
        if not confirmed:
            basis = [candidates[i] for i in linalg.independent_rows(rows)]
            log.warning(
                "degree %d: nbc count %d disagrees with evaluation rank %d; "
                "using oracle basis", p, len(nbc), len(basis),
            )
            echelon = linalg.Echelon(row_of[s] for s in basis)
        core.echelons[p] = echelon
        core.bases[p] = basis
        return basis

    def evaluation_rows(self, p: int):
        """(candidates, rows) pair used for basis selection."""
        self.basis(p)
        return self._core.candidates[p], list(self._core.rows[p].values())

    def basis_coords(self, subset) -> list:
        """Coordinates of a sorted monomial over basis(p), p = len(subset):
        zero unless the subset is in general position, otherwise one
        reduction of its evaluation row against the factored basis rows.
        Memoized; callers must not mutate the result."""
        subset = tuple(subset)
        core = self._core
        if subset not in core.coords:
            p = len(subset)
            basis = self.basis(p)
            row_of, echelon = core.rows[p], core.echelons[p]
            if subset in basis:
                coords = [Fraction(int(s == subset)) for s in basis]
            elif subset not in row_of:
                coords = [Fraction(0)] * len(basis)
            else:
                coords = echelon.coords(row_of[subset])
            core.coords[subset] = coords
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
    exponent-free core, so circuits, bases, evaluation rows and straightened
    coordinates are computed once for both; data that depends on the
    exponents, such as osflag.d_A_matrix, is computed per instance."""
    out = WeightedArrangement(arr.ambient_dim, arr.hyperplanes, exponents)
    out._core = arr._core
    return out
