"""Evaluation oracle for Orlik-Solomon straightening.

The map e_H -> df_H / f_H realizes the Orlik-Solomon algebra as an algebra
of logarithmic forms (Brieskorn), so the coordinates of a monomial over the
nbc basis are the coefficients that rebuild its form from the nbc forms.
Values at rational sample points make that exact linear algebra: the nbc
rows go into one echelon and every monomial's row is solved against it.
The entries grow to hundreds of bits, so this serves as a test oracle on
small arrangements only.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from bethearr import linalg
from bethearr.arrangement import WeightedArrangement


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
