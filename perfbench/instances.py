"""Seeded instance generator for the benchmark.

Every instance is a pure function of (workload, seed, held_out).  The
general-position test is exact and uses its own Fraction elimination, so
the closed-form oracles the benchmark checks against (dims = C(n, p),
|chi| = C(n-1, k)) never depend on the library under test.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb

from bethearr.gaudin import CartanDatum, GaudinProblem, build_discriminantal

# Coefficients are nonzero integers in [-9, 9], offsets b0 integers in
# [-9, 9]: the ranges of the roadmap's baseline measurements.
COEFF_MAX = 9


def stream(workload: str, seed: int, held_out: bool = False) -> random.Random:
    """The random stream of one run.  Held-out streams share no state with
    the tuning streams, so a claim can be re-checked on inputs that no one
    looked at while writing it."""
    salt = "held-out" if held_out else "tuning"
    return random.Random(f"{salt}/{workload}/{seed}")


def exact_rank(rows) -> int:
    """Rank over Q by Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[rank][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def in_general_position(b0s, normals) -> bool:
    """Every set of at most k normals is independent and no k+1 of the
    hyperplanes b0 + b.t = 0 share a point."""
    k = len(normals[0])
    n = len(normals)
    for size in range(1, k + 1):
        for s in itertools.combinations(range(n), size):
            if exact_rank([normals[j] for j in s]) < size:
                return False
    for s in itertools.combinations(range(n), k + 1):
        if exact_rank([[*normals[j], b0s[j]] for j in s]) < k + 1:
            return False
    return True


def generic_arrangement(rng: random.Random, k: int, n: int) -> dict:
    """Arrangement JSON of n generic hyperplanes in C^k with unit exponents,
    by rejection sampling."""
    while True:
        normals = [[rng.choice((-1, 1)) * rng.randint(1, COEFF_MAX) for _ in range(k)]
                   for _ in range(n)]
        b0s = [rng.randint(-COEFF_MAX, COEFF_MAX) for _ in range(n)]
        if in_general_position(b0s, normals):
            break
    return {
        "dim": k,
        "hyperplanes": [
            {"label": f"H{j + 1}", "b0": f"{b0s[j]}/1", "b": [f"{x}/1" for x in normals[j]]}
            for j in range(n)
        ],
        "exponents": ["1/1"] * n,
    }


def generic_dims(k: int, n: int) -> list[int]:
    """Basis dimensions of a generic arrangement: dim A^p = C(n, p)."""
    return [comb(n, p) for p in range(k + 1)]


def generic_chi(k: int, n: int) -> int:
    return sum((-1) ** p * comb(n, p) for p in range(k + 1))


def sl2_problem(rng: random.Random, weights, k: int) -> GaudinProblem:
    """sl2 Gaudin problem with highest weights m and k lowering operators;
    only the marked points z (distinct integers in [-9, 9]) are drawn."""
    z = sorted(rng.sample(range(-COEFF_MAX, COEFF_MAX + 1), len(weights)))
    return GaudinProblem(
        CartanDatum.sl2(),
        [[Fraction(m)] for m in weights],
        (k,),
        [Fraction(x) for x in z],
    )


def discriminantal_arrangement(rng: random.Random, weights, k: int) -> dict:
    return build_discriminantal(sl2_problem(rng, weights, k)).to_json()


def exponent_vector(rng: random.Random, n: int) -> list[Fraction]:
    """Nonzero rationals p/q with |p| <= 9 and q <= 5."""
    return [Fraction(rng.choice((-1, 1)) * rng.randint(1, COEFF_MAX), rng.randint(1, 5))
            for _ in range(n)]
