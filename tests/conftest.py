"""Shared fixtures: small rational arrangements and Gaudin instances with
known, hand-checked properties, and a hypothesis strategy for random small
arrangements."""

import math
from fractions import Fraction

import pytest
from hypothesis import reject
from hypothesis import strategies as st

from bethearr.arrangement import Hyperplane, WeightedArrangement, with_exponents
from bethearr.gaudin import CartanDatum, GaudinProblem, build_discriminantal

F = Fraction


def line(b0, b1, b2, label=""):
    return Hyperplane(F(b0), (F(b1), F(b2)), label)


def point_arrangement(zs, exponents=None):
    """k = 1 arrangement of points t = z."""
    hyperplanes = [Hyperplane(F(-z), (F(1),), f"t-{z}") for z in zs]
    if exponents is None:
        exponents = [F(1)] * len(zs)
    return WeightedArrangement(1, hyperplanes, exponents)


def negated_diagonals(p: GaudinProblem) -> WeightedArrangement:
    """build_discriminantal(p) with its C(k, 2) diagonal exponents, which
    come last, negated: the convention the Shapovalov correspondence rules
    out."""
    arr = build_discriminantal(p)
    d = math.comb(p.k, 2)
    return with_exponents(arr, arr.exponents[:-d] + tuple(-a for a in arr.exponents[-d:]))


@st.composite
def small_arrangements(draw):
    """Random k = 2 or 3 arrangements with small integer coefficients, some
    hyperplanes forced through the intersection of 2 to k others
    (concurrent lines, planes through a line or a point) or parallel to
    another."""
    k = draw(st.sampled_from([2, 3]))
    coeff = st.integers(-3, 3)
    rows = [[draw(coeff) for _ in range(k + 1)] for _ in range(draw(st.integers(k, 4)))]
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            rows.append([draw(coeff), *draw(st.sampled_from(rows))[1:]])
        else:
            members = draw(st.lists(st.sampled_from(rows), min_size=2, max_size=k,
                                    unique_by=id))
            weights = [draw(st.sampled_from([-2, -1, 1, 2])) for _ in members]
            rows.append([sum(w * r[i] for w, r in zip(weights, members))
                         for i in range(k + 1)])
    try:
        return WeightedArrangement(
            k, [Hyperplane(F(r[0]), tuple(map(F, r[1:]))) for r in rows], [F(1)] * len(rows))
    except ValueError:  # a zero or repeated hyperplane, or no vertex
        reject()


@pytest.fixture
def generic3():
    """Three generic lines in C^2: t1, t2, t1 + t2 - 1.  dims [1, 3, 3]."""
    return WeightedArrangement(
        2,
        [line(0, 1, 0, "H1"), line(0, 0, 1, "H2"), line(-1, 1, 1, "H3")],
        [F(1), F(1), F(1)],
    )


@pytest.fixture
def generic4():
    """Four generic lines: t1, t2, t1 + t2 - 1, t1 + 2 t2 - 3.  dims [1, 4, 6],
    chi = 3."""
    return WeightedArrangement(
        2,
        [line(0, 1, 0, "H1"), line(0, 0, 1, "H2"),
         line(-1, 1, 1, "H3"), line(-3, 1, 2, "H4")],
        [F(1), F(1), F(1), F(1)],
    )


@pytest.fixture
def concurrent3():
    """Three lines through the origin: t1, t2, t1 + t2.  dims [1, 3, 2]."""
    return WeightedArrangement(
        2,
        [line(0, 1, 0), line(0, 0, 1), line(0, 1, 1)],
        [F(1), F(1), F(1)],
    )


@pytest.fixture
def concurrent3_unsorted():
    """concurrent3 as t1 + t2, t2, t1.  The level-1 pair (0, 1) meets on t1,
    which comes last, so the witness rule fails and the basis takes the
    certificate path.  Broken circuit (1, 2), dims [1, 3, 2]."""
    return WeightedArrangement(
        2,
        [line(0, 1, 1), line(0, 0, 1), line(0, 1, 0)],
        [F(1), F(1), F(1)],
    )


@pytest.fixture
def points3():
    """k = 1, points {0, 1, 3}, unit exponents.  Critical points are the
    roots of 3 t^2 - 8 t + 3."""
    return point_arrangement([0, 1, 3])


@pytest.fixture
def sl2():
    return CartanDatum.sl2()


@pytest.fixture
def gaudin_2x1(sl2):
    """n = 2, m = (1, 1), k = 1, z = (0, 1): the hand-solved singlet case."""
    return GaudinProblem(sl2, ((1,), (1,)), (1,), (F(0), F(1)))


@pytest.fixture
def gaudin_3x1(sl2):
    """n = 3, m = (1, 1, 1), k = 1, z = (0, 1, 3): dim Sing V[1] = 2."""
    return GaudinProblem(sl2, ((1,), (1,), (1,)), (1,), (F(0), F(1), F(3)))


@pytest.fixture
def gaudin_2x2(sl2):
    """n = 2, m = (2, 2), k = 2, z = (0, 1)."""
    return GaudinProblem(sl2, ((2,), (2,)), (2,), (F(0), F(1)))
