"""Exact geometry: general position, region counts, and line-cell counts."""

import random
from fractions import Fraction
from math import comb

import pytest

from shatterlab import (InputError, PointArrangement, SetSystem, generate,
                        line_arrangement_cells, region_count_general_position)
from shatterlab.setsystem import halfspace_dual, halfspace_incidence

from oracles import brute_general_position


def test_region_count_table():
    assert region_count_general_position(2, 3) == 7
    assert region_count_general_position(3, 3) == 8
    assert region_count_general_position(1, 5) == 6
    assert region_count_general_position(2, 0) == 1
    with pytest.raises(InputError):
        region_count_general_position(0, 3)


def test_region_count_matches_the_binomial_sum():
    for r in range(1, 31):
        for s in range(31):
            assert region_count_general_position(r, s) == sum(comb(s, i) for i in range(r + 1))


def test_region_count_work_stops_at_s():
    assert region_count_general_position(10**18, 5) == 32
    assert region_count_general_position(20000, 20000) == 2**20000


def test_cells_small_cases():
    assert line_arrangement_cells([]) == 1
    assert line_arrangement_cells([((1, 0), 0)]) == 2
    assert line_arrangement_cells([((1, 0), 0), ((0, 1), 0)]) == 4
    triangle = [((1, 0), 0), ((0, 1), 0), ((1, 1), 1)]
    assert line_arrangement_cells(triangle) == 7


def test_cells_reports_parallel_and_concurrent():
    with pytest.raises(InputError, match="parallel"):
        line_arrangement_cells([((1, 0), 0), ((2, 0), 1)])
    with pytest.raises(InputError, match="concurrent"):
        line_arrangement_cells([((1, 0), 0), ((0, 1), 0), ((1, 1), 0)])
    with pytest.raises(InputError, match="zero normal"):
        line_arrangement_cells([((0, 0), 1)])


@pytest.mark.parametrize("line, message", [
    (((True, False), True), "rational"), (((1, 0), True), "rational"),
    ((("abc", 1), 0), "rational"), (((0, 1), "abc"), "rational"),
    (((float("inf"), 1), 0), "rational"), (((1, 0), "inf"), "rational"),
    ((("1/0", 1), 0), "rational"),
    # a line that is not a (normal, offset) pair with a two-entry normal
    ((1, 2), "not a list of length 2"), (((1, 2, 3), 0), "not a list of length 2"),
    (5, "not a \\(normal, offset\\) pair"),
], ids=["booleans", "boolean-offset", "text", "text-offset", "infinity",
        "infinity-offset", "zero-denominator", "bare-pair", "three-entry-normal",
        "bare-number"])
def test_cells_refuse_coefficients_that_are_not_rational(line, message):
    """Also refused: a line that is not a (normal, offset) pair of a
    two-entry normal and an offset."""
    with pytest.raises(InputError, match=message):
        line_arrangement_cells([line, ((0, 1), "1/2")])


def random_general_lines(s, seed):
    rng = random.Random(seed)
    while True:
        lines = [((Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))),
                  Fraction(rng.randint(-9, 9)))
                 for _ in range(s)]
        try:
            return lines, line_arrangement_cells(lines)
        except InputError:
            seed += 1
            rng = random.Random(seed)


@pytest.mark.parametrize("s", range(2, 9))
def test_cells_match_closed_form_for_seeded_lines(s):
    for trial in range(5):
        _, cells = random_general_lines(s, seed=100 * s + trial)
        assert cells == region_count_general_position(2, s)


def test_point_arrangement_round_trip_and_position():
    arr = PointArrangement(
        2,
        ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(2))),
        (((Fraction(1), Fraction(0)), Fraction(1, 2)),
         ((Fraction(0), Fraction(1)), Fraction(1))))
    assert PointArrangement.from_json_dict(arr.to_json_dict()) == arr
    assert arr.in_general_position()


@pytest.mark.parametrize("r", [2.7, "2", True])
def test_point_arrangement_dimension_must_be_an_integer(r):
    with pytest.raises(InputError, match="r must be an integer"):
        PointArrangement.from_json_dict({"r": r, "points": [], "halfspaces": []})


@pytest.mark.parametrize("data", [
    # a string vector is refused, not read as one entry per character
    {"r": 2, "points": ["12"]},
    {"r": 2, "halfspaces": [{"normal": "12", "offset": 0}]},
    {"r": 2, "points": [[1, 2]], "halfspaces": [{"normal": [1, 2], "offset": float("inf")}]},
    {"r": 2, "points": [[float("inf"), 2]]},
    # booleans are not read as 1 and 0
    {"r": 2, "halfspaces": [{"normal": [True, False], "offset": 1}]},
    {"r": 2, "halfspaces": [{"normal": [1, 0], "offset": True}]},
    {"r": 2, "points": [[False, 2]]},
])
def test_point_arrangement_refuses_strings_and_infinities(data):
    with pytest.raises(InputError):
        PointArrangement.from_json_dict(data)


def test_general_position_detects_degeneracy():
    on_boundary = PointArrangement(
        2, ((Fraction(1), Fraction(0)),),
        (((Fraction(1), Fraction(0)), Fraction(1)),))
    assert not on_boundary.in_general_position()
    dependent = PointArrangement(
        2, (),
        (((Fraction(1), Fraction(1)), Fraction(0)),
         ((Fraction(2), Fraction(2)), Fraction(1))))
    assert not dependent.in_general_position()


GENERAL_POSITION_ENTRIES = (0, 1, -1, 2, Fraction(1, 2))


def seeded_arrangement(rng):
    """An arrangement in Q^r, r in 1..4, of 0-6 half-spaces and 0-3 points
    with entries from GENERAL_POSITION_ENTRIES, so many are degenerate."""
    r = rng.randint(1, 4)

    def vector():
        return tuple(rng.choice(GENERAL_POSITION_ENTRIES) for _ in range(r))

    return PointArrangement(
        r, tuple(vector() for _ in range(rng.randint(0, 3))),
        tuple((vector(), rng.choice(GENERAL_POSITION_ENTRIES))
              for _ in range(rng.randint(0, 6))))


def test_general_position_matches_the_all_sizes_oracle():
    """Ranking only the subsets of min(r, N) normals answers as testing
    every size does, on seeded arrangements of both answers."""
    rng = random.Random(2600)
    answers = []
    for _ in range(1000):
        arrangement = seeded_arrangement(rng)
        answers.append(arrangement.in_general_position())
        assert answers[-1] == brute_general_position(arrangement), arrangement
    assert 100 < sum(answers) < 900


def test_halfspace_systems():
    arr = PointArrangement(
        1,
        ((Fraction(0),), (Fraction(1),), (Fraction(2),)),
        (((Fraction(1),), Fraction(1, 2)), ((Fraction(-1),), Fraction(-3, 2))))
    inc = halfspace_incidence(arr)
    assert inc.universe_size == 3
    assert set(inc.sets) == {0b110, 0b011}  # x >= 1/2 and x <= 3/2
    dual = halfspace_dual(arr)
    assert dual.universe_size == 2
    assert set(dual.sets) == {0b10, 0b11, 0b01}
    # generate takes integer parameters only; it has no half-space kinds
    for kind in ("halfspace_incidence", "halfspace_dual"):
        with pytest.raises(InputError, match="unknown generator kind"):
            generate(kind, arr)


def test_halfspace_systems_without_halfspaces():
    arr = PointArrangement(2, ((Fraction(0), Fraction(1)), (Fraction(2), Fraction(0))), ())
    assert halfspace_incidence(arr) == SetSystem(2, ())
    assert halfspace_dual(arr) == SetSystem(0, (0,))


@pytest.mark.parametrize("seed", range(6))
def test_halfspace_dual_is_the_transpose_of_the_incidence(seed):
    """Both systems against one direct incidence matrix, on arrangements
    with points on boundaries and a repeated half-space."""
    rng = random.Random(seed)
    r = rng.randint(1, 3)
    points = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(r))
              for _ in range(rng.randint(1, 6))]
    halfspaces = []
    for _ in range(rng.randint(1, 5)):
        normal = tuple(Fraction(rng.randint(-2, 2)) for _ in range(r))
        # the half-space's boundary passes through a chosen point
        through = rng.choice(points)
        halfspaces.append((normal, sum(a * b for a, b in zip(normal, through))))
    halfspaces.append(rng.choice(halfspaces))
    arr = PointArrangement(r, tuple(points), tuple(halfspaces))
    covers = [[sum(a * b for a, b in zip(normal, p)) >= offset for p in points]
              for normal, offset in halfspaces]
    inc, dual = halfspace_incidence(arr), halfspace_dual(arr)
    assert (inc.universe_size, dual.universe_size) == (len(points), len(halfspaces))
    assert set(inc.sets) == {sum(b << i for i, b in enumerate(row)) for row in covers}
    assert set(dual.sets) == {sum(row[i] << j for j, row in enumerate(covers))
                              for i in range(len(points))}
