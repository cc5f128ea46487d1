"""Set-system construction, canonicalization, projections, and generators,
plus the library-wide tables of the element, mask and integer rules."""

import importlib
import inspect
import itertools
import pkgutil
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import shatterlab
from shatterlab import (BanProblem, ElementTree, Graph, InputError,
                        PointArrangement, ProbSpace, RelaxedBanProblem,
                        SetSystem, TypeTree, audit_bounds, banned_count,
                        build_type_tree, characteristic_path,
                        check_counting_inequality, check_height_bound, child,
                        count_children_dropping, dual, exact_expectation,
                        from_element_tree, from_type_tree, from_vc, generate,
                        is_hereditary, is_independent, line_arrangement_cells,
                        max_solutions, min_subcube_hitting, op_rank, op_shatter,
                        parity_problem, project, random_element_tree,
                        random_graph, random_problem, reduce_hat,
                        reduce_prime, region_count_general_position,
                        run_vc_theorem, run_weak_law, sample_test_tree,
                        shatters, solutions, thicket_shatter, tree_rank,
                        verify_main_theorem, vc_dimension,
                        vc_shatter_function)
from shatterlab import dims, setsystem
from shatterlab.setsystem import GENERATOR_KINDS, child_masks

from families import random_system


def test_canonicalization_sorts_and_dedups():
    system = SetSystem(3, (5, 1, 5, 0))
    assert system.sets == (0, 1, 5)
    assert len(system) == 3


def test_out_of_range_mask_rejected():
    with pytest.raises(InputError):
        SetSystem(2, (4,))
    with pytest.raises(InputError):
        SetSystem(-1, ())


def test_from_iterables():
    system = SetSystem.from_iterables(4, [[0, 2], [], [3]])
    assert system.sets == (0, 0b101, 0b1000)
    assert system.members(0b101) == [0, 2]
    with pytest.raises(InputError):
        SetSystem.from_iterables(2, [[2]])


def test_name_ignored_by_equality():
    assert SetSystem(3, (1,), name="a") == SetSystem(3, (1,), name="b")


@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.just(n),
                        st.lists(st.integers(0, (1 << n) - 1), max_size=12))))
def test_json_round_trip(data):
    n, masks = data
    system = SetSystem(n, tuple(masks))
    assert SetSystem.from_json_dict(system.to_json_dict()) == system


def test_json_dict_shape():
    system = SetSystem(3, (0b011, 0b100), name="demo")
    assert system.to_json_dict() == {
        "universe": 3, "sets": ["110", "001"], "name": "demo"}


def test_from_json_rejects_bad_strings():
    with pytest.raises(InputError):
        SetSystem.from_json_dict({"universe": 3, "sets": ["01"]})
    with pytest.raises(InputError):
        SetSystem.from_json_dict({"universe": 2, "sets": ["0x"]})
    with pytest.raises(InputError):
        SetSystem.from_json_dict({"sets": []})


@pytest.mark.parametrize("name", [[1], 5, {"a": 1}, True])
def test_from_json_refuses_a_name_that_is_not_a_string(name):
    with pytest.raises(InputError, match="^set-system 'name' must be a string"):
        SetSystem.from_json_dict({"universe": 1, "sets": ["1"], "name": name})


@pytest.mark.parametrize("name", [[1], 5, {"a": 1}, True])
def test_constructor_refuses_a_name_that_is_not_a_string(name):
    """The constructor, not only the JSON loader, so that ``to_json_dict``
    never writes a name that ``from_json_dict`` would refuse."""
    with pytest.raises(InputError, match="^set-system 'name' must be a string"):
        SetSystem(1, (1,), name=name)
    with pytest.raises(InputError, match="^set-system 'name' must be a string"):
        SetSystem.from_iterables(1, [[0]], name)


def test_from_json_keeps_a_string_name_or_none():
    for name in ("demo", "", None):
        data = {"universe": 1, "sets": ["1"], "name": name}
        assert SetSystem.from_json_dict(data).name == name


def test_project_dense_reindexing():
    system = SetSystem(4, (0b1010, 0b0010, 0b1000))
    projected = project(system, [1, 3])
    assert projected.universe_size == 2
    # element 0 of the projection is original element 1, element 1 is 3
    assert projected.sets == (0b01, 0b10, 0b11)


def test_project_rejects_out_of_range():
    with pytest.raises(InputError):
        project(SetSystem(3, (1,)), [3])


def test_dual_transposes_incidence():
    system = SetSystem(2, (0b01, 0b11))
    # element 0 is in both sets, element 1 only in the second
    assert dual(system).sets == (0b10, 0b11)


def test_dual_of_dual_preserves_incidence_counts():
    system = generate("intervals", 4)
    dd = dual(dual(system))
    assert sum(bin(m).count("1") for m in dd.sets) <= \
        sum(bin(m).count("1") for m in system.sets)


def test_child_filters_by_pattern():
    system = generate("powerset", 3)
    kid = child(system, (0, 2), (1, 0))
    assert all(m & 1 and not m & 4 for m in kid.sets)
    assert len(kid) == 2
    with pytest.raises(InputError, match="equal length"):
        child(system, (0, 2), (1,))


@pytest.mark.parametrize("entry", ["a", None], ids=repr)
def test_child_refuses_a_sigma_entry_other_than_0_or_1(entry):
    """Each sigma entry is read as the integer 0 or 1, never by its truth:
    the integer table's ``child`` row tries 2, -1, 1.5, True and "3"."""
    with pytest.raises(InputError):
        child(generate("thresholds", 3), (1,), (entry,))


def test_child_masks_conflicting_repeat_is_empty():
    sets = generate("powerset", 3).sets
    assert child_masks(sets, (1, 1), (0, 1)) == ()
    assert child_masks(sets, (1, 1, 1), (1, 0, 1)) == ()
    assert child_masks(sets, (1, 1), (1, 1)) == tuple(
        m for m in sets if m & 2)


def member_index_mask(sets, kept):
    kept = set(kept)
    return sum(1 << i for i, m in enumerate(sets) if m in kept)


# Mask sequences over [4]: the empty family, repeated masks (half-space
# incidences can repeat) and seeded random families.
TABLE_FAMILIES = [(), (0b0101,) * 3, (0, 0b0011, 0b0011, 0b0001, 0b0110)] + [
    random_system(4, 20, seed).sets for seed in range(6)]


@pytest.mark.parametrize("sets", TABLE_FAMILIES)
def test_child_table_matches_child_masks(sets):
    """An op_s search's children table: every tuple of up to three elements
    of [4], repeats included, asked longest first so that prefixes fill on
    demand, gives one member-index mask per sigma in product order, as
    ``child_masks`` filters."""
    table = dims._Search(sets, 4, 1)
    tuples = [xs for size in (3, 2, 1, 0)
              for xs in itertools.product(range(4), repeat=size)]
    for xs in tuples:
        assert table[xs] == [member_index_mask(sets, child_masks(sets, xs, sigma))
                             for sigma in itertools.product((0, 1), repeat=len(xs))]
    for x in range(4):
        assert table[(x, x)][1] == table[(x, x)][2] == 0


# Mask sequences for the bulk bit readers: no members, repeated and unsorted
# masks, and universes on either side of a byte boundary.
BIT_READER_CASES = [((), n) for n in (0, 1, 8, 9, 65)] + [
    ((0, 0, 0), 0), ((1, 0, 1, 1), 1), ((0b1010_0101, 3, 0b1010_0101, 0, 255), 8),
    ((0b1_0000_0001, 7, 0b1_0000_0001, 256), 9),
    ((1 << 64, 5, (1 << 65) - 1, 1 << 64, 0), 65)]


@pytest.mark.parametrize("masks, n", BIT_READER_CASES)
def test_bit_readers_match_a_per_bit_loop(masks, n):
    matrix = setsystem._bit_matrix(masks, n)
    assert matrix.dtype == np.uint8 and matrix.shape == (len(masks), n)
    assert matrix.tolist() == [[m >> x & 1 for x in range(n)] for m in masks]
    assert setsystem._member_columns(masks, n) == [
        sum((m >> x & 1) << i for i, m in enumerate(masks)) for x in range(n)]


def test_dual_of_the_empty_family():
    assert dual(SetSystem(3, ())) == SetSystem(0, (0,))
    assert dual(SetSystem(0, ())) == SetSystem(0, ())


def test_generators():
    assert len(generate("powerset", 3)) == 8
    assert len(generate("singletons_with_empty", 4)) == 5
    assert generate("thresholds", 3).sets == (0, 1, 3, 7)
    assert len(generate("intervals", 3)) == 7  # empty + 6 intervals
    assert len(generate("all_subsets_of_size_at_most", 4, 1)) == 5
    with pytest.raises(InputError):
        generate("nope", 3)
    with pytest.raises(InputError):
        generate("powerset", "x")
    assert "powerset" in GENERATOR_KINDS


N = 3
POWER = generate("powerset", N)
SPACE = ProbSpace.uniform(N)

# Every entry point that takes an element of [N] ("element") or a mask over
# [N] ("mask"), called with one value in that place.
ENTRY_POINTS = {
    "SetSystem": ("mask", lambda m: SetSystem(N, (m,))),
    "from_iterables": ("element", lambda x: SetSystem.from_iterables(N, [[x]])),
    "project": ("element", lambda x: project(POWER, [x])),
    "child": ("element", lambda x: child(POWER, (x,), (1,))),
    "shatters": ("element", lambda x: shatters(POWER, [x])),
    "count_children_dropping": ("element",
                                lambda x: count_children_dropping(POWER, (x,), 1, 1)),
    "mass-elements": ("element", lambda x: SPACE.mass([x])),
    "mass-mask": ("mask", lambda m: SPACE.mass(m)),
    "characteristic_path": ("element", lambda x: characteristic_path(
        sample_test_tree(SPACE, 2, 0), [x])),
    "run_weak_law": ("element", lambda x: run_weak_law(
        SPACE, [x], 2, Fraction(1, 4), 3, 0)),
    "from_element_tree": ("element", lambda x: from_element_tree(
        ElementTree(1, 1, {(): (x,)}), SetSystem(N, (0,)), 1)),
    "build_type_tree": ("element", lambda x: build_type_tree(
        Graph.from_edge_list(N, []), [0, x, 2])),
    "ban_set": ("element", lambda x: parity_problem(N).ban_set((x,), (0, 0))),
}


@pytest.mark.parametrize("bad", ["a", 1.5, True, -1, "top"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_refuses_junk_elements_and_masks(entry, bad):
    """A bool, a float, a string, a negative value or one past the top (N
    for an element, 2^N for a mask) is an InputError everywhere."""
    kind, call = ENTRY_POINTS[entry]
    if bad == "top":
        bad = N if kind == "element" else 1 << N
    with pytest.raises(InputError):
        call(bad)


SPACE_TREE = sample_test_tree(SPACE, 2, 0)
LEAF_TREE = ElementTree(1, 1, {(): (0,)})

# Every constructor or call that reads a container of members, given one
# that is not a collection of the right kind: each is an InputError, not a
# TypeError.  A row is (entry point, parameter) and a call giving that
# parameter the wrong container.
WRONG_CONTAINERS = {
    "SetSystem-int": (("SetSystem", "sets"), lambda: SetSystem(N, 5)),
    "SetSystem-None": (("SetSystem", "sets"), lambda: SetSystem(N, None)),
    "from_iterables": (("SetSystem.from_iterables", "families"),
                       lambda: SetSystem.from_iterables(N, 5)),
    "ProbSpace": (("ProbSpace", "weights"), lambda: ProbSpace(5)),
    "PointArrangement-points": (("PointArrangement", "points"),
                                lambda: PointArrangement(2, 5, ())),
    "PointArrangement-halfspaces": (("PointArrangement", "halfspaces"),
                                    lambda: PointArrangement(2, (), 5)),
    "line_arrangement_cells": (("line_arrangement_cells", "lines"),
                               lambda: line_arrangement_cells(5)),
    "child-xs": (("child", "xs"), lambda: child(POWER, iter([0]), (1,))),
    "child-sigma": (("child", "sigma"), lambda: child(POWER, (0,), 5)),
    "from_table-int": (("RelaxedBanProblem.from_table", "table"),
                       lambda: RelaxedBanProblem.from_table(2, 1, 2, 5)),
    "from_table-None": (("RelaxedBanProblem.from_table", "table"),
                        lambda: RelaxedBanProblem.from_table(2, 1, 2, None)),
    "from_table-list": (("RelaxedBanProblem.from_table", "table"),
                        lambda: RelaxedBanProblem.from_table(2, 1, 2, [0, 1, 2, 3])),
    "from_table-str": (("RelaxedBanProblem.from_table", "table"),
                       lambda: RelaxedBanProblem.from_table(2, 1, 2, "abcd")),
    "from_table-set": (("RelaxedBanProblem.from_table", "table"),
                       lambda: RelaxedBanProblem.from_table(2, 1, 2, {0, 1, 2, 3})),
    "ban_set-S": (("RelaxedBanProblem.ban_set", "S"),
                  lambda: parity_problem(N).ban_set(5, (0, 0))),
    "ban_set-X": (("RelaxedBanProblem.ban_set", "X"),
                  lambda: parity_problem(N).ban_set((0,), 5)),
    "build_type_tree": (("build_type_tree", "order"),
                        lambda: build_type_tree(Graph(2, ()), 5)),
    "TestTree.label-int": (("TestTree.label", "path"), lambda: SPACE_TREE.label(5)),
    "TestTree.label-iterator": (("TestTree.label", "path"),
                                lambda: SPACE_TREE.label(iter([0]))),
    "properly_labelable-sets": (("ElementTree.properly_labelable", "sets"),
                                lambda: LEAF_TREE.properly_labelable((0,), 5)),
    # Leaf (0, 1) needs element 0 both in and out, so no member labels it.
    "properly_labelable-sets-unlabelable": (
        ("ElementTree.properly_labelable", "sets"),
        lambda: ElementTree(1, 2, {(): (0,), (0,): (0,), (1,): (0,)}).properly_labelable(
            (0, 1), 5)),
    "properly_labelable-leaf": (("ElementTree.properly_labelable", "leaf"),
                                lambda: LEAF_TREE.properly_labelable(5, ())),
    "count_children_dropping-int": (("count_children_dropping", "xs"),
                                    lambda: count_children_dropping(POWER, 5, 1, 1)),
    "count_children_dropping-iterator": (
        ("count_children_dropping", "xs"),
        lambda: count_children_dropping(POWER, iter([0]), 1, 1)),
    "TypeTree-int": (("TypeTree", "labels"), lambda: TypeTree(5)),
    "TypeTree-label": (("TypeTree", "labels"), lambda: TypeTree({"": "a", "0": 1})),
    "TypeTree-key": (("TypeTree", "labels"), lambda: TypeTree({"": 0, 0: 1})),
    "ElementTree": (("ElementTree", "labels"), lambda: ElementTree(1, 1, 5)),
    "path_requirements": (("ElementTree.path_requirements", "leaf"),
                          lambda: LEAF_TREE.path_requirements(iter([0]))),
    "shatters": (("shatters", "targets"), lambda: shatters(POWER, 5)),
    "project": (("project", "targets"), lambda: project(POWER, None)),
    "mass": (("ProbSpace.mass", "members"), lambda: SPACE.mass(None)),
    "characteristic_path": (("characteristic_path", "members"),
                            lambda: characteristic_path(SPACE_TREE, None)),
    "test_estimate": (("test_estimate", "members"), lambda: shatterlab.test_estimate(SPACE_TREE, None)),
    "exact_expectation": (("exact_expectation", "members"),
                          lambda: exact_expectation(SPACE, None, 2)),
    "run_weak_law": (("run_weak_law", "members"),
                     lambda: run_weak_law(SPACE, None, 2, Fraction(1, 4), 3, 0)),
    "Graph": (("Graph", "edges"), lambda: Graph(N, 5)),
    "Graph.from_edge_list": (("Graph.from_edge_list", "edge_list"),
                             lambda: Graph.from_edge_list(N, None)),
}


@pytest.mark.parametrize("entry", WRONG_CONTAINERS)
def test_every_container_of_the_wrong_kind_is_an_input_error(entry):
    _, call = WRONG_CONTAINERS[entry]
    with pytest.raises(InputError):
        call()


EMPTY = SetSystem(N, ())
PARITY = parity_problem(N)
PAIRS = random_problem(N, 2, 2, 0)
PAIRS_JSON = PAIRS.to_json_dict()
EMPTY_GRAPH = Graph.from_edge_list(N, [])
CHAIN = build_type_tree(EMPTY_GRAPH)  # height N, one left turn per level
TREE = ElementTree(1, 2, {(): (0,), (0,): (1,), (1,): (2,)})
QUARTER = Fraction(1, 4)

# Every integer parameter of the library: (entry point, parameter) ->
# (call taking the value, a value the call accepts, the lowest and highest
# accepted values, None where unbounded).
INT_PARAMS = {
    ("SetSystem", "universe_size"): (lambda v: SetSystem(v, ()), N, 0, None),
    ("generate", "n"): (lambda v: generate("powerset", v), N, 0, None),
    ("generate", "d"): (lambda v: generate("all_subsets_of_size_at_most", N, v),
                        1, 0, None),
    ("generate", "cap"): (lambda v: generate("powerset", N, cap=v), N, None, None),
    ("ElementTree", "arity_exponent"): (lambda v: ElementTree(v, 0, {}), 1, 1, None),
    ("ElementTree", "height"): (lambda v: ElementTree(1, v, {}), 0, 0, None),
    ("ElementTree", "node entry"): (
        lambda v: ElementTree(1, 2, {(): (0,), (0,): (0,), (v,): (0,)}), 1, 0, 1),
    ("ElementTree", "label entry"): (lambda v: ElementTree(1, 1, {(): (v,)}), 0, 0, None),
    ("path_requirements", "first leaf entry"): (
        lambda v: TREE.path_requirements((v, 1)), 1, 0, 1),
    ("path_requirements", "last leaf entry"): (
        lambda v: TREE.path_requirements([1, v]), 1, 0, 1),
    ("random_element_tree", "universe_size"): (
        lambda v: random_element_tree(v, 1, 2, 0), N, 1, None),
    ("random_element_tree", "arity_exponent"): (
        lambda v: random_element_tree(N, v, 2, 0), 1, 1, None),
    ("random_element_tree", "height"): (
        lambda v: random_element_tree(N, 1, v, 0), 2, 0, None),
    ("random_element_tree", "seed"): (
        lambda v: random_element_tree(N, 1, 2, v), 0, None, None),
    ("vc_dimension", "cap"): (lambda v: vc_dimension(POWER, cap=v), N, None, None),
    ("vc_shatter_function", "size"): (lambda v: vc_shatter_function(POWER, v), 1, 0, N),
    ("vc_shatter_function", "cap"): (
        lambda v: vc_shatter_function(POWER, 1, cap=v), N, None, None),
    ("thicket_shatter", "height"): (lambda v: thicket_shatter(POWER, v), 1, 0, None),
    ("op_rank", "s"): (lambda v: op_rank(POWER, v), 1, 1, None),
    ("op_rank", "cap"): (lambda v: op_rank(POWER, 1, cap=v), N, None, None),
    ("op_shatter", "s"): (lambda v: op_shatter(POWER, v, 1), 1, 1, None),
    ("op_shatter", "height"): (lambda v: op_shatter(POWER, 1, v), 1, 0, None),
    ("op_shatter", "cap"): (lambda v: op_shatter(POWER, 1, 1, cap=v), N, None, None),
    ("child", "sigma entry"): (lambda v: child(POWER, (1,), (v,)), 1, 0, 1),
    ("count_children_dropping", "r"): (
        lambda v: count_children_dropping(POWER, (0,), v, 1), 1, 1, None),
    ("count_children_dropping", "l"): (
        lambda v: count_children_dropping(POWER, (0,), 1, v), 1, 1, None),
    ("count_children_dropping", "cap"): (
        lambda v: count_children_dropping(POWER, (0,), 1, 1, cap=v), N, None, None),
    ("audit_bounds", "s"): (lambda v: audit_bounds(POWER, v, 1, 1), 1, 1, None),
    ("audit_bounds", "r"): (lambda v: audit_bounds(POWER, 1, v, 1), 1, 1, None),
    ("audit_bounds", "n"): (lambda v: audit_bounds(POWER, 1, 1, v), 1, 0, None),
    ("audit_bounds", "cap"): (lambda v: audit_bounds(POWER, 1, 1, 1, cap=v), N, None, None),
    # The empty family runs no search, so its cap is read for its type only:
    # a cap of 0 is accepted, and "3" or True is still refused.
    ("vc_dimension", "cap on the empty family"): (
        lambda v: vc_dimension(EMPTY, cap=v), 0, None, None),
    ("vc_shatter_function", "cap on the empty family"): (
        lambda v: vc_shatter_function(EMPTY, 1, cap=v), 0, None, None),
    ("op_rank", "cap on the empty family"): (
        lambda v: op_rank(EMPTY, 1, cap=v), 0, None, None),
    ("op_shatter", "cap on the empty family"): (
        lambda v: op_shatter(EMPTY, 1, 1, cap=v), 0, None, None),
    ("audit_bounds", "cap on the empty family"): (
        lambda v: audit_bounds(EMPTY, 2, 1, 2, cap=v), 0, None, None),
    ("RelaxedBanProblem", "n"): (lambda v: RelaxedBanProblem(v, 1, 2, None), N, 1, None),
    ("RelaxedBanProblem", "k"): (lambda v: RelaxedBanProblem(N, v, 2, None), 1, 1, N),
    ("RelaxedBanProblem", "j"): (lambda v: RelaxedBanProblem(N, 1, v, None), 2, 2, None),
    ("BanProblem", "n"): (lambda v: BanProblem(v, 1, 2, None), N, 1, None),
    ("BanProblem", "k"): (lambda v: BanProblem(N, v, 2, None), 1, 1, N),
    ("BanProblem", "j"): (lambda v: BanProblem(N, 1, v, None), 2, 2, None),
    ("solutions", "cap"): (lambda v: solutions(PARITY, cap=v), 24, None, None),
    ("banned_count", "cap"): (lambda v: banned_count(PARITY, cap=v), 24, None, None),
    ("is_hereditary", "cap"): (lambda v: is_hereditary(PARITY, cap=v), 24, None, None),
    ("is_independent", "cap"): (lambda v: is_independent(PARITY, cap=v), 24, None, None),
    ("reduce_hat", "cap"): (lambda v: reduce_hat(PAIRS, cap=v), 24, None, None),
    ("reduce_prime", "cap"): (lambda v: reduce_prime(PARITY, cap=v), 24, None, None),
    ("check_counting_inequality", "cap"): (
        lambda v: check_counting_inequality(PAIRS, cap=v), 24, None, None),
    ("verify_main_theorem", "cap"): (
        lambda v: verify_main_theorem(PARITY, cap=v), 24, None, None),
    ("min_subcube_hitting", "n"): (lambda v: min_subcube_hitting(v, 1), N, 1, None),
    ("min_subcube_hitting", "k"): (lambda v: min_subcube_hitting(N, v), 1, 1, N),
    ("min_subcube_hitting", "cap"): (
        lambda v: min_subcube_hitting(N, 1, cap=v), N, None, None),
    ("max_solutions", "n"): (lambda v: max_solutions(v, 1), N, 1, None),
    ("max_solutions", "k"): (lambda v: max_solutions(N, v), 1, 1, N),
    ("max_solutions", "cap"): (lambda v: max_solutions(N, 1, cap=v), N, None, None),
    ("parity_problem", "n"): (lambda v: parity_problem(v), N, 1, None),
    ("ban_set", "context entry"): (lambda v: PAIRS.ban_set((0, 1), (v,)), 1, 0, 1),
    ("from_table", "ban-table entry"): (lambda v: BanProblem.from_table(
        2, 1, 2, {((0,), (0,)): {(v,)}, ((0,), (1,)): {(0,)},
                  ((1,), (0,)): {(0,)}, ((1,), (1,)): {(0,)}}), 1, 0, 1),
    ("BanProblem.from_json_dict", "cap"): (
        lambda v: BanProblem.from_json_dict({"generator": "random", "n": N, "k": 1}, v),
        24, None, None),
    # A table object and a parity object build no capped table, so their
    # cap is read for its type only.
    ("BanProblem.from_json_dict", "cap on a table object"): (
        lambda v: BanProblem.from_json_dict(PAIRS_JSON, v), 0, None, None),
    ("BanProblem.from_json_dict", "cap on a parity object"): (
        lambda v: BanProblem.from_json_dict({"generator": "parity", "n": N}, v), 0, None, None),
    ("from_vc", "m"): (lambda v: from_vc(SetSystem(N, (0,)), v), 1, 1, N),
    ("from_vc", "cap"): (lambda v: from_vc(SetSystem(N, (0,)), 1, cap=v), 6, None, None),
    ("from_element_tree", "m"): (
        lambda v: from_element_tree(TREE, SetSystem(N, (0,)), v), 1, 1, 2),
    ("from_element_tree", "cap"): (
        lambda v: from_element_tree(TREE, SetSystem(N, (0,)), 1, cap=v), 8, None, None),
    ("from_type_tree", "t"): (lambda v: from_type_tree(EMPTY_GRAPH, CHAIN, v), 2, 2, None),
    ("random_problem", "n"): (lambda v: random_problem(v, 1, 2, 0), N, 1, None),
    ("random_problem", "k"): (lambda v: random_problem(N, v, 2, 0), 1, 1, N),
    ("random_problem", "j"): (lambda v: random_problem(N, 1, v, 0), 2, 2, None),
    ("random_problem", "seed"): (lambda v: random_problem(N, 1, 2, v), 0, None, None),
    ("random_problem", "cap"): (lambda v: random_problem(N, 1, 2, 0, cap=v), 24, None, None),
    ("Graph", "vertex_count"): (lambda v: Graph(v, frozenset()), N, 0, None),
    ("Graph", "edge endpoint"): (
        lambda v: Graph(N, frozenset({frozenset((0, v))})), 1, 0, N - 1),
    ("Graph.from_edge_list", "vertex_count"): (
        lambda v: Graph.from_edge_list(v, []), N, 0, None),
    ("Graph.from_edge_list", "edge endpoint"): (
        lambda v: Graph.from_edge_list(N, [(0, v)]), 1, 0, N - 1),
    ("tree_rank", "cap"): (lambda v: tree_rank(EMPTY_GRAPH, cap=v), N, None, None),
    ("check_height_bound", "cap"): (
        lambda v: check_height_bound(EMPTY_GRAPH, CHAIN, cap=v), N, None, None),
    ("random_graph", "vertex_count"): (lambda v: random_graph(v, 0.5, 0), N, 0, None),
    ("random_graph", "seed"): (lambda v: random_graph(N, 0.5, v), 0, None, None),
    ("ProbSpace.uniform", "size"): (lambda v: ProbSpace.uniform(v), N, 1, None),
    ("TestTree", "height"): (lambda v: shatterlab.TestTree(SPACE, v, 0), 2, 1, None),
    ("TestTree", "seed"): (lambda v: shatterlab.TestTree(SPACE, 2, v), 0, None, None),
    ("sample_test_tree", "height"): (lambda v: sample_test_tree(SPACE, v, 0), 2, 1, None),
    ("sample_test_tree", "seed"): (lambda v: sample_test_tree(SPACE, 2, v), 0, None, None),
    ("exact_expectation", "height"): (
        lambda v: exact_expectation(SPACE, [0], v), 2, 1, None),
    ("run_weak_law", "height"): (
        lambda v: run_weak_law(SPACE, [0], v, QUARTER, 3, 0), 2, 1, None),
    ("run_weak_law", "trials"): (
        lambda v: run_weak_law(SPACE, [0], 2, QUARTER, v, 0), 3, 1, None),
    ("run_weak_law", "seed"): (
        lambda v: run_weak_law(SPACE, [0], 2, QUARTER, 3, v), 0, None, None),
    ("run_weak_law", "cap"): (
        lambda v: run_weak_law(SPACE, [0], 2, QUARTER, 3, 0, cap=v), 3, None, None),
    ("run_vc_theorem", "height"): (
        lambda v: run_vc_theorem(SPACE, POWER, v, QUARTER, 3, 0), 2, 1, None),
    ("run_vc_theorem", "trials"): (
        lambda v: run_vc_theorem(SPACE, POWER, 2, QUARTER, v, 0), 3, 1, None),
    ("run_vc_theorem", "seed"): (
        lambda v: run_vc_theorem(SPACE, POWER, 2, QUARTER, 3, v), 0, None, None),
    ("run_vc_theorem", "cap"): (
        lambda v: run_vc_theorem(SPACE, POWER, 2, QUARTER, 3, 0, cap=v), 24, None, None),
    ("PointArrangement", "dimension"): (lambda v: PointArrangement(v, (), ()), 2, 1, None),
    ("region_count_general_position", "r"): (
        lambda v: region_count_general_position(v, 2), 2, 1, None),
    ("region_count_general_position", "s"): (
        lambda v: region_count_general_position(2, v), 2, 0, None),
}


def _bad_integers():
    """1.5, True and "3" for every row; one below its lowest and one above
    its highest accepted value where it has them."""
    for row, (call, _, low, high) in INT_PARAMS.items():
        values = [1.5, True, "3"]
        values += [] if low is None else [low - 1]
        values += [] if high is None else [high + 1]
        for value in values:
            yield pytest.param(call, value, id=f"{'-'.join(row)}-{value!r}")


@pytest.mark.parametrize("call, bad", _bad_integers())
def test_every_integer_parameter_refuses_junk(call, bad):
    """A float, a bool, a string or a value out of bounds is an InputError,
    never read as an integer, clamped, or left to fail deeper down."""
    with pytest.raises(InputError):
        call(bad)


@pytest.mark.parametrize("row", INT_PARAMS, ids="-".join)
def test_integer_table_rows_accept_their_value(row):
    """Each row's call succeeds on its accepted value, so a refusal above
    comes from the parameter under test."""
    call, good, _, _ = INT_PARAMS[row]
    call(good)


@pytest.mark.parametrize("leaf", [(1,), (), (1, 1, 0), (1.0, 1), (1, 2), (1, -1),
                                  (True, 0), (np.float64(1), 0), 5, {0, 1}, None],
                         ids=repr)
def test_path_requirements_refuses_a_malformed_leaf(leaf):
    """A leaf of TREE (height 2, arity 2) is a tuple or list of two integers
    in [0, 2); anything else is an InputError, never read as another leaf."""
    with pytest.raises(InputError):
        TREE.path_requirements(leaf)


def test_path_requirements_reads_numpy_integers():
    assert TREE.path_requirements((np.int64(1), np.uint8(0))) == \
        TREE.path_requirements((1, 0)) == (0b001, 0b100)


INTEGER_NAMES = {"s", "r", "n", "k", "j", "m", "t", "l", "size", "height", "trials",
                 "seed", "universe_size", "arity_exponent", "vertex_count",
                 "dimension", "cap"}
# A result record, filled from a checked call: not an input.
NOT_INPUTS = {("ExperimentReport", "trials"), ("HereditaryWitness", "S")}


def _exported_callables():
    """(name, object) for each function and class in a module's
    ``__all__``."""
    for info in pkgutil.iter_modules(shatterlab.__path__):
        module = importlib.import_module(f"shatterlab.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if callable(obj):
                yield name, obj


def test_every_integer_parameter_has_a_row():
    """Every parameter of an integer name of each function and class in a
    module's ``__all__`` has a row in INT_PARAMS, so a new entry point
    cannot skip the rule."""
    missing = [(name, param) for name, obj in _exported_callables()
               for param in inspect.signature(obj).parameters
               if param in INTEGER_NAMES
               and (name, param) not in INT_PARAMS.keys() | NOT_INPUTS]
    assert not missing


CONTAINER_NAMES = {"sets", "families", "weights", "points", "halfspaces", "edges",
                   "edge_list", "labels", "leaf", "path", "S", "X", "table", "order",
                   "xs", "sigma", "targets", "members", "lines"}


def test_every_container_parameter_has_a_row():
    """Every parameter of a container name of each function, class, public
    method and classmethod in a module's ``__all__`` has a row in
    WRONG_CONTAINERS, keyed "Class.method" for a method, so a new entry
    point cannot skip the collection rule."""
    entries = []
    for name, obj in _exported_callables():
        entries.append((name, obj))
        if inspect.isclass(obj):
            entries += [(f"{name}.{attr}", getattr(obj, attr))
                        for attr, value in vars(obj).items() if not attr.startswith("_")
                        and (inspect.isfunction(value) or isinstance(value, classmethod))]
    rows = {row for row, _ in WRONG_CONTAINERS.values()}
    missing = [(name, param) for name, obj in entries
               for param in inspect.signature(obj).parameters
               if param in CONTAINER_NAMES and (name, param) not in rows | NOT_INPUTS]
    assert not missing


BIT_LAYOUT_CALLS = (".to_bytes(", "np.packbits", "np.unpackbits")
# A refusal of a malformed JSON object, or a test for a JSON array, written
# outside ``errors.reading`` and ``errors.require_list``.
JSON_RULE_FORKS = (re.compile(r'InputError\(f?"malformed'),
                   re.compile(r"isinstance\(\w+, list\)"))
# A refusal of an argument with no length, or of one that is no dict or no
# collection, written outside ``errors.require_len``, ``require_dict`` and
# ``require_iterable``.
CONTAINER_RULE_FORK = re.compile(r'InputError\(f?"[^"]*must be a (sequence|dict|collection)\b')


def test_the_package_exports_every_public_name():
    """Each name in a module's ``__all__`` is an attribute of ``shatterlab``,
    so the package's exports cannot drift from the modules'."""
    modules = [importlib.import_module(f"shatterlab.{info.name}")
               for info in pkgutil.iter_modules(shatterlab.__path__)]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ())
               if getattr(shatterlab, name, None) is not getattr(module, name)]
    assert missing == []


def test_only_setsystem_packs_or_unpacks_bits():
    """The bulk bit layout lives in ``setsystem._bit_matrix`` and
    ``_member_columns``; no other module of the library packs a mask into
    bytes or unpacks one, so the layout cannot fork again."""
    package = Path(shatterlab.__file__).parent
    forks = [(path.name, call) for path in sorted(package.glob("*.py"))
             if path.name != "setsystem.py"
             for call in BIT_LAYOUT_CALLS if call in path.read_text()]
    assert not forks


def test_only_errors_reads_json_objects_and_arrays():
    """``errors.reading`` is the one rule that refuses a malformed JSON
    object and ``errors.require_list`` the one that reads a JSON array; no
    other module of the library writes its own, so the rules cannot fork
    again."""
    package = Path(shatterlab.__file__).parent
    forks = [(path.name, fork.pattern) for path in sorted(package.glob("*.py"))
             if path.name != "errors.py"
             for fork in JSON_RULE_FORKS if fork.search(path.read_text())]
    assert not forks


def test_only_errors_refuses_a_value_with_no_length_or_no_dict():
    """``errors.require_len`` is the one rule that refuses an argument with
    no length, ``errors.require_dict`` the one that refuses labels or a
    table that is no dict, and ``errors.require_iterable`` the one that
    refuses a container of members that cannot be iterated; no other module
    of the library writes its own, so the rules cannot fork again."""
    package = Path(shatterlab.__file__).parent
    forks = [(path.name, match.group()) for path in sorted(package.glob("*.py"))
             if path.name != "errors.py"
             for match in CONTAINER_RULE_FORK.finditer(path.read_text())]
    assert not forks
