"""Set-system construction, canonicalization, projections, and generators."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from shatterlab import (ElementTree, Graph, InputError, ProbSpace, SetSystem,
                        build_type_tree, characteristic_path, child,
                        count_children_dropping, dual, from_element_tree,
                        generate, project, run_weak_law, sample_test_tree,
                        shatters)
from shatterlab.setsystem import GENERATOR_KINDS, child_masks


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


def test_child_masks_conflicting_repeat_is_empty():
    sets = generate("powerset", 3).sets
    assert child_masks(sets, (1, 1), (0, 1)) == ()
    assert child_masks(sets, (1, 1, 1), (1, 0, 1)) == ()
    assert child_masks(sets, (1, 1), (1, 1)) == tuple(
        m for m in sets if m & 2)


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
