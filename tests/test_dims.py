"""Dimensions, shatter functions, and the bound auditor, cross-checked
against exhaustive tree-enumeration oracles on tiny instances."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from shatterlab import (ElementTree, InputError, NEG_INF, ResourceCapError,
                        SetSystem, audit_bounds, count_children_dropping,
                        generate, op_rank, op_shatter, random_element_tree,
                        shatters, thicket_dimension, thicket_shatter,
                        vc_dimension, vc_shatter_function)
from shatterlab.dims import rank_from_str, rank_to_str

from conftest import random_system
from oracles import brute_rank, brute_shatter


# ---------------------------------------------------------------------------
# frozen values on the named fixtures
# ---------------------------------------------------------------------------

def test_vc_dimension_fixtures():
    assert vc_dimension(generate("powerset", 4)) == 4
    assert vc_dimension(generate("singletons_with_empty", 5)) == 1
    assert vc_dimension(generate("thresholds", 5)) == 1
    assert vc_dimension(generate("intervals", 5)) == 2
    assert vc_dimension(generate("all_subsets_of_size_at_most", 5, 2)) == 2
    assert vc_dimension(SetSystem(3, ())) == NEG_INF
    assert vc_dimension(SetSystem(3, (5,))) == 0


def test_thicket_dimension_fixtures():
    assert thicket_dimension(generate("powerset", 3)) == 3
    assert thicket_dimension(generate("thresholds", 3)) == 2
    assert thicket_dimension(generate("thresholds", 6)) == 2
    assert thicket_dimension(generate("singletons_with_empty", 4)) == 1
    assert thicket_dimension(SetSystem(4, ())) == NEG_INF
    assert thicket_dimension(SetSystem(4, (3,))) == 0


def test_shatter_function_fixtures():
    power = generate("powerset", 3)
    assert [vc_shatter_function(power, n) for n in range(4)] == [1, 2, 4, 8]
    chain = generate("thresholds", 3)
    assert vc_shatter_function(chain, 2) == 3
    assert thicket_shatter(chain, 2) == 4
    assert thicket_shatter(chain, 0) == 1
    assert op_shatter(chain, 1, 2) == 4
    assert op_shatter(power, 2, 1) == 4


def test_op_rank_fixtures():
    assert op_rank(generate("powerset", 4), 2) == 2
    assert op_rank(generate("powerset", 4), 1) == 4
    assert op_rank(generate("thresholds", 3), 2) == 0
    assert op_rank(SetSystem(5, ()), 3) == NEG_INF
    with pytest.raises(InputError):
        op_rank(generate("powerset", 3), 0)


def test_shatters_predicate():
    chain = generate("thresholds", 4)
    assert shatters(chain, [2])
    assert not shatters(chain, [1, 3])
    assert shatters(generate("powerset", 3), [0, 1, 2])


def test_caps_raise():
    big = SetSystem(25, (1,))
    with pytest.raises(ResourceCapError):
        vc_dimension(big)
    with pytest.raises(ResourceCapError):
        op_rank(SetSystem(13, (1,)), 1)
    assert op_rank(SetSystem(13, (1,)), 1, cap=13) == 0
    # thicket is op_1 without the cap
    assert thicket_dimension(SetSystem(13, (1,))) == 0
    assert thicket_shatter(SetSystem(13, (1,)), 2) == 1


def test_rank_serialization():
    assert rank_to_str(NEG_INF) == "-inf"
    assert rank_to_str(3) == "3"
    assert rank_from_str("-inf") == NEG_INF
    assert rank_from_str("2") == 2


# ---------------------------------------------------------------------------
# oracle equivalence on tiny instances
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(12))
def test_thicket_matches_brute_force(seed):
    system = random_system(3, 8, seed=seed)
    assert thicket_dimension(system) == brute_rank(system, 1, 3)
    assert op_rank(system, 1) == brute_rank(system, 1, 3)
    for height in range(3):
        assert thicket_shatter(system, height) == brute_shatter(system, 1, height)
        assert op_shatter(system, 1, height) == brute_shatter(system, 1, height)


@pytest.mark.parametrize("seed", range(6))
def test_op2_matches_brute_force(seed):
    system = random_system(3, 8, seed=50 + seed)
    brute = brute_rank(system, 2, 2)
    assert min(op_rank(system, 2), 2) == brute
    for height in range(3):
        assert op_shatter(system, 2, height) == brute_shatter(system, 2, height)
    # s = 3: universe 2 < s needs repeated tuples and has rank 0; the
    # powerset of 3 has rank 1
    for system in (random_system(2, 4, seed=50 + seed),
                   random_system(3, 8, seed=50 + seed), generate("powerset", 3)):
        assert min(op_rank(system, 3), 1) == brute_rank(system, 3, 1)
        for height in range(2):
            assert op_shatter(system, 3, height) == brute_shatter(system, 3, height)


def test_powerset4_universe4_brute_spot_check():
    system = generate("powerset", 4)
    assert brute_rank(system, 1, 3) == 3  # capped enumeration height
    assert thicket_shatter(system, 3) == brute_shatter(system, 1, 3) == 8


# ---------------------------------------------------------------------------
# element trees
# ---------------------------------------------------------------------------

def test_element_tree_validation():
    tree = ElementTree(1, 2, {(): (0,), (0,): (1,), (1,): (2,)})
    assert tree.arity == 2
    assert len(list(tree.leaves())) == 4
    with pytest.raises(InputError):
        ElementTree(1, 2, {(): (0,)})
    with pytest.raises(InputError):
        ElementTree(1, 1, {(): (0, 1)})


def test_path_requirements_and_labeling():
    tree = ElementTree(1, 2, {(): (0,), (0,): (0,), (1,): (1,)})
    # leaf (0, 1): requires 0 out at root, then 0 in -- contradiction
    assert tree.path_requirements((0, 1)) is None
    assert tree.path_requirements((1, 1)) == (0b11, 0)
    chain = generate("thresholds", 3)
    assert not tree.properly_labelable((0, 1), chain.sets)
    assert tree.properly_labelable((1, 1), chain.sets)


def test_random_element_tree_seeded():
    t1 = random_element_tree(4, 2, 2, seed=9)
    t2 = random_element_tree(4, 2, 2, seed=9)
    assert t1 == t2
    assert len(t1.labels) == 1 + 4


def test_count_properly_labeled_full_tree_exists_iff_rank():
    chain = generate("thresholds", 3)
    # thicket dimension 2: some binary tree of height 2 labels all 4 leaves
    found = False
    for labels in itertools.product(range(3), repeat=3):
        tree = ElementTree(1, 2, {(): (labels[0],), (0,): (labels[1],),
                                  (1,): (labels[2],)})
        if tree.count_properly_labeled(chain) == 4:
            found = True
            break
    assert found


# ---------------------------------------------------------------------------
# identities and properties
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=16)
    .map(lambda masks: SetSystem(n, tuple(masks)))))
def test_dimension_identities(system):
    thicket = thicket_dimension(system)
    assert op_rank(system, 1) == thicket
    assert thicket >= vc_dimension(system)
    for r in (1, 2, 3):
        if r > system.universe_size:
            continue
        assert (op_rank(system, r) == 0) == (vc_dimension(system) < r)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=16)
    .map(lambda masks: SetSystem(n, tuple(masks)))))
def test_shatter_functions_monotone_and_bounded(system):
    prev_pi = prev_rho = 0
    for n in range(min(4, system.universe_size) + 1):
        pi = vc_shatter_function(system, n)
        rho = thicket_shatter(system, n)
        assert pi >= prev_pi and rho >= prev_rho
        assert pi <= len(system.sets) and rho <= len(system.sets)
        assert rho <= 1 << n
        prev_pi, prev_rho = pi, rho


def test_count_children_dropping():
    power = generate("powerset", 3)
    # op_1-rank(powerset(3)) = 3; both children on any element drop by 1
    assert count_children_dropping(power, (0,), 1, 1) == 2
    assert count_children_dropping(power, (0,), 1, 2) == 0
    with pytest.raises(InputError):
        count_children_dropping(SetSystem(3, ()), (0,), 1, 1)


# ---------------------------------------------------------------------------
# the bound auditor
# ---------------------------------------------------------------------------

def test_audit_bounds_pass_on_fixtures(zoo):
    for system in zoo:
        if system.universe_size > 8:
            continue
        report = audit_bounds(system, s=2, r=2, n=4)
        assert report.all_pass, report.failures()


def test_audit_bounds_tightness_for_bounded_size():
    system = generate("all_subsets_of_size_at_most", 5, 2)
    report = audit_bounds(system, s=1, r=1, n=5)
    row = next(r for r in report.rows if r["bound"] == "vc_sauer_shelah")
    assert row["lhs"] == row["rhs"] == 16  # 1 + 5 + 10


def test_audit_bounds_empty_family():
    report = audit_bounds(SetSystem(3, ()), s=1, r=1, n=3)
    assert report.all_pass


def test_audit_bounds_bad_params():
    with pytest.raises(InputError):
        audit_bounds(generate("powerset", 3), s=0, r=1, n=2)
