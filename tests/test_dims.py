"""Dimensions, shatter functions, and the bound auditor, cross-checked
against exhaustive tree-enumeration and trace-counting oracles."""

import itertools
import math
import random
import signal
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from shatterlab import (ElementTree, InputError, NEG_INF, ResourceCapError,
                        SetSystem, audit_bounds, child, count_children_dropping,
                        generate, op_rank, op_shatter, random_element_tree,
                        region_count_general_position, shatters,
                        thicket_dimension, thicket_shatter, vc_dimension,
                        vc_shatter_function)
from shatterlab import dims
from shatterlab.banseq import solution_bound
from shatterlab.dims import rank_to_str

from families import fixture_zoo, random_system
from oracles import (binomial_bound, brute_rank_shatter, brute_shatters,
                     brute_vc_dimension, brute_vc_shatter_function,
                     tuple_op_rank, tuple_op_shatter, walk_count_properly_labeled,
                     walk_path_requirements)


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


def test_out_of_range_inputs_raise():
    power = generate("powerset", 3)
    for targets in ([3], [-1], [0, 5]):
        with pytest.raises(InputError):
            shatters(power, targets)
    for system in (power, SetSystem(3, ())):
        for size in (-1, 4):
            with pytest.raises(InputError):
                vc_shatter_function(system, size)


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


# ---------------------------------------------------------------------------
# oracle equivalence on tiny instances
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(12))
def test_thicket_matches_brute_force(seed):
    system = random_system(3, 8, seed=seed)
    rank, shatter = brute_rank_shatter(system, 1, 3)
    assert thicket_dimension(system) == rank
    assert op_rank(system, 1) == rank
    for height in range(3):
        assert thicket_shatter(system, height) == shatter[height]
        assert op_shatter(system, 1, height) == shatter[height]


@pytest.mark.parametrize("seed", range(6))
def test_op2_matches_brute_force(seed):
    system = random_system(3, 8, seed=50 + seed)
    rank, shatter = brute_rank_shatter(system, 2, 2)
    assert min(op_rank(system, 2), 2) == rank
    for height in range(3):
        assert op_shatter(system, 2, height) == shatter[height]
    # s = 3: universe 2 < s splits on its one 2-set and has rank 0; the
    # powerset of 3 has rank 1
    for system in (random_system(2, 4, seed=50 + seed),
                   random_system(3, 8, seed=50 + seed), generate("powerset", 3)):
        rank, shatter = brute_rank_shatter(system, 3, 1)
        assert min(op_rank(system, 3), 1) == rank
        for height in range(2):
            assert op_shatter(system, 3, height) == shatter[height]


@pytest.mark.parametrize("seed", range(8))
def test_shatter_functions_stop_at_the_family_size(seed):
    """psi^s(h) = |F| from h = |F| - 1 on, checked against the tuple
    recursion, which recurses at every level; a tuple that leaves the
    family whole is skipped, so no height recurses deeper than |F|."""
    rng = random.Random(1700 + seed)
    system = _distinct_system(rng, (3, 6), (2, 10))
    sets, n = system.sets, system.universe_size
    for s in (1, 2, 3):
        for height in range(len(sets) + 2):
            assert op_shatter(system, s, height) == tuple_op_shatter(sets, n, s, height)
        assert op_shatter(system, s, 10 ** 5) == len(sets)
    assert thicket_shatter(system, 10 ** 5) == len(sets)


def test_deep_shatter_heights_do_not_recurse_per_level():
    thresholds = generate("thresholds", 4)
    assert thicket_shatter(thresholds, 1000) == 5
    assert op_shatter(thresholds, 2, 2000) == 5
    assert thicket_shatter(thresholds, 3) == brute_rank_shatter(thresholds, 1, 3)[1][3]


def test_powerset4_universe4_brute_spot_check():
    system = generate("powerset", 4)
    rank, shatter = brute_rank_shatter(system, 1, 3)
    assert rank == 3  # capped enumeration height
    assert thicket_shatter(system, 3) == shatter[3] == 8


# ---------------------------------------------------------------------------
# VC search against the trace-counting oracles
# ---------------------------------------------------------------------------

def _vc_corpus():
    """2,000 seeded (universe, masks) draws: universes 0-10, 0-40 masks, one
    membership density per family."""
    rng = random.Random(2018)
    corpus = []
    for _ in range(2000):
        n, density = rng.randint(0, 10), rng.random()
        masks = tuple(sum(1 << x for x in range(n) if rng.random() < density)
                      for _ in range(rng.randint(0, 40)))
        corpus.append((n, masks))
    return corpus


VC_CORPUS = _vc_corpus()


def _assert_vc_matches_oracles(system, rng):
    vc = brute_vc_dimension(system)
    assert vc_dimension(system) == vc, system
    # Below 4^s members the op_s-rank is 1 exactly when an s-set is shattered.
    for s in (1, 2, 3):
        if system.sets and len(system.sets) < 1 << 2 * s:
            assert op_rank(system, s, cap=system.universe_size) == int(vc >= s), \
                (system, s)
    for size in range(system.universe_size + 1):
        assert (vc_shatter_function(system, size)
                == brute_vc_shatter_function(system, size)), (system, size)
    n = system.universe_size
    for _ in range(4):
        targets = rng.sample(range(n), rng.randint(0, min(n, 4)))
        targets += targets[:1]  # a repeated target counts once
        assert shatters(system, targets) == brute_shatters(system, targets), \
            (system, targets)


def test_vc_corpus_covers_the_edge_families():
    distinct = [(n, len(masks), len(set(masks))) for n, masks in VC_CORPUS]
    assert any(drawn == 0 for _, drawn, _ in distinct)
    assert any(kept == 1 for _, _, kept in distinct)
    assert any(drawn >= 20 and kept <= drawn // 4 for _, drawn, kept in distinct)
    assert any(n >= 3 and kept >= (1 << n) - 1 for n, _, kept in distinct)


def test_vc_search_matches_oracles_on_seeded_corpus():
    rng = random.Random(7)
    for n, masks in VC_CORPUS:
        _assert_vc_matches_oracles(SetSystem(n, masks), rng)


def test_vc_search_matches_oracles_on_generator_fixtures():
    rng = random.Random(8)
    systems = fixture_zoo()
    for n in range(9):
        systems += [generate("powerset", n), generate("singletons_with_empty", n),
                    generate("thresholds", n), generate("intervals", n)]
        systems += [generate("all_subsets_of_size_at_most", n, d) for d in range(4)]
    for system in systems:
        _assert_vc_matches_oracles(system, rng)


@pytest.mark.parametrize("seed", range(20))
def test_vc_search_matches_oracles_at_benchmark_sizes(seed):
    rng = random.Random(seed)
    n = rng.randint(14, 16)
    masks = tuple(sum(1 << x for x in range(n) if rng.random() < 0.3)
                  for _ in range(rng.randint(20, 28)))
    _assert_vc_matches_oracles(SetSystem(n, masks), rng)


def _powerset_minus(n, count, seed):
    """powerset(n) without ``count`` seeded random members."""
    dropped = set(random.Random(seed).sample(range(1 << n), count))
    return SetSystem(n, tuple(m for m in range(1 << n) if m not in dropped))


def _class_bound_families():
    """Seeded families at the VC search's class-size bound:
    - one large trace class (members that agree on a low part) plus
      singletons;
    - |F| just below, at and just above 4 * 2^k at size k, sparse
      families that the search counts, and 2|F| at 2^n, where the
      density rule starts or stops counting;
    - powerset(n) minus a few members, too dense to count, and half of a
      cube, which counts near its top sizes."""
    rng = random.Random(19)
    systems = []
    for n in range(4, 11):
        for _ in range(3):
            low = rng.randint(1, n - 2)
            pattern = rng.randrange(1 << low)
            big = {pattern | rng.randrange(1 << (n - low)) << low
                   for _ in range(rng.randint(8, 40))}
            singletons = {1 << x for x in rng.sample(range(n), rng.randint(1, n))}
            systems.append(SetSystem(n, tuple(big | singletons)))
    for n, k in ((7, 2), (8, 3), (9, 2), (8, 4), (10, 5)):
        for count in ((4 << k) - 1, 4 << k, (4 << k) + 1):
            systems.append(SetSystem(n, tuple(rng.sample(range(1 << n), count))))
    for n in (6, 7):
        for count in ((1 << n - 1) - 1, 1 << n - 1, (1 << n - 1) + 1):
            systems.append(SetSystem(n, tuple(rng.sample(range(1 << n), count))))
    for n in range(3, 11):
        systems.append(_powerset_minus(n, rng.randint(1, 5), rng.randrange(1 << 30)))
        systems.append(SetSystem(n, tuple(rng.sample(range(1 << n), 1 << n - 1))))
    return systems


def test_vc_search_matches_oracles_at_the_class_bound():
    rng = random.Random(20)
    for system in _class_bound_families():
        _assert_vc_matches_oracles(system, rng)


@pytest.mark.parametrize("call, generator, expected", [
    (vc_dimension, ("powerset", 16), 16),
    (vc_dimension, ("all_subsets_of_size_at_most", 20, 3), 3),
    (lambda system: vc_shatter_function(system, 12),
     ("all_subsets_of_size_at_most", 12, 2), 79),
    (vc_dimension, lambda: _powerset_minus(16, 100, seed=16), 15),
], ids=["vc-powerset-16", "vc-at-most-3-of-20", "pi12-at-most-2-of-12",
        "vc-powerset-16-minus-100"])
def test_vc_worst_cases_within_a_second(call, generator, expected):
    system = generator() if callable(generator) else generate(*generator)
    start = time.process_time()
    assert call(system) == expected
    assert time.process_time() - start < 1


def _density_boundary_families():
    """Seeded families with 2|F| = 2^n - 2, 2^n and 2^n + 2 for n = 9, 10:
    the first two split classes as member masks, the last keeps sets of
    traces."""
    rng = random.Random(33)
    return [SetSystem(n, tuple(rng.sample(range(1 << n), (1 << n - 1) + delta)))
            for n in (9, 10) for delta in (-1, 0, 1)]


def test_vc_search_matches_oracles_at_the_density_boundary():
    rng = random.Random(21)
    for system in _density_boundary_families():
        _assert_vc_matches_oracles(system, rng)


def test_vc_search_reads_one_column_table_per_call(monkeypatch):
    """Each sparse VC call builds its own columns once, through dims' binding
    of ``setsystem._member_columns``, and reaches neither an op_s search nor
    ``child_masks``; the dense family and the op-rank shortcut build none."""
    built, searched = [], []
    real_columns, real_search = dims._member_columns, dims._search

    def counted_columns(sets, n):
        built.append((sets, n))
        return real_columns(sets, n)

    def counted_search(sets, n, s):
        searched.append((sets, n, s))
        return real_search(sets, n, s)

    def no_child_masks(sets, xs, sigma):
        raise AssertionError(f"child_masks reached on {xs}")

    monkeypatch.setattr(dims, "_member_columns", counted_columns)
    monkeypatch.setattr(dims, "_search", counted_search)
    monkeypatch.setattr(dims, "child_masks", no_child_masks)
    rng = random.Random(5)
    sparse = SetSystem(10, tuple(rng.sample(range(1 << 10), 200)))
    small = SetSystem(10, tuple(rng.sample(range(1 << 10), 12)))
    dense = SetSystem(8, tuple(rng.sample(range(1 << 8), 200)))
    calls = [(vc_dimension, sparse), (lambda system: vc_shatter_function(system, 5), sparse)]
    for call, system in calls:
        for _ in range(2):  # each call builds its own columns
            built.clear()
            call(system)
            assert built == [(system.sets, system.universe_size)]
    built.clear()
    vc_dimension(dense), vc_shatter_function(dense, 5)
    assert searched == []
    # Fewer than 4^s members: the op-rank shortcut counts sets of traces.
    op_rank(small, 2)
    assert op_rank(generate("powerset", 3), 2) == 1
    assert built == []


def test_vc_dimension_of_2000_masks_on_20_points_within_3_s():
    """The expected VC dimension, 9, was read from one run of the code
    before the class split."""
    system = SetSystem(20, tuple(random.Random(1).sample(range(1 << 20), 2000)))
    start = time.process_time()
    assert vc_dimension(system) == 9
    assert time.process_time() - start < 3


# ---------------------------------------------------------------------------
# bitset kernels against the tuple-filter recursions they replaced
# ---------------------------------------------------------------------------

def _distinct_system(rng, universes, counts):
    n = rng.randint(*universes)
    return SetSystem(n, tuple(rng.sample(range(1 << n), rng.randint(*counts))))


def _assert_op_matches_tuple_recursions(system, arities, max_height):
    sets, n = system.sets, system.universe_size
    for s in arities:
        rank = tuple_op_rank(sets, n, s) if sets else NEG_INF
        assert op_rank(system, s) == rank, (system, s)
        for height in range(max_height + 1):
            assert (op_shatter(system, s, height)
                    == tuple_op_shatter(sets, n, s, height)), (system, s, height)
            if s == 1:
                assert thicket_shatter(system, height) == tuple_op_shatter(
                    sets, n, 1, height), (system, height)
        if s == 1:
            assert thicket_dimension(system) == rank


@pytest.mark.parametrize("seed", range(12))
def test_op_bitsets_match_tuple_recursions_at_audit_sizes(seed):
    rng = random.Random(1400 + seed)
    _assert_op_matches_tuple_recursions(_distinct_system(rng, (7, 8), (16, 24)),
                                        (1, 2), 3)
    _assert_op_matches_tuple_recursions(_distinct_system(rng, (5, 6), (10, 16)),
                                        (3,), 2)


@pytest.mark.parametrize("seed", range(3))
def test_closed_levels_match_tuple_recursions(seed):
    """The levels that sizes answer: families of 1-3 members and of exactly
    arity^t members for s = 1..3, each also with element 0 in every member,
    so that the tuples holding 0 leave a child equal to the family.  At
    s = 2 sizes answer height 0 only: the 16 members sigma + t, sigma over
    bits 0-1 and t in {0, 4, 8, 16}, leave 4 in each child on (0, 1), yet no
    child shatters a pair, so the op_2-rank is 1."""
    trap = SetSystem(5, tuple(sigma | t for sigma in range(4) for t in (0, 4, 8, 16)))
    assert op_rank(trap, 2) == 1
    _assert_op_matches_tuple_recursions(trap, (1, 2, 3), 4)
    rng = random.Random(3900 + seed)
    for count in (1, 2, 3, 4, 8, 16, 64):
        n = rng.randint(max(1, (count - 1).bit_length()) + 1, 7)
        plain = rng.sample(range(1 << n), count)
        with_0 = [m << 1 | 1 for m in rng.sample(range(1 << (n - 1)), count)]
        for sets in (plain, with_0):
            _assert_op_matches_tuple_recursions(SetSystem(n, tuple(sets)), (1, 2, 3), 4)


@pytest.mark.parametrize("system", [
    SetSystem(4, ()), SetSystem(4, (0b1010,)), SetSystem(2, (0b01, 0b10, 0b11)),
    SetSystem(1, (0, 1)), generate("powerset", 4),
], ids=["empty", "one-member", "universe-2", "universe-1", "powerset-4"])
def test_bitset_edge_cases_match_tuple_recursions(system):
    # universes 1 and 2 lie below s = 3, where op_shatter splits on the one
    # n-set and the oracle on tuples with repeated elements
    _assert_op_matches_tuple_recursions(system, (1, 2, 3), 3)


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
    # containers of the wrong kind: a node or a label that is not a tuple,
    # labels that are not a dict
    for labels in ({0: (0,)}, {(): 0}, 5):
        with pytest.raises(InputError):
            ElementTree(1, 1, labels)


def test_path_requirements_and_labeling():
    tree = ElementTree(1, 2, {(): (0,), (0,): (0,), (1,): (1,)})
    # leaf (0, 1): requires 0 out at root, then 0 in -- contradiction
    assert tree.path_requirements((0, 1)) is None
    assert tree.path_requirements((1, 1)) == (0b11, 0)
    chain = generate("thresholds", 3)
    assert not tree.properly_labelable((0, 1), chain.sets)
    assert tree.properly_labelable((1, 1), chain.sets)


@pytest.mark.parametrize("s,height", [(s, h) for s in (1, 2, 3) for h in range(8)
                                      if s * h <= 15])
def test_leaf_table_matches_the_label_walk(s, height):
    """Every leaf's masks and each family's labeled-leaf count, read from
    the tree's leaf table, equal a walk from the root per leaf.  Labels
    range over 10 points, so the masks are not CPython's cached small ints."""
    universe = 10
    tree = random_element_tree(universe, s, height, seed=100 * s + height)
    leaves = list(tree.leaves())
    assert [tree.path_requirements(leaf) for leaf in leaves] == \
        [walk_path_requirements(tree.labels, leaf) for leaf in leaves]
    rng = random.Random(height)
    for size in (1, 30, 300):
        system = SetSystem(universe, tuple(rng.sample(range(1 << universe), size)))
        assert tree.count_properly_labeled(system) == \
            walk_count_properly_labeled(tree.labels, s, height, system.sets)


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


@pytest.mark.parametrize("N, k", [(6, 1), (6, 2), (7, 1), (7, 2)])
def test_thicket_shatter_meets_its_bound_on_bounded_size_families(N, k):
    """The thicket Sauer-Shelah bound rho_F(h) <= sum_{i<=k} C(h, i) is
    tight: the sets of size at most k have thicket dimension k and reach
    it at every height h <= N."""
    system = generate("all_subsets_of_size_at_most", N, k)
    assert thicket_dimension(system) == k
    for h in range(5):
        assert thicket_shatter(system, h) == sum(math.comb(h, i) for i in range(k + 1))


DIMENSION_VALUES = {
    "vc_dimension": vc_dimension,
    "vc_shatter_function": lambda f: vc_shatter_function(f, min(3, f.universe_size)),
    "thicket_dimension": thicket_dimension,
    "op_rank-1": lambda f: op_rank(f, 1),
    "op_rank-2": lambda f: op_rank(f, 2),
    "op_shatter-2-2": lambda f: op_shatter(f, 2, 2),
    "thicket_shatter-3": lambda f: thicket_shatter(f, 3),
}


def test_dimensions_are_invariant_under_relabelling_and_flipping():
    """Permuting the points and XOR-ing every member with one mask maps
    traces to traces and element trees to element trees, so no dimension
    or shatter value moves."""
    for i in range(300):
        rng = random.Random(7000 + i)
        n = rng.randint(2, 8)
        sets = [rng.randrange(1 << n) for _ in range(rng.randint(1, 20))]
        perm, flip = rng.sample(range(n), n), rng.randrange(1 << n)
        moved = [sum(1 << perm[x] for x in range(n) if m >> x & 1) ^ flip for m in sets]
        family, image = SetSystem(n, tuple(sets)), SetSystem(n, tuple(moved))
        for name, value in DIMENSION_VALUES.items():
            assert value(family) == value(image), (i, name)


def test_count_children_dropping():
    power = generate("powerset", 3)
    # op_1-rank(powerset(3)) = 3; both children on any element drop by 1
    assert count_children_dropping(power, (0,), 1, 1) == 2
    assert count_children_dropping(power, (0,), 1, 2) == 0
    with pytest.raises(InputError):
        count_children_dropping(SetSystem(3, ()), (0,), 1, 1)


def children_dropping_from_separate_calls(system, xs, r, l):
    """``count_children_dropping`` rebuilt from one public ``child`` family
    and one public ``op_rank`` call per sigma."""
    a = op_rank(system, r)
    return sum(op_rank(child(system, xs, sigma), r) <= a - l
               for sigma in itertools.product((0, 1), repeat=len(xs)))


def test_count_children_dropping_matches_separate_calls():
    """Seeded families above and below 4^r members, so that the children are
    ranked both by the recursion and by the shattered-s-set shortcut, on
    tuples with repeated elements (whose conflicting children are empty)
    and on the empty tuple."""
    cases = Counter()
    for i in range(600):
        rng = random.Random(3000 + i)
        system = random_system(rng.randint(1, 7), 64, seed=3000 + i)
        n = system.universe_size
        xs = tuple(rng.randrange(n) for _ in range(rng.randint(0, 3)))
        r, l = rng.randint(1, 3), rng.randint(1, 3)
        expected = children_dropping_from_separate_calls(system, xs, r, l)
        assert count_children_dropping(system, xs, r, l) == expected, (i, xs, r, l)
        cases[len(system.sets) >= 4 ** r, len(set(xs)) < len(xs)] += 1
    assert len(cases) == 4
    assert count_children_dropping(generate("powerset", 3), {0, 2}, 1, 1) == 4


POWER3 = generate("powerset", 3)


@pytest.mark.parametrize("call, error, match", [
    (lambda: count_children_dropping(SetSystem(3, ()), 5, 0, 1), InputError, "nonempty"),
    (lambda: count_children_dropping(POWER3, 5, 0, 1), InputError, "r must be at least 1"),
    (lambda: count_children_dropping(POWER3, 5, 1, 0), InputError, "l must be at least 1"),
    (lambda: count_children_dropping(POWER3, 5, 1, 1), InputError, "xs must be a sequence"),
    (lambda: count_children_dropping(POWER3, ("a",), 1, 1, cap=2), ResourceCapError,
     "exceeds cap 2"),
    (lambda: count_children_dropping(POWER3, ("a",), 1, 1, cap="2"), InputError,
     "cap must be an integer"),
    (lambda: count_children_dropping(POWER3, ("a",), 1, 1), InputError,
     "element must be an integer"),
])
def test_count_children_dropping_refusals_in_order(call, error, match):
    """The family, then r and l, then that xs has a length, then op_rank's
    cap, then xs's elements; a row that breaks two checks shows which comes
    first.  The values each check refuses are rows of the tables in
    ``tests/test_setsystem.py``."""
    with pytest.raises(error, match=match):
        call()


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


def audit_rows_from_separate_calls(system, s, r, n):
    """``audit_bounds``' rows rebuilt from public calls made outside any
    audit, so that each call builds its own search, with bounds from the
    oracle's binomial sums."""
    assert dims._searches is None
    empty = not system.sets
    na = min(n, system.universe_size)
    d = NEG_INF if empty else vc_dimension(system)
    k, ks, psi = thicket_dimension(system), op_rank(system, s), op_shatter(system, s, n)
    kr = NEG_INF if empty else op_rank(system, r)
    a0 = binomial_bound(s, r - 1)
    rows = [("vc_sauer_shelah", {"n": na, "dim": rank_to_str(d)},
             0 if empty else vc_shatter_function(system, na), binomial_bound(na, d)),
            ("thicket_sauer_shelah", {"n": n, "dim": rank_to_str(k)},
             thicket_shatter(system, n), binomial_bound(n, k)),
            ("op_shatter_vs_rank", {"n": n, "s": s, "rank": rank_to_str(ks)},
             psi, binomial_bound(n, ks, (1 << s) - 1))]
    if kr == 0:
        rows.append(("rank_zero_power", {"n": n, "s": s, "r": r}, psi, a0 ** n))
    else:
        rows.append(("rank_zero_power", {"n": n, "s": s, "r": r,
                                         "note": "hypothesis op_r-rank = 0 not met"}, 0, 0))
    rows = [(*row, row[2] <= row[3]) for row in rows]
    for s1, s2 in itertools.combinations(range(1, s + 1), 2):
        r1, r2 = op_rank(system, s1), op_rank(system, s2)
        rhs = NEG_INF if r2 == NEG_INF else (s2 // s1) * r2
        rows.append(("rank_arity_comparison", {"s1": s1, "s2": s2},
                     rank_to_str(r1), rank_to_str(rhs), r1 >= rhs))
    for label, members, _ in dims._subfamily_samples(system.sets):
        rsub = op_rank(SetSystem(system.universe_size, members), s)
        rows.append(("rank_monotone_subfamily", {"s": s, "subfamily": label},
                     rank_to_str(rsub), rank_to_str(ks), rsub <= ks))
    rhs = binomial_bound(n, kr, a0, (1 << s) - a0)
    rows.append(("two_parameter_recurrence", {"n": n, "s": s, "r": r, "b": rank_to_str(kr),
                                              "a0": a0, "a1": (1 << s) - a0}, psi, rhs, psi <= rhs))
    return [dict(zip(("bound", "params", "lhs", "rhs", "pass"), row)) for row in rows]


@pytest.mark.parametrize("s", [1, 2, 3])
def test_audit_rows_match_separate_calls_on_criterion_6_corpus(s):
    """Criterion 6's seeded families at every r; s = 3 only up to universe
    6, as in set-audit."""
    for i in range(200):
        system = random_system(2 + i % 7, 64, seed=1000 + i)
        if s == 3 and system.universe_size > 6:
            continue
        n = 6 if s == 3 else 8
        for r in (1, 2, 3):
            expected = audit_rows_from_separate_calls(system, s, r, n)
            assert audit_bounds(system, s, r, n).rows == expected, (i, s, r)


def test_audit_rows_match_separate_calls_on_the_zoo_at_small_heights(zoo):
    """Heights up to 4, where a rank reaches the height and the rank and
    shatter recursions of one search meet the same (mask, height) keys."""
    for system, s, r, n in itertools.product(zoo, (1, 2, 3), (1, 2, 3), range(5)):
        expected = audit_rows_from_separate_calls(system, s, r, n)
        assert audit_bounds(system, s, r, n).rows == expected, (system.name, s, r, n)


def test_audit_searches_end_with_the_call(monkeypatch):
    power = generate("powerset", 4)
    audit_bounds(power, 2, 1, 3)
    assert dims._searches is None
    with pytest.raises(ResourceCapError):  # in row (a)'s vc_dimension
        audit_bounds(power, 2, 1, 3, cap=3)
    assert dims._searches is None
    # Past the op cap: thicket, uncapped, opens a search before op_rank raises.
    wide = SetSystem(13, (0, 1, 2, 4, 8))
    opened = []
    real_op_rank = dims.op_rank

    def op_rank_spy(system, s, cap=None):
        opened.append(len(dims._searches))
        return real_op_rank(system, s, cap=cap)

    monkeypatch.setattr(dims, "op_rank", op_rank_spy)
    with pytest.raises(ResourceCapError):
        audit_bounds(wide, 1, 1, 2)
    assert opened == [1] and dims._searches is None
    # A later call outside any audit reads its own family's search.
    other = generate("thresholds", 6)
    assert op_rank(other, 1) == tuple_op_rank(other.sets, 6, 1) != op_rank(power, 1)


def test_audit_builds_each_column_once_per_family_and_arity(monkeypatch):
    built = []
    real_child_masks = dims.child_masks

    def counted(sets, xs, sigma):
        built.append((sets, xs))
        return real_child_masks(sets, xs, sigma)

    monkeypatch.setattr(dims, "child_masks", counted)
    rng = random.Random(7)
    system = SetSystem(7, tuple(sorted(rng.sample(range(128), 40))))
    audit_bounds(system, 2, 1, 3)
    # The family's s = 2 search (rows (c), (e) and (f), whose subfamilies
    # are member masks on it) reads all 7 columns.  Its s = 1 search (rows
    # (b) and (e)) reads columns 0-5 only: psi^1(F, 3) reaches its cap of 8
    # and every rank level finds its splitting element before column 6,
    # since sizes answer heights 0 and 1 there.  With one search per call
    # the audit built 87, and with one search per subfamily 34.
    assert len(built) == 13
    assert Counter(Counter(built).values()) == {1: 1, 2: 6}
    assert {sets for sets, _ in built} == {system.sets}


def test_audit_builds_row_a_vc_columns_once(monkeypatch):
    """Row (a)'s ``vc_dimension`` and ``vc_shatter_function`` read one
    ``_member_columns`` call per audit, dropped when the audit returns or
    raises."""
    built = []
    real_columns = dims._member_columns

    def counted(sets, n):
        built.append((sets, n))
        return real_columns(sets, n)

    monkeypatch.setattr(dims, "_member_columns", counted)
    rng = random.Random(7)
    system = SetSystem(7, tuple(sorted(rng.sample(range(128), 40))))
    for audits in (1, 2):  # each audit builds its own
        audit_bounds(system, 2, 1, 3)
        assert built == [(system.sets, 7)] * audits and dims._vc_columns is None

    def fail(system):
        raise RuntimeError("row (b)")

    monkeypatch.setattr(dims, "thicket_dimension", fail)
    with pytest.raises(RuntimeError):  # after row (a) built its columns
        audit_bounds(system, 2, 1, 3)
    assert len(built) == 3 and dims._vc_columns is None


def test_binomial_sums_match_the_term_by_term_oracle():
    """``dims._sauer_sum`` and its two callers outside ``dims`` against the
    oracle's plain sum, in value and as an int."""
    for n, a, b in itertools.product(range(13), range(1, 8), range(8)):
        for k in (NEG_INF, *range(-1, 16)):
            got = dims._sauer_sum(n, k, a, b)
            assert type(got) is int and got == binomial_bound(n, k, a, b), (n, k, a, b)
    for n, j in itertools.product(range(1, 13), range(2, 7)):
        for k in range(n + 1):
            got = solution_bound(n, k, j)
            assert type(got) is int and got == binomial_bound(n, k - 1, j - 1), (n, k, j)
    for r, s in itertools.product(range(1, 30), range(30)):
        assert region_count_general_position(r, s) == binomial_bound(s, r), (r, s)


def test_binomial_sum_work_stops_at_n():
    """A rank far past n costs n steps, not k: an alarm fails the calls if
    they walk to k."""
    def expire(signum, frame):
        raise TimeoutError("the sum walked past n")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 2)
    try:
        assert dims._sauer_sum(5, 10**18, 3, 2) == 5 ** 5
        for s in range(30):
            assert region_count_general_position(10**18, s) == 2 ** s
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.xfail(strict=True, reason=(
    "rows (c) and (g) keep a float rhs when the rank exceeds n, through the "
    "float() in dims._digested_rhs; bench/reference.json digests it in the set-audit "
    "and cli-queries `sys audit` items, so the fix waits on the benchmark "
    "unpinning (ROADMAP item 1)"))
def test_audit_bounds_rhs_is_an_integer_when_the_rank_exceeds_n():
    report = audit_bounds(generate("powerset", 4), s=1, r=1, n=2)
    rows = {row["bound"]: row for row in report.rows}
    assert [type(rows[name]["rhs"]) for name in
            ("op_shatter_vs_rank", "two_parameter_recurrence")] == [int, int]
