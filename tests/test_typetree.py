"""Graphs, type-tree construction and validation, tree rank, extraction."""

import itertools
import random

import pytest

from shatterlab import (Graph, InputError, TypeTree, VerificationError,
                        build_type_tree, check_height_bound,
                        extract_clique_or_independent, from_type_tree,
                        random_graph, solutions, tree_rank,
                        validate_type_tree)

from oracles import brute_type_tree_bans, brute_type_tree_violation


def path_graph(n):
    return Graph.from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    return Graph.from_edge_list(n, list(itertools.combinations(range(n), 2)))


def empty_graph(n):
    return Graph.from_edge_list(n, [])


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

def test_graph_basics():
    g = Graph.from_edge_list(4, [(0, 1), (2, 3)])
    assert g.adjacent(1, 0) and not g.adjacent(0, 2)
    assert g.neighbor_mask(0) == 0b0010
    assert Graph.from_json_dict(g.to_json_dict()) == g
    with pytest.raises(InputError):
        Graph.from_edge_list(3, [(0, 0)])
    for edges in ([(0, 3)], [([0], 1)], [3], [(0, 1, 2)], 5):
        with pytest.raises(InputError):
            Graph.from_edge_list(3, edges)
    # the constructor checks its own edges
    for edge in ((0, 5), (1,), (0, 1, 2), (0, True)):
        with pytest.raises(InputError):
            Graph(3, frozenset({frozenset(edge)}))


def test_neighborhood_system():
    g = path_graph(4)
    system = g.neighborhood_system()
    assert system.universe_size == 4
    assert set(system.sets) == {0b0010, 0b0101, 0b1010, 0b0100}


@pytest.mark.parametrize("p", ["x", None, True, 2.0, -1, float("nan")], ids=repr)
def test_random_graph_refuses_a_probability_outside_the_unit_interval(p):
    """The edge probability follows ``random_problem``'s density rule."""
    with pytest.raises(InputError, match=r"must be a number in \[0, 1\]"):
        random_graph(5, p, 0)


def test_random_graph_seeded():
    assert random_graph(8, 0.5, 3) == random_graph(8, 0.5, 3)
    assert random_graph(8, 0.0, 3).edges == frozenset()
    assert len(random_graph(5, 1.0, 3).edges) == 10
    for seed in range(20):
        n = 2 + seed % 15
        g = random_graph(n, (1 + seed % 3) / 4, seed=seed)
        for v in range(n):
            mask = 0
            for u in range(n):
                edge = frozenset((u, v)) in g.edges
                assert g.adjacent(u, v) == edge
                mask |= edge << u
            assert g.neighbor_mask(v) == mask


# ---------------------------------------------------------------------------
# building and validating type trees
# ---------------------------------------------------------------------------

def test_build_satisfies_both_conditions():
    for seed in range(10):
        g = random_graph(12, 0.4, seed)
        tree = build_type_tree(g)
        ok, violation = validate_type_tree(g, tree)
        assert ok, violation
        assert sorted(tree.labels.values()) == list(range(12))


def test_build_with_custom_order():
    g = path_graph(5)
    tree = build_type_tree(g, order=[4, 3, 2, 1, 0])
    assert tree.labels[""] == 4
    ok, _ = validate_type_tree(g, tree)
    assert ok
    with pytest.raises(InputError):
        build_type_tree(g, order=[0, 0, 1, 2, 3])


def test_validate_rejects_bad_trees():
    g = path_graph(3)
    not_bijective = TypeTree({"": 0, "0": 0, "1": 2})
    assert not validate_type_tree(g, not_bijective)[0]
    not_prefix_closed = TypeTree({"": 0, "11": 1, "0": 2})
    assert not validate_type_tree(g, not_prefix_closed)[0]
    # 0 and 1 are adjacent in the path, so "0" under root 0 is wrong
    wrong_direction = TypeTree({"": 0, "0": 1, "00": 2})
    ok, why = validate_type_tree(g, wrong_direction)
    assert not ok and "condition 1" in why


def test_validate_condition_two():
    # triangle-free violation: 0-1 and 1-2 edges, no 0-2 edge; placing 2
    # under "11" claims 2 is adjacent to both 1 and 0.
    g = path_graph(3)
    bad = TypeTree({"": 0, "1": 1, "11": 2})
    ok, why = validate_type_tree(g, bad)
    assert not ok
    assert "condition" in why


def test_validate_matches_pairwise_oracle():
    """Built trees, trees with two labels swapped and trees with one key
    bit flipped, on seeded graphs in shuffled insertion orders."""
    failures = []
    for seed in range(70):
        n = 4 + seed % 13
        g = random_graph(n, (1 + seed % 3) / 4, seed=seed)
        order = list(range(n))
        random.Random(seed).shuffle(order)
        labels = build_type_tree(g, order).labels
        rng = random.Random(seed)
        keys = sorted(labels)
        a, b = rng.sample(keys, 2)
        swapped = dict(labels)
        swapped[a], swapped[b] = labels[b], labels[a]
        key = rng.choice(keys[1:])
        d = rng.randrange(len(key))
        moved = key[:d] + "10"[int(key[d])] + key[d + 1:]
        flipped = {moved if k == key else k: v for k, v in labels.items()}
        for case in (labels, swapped, flipped):
            ok, why = validate_type_tree(g, TypeTree(case))
            violation = brute_type_tree_violation(g, case)
            assert ok == (violation is None), (seed, case, why, violation)
            failures.append(violation)
    assert len(failures) == 210 and failures.count(None) >= 70
    assert "condition 1" in failures and "condition 2" in failures


def test_height():
    assert TypeTree({}).height == 0
    assert TypeTree({"": 0}).height == 1
    assert TypeTree({"": 0, "1": 1, "10": 2}).height == 3


def test_type_tree_json_labels_must_be_integers():
    tree = TypeTree({"": 0, "1": 1})
    assert TypeTree.from_json_dict(tree.to_json_dict()) == tree
    for data in ({"": "0"}, {"": 0, "1": 1.9}, {"": True}, ["", 0]):
        with pytest.raises(InputError):
            TypeTree.from_json_dict(data)


# ---------------------------------------------------------------------------
# tree rank
# ---------------------------------------------------------------------------

def test_tree_rank_exact_values():
    assert tree_rank(empty_graph(1)) == 1
    assert tree_rank(empty_graph(6)) == 1
    assert tree_rank(complete_graph(6)) == 1
    # path on 7 vertices contains a full type tree of height 2 but not 3
    assert tree_rank(path_graph(7)) == 2
    with pytest.raises(InputError):
        tree_rank(empty_graph(0))


def test_tree_rank_matches_exhaustive_small():
    def exhaustive(g):
        n = g.vertex_count

        def embeds(vertices, t):
            if t == 1:
                return bool(vertices)
            for v in vertices:
                rest = [u for u in vertices if u != v]
                ones = [u for u in rest if g.adjacent(u, v)]
                zeros = [u for u in rest if not g.adjacent(u, v)]
                if embeds(zeros, t - 1) and embeds(ones, t - 1):
                    return True
            return False

        t = 1
        while embeds(list(range(n)), t + 1):
            t += 1
        return t

    for seed in range(10):
        g = random_graph(8, 0.5, seed=seed)
        assert tree_rank(g) == exhaustive(g)


def test_tree_rank_bounds_above_cap():
    g = random_graph(30, 0.5, seed=4)
    out = tree_rank(g)
    assert not out["exact"]
    assert 1 <= out["lower"] <= out["upper"]
    exact = tree_rank(g, cap=30)
    assert out["lower"] <= exact <= out["upper"]
    # small graphs forced onto the bounds path, against the exact rank
    for seed in range(60):
        n = 8 + seed % 9
        g = random_graph(n, (1 + seed % 3) / 4, seed=seed)
        bounds = tree_rank(g, cap=n - 1)
        assert not bounds["exact"]
        assert bounds["lower"] <= tree_rank(g) <= bounds["upper"]


# ---------------------------------------------------------------------------
# extraction and the height bound
# ---------------------------------------------------------------------------

def verify_extraction(g, tree):
    clique, independent = extract_clique_or_independent(tree)
    for u, v in itertools.combinations(clique, 2):
        assert g.adjacent(u, v)
    for u, v in itertools.combinations(independent, 2):
        assert not g.adjacent(u, v)
    h = tree.height
    assert max(len(clique), len(independent)) >= (h + 1) // 2


def test_extraction_on_seeded_graphs():
    for seed in range(20):
        g = random_graph(15, 0.3 + 0.02 * seed, seed=seed)
        verify_extraction(g, build_type_tree(g))


def test_extraction_extremes():
    g = complete_graph(5)
    clique, independent = extract_clique_or_independent(build_type_tree(g))
    assert len(clique) == 5 and len(independent) == 1
    g = empty_graph(5)
    clique, independent = extract_clique_or_independent(build_type_tree(g))
    assert len(clique) == 1 and len(independent) == 5
    with pytest.raises(InputError):
        extract_clique_or_independent(TypeTree({}))


def test_height_bound_applicable_case():
    g = random_graph(14, 0.5, seed=6)
    tree = build_type_tree(g)
    report = check_height_bound(g, tree)
    if report["applicable"]:
        assert report["pass"]
        assert report["lhs"] >= report["rhs"]
    else:
        assert "reason" in report


def test_height_bound_holds_when_hypotheses_met():
    hits = 0
    for seed in range(60):
        g = random_graph(14, 0.3, seed=seed)
        report = check_height_bound(g, build_type_tree(g))
        if report.get("applicable"):
            hits += 1
            assert report["pass"]
    assert hits > 0  # the hypotheses are actually exercised


# ---------------------------------------------------------------------------
# the induced banned-sequence problem
# ---------------------------------------------------------------------------

def test_from_type_tree_problem():
    g = random_graph(10, 0.5, seed=1)
    tree = build_type_tree(g)
    t = tree_rank(g)
    problem = from_type_tree(g, tree, t + 1)
    assert (problem.n, problem.k, problem.j) == (tree.height - 1, t + 1, 2)
    from shatterlab import is_hereditary, verify_main_theorem

    assert is_hereditary(problem)[0]
    assert verify_main_theorem(problem)["within_bound"]


def test_from_type_tree_guards():
    g = path_graph(3)
    tree = build_type_tree(g)
    with pytest.raises(InputError):
        from_type_tree(g, tree, 1)
    tall = build_type_tree(path_graph(2))
    with pytest.raises(InputError):
        from_type_tree(path_graph(2), tall, 2)


def ban_table_or_error(build, *args):
    """The {(S, X): banned patterns} table ``build(*args)`` returns, or the
    message of the VerificationError it raises."""
    try:
        return build(*args)
    except VerificationError as exc:
        return str(exc)


def array_table(graph, tree, t):
    problem = from_type_tree(graph, tree, t)
    return {(S, X): problem.ban_set(S, X)
            for S in problem.index_subsets() for X in problem.contexts()}


def test_from_type_tree_matches_entry_by_entry_rule():
    outcomes = set()
    for vertices, p in itertools.product(range(6, 11), (0.25, 0.5, 0.75)):
        g = random_graph(vertices, p, seed=vertices)
        order = list(range(vertices))
        random.Random(vertices).shuffle(order)
        for tree in (build_type_tree(g), build_type_tree(g, order)):
            for t in range(2, tree.height):
                got = ban_table_or_error(array_table, g, tree, t)
                assert got == ban_table_or_error(brute_type_tree_bans, tree, t)
                outcomes.add(type(got))
    assert outcomes == {dict, str}  # both branches are exercised


FULL_TREE = TypeTree({"": 0, "0": 1, "1": 2, "00": 3, "01": 4, "10": 5, "11": 6})


def test_from_type_tree_full_subtree_raises_at_construction():
    # every key of length <= 2: no pattern on S = (0, 1) leaves the index set
    g = Graph.from_edge_list(7, [(0, 2), (0, 5), (0, 6), (1, 4), (2, 6)])
    assert validate_type_tree(g, FULL_TREE) == (True, None)
    with pytest.raises(VerificationError, match=r"S=\(0, 1\), X=\(\)"):
        from_type_tree(g, FULL_TREE, 2)


def test_from_type_tree_refuses_a_labeling_of_another_graph():
    # key "1" is marked adjacent to its parent, but the graph has no edges
    with pytest.raises(InputError, match="condition 1: '1' marked adjacent"):
        from_type_tree(empty_graph(7), FULL_TREE, 2)
