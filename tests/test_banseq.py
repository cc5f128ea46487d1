"""Banned sequence problems: solving, hereditariness, reductions, and the
extremal counts, with a pairwise brute-force oracle for hereditariness."""

import itertools

import pytest

from shatterlab import (BanProblem, InputError, ResourceCapError, SetSystem,
                        VerificationError, banned_count,
                        check_counting_inequality, from_element_tree, from_vc,
                        generate, is_hereditary, is_independent,
                        max_solutions, min_subcube_hitting, parity_problem,
                        random_problem, reduce_hat, reduce_prime, solutions,
                        trivial_upper_bound, verify_main_theorem)
from shatterlab.banseq import (RelaxedBanProblem, assemble, solution_bound,
                               witness_is_valid)
from shatterlab.dims import random_element_tree

from families import random_system
from oracles import (brute_banned, brute_is_hereditary,
                     brute_is_independent, brute_reduce_hat,
                     brute_reduce_prime)


def const_problem(n, k, j, banned):
    """Independent problem banning the same patterns at every (S, X)."""
    banned = frozenset(banned)
    return BanProblem(n, k, j, lambda S, X: banned, name="const")


# ---------------------------------------------------------------------------
# construction and serialization
# ---------------------------------------------------------------------------

def test_problem_validation():
    with pytest.raises(InputError):
        BanProblem(3, 0, 2, lambda S, X: frozenset())
    with pytest.raises(InputError):
        BanProblem(2, 3, 2, lambda S, X: frozenset())
    with pytest.raises(InputError):
        BanProblem(3, 1, 1, lambda S, X: frozenset())


def test_empty_ban_set_rejected_unless_relaxed():
    strict = BanProblem(2, 1, 2, lambda S, X: frozenset())
    with pytest.raises(InputError):
        strict.ban_set((0,), (0,))
    relaxed = RelaxedBanProblem(2, 1, 2, lambda S, X: frozenset())
    assert relaxed.ban_set((0,), (0,)) == frozenset()


def test_ban_set_key_checking():
    problem = parity_problem(3)
    with pytest.raises(InputError):
        problem.ban_set((3,), (0, 0))
    with pytest.raises(InputError):
        problem.ban_set((0,), (0, 2))
    with pytest.raises(InputError):
        problem.ban_set((1, 0), (0,))


def test_json_round_trip():
    problem = random_problem(4, 2, 3, seed=5)
    again = BanProblem.from_json_dict(problem.to_json_dict())
    assert again == problem


def test_from_table_requires_every_key():
    with pytest.raises(InputError):
        BanProblem.from_table(2, 1, 2, {((0,), (0,)): frozenset({(1,)})})


def full_table(n, k, j, banned):
    return {(S, X): set(banned)
            for S in itertools.combinations(range(n), k)
            for X in itertools.product(range(j), repeat=n - k)}


def with_entry(table, key, value, drop=None):
    table = dict(table)
    table.pop(drop, None)
    table[key] = value
    return table


BASE = full_table(3, 2, 2, {(0, 1)})


@pytest.mark.parametrize("table", [
    with_entry(BASE, ((0, 1), (0, 0)), {(0, 1)}),
    with_entry(BASE, ((0, 3), (0,)), {(0, 1)}, drop=((0, 2), (1,))),
    with_entry(BASE, ((1, 0), (0,)), {(0, 1)}, drop=((0, 1), (0,))),
    with_entry(BASE, ((0, 1), (0,)), {(0, 1, 1)}),
    with_entry(BASE, ((0, 1), (0,)), {(0,)}),
    with_entry(BASE, ((1, 2), (1,)), {(2, 0)}),
    with_entry(BASE, ((0, 2), (1,)), set()),
], ids=["extra-entry", "foreign-subset", "unsorted-subset", "long-pattern",
        "short-pattern", "digit-too-large", "empty-set"])
def test_from_table_validates_at_construction(table):
    with pytest.raises(InputError):
        BanProblem.from_table(3, 2, 2, table)


def test_relaxed_from_table_accepts_empty_sets():
    table = with_entry(BASE, ((0, 2), (1,)), set())
    problem = RelaxedBanProblem.from_table(3, 2, 2, table)
    assert problem.ban_set((0, 2), (1,)) == frozenset()
    assert problem.ban_set((1, 2), (0,)) == {(0, 1)}


def test_source_called_once_per_entry():
    calls = []

    def fn(S, X):
        calls.append((S, X))
        return frozenset({(sum(X) % 2, 0)})

    problem = BanProblem(4, 2, 2, fn)
    assert calls == []
    solutions(problem)
    banned_count(problem)
    is_independent(problem)
    reduce_prime(problem)
    assert sorted(calls) == sorted(
        (S, X) for S in problem.index_subsets() for X in problem.contexts())


def test_lazy_problem_reads_one_entry_without_filling():
    assert parity_problem(30).ban_set((0,), (0,) * 29) == {(1,)}


def test_assemble():
    assert assemble(5, (1, 3), (7, 8), (0, 2, 4)) == (0, 7, 2, 8, 4)


# ---------------------------------------------------------------------------
# solving and counting
# ---------------------------------------------------------------------------

def test_parity_solutions():
    for n in range(1, 8):
        problem = parity_problem(n)
        sols, banned = solutions(problem)
        assert len(sols) == 2 ** (n - 1)
        assert banned == 2 ** (n - 1)
        assert all(sum(s) % 2 == 0 for s in sols)
        assert banned_count(problem) == banned


def test_solutions_by_direct_enumeration():
    problem = random_problem(4, 2, 2, seed=3)
    sols, _ = solutions(problem)
    expected = []
    for seq in itertools.product(range(2), repeat=4):
        hit = False
        for S in problem.index_subsets():
            X = tuple(seq[p] for p in range(4) if p not in S)
            if tuple(seq[s] for s in S) in problem.ban_set(S, X):
                hit = True
                break
        if not hit:
            expected.append(seq)
    assert sorted(sols) == expected


ORACLE_PROBLEMS = [
    *(random_problem(n, k, j, seed=10 * n + k + j)
      for n, k, j in [(3, 1, 2), (4, 2, 2), (5, 3, 2), (6, 2, 2), (6, 3, 2),
                      (6, 1, 3), (5, 2, 3), (4, 3, 3), (6, 5, 2),
                      (2, 2, 2), (3, 3, 3), (4, 4, 2)]),
    parity_problem(5),
    from_vc(generate("thresholds", 5), 2),
    from_vc(generate("intervals", 5), 3),
]


@pytest.mark.parametrize("problem", ORACLE_PROBLEMS, ids=lambda p: p.name)
def test_table_operations_match_per_entry_oracles(problem):
    n, k = problem.n, problem.k
    # Oracles first, so lazy problems are read entry by entry before the fill.
    expected_banned = brute_banned(problem)
    expected_independent = brute_is_independent(problem)
    expected_hat = brute_reduce_hat(problem) if k >= 2 else None
    expected_prime = brute_reduce_prime(problem) if k <= n - 1 else None
    sols, banned = solutions(problem)
    assert banned == banned_count(problem) == len(expected_banned)
    assert sorted(sols) == sorted(
        set(itertools.product(range(problem.j), repeat=n)) - expected_banned)
    assert is_independent(problem) == expected_independent
    for expected, reduce in ((expected_hat, reduce_hat),
                             (expected_prime, reduce_prime)):
        if expected is not None:
            reduced = reduce(problem)
            assert {(S, X): reduced.ban_set(S, X)
                    for S in reduced.index_subsets()
                    for X in reduced.contexts()} == expected


def test_trivial_upper_bound_holds():
    for seed in range(8):
        problem = random_problem(4, 2, 2, seed=seed)
        sols, _ = solutions(problem)
        assert len(sols) <= trivial_upper_bound(problem) == 12


def test_enum_cap():
    big = parity_problem(30)
    with pytest.raises(ResourceCapError):
        solutions(big, cap=1 << 10)


def test_is_independent():
    assert is_independent(const_problem(3, 1, 2, {(0,)}))
    assert not is_independent(parity_problem(3))


# ---------------------------------------------------------------------------
# hereditariness
# ---------------------------------------------------------------------------

def test_parity_not_hereditary():
    problem = parity_problem(4)
    hereditary, witness = is_hereditary(problem)
    assert not hereditary
    assert witness_is_valid(problem, witness)


def test_independent_problems_are_hereditary():
    assert is_hereditary(const_problem(4, 2, 2, {(0, 1)}))[0]
    assert is_hereditary(const_problem(3, 1, 3, {(2,)}))[0]


@pytest.mark.parametrize("n,k,j,seed", [
    (3, 1, 2, 0), (3, 2, 2, 1), (4, 1, 2, 2), (4, 2, 2, 3),
    (4, 2, 3, 4), (5, 2, 2, 5), (5, 1, 2, 6), (6, 2, 2, 7),
])
def test_hereditary_matches_pairwise_brute_force(n, k, j, seed):
    problem = random_problem(n, k, j, seed=seed)
    fast, witness = is_hereditary(problem)
    assert fast == brute_is_hereditary(problem)
    if witness is not None:
        assert witness_is_valid(problem, witness)


def test_witness_is_valid_rejects_garbage():
    problem = parity_problem(3)
    _, witness = is_hereditary(problem)
    bad = type(witness)(witness.S, dict(witness.assignments))
    bad.assignments[(0,)] = bad.assignments[(1,)]
    assert not witness_is_valid(problem, bad)


# ---------------------------------------------------------------------------
# reductions and the counting inequality
# ---------------------------------------------------------------------------

def test_reduce_hat_shapes_and_values():
    problem = const_problem(4, 2, 2, {(0, 1), (1, 1)})
    hat = reduce_hat(problem)
    assert (hat.n, hat.k, hat.j) == (3, 1, 2)
    # patterns with last entry dropped: {(0,), (1,)}
    assert hat.ban_set((0,), (0, 0)) == {(0,), (1,)}


def test_reduce_prime_intersects_over_last_entry():
    def fn(S, X):
        return frozenset({(sum(X) % 2, 0)})

    problem = BanProblem(4, 2, 2, fn)
    prime = reduce_prime(problem)
    assert (prime.n, prime.k, prime.j) == (3, 2, 2)
    # appended last entry flips the parity, so the intersection is empty
    assert prime.ban_set((0, 1), (0,)) == frozenset()


def test_reduce_guards():
    with pytest.raises(InputError):
        reduce_hat(parity_problem(3))
    with pytest.raises(InputError):
        reduce_prime(const_problem(3, 3, 2, {(0, 0, 0)}))


@pytest.mark.parametrize("seed", range(20))
def test_counting_inequality_random(seed):
    n = 4 + seed % 3
    k = 2 + seed % 2
    j = 2 + (seed // 3) % 2
    problem = random_problem(n, k, j, seed=seed)
    report = check_counting_inequality(problem)
    assert report["pass"], report


def test_main_theorem_on_hereditary_problems():
    chain = generate("thresholds", 5)
    problem = from_vc(chain, 2)
    report = verify_main_theorem(problem)
    assert report["hereditary"]
    assert report["pass"] and report["within_bound"]
    assert report["bound"] == solution_bound(5, 2, 2)


def test_main_theorem_reports_non_hereditary_violations():
    problem = parity_problem(4)
    report = verify_main_theorem(problem)
    assert not report["hereditary"]
    assert report["pass"]  # the bound only applies to hereditary problems
    assert not report["within_bound"]  # 8 solutions > bound 1
    assert report["witness_S"]


# ---------------------------------------------------------------------------
# extremal counts
# ---------------------------------------------------------------------------

def test_min_hitting_known_values():
    assert min_subcube_hitting(4, 2) == 5
    assert max_solutions(4, 2) == 11
    assert min_subcube_hitting(3, 1) == 4  # must hit every 1-dim edge
    assert min_subcube_hitting(3, 3) == 1
    assert min_subcube_hitting(2, 1) == 2


def test_min_hitting_matches_exhaustive_small():
    # exhaustive check over all subsets for n = 3, k = 2
    cubes = []
    for S in itertools.combinations(range(3), 2):
        rest = [p for p in range(3) if p not in S]
        for X in itertools.product((0, 1), repeat=1):
            base = sum(v << p for v, p in zip(X, rest))
            cubes.append({base + sum(v << s for v, s in zip(Z, S))
                          for Z in itertools.product((0, 1), repeat=2)})
    best = min(bin(b).count("1") for b in range(1 << 8)
               if all(any(b >> p & 1 for p in cube) for cube in cubes))
    assert min_subcube_hitting(3, 2) == best


def test_hitting_cap():
    with pytest.raises(ResourceCapError):
        min_subcube_hitting(9, 2)
    with pytest.raises(InputError):
        min_subcube_hitting(3, 0)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def test_from_vc_bans_unrealized_patterns():
    chain = generate("thresholds", 4)
    problem = from_vc(chain, 2)
    assert is_independent(problem)
    # a chain never realizes (1, 0) with the smaller index absent
    assert (1, 0) not in problem.ban_set((0, 1), (0, 0))
    assert (0, 1) in problem.ban_set((0, 1), (0, 0))
    with pytest.raises(InputError, match="shatters"):
        from_vc(generate("powerset", 3), 2)


def test_from_vc_is_hereditary_and_within_bound():
    for seed in range(6):
        system = random_system(5, 3, seed=seed)
        try:
            problem = from_vc(system, 2)
        except InputError:
            continue
        assert is_hereditary(problem)[0]
        assert verify_main_theorem(problem)["within_bound"]


def test_from_element_tree():
    chain = generate("thresholds", 4)
    tree = random_element_tree(4, 1, 4, seed=2)
    problem = from_element_tree(tree, chain, m=3)  # op_1-rank(chain) = 2
    assert (problem.n, problem.k, problem.j) == (4, 3, 2)
    assert is_hereditary(problem)[0]
    assert verify_main_theorem(problem)["within_bound"]
    with pytest.raises(InputError, match="rank"):
        from_element_tree(tree, generate("powerset", 4), m=3)


def test_random_problem_is_seeded():
    assert random_problem(4, 2, 2, seed=1) == random_problem(4, 2, 2, seed=1)
    assert random_problem(4, 2, 2, seed=1) != random_problem(4, 2, 2, seed=2)
