"""Acceptance suite: the eleven primary criteria, one pass/fail line each.

Each test prints ``criterion N (...): PASS`` (or FAIL) and asserts the same
condition, so the verdicts are visible with ``pytest -s`` and enforced
regardless.
"""

import itertools
import random
from fractions import Fraction
from math import comb

from shatterlab import (ProbSpace, SetSystem, build_type_tree,
                        check_counting_inequality, check_height_bound,
                        exact_expectation, extract_clique_or_independent,
                        from_element_tree, from_vc, generate, is_hereditary,
                        line_arrangement_cells, max_solutions,
                        min_subcube_hitting, op_rank, op_shatter,
                        parity_problem, random_element_tree, random_graph,
                        random_problem, region_count_general_position,
                        run_vc_theorem, run_weak_law, solutions,
                        thicket_dimension, thicket_shatter, tree_rank,
                        validate_type_tree, vc_dimension)
from shatterlab.banseq import BanProblem, solution_bound, witness_is_valid
from shatterlab.errors import InputError

from families import fixture_zoo, random_system
from oracles import brute_is_hereditary, brute_rank, brute_shatter


def verdict(number, label, ok):
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


# ---------------------------------------------------------------------------
# 1. parity example
# ---------------------------------------------------------------------------

def test_criterion_01_parity_example():
    ok = True
    for n in range(1, 11):
        problem = parity_problem(n)
        sols, _ = solutions(problem)
        hereditary, witness = is_hereditary(problem)
        ok &= len(sols) == 2 ** (n - 1)
        if n == 1:
            # with a single context no S can leave both patterns unbanned
            ok &= hereditary
        else:
            ok &= not hereditary
            ok &= witness is not None and witness_is_valid(problem, witness)
    verdict(1, "parity example", ok)


# ---------------------------------------------------------------------------
# 2. extremal 2-fold case
# ---------------------------------------------------------------------------

def test_criterion_02_extremal_two_fold():
    ok = min_subcube_hitting(4, 2) == 5 and max_solutions(4, 2) == 11
    verdict(2, "extremal 2-fold case", ok)


# ---------------------------------------------------------------------------
# 3. main theorem on 1000 hereditary problems
# ---------------------------------------------------------------------------

def independent_random_problem(n, k, j, seed):
    """Seeded problem whose ban sets depend on S alone (hence hereditary)."""
    rng = random.Random(seed)
    patterns = list(itertools.product(range(j), repeat=k))
    per_s = {}
    for S in itertools.combinations(range(n), k):
        chosen = [Z for Z in patterns if rng.random() < 0.4] or \
            [rng.choice(patterns)]
        per_s[S] = frozenset(chosen)
    return BanProblem(n, k, j, lambda S, X: per_s[S],
                      name=f"independent({n},{k},{j},{seed})")


def hereditary_corpus():
    problems = []
    # 350 problems from families with fewer than 2^m sets (so VC < m)
    for i in range(350):
        n = 5 + i % 6           # 5..10
        m = 2 + i % 3           # 2..4
        system = random_system(n, (1 << m) - 1, seed=3000 + i)
        problems.append(from_vc(system, m))
    # 300 problems from element trees over low-rank families
    for i in range(300):
        m = 2 + i % 3
        universe = 3 + i % 3    # 3..5
        height = m + 1 + i % (8 - m)  # m+1 .. 8
        system = random_system(universe, (1 << m) - 1, seed=4000 + i)
        tree = random_element_tree(universe, 1, height, seed=5000 + i)
        problems.append(from_element_tree(tree, system, m))
    # 300 independent problems with j in {2, 3}
    for i in range(300):
        n = 4 + i % 4           # 4..7
        k = 2 + i % 3           # 2..4
        j = 2 + i % 2
        problems.append(independent_random_problem(n, min(k, n), j,
                                                   seed=6000 + i))
    # 50 fully random problems kept only if the hereditary checker agrees
    found = 0
    seed = 7000
    while found < 50 and seed < 9000:
        candidate = random_problem(4 + seed % 2, 2, 2, seed=seed)
        if is_hereditary(candidate)[0]:
            problems.append(candidate)
            found += 1
        seed += 1
    while found < 50:  # deterministic fallback, never expected
        problems.append(independent_random_problem(5, 2, 2, seed=9000 + found))
        found += 1
    return problems


def test_criterion_03_main_theorem_audit():
    problems = hereditary_corpus()
    ok = len(problems) == 1000
    # spot-check that the constructions really are hereditary
    for problem in problems[::97]:
        ok &= is_hereditary(problem)[0]
    for problem in problems:
        sols, _ = solutions(problem)
        ok &= len(sols) <= solution_bound(problem.n, problem.k, problem.j)
    verdict(3, "main theorem audit, 1000 hereditary problems", ok)


# ---------------------------------------------------------------------------
# 4. counting inequality on 1000 problems with k >= 2
# ---------------------------------------------------------------------------

def test_criterion_04_counting_inequality():
    ok = True
    for i in range(1000):
        n = 4 + i % 3           # 4..6
        k = 2 + i % 2           # 2..3
        j = 2 + (i // 3) % 2    # 2..3
        problem = random_problem(n, k, j, seed=10000 + i)
        ok &= check_counting_inequality(problem)["pass"]
    verdict(4, "counting inequality, 1000 problems", ok)


# ---------------------------------------------------------------------------
# 5. dimension identities
# ---------------------------------------------------------------------------

def identity_corpus():
    return fixture_zoo() + [random_system(2 + i % 7, 64, seed=1000 + i)
                            for i in range(200)]


def test_criterion_05_dimension_identities():
    ok = True
    for system in identity_corpus():
        if system.universe_size > 8:
            continue
        thicket = thicket_dimension(system)
        ok &= op_rank(system, 1) == thicket
        vc = vc_dimension(system)
        if system.sets:
            ok &= thicket >= vc
        for r in (1, 2, 3):
            rank = op_rank(system, r) if system.sets else None
            if system.sets:
                ok &= (rank == 0) == (vc < r)
    verdict(5, "dimension identities", ok)


# ---------------------------------------------------------------------------
# 6. shatter bounds (a)-(g)
# ---------------------------------------------------------------------------

def test_criterion_06_shatter_bounds():
    from shatterlab import audit_bounds

    ok = True
    for system in fixture_zoo():
        for s, r in itertools.product((1, 2, 3), repeat=2):
            report = audit_bounds(system, s, r, n=min(8, 4 + s))
            ok &= report.all_pass
    combos = list(itertools.product((1, 2, 3), repeat=2))
    for i in range(200):
        system = random_system(2 + i % 7, 64, seed=1000 + i)
        s, r = combos[i % 9]
        report = audit_bounds(system, s, r, n=6 if s == 3 else 8)
        ok &= report.all_pass
    # tightness of bound (a) for the bounded-size families
    for n, d in ((4, 1), (5, 2), (6, 2), (6, 3)):
        system = generate("all_subsets_of_size_at_most", n, d)
        from shatterlab import vc_shatter_function

        ok &= vc_shatter_function(system, n) == \
            sum(comb(n, i) for i in range(d + 1))
    verdict(6, "shatter bounds (a)-(g)", ok)


# ---------------------------------------------------------------------------
# 7. oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_07_oracle_equivalence():
    ok = True
    for seed in range(8):
        system = random_system(4, 10, seed=20000 + seed)
        ok &= thicket_dimension(system) == brute_rank(system, 1, 3)
        for height in range(4):
            ok &= thicket_shatter(system, height) == \
                brute_shatter(system, 1, height)
            ok &= op_shatter(system, 1, height) == \
                brute_shatter(system, 1, height)
    for seed in range(4):
        system = random_system(3, 8, seed=21000 + seed)
        ok &= min(op_rank(system, 2), 2) == brute_rank(system, 2, 2)
        for height in range(3):
            ok &= op_shatter(system, 2, height) == \
                brute_shatter(system, 2, height)
    for n, k, j, seed in ((4, 1, 2, 0), (4, 2, 2, 1), (5, 2, 2, 2),
                          (5, 1, 3, 3), (6, 2, 2, 4), (6, 1, 2, 5)):
        problem = random_problem(n, k, j, seed=22000 + seed)
        ok &= is_hereditary(problem)[0] == brute_is_hereditary(problem)
    verdict(7, "oracle equivalence", ok)


# ---------------------------------------------------------------------------
# 8. geometry
# ---------------------------------------------------------------------------

def seeded_general_lines(s, seed):
    rng = random.Random(seed)
    while True:
        lines = [((Fraction(rng.randint(-20, 20)), Fraction(rng.randint(-20, 20))),
                  Fraction(rng.randint(-20, 20))) for _ in range(s)]
        try:
            return line_arrangement_cells(lines)
        except InputError:
            seed += 1
            rng = random.Random(seed)


def test_criterion_08_geometry():
    ok = region_count_general_position(2, 3) == 7
    ok &= region_count_general_position(3, 3) == 8
    for s in range(1, 9):
        expected = sum(comb(s, i) for i in range(3))
        for trial in range(3):
            ok &= seeded_general_lines(s, seed=30000 + 10 * s + trial) == expected
    verdict(8, "geometry", ok)


# ---------------------------------------------------------------------------
# 9. type trees on 500 seeded graphs
# ---------------------------------------------------------------------------

def test_criterion_09_type_trees():
    ok = True
    applicable = 0
    for i in range(500):
        n = 5 + i % 56          # 5..60
        g = random_graph(n, 0.15 + 0.01 * (i % 60), seed=40000 + i)
        tree = build_type_tree(g)
        valid, violation = validate_type_tree(g, tree)
        ok &= valid
        clique, independent = extract_clique_or_independent(tree)
        for u, v in itertools.combinations(clique, 2):
            ok &= g.adjacent(u, v)
        for u, v in itertools.combinations(independent, 2):
            ok &= not g.adjacent(u, v)
        h = tree.height
        ok &= max(len(clique), len(independent)) >= (h + 1) // 2
        report = check_height_bound(g, tree)
        if report.get("applicable"):
            applicable += 1
            ok &= report["pass"]
        else:
            rank = tree_rank(g)
            if n > 18:
                ok &= isinstance(rank, dict) and not rank["exact"]
    ok &= applicable > 0
    verdict(9, "type trees on 500 seeded graphs", ok)


# ---------------------------------------------------------------------------
# 10. weak laws (statistical)
# ---------------------------------------------------------------------------

def test_criterion_10_weak_laws():
    space = ProbSpace.uniform(64)
    members = set(range(32))
    ok = space.mass(members) == Fraction(1, 2)
    for height in (50, 100, 200):
        for epsilon in (Fraction(1, 10), Fraction(1, 5)):
            report = run_weak_law(space, members, height, epsilon,
                                  trials=2000, seed=424242, keep_rows=False)
            ok &= report.passed
    small = ProbSpace((Fraction(1, 3), Fraction(2, 3)))
    for height in (1, 2, 4):
        ok &= exact_expectation(small, {0}, height) == Fraction(1, 3)
        ok &= exact_expectation(ProbSpace.uniform(4), {1, 2}, height) == \
            Fraction(1, 2)
    verdict(10, "weak laws", ok)


# ---------------------------------------------------------------------------
# 11. thicket VC-theorem (statistical)
# ---------------------------------------------------------------------------

def test_criterion_11_thicket_vc_theorem():
    chain = SetSystem(64, tuple((1 << c) - 1 for c in (8, 16, 24, 32, 40)),
                      name="chain5")
    ok = thicket_dimension(chain) == 2
    space = ProbSpace.uniform(64)
    report = run_vc_theorem(space, chain, height=5000, epsilon=Fraction(1, 2),
                            trials=10 ** 4, seed=987654321, keep_rows=False)
    ok &= report.bound < 1e-6
    ok &= report.exceedances == 0
    ok &= report.passed
    verdict(11, "thicket VC-theorem", ok)
