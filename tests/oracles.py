"""Independent brute-force oracles used to cross-check the fast recursions.

Everything here favors obviousness over speed: dimensions and shatter
functions are computed by enumerating every complete element tree, the
hereditary check by enumerating every candidate context assignment, and
the Monte Carlo audits by walking one scalar test tree per trial.
"""

import itertools
import math
from fractions import Fraction

from shatterlab.banseq import assemble
from shatterlab.dims import ElementTree, NEG_INF
from shatterlab.thicketvc import (FLOAT_GUARD, ExperimentReport, TestTree,
                                  _binomial_slack, _thicket_shatter_estimate,
                                  characteristic_path, trial_seed)


def _all_trees(universe_size, arity_exponent, height):
    """Every complete 2^s-ary element tree of the given height, with labels
    drawn from all s-tuples (repeats included)."""
    arity = 1 << arity_exponent
    nodes = [node for depth in range(height)
             for node in itertools.product(range(arity), repeat=depth)]
    tuples = list(itertools.product(range(universe_size), repeat=arity_exponent))
    for assignment in itertools.product(tuples, repeat=len(nodes)):
        yield ElementTree(arity_exponent, height,
                          dict(zip(nodes, assignment)))


def brute_rank(system, arity_exponent, max_height):
    """Largest height (up to max_height) of a fully properly labeled tree."""
    if not system.sets:
        return NEG_INF
    best = 0
    for height in range(1, max_height + 1):
        full = (1 << arity_exponent) ** height
        found = any(tree.count_properly_labeled(system) == full
                    for tree in _all_trees(system.universe_size,
                                           arity_exponent, height))
        if not found:
            break
        best = height
    return best


def brute_shatter(system, arity_exponent, height):
    """Maximum properly labeled leaf count over every tree of the height."""
    if not system.sets:
        return 0
    if height == 0:
        return 1
    return max(tree.count_properly_labeled(system)
               for tree in _all_trees(system.universe_size,
                                      arity_exponent, height))


def brute_is_hereditary(problem):
    """Pairwise definition, enumerated directly: the problem fails to be
    hereditary iff some S admits contexts X_Z (one per pattern Z, each
    leaving Z unbanned) whose completed sequences pairwise first differ
    inside S."""
    n, k, j = problem.n, problem.k, problem.j
    patterns = list(itertools.product(range(j), repeat=k))
    for S in problem.index_subsets():
        s_set = set(S)
        allowed = []
        for Z in patterns:
            allowed.append([X for X in problem.contexts()
                            if Z not in problem.ban_set(S, X)])
        if any(not options for options in allowed):
            continue
        for choice in itertools.product(*allowed):
            full = [assemble(n, S, Z, X) for Z, X in zip(patterns, choice)]
            ok = True
            for a, b in itertools.combinations(full, 2):
                diff = next(p for p in range(n) if a[p] != b[p])
                if diff not in s_set:
                    ok = False
                    break
            if ok:
                return False
    return True


def brute_banned(problem):
    """Sequences in [j]^n whose pattern on some S is banned at its context."""
    n = problem.n
    banned = set()
    for seq in itertools.product(range(problem.j), repeat=n):
        for S in problem.index_subsets():
            X = tuple(seq[p] for p in range(n) if p not in S)
            if tuple(seq[s] for s in S) in problem.ban_set(S, X):
                banned.add(seq)
                break
    return banned


def brute_is_independent(problem):
    """Every S bans the same patterns at every context."""
    return all(len({problem.ban_set(S, X) for X in problem.contexts()}) == 1
               for S in problem.index_subsets())


def brute_reduce_hat(problem):
    """f-hat as a table: at T = S minus n-1 (for S containing n-1), the
    patterns of f(S, X) with their entry at n-1 dropped."""
    n = problem.n
    table = {}
    for S in problem.index_subsets():
        if n - 1 not in S:
            continue
        T = tuple(s for s in S if s != n - 1)
        for X in problem.contexts():
            table[(T, X)] = {Z[:-1] for Z in problem.ban_set(S, X)}
    return table


def brute_reduce_prime(problem):
    """f-prime as a table: at S avoiding n-1, the patterns banned at every
    context that extends X by one more entry at n-1."""
    n = problem.n
    table = {}
    for S in problem.index_subsets():
        if n - 1 in S:
            continue
        for X in problem.contexts():
            key = (S, X[:-1])
            bans = set(problem.ban_set(S, X))
            table[key] = table[key] & bans if key in table else bans
    return table


def scalar_counts(space, masks, height, trials, seed):
    """Per trial, the count of 1s along each set's characteristic path in
    the scalar test tree of that trial's seed."""
    counts = []
    for t in range(trials):
        tree = TestTree(space, height, trial_seed(seed, t))
        counts.append([sum(characteristic_path(tree, mask)) for mask in masks])
    return counts


def _mc_row(t, height, eps, dev, hit):
    return {"trial": t, "n": height, "epsilon": str(eps),
            "deviation": f"{dev.numerator}/{dev.denominator}",
            "exceeded": int(hit)}


def scalar_weak_law(space, members, height, epsilon, trials, seed,
                    keep_rows=True):
    """``run_weak_law`` with one Fraction deviation per trial."""
    eps = Fraction(epsilon)
    mu = space.mass(members)
    exceed, rows = 0, []
    for t, (count,) in enumerate(scalar_counts(space, [members], height,
                                               trials, seed)):
        dev = abs(Fraction(count, height) - mu)
        hit = dev >= eps
        exceed += hit
        if keep_rows:
            rows.append(_mc_row(t, height, eps, dev, hit))
    bound = Fraction(1, 4 * height) / (eps * eps)
    slack = _binomial_slack(exceed, trials)
    empirical = Fraction(exceed, trials)
    return ExperimentReport(
        kind="weak_law",
        config={"n": height, "epsilon": str(eps), "trials": trials,
                "seed": seed, "mu": f"{mu.numerator}/{mu.denominator}"},
        trials=trials, exceedances=exceed, empirical=empirical,
        bound=float(bound), slack=slack,
        passed=float(empirical) <= float(bound) + slack + FLOAT_GUARD,
        notes={"bound_exact": f"{bound.numerator}/{bound.denominator}"},
        rows=rows)


def scalar_vc_theorem(space, system, height, epsilon, trials, seed,
                      keep_rows=True):
    """``run_vc_theorem`` with one Fraction deviation per trial and set."""
    eps = Fraction(epsilon)
    masses = [space.mass(mask) for mask in system.sets]
    exceed, rows = 0, []
    for t, counts in enumerate(scalar_counts(space, system.sets, height,
                                             trials, seed)):
        dev = Fraction(0)
        for count, mass in zip(counts, masses):
            dev = max(dev, abs(Fraction(count, height) - mass))
        hit = dev > eps
        exceed += hit
        if keep_rows:
            rows.append(_mc_row(t, height, eps, dev, hit))
    rho, rho_source = _thicket_shatter_estimate(system, height)
    bound = min(1.0, 8.0 * rho * math.exp(-height * float(eps) ** 2 / 32.0))
    slack = _binomial_slack(exceed, trials)
    empirical = Fraction(exceed, trials)
    return ExperimentReport(
        kind="vc_theorem",
        config={"n": height, "epsilon": str(eps), "trials": trials,
                "seed": seed, "sets": len(system.sets)},
        trials=trials, exceedances=exceed, empirical=empirical,
        bound=bound, slack=slack,
        passed=float(empirical) <= bound + slack + FLOAT_GUARD,
        notes={"rho": rho, "rho_source": rho_source,
               "bound_vacuous": bound >= 1.0},
        rows=rows)
