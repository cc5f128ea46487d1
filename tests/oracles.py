"""Independent brute-force oracles used to cross-check the fast recursions.

Everything here favors obviousness over speed: the binomial-sum bounds
are summed term by term, op_s-ranks and their shatter functions are
computed by enumerating every complete element tree (each tree's leaves
counted by ``ElementTree.count_properly_labeled``, itself checked against a
per-leaf walk from the labels), the VC dimension and shatter function by
counting traces on every tuple, the hereditary check by enumerating every
candidate context assignment (and its witness by banseq's earlier
backtracking over the public ``ban_set``), a ban table by banseq's earlier
per-entry fill, a test estimate's expectation by summing the binomial law
of its count of 1s, and the Monte Carlo audits by walking every level of
one scalar test tree per trial.  The
``tuple_*`` functions at the end are dims' earlier op_s-rank and shatter
recursions over mask tuples, against which the member-index bitset kernels
are checked at sizes the tree enumeration cannot reach.
"""

import itertools
import math
import random
from array import array
from fractions import Fraction

import numpy as np

from shatterlab.banseq import assemble
from shatterlab.dims import ElementTree, NEG_INF
from shatterlab.errors import InputError, VerificationError
from shatterlab.setsystem import child_masks, project, traces
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


def walk_path_requirements(labels, leaf):
    """(must_contain, must_avoid) masks of a leaf, walked from the root
    through ``labels`` one node at a time; None when they share an element.
    A copy of ``ElementTree.path_requirements`` before its leaf table, so it
    shares no code with that table."""
    req1 = req0 = 0
    for depth, symbol in enumerate(leaf):
        for i, x in enumerate(labels[tuple(leaf[:depth])]):
            if symbol >> i & 1:
                req1 |= 1 << x
            else:
                req0 |= 1 << x
    if req1 & req0:
        return None
    return req1, req0


def walk_count_properly_labeled(labels, arity_exponent, height, sets):
    """Leaves some member labels properly, each walked from the root."""
    count = 0
    for leaf in itertools.product(range(1 << arity_exponent), repeat=height):
        req = walk_path_requirements(labels, leaf)
        if req is not None and any(m & req[0] == req[0] and not m & req[1]
                                   for m in sets):
            count += 1
    return count


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


def binomial_bound(n, k, a=1, b=1):
    """sum_{i<=k} C(n,i) a^(n-i) b^i, each term from ``math.comb``; 0 for
    the empty family's rank NEG_INF.  It shares no code with
    ``dims._sauer_sum``.  Past i = n the exponent n - i is negative, so at
    k > n the sum is a float, as the audit's rows (c) and (g) report it."""
    if k == NEG_INF:
        return 0
    return sum(math.comb(n, i) * a ** (n - i) * b ** i for i in range(k + 1))


def brute_vc_dimension(system):
    """Largest k such that some k-subset has all 2^k traces."""
    if not system.sets:
        return NEG_INF
    n = system.universe_size
    best = 0
    for k in range(1, n + 1):
        if len(system.sets) < 1 << k:
            break
        if any(len(traces(system.sets, combo)) == 1 << k
               for combo in itertools.combinations(range(n), k)):
            best = k
        else:
            break
    return best


def brute_shatters(system, targets):
    """Whether the projection onto ``targets`` is their whole powerset."""
    ys = sorted(set(targets))
    return len(project(system, ys).sets) == 1 << len(ys)


def brute_vc_shatter_function(system, size):
    """Largest trace count over the subsets of the given size."""
    if not system.sets:
        return 0
    best = 0
    full = 1 << size
    for combo in itertools.combinations(range(system.universe_size), size):
        best = max(best, len(traces(system.sets, combo)))
        if best == full:
            break
    return best


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


def backtrack_witness(problem, S):
    """Backtracking over the j-ary decision tree branching exactly at S.

    Values at non-S positions are chosen per Z-prefix, which is equivalent
    to the pairwise first-difference condition: two completed sequences
    first differ exactly at the S position where their branches split.
    Returns {Z: X_Z} on success, None when S is not a witness.
    """
    n, j = problem.n, problem.j
    in_s = [p in S for p in range(n)]

    def rec(p, z, xs):
        if p == n:
            X = tuple(xs)
            return {z: X} if z not in problem.ban_set(S, X) else None
        if in_s[p]:
            out = {}
            for v in range(j):
                sub = rec(p + 1, z + (v,), xs)
                if sub is None:
                    return None
                out.update(sub)
            return out
        for v in range(j):
            sub = rec(p + 1, z, xs + (v,))
            if sub is not None:
                return sub
        return None

    return rec(0, (), ())


def backtrack_is_hereditary(problem):
    """(True, None) or (False, (S, assignments)) at the first S, in
    ``itertools`` order, that ``backtrack_witness`` accepts."""
    for S in problem.index_subsets():
        assignments = backtrack_witness(problem, S)
        if assignments is not None:
            return False, (S, assignments)
    return True, None


def per_entry_table(problem):
    """The (C(n,k), j^(n-k), j^k) bool table of ``problem``, filled by
    banseq's earlier per-entry loop: one public ``ban_set`` call per (S, X)
    in ``index_subsets`` x ``contexts`` order, each returned pattern looked
    up and refused with the same text as the library's fill when it is not
    one of the j^k."""
    n, k, j = problem.n, problem.k, problem.j
    patterns = {Z: i for i, Z in enumerate(itertools.product(range(j), repeat=k))}
    width = len(patterns)
    bans = np.zeros((math.comb(n, k), j ** (n - k), width), dtype=bool)
    for S, row in zip(problem.index_subsets(), bans.reshape(len(bans), -1)):
        hits = array("q")
        for base, X in zip(itertools.count(0, width), problem.contexts()):
            for Z in problem.ban_set(S, X):
                i = patterns.get(Z)
                if i is None:
                    raise InputError(f"bad banned pattern {Z} for S={S}")
                hits.append(base + i)
        row[hits] = True
    return bans


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


def brute_element_tree_bans(tree, system, m):
    """{(S, X): banned patterns} of the m-fold element-tree problem, walked
    directly from the labels: a leaf is banned unless some member holds
    every label its path takes a 1-bit at and no label it takes a 0-bit at."""
    s, n = tree.arity_exponent, tree.height
    j = 1 << s
    members = [{x for x in range(system.universe_size) if mask >> x & 1}
               for mask in system.sets]
    table = {}
    for S in itertools.combinations(range(n), m):
        for X in itertools.product(range(j), repeat=n - m):
            bans = set()
            for Z in itertools.product(range(j), repeat=m):
                leaf = assemble(n, S, Z, X)
                inside, outside = set(), set()
                for depth, symbol in enumerate(leaf):
                    for i, x in enumerate(tree.labels[leaf[:depth]]):
                        (inside if symbol >> i & 1 else outside).add(x)
                if not any(inside <= member and not outside & member
                           for member in members):
                    bans.add(Z)
            table[(S, X)] = frozenset(bans)
    return table


def brute_random_table(n, k, j, seed, density=0.5):
    """{(S, X): banned patterns} of ``random_problem``, drawn entry by entry
    in (S, X, Z) order from one ``random.Random(seed)``: a pattern is banned
    when its draw falls below the density, and an entry that bans none bans
    one pattern picked by ``rng.choice``."""
    rng = random.Random(seed)
    patterns = list(itertools.product(range(j), repeat=k))
    table = {}
    for S in itertools.combinations(range(n), k):
        for X in itertools.product(range(j), repeat=n - k):
            chosen = [Z for Z in patterns if rng.random() < density]
            if not chosen:
                chosen = [rng.choice(patterns)]
            table[(S, X)] = frozenset(chosen)
    return table


def brute_vc_subset_bans(system, m, subsets=None):
    """{S: banned patterns} of ``from_vc`` over ``subsets`` (default: every
    m-subset): Z is banned at S iff no member has bit S[i] equal to Z[i]
    for every i."""
    if subsets is None:
        subsets = itertools.combinations(range(system.universe_size), m)
    return {S: frozenset(
        Z for Z in itertools.product((0, 1), repeat=m)
        if not any(all(member >> s & 1 == z for s, z in zip(S, Z))
                   for member in system.sets))
        for S in subsets}


def brute_vc_bans(system, m):
    """{(S, X): banned patterns} of ``from_vc``: S's bans, whatever X."""
    contexts = list(itertools.product((0, 1), repeat=system.universe_size - m))
    return {(S, X): bans for S, bans in brute_vc_subset_bans(system, m).items()
            for X in contexts}


def brute_first_shattered(system, m):
    """The first m-subset of the universe, in ``itertools`` order, on which
    the members' membership patterns take all 2^m values; None if none."""
    for S in itertools.combinations(range(system.universe_size), m):
        patterns = {tuple(member >> s & 1 for s in S) for member in system.sets}
        if len(patterns) == 1 << m:
            return S
    return None


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


def brute_type_tree_bans(type_tree, t):
    """{(S, X): banned patterns} of ``from_type_tree``, entry by entry in
    (S, X) order: Z is banned when the completed sequence's prefix through
    S[-1] is no key of the tree; the first entry that bans nothing raises
    VerificationError."""
    n = type_tree.height - 1
    index_set = set(type_tree.labels)

    def fn(S, X):
        prefix_len = S[-1] + 1
        bans = set()
        for Z in itertools.product((0, 1), repeat=t):
            seq = assemble(n, S, Z, X)
            key = "".join(str(b) for b in seq[:prefix_len])
            if key not in index_set:
                bans.add(Z)
        if not bans:
            raise VerificationError(
                "empty ban set: tree rank exceeds "
                f"{t} (full type tree of height {t + 1} at S={S}, X={X})")
        return frozenset(bans)

    return {(S, X): fn(S, X) for S in itertools.combinations(range(n), t)
            for X in itertools.product((0, 1), repeat=n - t)}


def brute_type_tree_violation(graph, labels):
    """None when ``labels`` is a type tree of ``graph``, else the first
    failed requirement, checked pair by pair from the statement with
    adjacency read from ``graph.edges``: a bijection onto the vertices, a
    prefix-closed set of binary keys, each child adjacent to its parent
    iff it is the "1" child (condition 1), and each ancestor adjacent to a
    strict descendant iff it is adjacent to the child on the way down
    (condition 2)."""
    def adjacent(u, v):
        return frozenset((u, v)) in graph.edges

    if sorted(labels.values()) != list(range(graph.vertex_count)):
        return "bijection"
    for key in labels:
        if set(key) - {"0", "1"} or (key and key[:-1] not in labels):
            return "prefix-closed binary keys"
    for eta, child in itertools.product(labels, repeat=2):
        if len(child) == len(eta) + 1 and child.startswith(eta):
            if adjacent(labels[eta], labels[child]) != (child[-1] == "1"):
                return "condition 1"
    for eta, below in itertools.product(labels, repeat=2):
        if len(below) > len(eta) + 1 and below.startswith(eta):
            mid = below[:len(eta) + 1]
            if adjacent(labels[eta], labels[below]) != adjacent(labels[eta], labels[mid]):
                return "condition 2"
    return None


def brute_min_hitting(n, k):
    """Fewest points of {0,1}^n meeting every k-dimensional subcube, by
    trying every point set in order of size.  A subcube frees k
    coordinates and fixes the others, and holds the points agreeing with
    the fixed values."""
    points = list(itertools.product((0, 1), repeat=n))
    cubes = []
    for free in itertools.combinations(range(n), k):
        fixed = [p for p in range(n) if p not in free]
        for values in itertools.product((0, 1), repeat=n - k):
            cubes.append({pt for pt in points
                          if all(pt[p] == v for p, v in zip(fixed, values))})
    for size in itertools.count():
        for chosen in itertools.combinations(points, size):
            if all(cube.intersection(chosen) for cube in cubes):
                return size


def scalar_counts(space, masks, height, trials, seed):
    """Per trial, the count of 1s along each set's characteristic path in
    the scalar test tree of that trial's seed."""
    counts = []
    for t in range(trials):
        tree = TestTree(space, height, trial_seed(seed, t))
        counts.append([sum(characteristic_path(tree, mask)) for mask in masks])
    return counts


def binomial_expectation(space, members, height):
    """Expectation of the test estimate from the law of a path's count of
    1s, Bin(h, mu) with mu = a/d the set's measure: the h + 1 terms
    C(h,c) a^c (d-a)^(h-c) c are integers over the one denominator h d^h."""
    mu = space.mass(members)
    a, d = mu.numerator, mu.denominator
    total = sum(math.comb(height, c) * a ** c * (d - a) ** (height - c) * c
                for c in range(height + 1))
    return Fraction(total, height * d ** height)


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


# ---------------------------------------------------------------------------
# The tuple-filter recursions that dims ran before it carried families as
# member-index bitsets: the same searches over canonical mask tuples, each
# child built by ``child_masks``.
# ---------------------------------------------------------------------------

def tuple_op_rank(sets, n, s):
    """op_s-rank of a nonempty family, found by deepening a memoized
    feasibility test."""
    # Distinct tuples only: a repeated element forces an empty child, and
    # the min over children is invariant under permuting the tuple.
    tuples = list(itertools.combinations(range(n), s))
    sigmas = list(itertools.product((0, 1), repeat=s))
    memo = {}
    k = 0
    while _op_rank_at_least(sets, tuples, sigmas, k + 1, memo):
        k += 1
    return k


def _op_rank_at_least(sets, tuples, sigmas, t, memo):
    """Rank >= t needs 2^(st) = len(sigmas)^t sets in the family and
    2^(s(t-1)) in each child; the children are checked one by one before
    any recursion, which prunes the search hard."""
    if t <= 0:
        return True
    if len(sets) < len(sigmas) ** t:
        return False
    key = (sets, t)
    cached = memo.get(key)
    if cached is not None:
        return cached
    need = len(sigmas) ** (t - 1)
    out = False
    for xs in tuples:
        children = []
        for sigma in sigmas:
            kid = child_masks(sets, xs, sigma)
            if len(kid) < need:
                break
            children.append(kid)
        else:
            if all(_op_rank_at_least(kid, tuples, sigmas, t - 1, memo)
                   for kid in children):
                out = True
                break
    memo[key] = out
    return out


def tuple_op_shatter(sets, n, s, height):
    tuples = list(itertools.combinations_with_replacement(range(n), s))
    sigmas = list(itertools.product((0, 1), repeat=s))
    return _op_shatter_leaves(sets, tuples, sigmas, height, {})


def _op_shatter_leaves(sets, tuples, sigmas, height, memo):
    if not sets:
        return 0
    if height == 0 or len(sets) == 1:
        return 1
    key = (sets, height)
    cached = memo.get(key)
    if cached is not None:
        return cached
    cap = min(len(sigmas) ** height, len(sets))
    best = 1
    for xs in tuples:
        total = 0
        for sigma in sigmas:
            total += _op_shatter_leaves(child_masks(sets, xs, sigma), tuples,
                                        sigmas, height - 1, memo)
        if total > best:
            best = total
            if best == cap:
                break
    memo[key] = best
    return best
