"""Banned j-ary sequence problems: solving, hereditariness, reductions,
extremal counts, and the constructions from set systems, element trees, and
type trees.

Conventions.  A problem of length n, fold k, alphabet j assigns to each pair
(S, X) -- S an ascending k-subset of [n], X a value tuple over [n] \\ S in
ascending index order -- a set of banned patterns Z: S -> [j], serialized in
ascending S order.  A sequence is banned when any S catches it.  True
problems have every ban set nonempty; the relaxed variant (produced by the
f-hat / f-prime reductions) may have empty ban sets and only the counting
operations accept it.

Storage.  A problem's table is one numpy bool array of shape (C(n,k),
j^(n-k), j^k): index subset x context x pattern.  It is filled once, by one
``ban_set`` call per entry, when a whole-table operation first needs it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, ceil

import numpy as np

from .errors import InputError, ResourceCapError, VerificationError
from .setsystem import SetSystem, traces

__all__ = [
    "RelaxedBanProblem",
    "BanProblem",
    "HereditaryWitness",
    "solutions",
    "banned_count",
    "trivial_upper_bound",
    "is_hereditary",
    "is_independent",
    "reduce_hat",
    "reduce_prime",
    "check_counting_inequality",
    "verify_main_theorem",
    "min_subcube_hitting",
    "max_solutions",
    "parity_problem",
    "from_vc",
    "from_element_tree",
    "from_type_tree",
    "random_problem",
]

DEFAULT_ENUM_CAP = 1 << 22
DEFAULT_HITTING_CAP = 8


class RelaxedBanProblem:
    """Ban table behind a (possibly lazy) function; empty ban sets allowed.

    ``_bans[r, c, z]``: pattern z is banned at the r-th index subset and the
    c-th context, all three in ``itertools`` order.  ``_table`` fills it
    once, by one ``ban_set`` call per entry, and drops the function:
    ``from_table`` at construction, lazy problems after the caller's
    enumeration cap.  Until then ``ban_set`` calls the function.
    """

    allow_empty = True

    def __init__(self, n, k, j, fn, name=None):
        if not (1 <= k <= n):
            raise InputError(f"need 1 <= k <= n, got k={k}, n={n}")
        if j < 2:
            raise InputError("alphabet size must be at least 2")
        self.n = n
        self.k = k
        self.j = j
        self._fn = fn
        self.name = name
        self._bans = None

    @classmethod
    def from_table(cls, n, k, j, table, name=None):
        expected = comb(n, k) * j ** (n - k)
        if len(table) != expected:
            raise InputError(f"ban table has {len(table)} entries, expected {expected}")
        problem = cls(n, k, j, lambda S, X: table[(S, X)], name=name)
        try:
            problem._table()
        except KeyError as exc:
            raise InputError(f"missing ban-table entry {exc}") from exc
        return problem

    def _table(self):
        """The ``_bans`` array, filled on first use."""
        if self._bans is None:
            n, k, j = self.n, self.k, self.j
            patterns = {Z: i for i, Z in
                        enumerate(itertools.product(range(j), repeat=k))}
            width = len(patterns)
            bans = np.zeros((comb(n, k), j ** (n - k), width), dtype=bool)
            flat, base = bans.reshape(-1), 0
            for S in self.index_subsets():
                for X in self.contexts():
                    for Z in self.ban_set(S, X):
                        i = patterns.get(Z)
                        if i is None:
                            raise InputError(f"bad banned pattern {Z} for S={S}")
                        flat[base + i] = True
                    base += width
            self._bans, self._fn = bans, None
        return self._bans

    def ban_set(self, S, X):
        S, X = tuple(S), tuple(X)
        n, k, j = self.n, self.k, self.j
        if (len(S) != k or any(not 0 <= s < n for s in S)
                or list(S) != sorted(set(S))):
            raise InputError(f"bad index subset {S}")
        if len(X) != n - k or not set(X).issubset(range(j)):
            raise InputError(f"bad context sequence {X} for S={S}")
        if self._bans is None:
            out = frozenset(self._fn(S, X))
            if not out and not self.allow_empty:
                raise InputError(f"empty ban set at S={S}, X={X}")
            return out
        # Rank of S among the k-subsets of [n] in lexicographic order.
        row = comb(n, k) - 1 - sum(comb(n - 1 - s, k - i)
                                   for i, s in enumerate(S))
        flags = self._bans[row].reshape((j,) * (n - k) + (-1,))[X]
        return frozenset(itertools.compress(
            itertools.product(range(j), repeat=k), flags.tolist()))

    def index_subsets(self):
        return itertools.combinations(range(self.n), self.k)

    def contexts(self):
        return itertools.product(range(self.j), repeat=self.n - self.k)

    def __eq__(self, other):
        if not isinstance(other, RelaxedBanProblem):
            return NotImplemented
        return ((self.n, self.k, self.j) == (other.n, other.k, other.j)
                and np.array_equal(self._table(), other._table()))

    def __repr__(self):
        tag = self.name or "lazy"
        return (f"{type(self).__name__}(n={self.n}, k={self.k}, j={self.j}, "
                f"{tag})")

    def to_json_dict(self):
        if self.j > 10:
            raise InputError("string serialization supports alphabets up to 10")
        patterns = ["".join(map(str, Z)) for Z in
                    itertools.product(range(self.j), repeat=self.k)]
        bans = []
        for S, rows in zip(self.index_subsets(), self._table()):
            for X, flags in zip(self.contexts(), rows.tolist()):
                bans.append({"S": list(S),
                             "X": "".join(map(str, X)),
                             "banned": list(itertools.compress(patterns, flags))})
        return {"n": self.n, "k": self.k, "j": self.j, "bans": bans}

    @classmethod
    def from_json_dict(cls, data):
        try:
            n, k, j = int(data["n"]), int(data["k"]), int(data["j"])
            table = {(tuple(int(s) for s in entry["S"]),
                      tuple(int(c) for c in entry["X"])):
                     frozenset(tuple(int(c) for c in z) for z in entry["banned"])
                     for entry in data["bans"]}
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed ban-problem object: {exc}") from exc
        return cls.from_table(n, k, j, table)


class BanProblem(RelaxedBanProblem):
    """A true banned sequence problem: every ban set is nonempty."""

    allow_empty = False


@dataclass
class HereditaryWitness:
    """A non-hereditariness certificate: for every pattern Z on S, a context
    X_Z leaving Z unbanned, aligned so that completed sequences pairwise
    first differ inside S."""

    S: tuple[int, ...]
    assignments: dict[tuple[int, ...], tuple[int, ...]]


def assemble(n, S, Z, X):
    """Merge Z (on S) and X (on the complement) into a full sequence."""
    seq = [None] * n
    for s, v in zip(S, Z):
        seq[s] = v
    it = iter(X)
    for p in range(n):
        if seq[p] is None:
            seq[p] = next(it)
    return tuple(seq)


def _check_enum_cap(problem, cap):
    limit = DEFAULT_ENUM_CAP if cap is None else cap
    total = problem.j ** problem.n
    if total > limit:
        raise ResourceCapError(
            f"j^n = {total} exceeds enumeration cap {limit}", cap=limit)
    return total


def check_table_cap(n, k, j, cap=None):
    """Refuse, before anything is built, a table of more than the cap's
    C(n,k) * j^n entries: the size of the ``_bans`` array and of the
    pattern lists of ``to_json_dict``.  A shape the constructor rejects is
    left to it."""
    if not (1 <= k <= n and j >= 2):
        return
    limit = DEFAULT_ENUM_CAP if cap is None else cap
    total = comb(n, k) * j ** n
    if total > limit:
        raise ResourceCapError(
            f"C(n,k) * j^n = {total} table entries exceed cap {limit}", cap=limit)


def _banned_marks(problem, cap=None):
    """Flag per sequence id (base-j, digit p at weight j^p): True = banned."""
    total = _check_enum_cap(problem, cap)
    n, j = problem.n, problem.j
    marks = np.zeros(total, dtype=bool)
    cube = marks.reshape((j,) * n)
    for S, rows in zip(problem.index_subsets(), problem._table()):
        # Axes of ``rows`` are the context positions, then S; position p
        # is axis n-1-p of ``cube``.
        positions = [p for p in range(n) if p not in S] + list(S)
        view = cube.transpose([n - 1 - p for p in positions])
        view |= rows.reshape((j,) * n)
    return marks


def banned_count(problem, cap=None):
    """B(f): sequences containing some banned subsequence."""
    return int(np.count_nonzero(_banned_marks(problem, cap)))


def solutions(problem, cap=None):
    """(solution sequences, banned count); solutions avoid every ban set."""
    marks = _banned_marks(problem, cap)
    n, j = problem.n, problem.j
    digits = np.flatnonzero(~marks)[:, None] // j ** np.arange(n) % j
    sols = list(map(tuple, digits.tolist()))
    return sols, len(marks) - len(sols)


def trivial_upper_bound(problem):
    """(j^k - 1) j^{n-k}: the one-subset bound on the solution count."""
    n, k, j = problem.n, problem.k, problem.j
    return (j ** k - 1) * j ** (n - k)


def is_independent(problem, cap=None):
    """True iff every ban set depends on S alone."""
    _check_enum_cap(problem, cap)
    bans = problem._table()
    return bool((bans == bans[:, :1]).all())


def _search_witness(problem, S):
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


def is_hereditary(problem, cap=None):
    """(True, None) or (False, witness).  The witness is revalidated
    against the pairwise definition before being returned."""
    _check_enum_cap(problem, cap)
    for S in problem.index_subsets():
        assignments = _search_witness(problem, S)
        if assignments is not None:
            witness = HereditaryWitness(tuple(S), assignments)
            if not witness_is_valid(problem, witness):
                raise VerificationError(f"internal: invalid witness for S={S}")
            return False, witness
    return True, None


def witness_is_valid(problem, witness):
    """Direct check of the non-hereditariness definition."""
    S = witness.S
    n = problem.n
    patterns = list(itertools.product(range(problem.j), repeat=problem.k))
    if set(witness.assignments) != set(patterns):
        return False
    full = {}
    for Z, X in witness.assignments.items():
        if Z in problem.ban_set(S, X):
            return False
        full[Z] = assemble(n, S, Z, X)
    s_set = set(S)
    for za, zb in itertools.combinations(patterns, 2):
        a, b = full[za], full[zb]
        diff = next((p for p in range(n) if a[p] != b[p]), None)
        if diff is None or diff not in s_set:
            return False
    return True


def reduce_hat(problem, cap=None):
    """f-hat: (k-1)-fold, length n-1; bans the patterns extendable to a
    pattern banned at S = T + {n-1}."""
    if problem.k < 2 or problem.n < 2:
        raise InputError("reduce_hat requires k >= 2 and n >= 2")
    _check_enum_cap(problem, cap)
    n, k, j = problem.n, problem.k, problem.j
    rows = [S[-1] == n - 1 for S in problem.index_subsets()]
    # n-1 is the largest element of S, so it is the last pattern digit.
    bans = problem._table()[rows].reshape(-1, j ** (n - k), j ** (k - 1), j)
    hat = RelaxedBanProblem(n - 1, k - 1, j, None, name="hat")
    hat._bans = bans.any(axis=3)
    return hat


def reduce_prime(problem, cap=None):
    """f-prime: k-fold, length n-1; bans the patterns banned for every
    choice of the appended last entry."""
    if problem.n < 2 or problem.k > problem.n - 1:
        raise InputError("reduce_prime requires n >= 2 and k <= n-1")
    _check_enum_cap(problem, cap)
    n, k, j = problem.n, problem.k, problem.j
    rows = [S[-1] != n - 1 for S in problem.index_subsets()]
    # Outside S, n-1 is the last context digit.
    bans = problem._table()[rows].reshape(-1, j ** (n - 1 - k), j, j ** k)
    prime = RelaxedBanProblem(n - 1, k, j, None, name="prime")
    prime._bans = bans.all(axis=2)
    return prime


def check_counting_inequality(problem, cap=None):
    """Verify B(f) >= B(f-hat) + (j-1) B(f-prime)."""
    if problem.k < 2:
        raise InputError("counting inequality requires k >= 2")
    b_f = banned_count(problem, cap)
    b_hat = banned_count(reduce_hat(problem, cap), cap)
    b_prime = banned_count(reduce_prime(problem, cap), cap)
    rhs = b_hat + (problem.j - 1) * b_prime
    return {
        "n": problem.n, "k": problem.k, "j": problem.j,
        "B_f": b_f, "B_hat": b_hat, "B_prime": b_prime,
        "rhs": rhs, "pass": b_f >= rhs,
    }


def solution_bound(n, k, j):
    """sum_{i<k} (j-1)^{n-i} C(n,i): the hereditary solution-count bound."""
    return sum((j - 1) ** (n - i) * comb(n, i) for i in range(k))


def verify_main_theorem(problem, cap=None):
    """Check the hereditary solution bound; a violation is only legal for
    non-hereditary problems and is reported as such."""
    # Solving first fills the table, so the witness search reads the array.
    sols, banned = solutions(problem, cap)
    hereditary, witness = is_hereditary(problem, cap)
    bound = solution_bound(problem.n, problem.k, problem.j)
    count = len(sols)
    report = {
        "n": problem.n, "k": problem.k, "j": problem.j,
        "hereditary": hereditary,
        "solutions": count, "banned": banned, "bound": bound,
        "within_bound": count <= bound,
        "slack": bound - count,
    }
    report["pass"] = (count <= bound) if hereditary else True
    if witness is not None:
        report["witness_S"] = list(witness.S)
    return report


def min_subcube_hitting(n, k, cap=None):
    """Minimum size of B in 2^n meeting every k-dimensional subcube,
    by branch and bound over the cubes' candidate points."""
    if not 1 <= k <= n:
        raise InputError(f"need 1 <= k <= n, got k={k}, n={n}")
    limit = DEFAULT_HITTING_CAP if cap is None else cap
    if n > limit:
        raise ResourceCapError(f"length {n} exceeds hitting-search cap {limit}",
                               cap=limit)
    powers = [1 << p for p in range(n)]
    cubes = []
    for S in itertools.combinations(range(n), k):
        non_s = [p for p in range(n) if p not in S]
        for X in itertools.product((0, 1), repeat=n - k):
            base = sum(v * powers[p] for v, p in zip(X, non_s))
            cubes.append(tuple(base + sum(v * powers[s] for v, s in zip(Z, S))
                               for Z in itertools.product((0, 1), repeat=k)))
    cubes_of_point = {}
    for idx, cube in enumerate(cubes):
        for pt in cube:
            cubes_of_point.setdefault(pt, []).append(idx)
    max_cover = max(len(v) for v in cubes_of_point.values())

    # Greedy upper bound.
    uncovered = set(range(len(cubes)))
    greedy = 0
    while uncovered:
        pt = max(cubes_of_point,
                 key=lambda p: sum(1 for c in cubes_of_point[p] if c in uncovered))
        uncovered -= set(cubes_of_point[pt])
        greedy += 1
    best = greedy

    def bb(uncovered, chosen):
        nonlocal best
        if not uncovered:
            best = min(best, chosen)
            return
        if chosen + ceil(len(uncovered) / max_cover) >= best:
            return
        target = cubes[min(uncovered)]
        ranked = sorted(target,
                        key=lambda p: -sum(1 for c in cubes_of_point[p]
                                           if c in uncovered))
        for pt in ranked:
            bb(uncovered - set(cubes_of_point[pt]), chosen + 1)

    bb(frozenset(range(len(cubes))), 0)
    return best


def max_solutions(n, k, cap=None):
    """Largest solution count over all binary k-fold problems of length n;
    equals 2^n minus the minimum subcube-hitting size."""
    return (1 << n) - min_subcube_hitting(n, k, cap)


def parity_problem(n):
    """1-fold binary problem banning the entry that would even out the
    count of 1s; its solutions are exactly the even-weight sequences."""
    if n < 1:
        raise InputError("n must be >= 1")

    def fn(S, X):
        return frozenset({(1,)}) if sum(X) % 2 == 0 else frozenset({(0,)})

    return BanProblem(n, 1, 2, fn, name=f"parity({n})")


def from_vc(system: SetSystem, m):
    """Independent m-fold binary problem of length n banning, at each S,
    the membership patterns realized by no member of the family.

    Requires VC dimension < m so that every ban set is nonempty."""
    n = system.universe_size
    if not 1 <= m <= n:
        raise InputError(f"need 1 <= m <= universe size, got m={m}, n={n}")
    per_s = {}
    full = 1 << m
    for S in itertools.combinations(range(n), m):
        # Traces on the reversed tuple read S[0] as the high bit, so they
        # are the indices of the realized patterns in product order.
        realized = traces(system.sets, S[::-1])
        if len(realized) == full:
            raise InputError(f"VC dimension >= {m}: the family shatters {S}")
        patterns = enumerate(itertools.product((0, 1), repeat=m))
        per_s[S] = frozenset(Z for i, Z in patterns if i not in realized)

    def fn(S, X):
        return per_s[S]

    return BanProblem(n, m, 2, fn, name=f"from_vc({system.name or 'F'},{m})")


def from_element_tree(tree, system: SetSystem, m, cap=None):
    """m-fold problem over alphabet 2^s whose banned patterns are the
    leaves of the (S, X)-restricted tree that no family member properly
    labels.  Requires op_s-rank(F) < m."""
    from .dims import op_rank, NEG_INF

    s = tree.arity_exponent
    n = tree.height
    if not 1 <= m <= n:
        raise InputError(f"need 1 <= m <= tree height, got m={m}, height={n}")
    rank = op_rank(system, s, cap=cap)
    if rank != NEG_INF and rank >= m:
        raise InputError(f"op_{s}-rank {rank} >= fold {m}")
    j = 1 << s
    sets = system.sets

    def fn(S, X):
        bans = set()
        for Z in itertools.product(range(j), repeat=m):
            path = assemble(n, S, Z, X)
            if not tree.properly_labelable(path, sets):
                bans.add(Z)
        return frozenset(bans)

    return BanProblem(n, m, j, fn, name=f"from_element_tree(s={s},m={m})")


def from_type_tree(graph, type_tree, t):
    """t-fold binary problem of length h-1 banning the branch patterns that
    leave the type tree's index set.

    An empty ban set would certify a full binary type tree of height t+1;
    it is raised as a verification error carrying that counterexample."""
    from .typetree import TypeTree  # noqa: F401  (type of ``type_tree``)

    h = type_tree.height
    if t < 2:
        raise InputError("fold t must be >= 2")
    n = h - 1
    if n < t:
        raise InputError(f"degenerate size: length h-1 = {n} < fold {t}")
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

    return BanProblem(n, t, 2, fn, name=f"from_type_tree(t={t})")


def random_problem(n, k, j, seed, density=0.5):
    """Seeded explicit problem; each pattern is banned independently with
    the given probability, with one forced ban to keep sets nonempty."""
    import random as _random

    rng = _random.Random(seed)
    patterns = list(itertools.product(range(j), repeat=k))
    table = {}
    for S in itertools.combinations(range(n), k):
        for X in itertools.product(range(j), repeat=n - k):
            chosen = [Z for Z in patterns if rng.random() < density]
            if not chosen:
                chosen = [rng.choice(patterns)]
            table[(S, X)] = frozenset(chosen)
    return BanProblem.from_table(n, k, j, table, name=f"random({n},{k},{j},{seed})")
