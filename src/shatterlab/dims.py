"""Dimensions and shatter functions of finite set systems.

Implements VC dimension, thicket dimension, op_s-rank and their shatter
functions, plus an auditor that machine-checks the Sauer-Shelah style bounds
relating them.  Every VC quantity comes from one depth-first search over
tuples y_1 < y_2 < ... of the universe, ``_trace_count_search``.  The trace
of a mask m on a tuple is m & Y, Y the tuple's mask, so extending the tuple
by y sets one bit of Y, O(|F|) per node.  The search walks tuples of the
asked size k, and a node of j elements, r = k - j still to add, bounds what
it can reach.  Its members fall into classes by their trace, and r more
elements split a class of c members into at most min(c, 2^r) traces.  The
node is pruned when the sum of these bounds over its classes cannot beat
the best count; at r = 0 the sum is the trace count itself.  The search
stops at min(2^k, |F|).  Seeded with the best count 2^k - 1, it extends
only shattered prefixes whose classes all hold 2^r members.  Every
shattered k-set's prefixes are such, so it returns 2^k exactly when some
k-set is shattered.  That one question gives the VC dimension, the largest
such k up to min(n, floor(log2 |F|)), and the op_s-rank of a family too
small for rank 2.

Counting class sizes costs two to three times a set of traces, so the search
counts them only where a class can be expected to fall short of 2^r, when
2|F| <= 2^n; elsewhere it bounds a node by its number of classes times 2^r.
Both are upper bounds, so they give the same result; they differ only in
what they prune, and not at all when no class falls short.  The members of
one class lie in one subcube of 2^(n - j) points.  If F holds a fraction p
of the cube at random, a class size has variance at most its mean times
(1 - p), so a family holding more than half of the cube has even classes.
In powerset(16) minus 100 members no class falls short, and counting would
only add to the cost of its search; counting at every node took 0.55 s on
powerset(16), against 0.22 s (process time, best of 3, 2-vCPU Xeon).  The
test reads only |F| and n, so every node of one search takes the same
branch.

op_s-rank and psi^s come from one memoized rank recursion and one memoized
shatter recursion, which split a family on the same tuples: the
min(n, s)-subsets of [n].  Inside one top-level call they carry a subfamily
as an int over the canonical ``sets`` tuple: bit i is set when it contains
``sets[i]``.  A subfamily's child on a tuple and a pattern sigma is the
subfamily ANDed with the whole family's child there, which one
``setsystem.ChildTable`` builds on first use: the AND over the tuple of
each element's column (sigma bit 1) or its complement (bit 0).  Sizes are
bit counts, and the memo keys are (mask, height) pairs.  A family of fewer
than 2^(2s) members has op_s-rank at most 1, and 1 exactly when it
shatters some s-set, which the rank asks the VC search without building a
column.
Thicket dimension and the thicket shatter function are the s = 1 calls of
those recursions, without the universe cap.

Distinct tuples lose nothing.  A tuple with a repeated element splits F
only on its d distinct elements, and its other children are empty.  Put
unused elements in place of the repeats: each nonempty child F_tau then
splits into children F_(tau,rho), and a leaf that a member of F_tau labels
is labeled by a member of one of them, so psi(F_tau, h - 1) <= the sum over
rho of psi(F_(tau,rho), h - 1).  When n < s the one n-set splits F into
singletons, as the repeated tuples did.  The rank recursion runs only when
|F| >= 4^s, so n >= 2s there and its tuples are the s-sets.

One ``audit_bounds`` call asks for the same ranks and shatter values many
times: rows (b) to (g) read op_s-rank and psi^s of one family and its
subfamilies at a few arities.  While it runs, every op_s call, thicket's
included, reads one ``_Search`` per (sets, n, s), which keeps its columns,
its rank and shatter memos and the rank once found.  So each rank is found
once, each column is built once per (family, s), and a repeated call, after
its own argument and cap checks, costs a dict hit.  The table is dropped
when the audit returns or raises; outside an audit every call builds its
own search, and nothing is kept on the ``SetSystem``.

The empty family has rank ``NEG_INF`` (serialized as the string "-inf").

Every binomial-sum bound of the lab is one carried sum, ``_sauer_sum(n, k,
a, b)`` = sum_{i<=k} C(n,i) a^(n-i) b^i: the audit's Sauer-Shelah and leaf
bounds and its a0, ``banseq.solution_bound`` (the main theorem's),
``geometry.region_count_general_position`` and ``thicketvc``'s rho bound.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import cached_property
from operator import or_

from .errors import InputError, check_cap, require_int
from .setsystem import ChildTable, SetSystem, child, mask_of

__all__ = [
    "NEG_INF",
    "ElementTree",
    "BoundAuditReport",
    "shatters",
    "vc_dimension",
    "vc_shatter_function",
    "thicket_dimension",
    "thicket_shatter",
    "op_rank",
    "op_shatter",
    "count_children_dropping",
    "audit_bounds",
    "random_element_tree",
]

NEG_INF = float("-inf")

DEFAULT_VC_CAP = 20
DEFAULT_OP_CAP = 12


def rank_to_str(value):
    return "-inf" if value == NEG_INF else str(int(value))


# ---------------------------------------------------------------------------
# element trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ElementTree:
    """Complete 2^s-ary tree of height n; each internal node carries an
    s-tuple of universe elements.  Nodes are tuples over [2^s].

    Every leaf's (must_contain, must_avoid) masks are built once, at the
    first leaf read, and kept on the tree; the leaf (v_1, ..., v_n) is read
    at the index whose base-2^s digits are v_1 ... v_n.  So ``labels`` is
    read once, and mutating it after the first leaf read is unsupported."""

    arity_exponent: int
    height: int
    labels: dict[tuple[int, ...], tuple[int, ...]]

    def __post_init__(self):
        s = require_int(self.arity_exponent, "arity_exponent", 1)
        n = require_int(self.height, "height", 0)
        arity = 1 << s
        expected = sum(arity ** d for d in range(n))
        if not isinstance(self.labels, dict):
            raise InputError(f"labels must be a dict, got {self.labels!r}")
        if len(self.labels) != expected:
            raise InputError(f"expected {expected} labeled nodes, got {len(self.labels)}")
        for node, lab in self.labels.items():
            if not isinstance(node, tuple) or len(node) >= n:
                raise InputError(f"bad node {node!r}")
            for v in node:
                require_int(v, "node entry", 0, arity - 1)
            if not isinstance(lab, tuple) or len(lab) != s:
                raise InputError(f"label {lab!r} at {node!r} is not an {s}-tuple")

    @property
    def arity(self):
        return 1 << self.arity_exponent

    def leaves(self):
        return itertools.product(range(self.arity), repeat=self.height)

    @cached_property
    def _leaf_masks(self):
        """(must_contain, must_avoid) lists over the leaves in ``leaves()``
        order, built one level at a time.  Node i of a level has children
        arity * i + v, and child v adds the node's label x_t to
        must_contain when bit t of v is set and to must_avoid when it is
        clear.  Masks only grow down a path, so a conflicting node's leaves
        conflict too."""
        arity = self.arity
        contain, avoid = [0], [0]
        for depth in range(self.height):
            nodes = itertools.product(range(arity), repeat=depth)
            # columns[t][i]: the mask of label t of the level's node i
            columns = [[1 << x for x in column]
                       for column in zip(*map(self.labels.__getitem__, nodes))]
            below_contain = [0] * (arity * len(contain))
            below_avoid = below_contain[:]
            for v in range(arity):
                inside, outside = contain, avoid
                for t, column in enumerate(columns):
                    if v >> t & 1:
                        inside = list(map(or_, inside, column))
                    else:
                        outside = list(map(or_, outside, column))
                below_contain[v::arity] = inside
                below_avoid[v::arity] = outside
            contain, avoid = below_contain, below_avoid
        return contain, avoid

    def path_requirements(self, leaf):
        """(must_contain, must_avoid) masks for the leaf; None if some
        element is required both in and out (leaf unlabelable).  A leaf is
        a tuple or list of ``height`` integers in [0, 2^s)."""
        if not isinstance(leaf, (tuple, list)) or len(leaf) != self.height:
            raise InputError(f"leaf {leaf!r} is not a tuple or list of {self.height} entries")
        contain, avoid = self._leaf_masks
        arity = 1 << self.arity_exponent
        index = 0
        for symbol in leaf:
            if type(symbol) is not int or not 0 <= symbol < arity:
                symbol = require_int(symbol, "leaf entry", 0, arity - 1)
            index = index * arity + symbol
        req1, req0 = contain[index], avoid[index]
        if req1 & req0:
            return None
        return req1, req0

    def properly_labelable(self, leaf, sets):
        req = self.path_requirements(leaf)
        if req is None:
            return False
        req1, req0 = req
        return any(m & req1 == req1 and m & req0 == 0 for m in sets)

    def count_properly_labeled(self, system: SetSystem):
        sets = system.sets
        return sum(1 for req1, req0 in zip(*self._leaf_masks)
                   if not req1 & req0
                   and any(m & req1 == req1 and m & req0 == 0 for m in sets))


def random_element_tree(universe_size, arity_exponent, height, seed):
    """Seeded complete element tree with uniformly random labels."""
    universe_size = require_int(universe_size, "universe_size", 1)
    arity_exponent = require_int(arity_exponent, "arity_exponent", 1)
    height = require_int(height, "height", 0)
    rng = random.Random(require_int(seed, "seed"))
    arity = 1 << arity_exponent
    labels = {}
    for depth in range(height):
        for node in itertools.product(range(arity), repeat=depth):
            labels[node] = tuple(rng.randrange(universe_size)
                                 for _ in range(arity_exponent))
    return ElementTree(arity_exponent, height, labels)


# ---------------------------------------------------------------------------
# member-index bitsets
# ---------------------------------------------------------------------------

class _Search(ChildTable):
    """One op_s search of a family: its ``ChildTable``, whose children the
    recursions AND into a subfamily's mask, plus the min(n, s)-subsets of
    [n] in ``itertools.combinations`` order as ``tuples``, ``arity`` 2^s,
    the rank recursion's (mask, height) table ``memo``, the shatter
    recursion's ``leaves`` and ``rank``, the op_s-rank once found."""

    def __init__(self, sets, n, s):
        super().__init__(sets)
        self.tuples = list(itertools.combinations(range(n), min(n, s)))
        self.arity, self.memo, self.leaves, self.rank = 1 << s, {}, {}, None


# The running audit_bounds call's searches by (sets, n, s); None outside one.
_searches = None


def _search(sets, n, s):
    """The running audit's search of (sets, n, s), or a fresh one outside
    an audit."""
    if _searches is None:
        return _Search(sets, n, s)
    search = _searches.get((sets, n, s))
    if search is None:
        search = _searches[sets, n, s] = _Search(sets, n, s)
    return search


# ---------------------------------------------------------------------------
# VC dimension and shatter function
# ---------------------------------------------------------------------------

def shatters(system: SetSystem, targets) -> bool:
    chosen = mask_of(targets, system.universe_size)
    return len({m & chosen for m in system.sets}) == 1 << chosen.bit_count()


def vc_dimension(system: SetSystem, cap=None):
    """Largest size of a shattered subset; NEG_INF for the empty family."""
    if not system.sets:
        return NEG_INF
    check_cap(system.universe_size, cap, DEFAULT_VC_CAP, "VC enumeration universe")
    sets, n = system.sets, system.universe_size
    # Shattering d elements takes 2^d sets.
    limit = min(n, len(sets).bit_length() - 1)
    d = 0
    while d < limit and _shatters_some(sets, n, d + 1):
        d += 1
    return d


def vc_shatter_function(system: SetSystem, size, cap=None):
    """pi_F(size): the largest trace count over subsets of the given size."""
    size = require_int(size, "size", 0, system.universe_size)
    if not system.sets:
        return 0
    check_cap(system.universe_size, cap, DEFAULT_VC_CAP, "VC enumeration universe")
    if size == 0:
        return 1
    sets = system.sets
    return _trace_count_search(sets, system.universe_size, size, 0, 0, 0, 0,
                               min(1 << size, len(sets)))


def _trace_count_search(sets, n, size, chosen, start, k, best, stop):
    """Largest trace count, at least ``best`` and at most ``stop``, over the
    size-sets extending the k-set ``chosen`` by elements >= start."""
    rest = size - k - 1
    # Count class sizes where the input lets the count pay (module docstring).
    counted = rest and 2 * len(sets) <= 1 << n
    full = 1 << rest
    for y in range(start, n - rest):
        kid = chosen | 1 << y
        if counted:
            # A class of c members splits into at most min(c, 2^rest) traces.
            classes = {}
            for m in sets:
                trace = m & kid
                classes[trace] = classes.get(trace, 0) + 1
            reach = sum(c if c < full else full for c in classes.values())
        else:
            # Each of the kid's classes splits into at most 2^rest traces.
            reach = len({m & kid for m in sets}) << rest
        if reach > best:
            best = reach if not rest else _trace_count_search(
                sets, n, size, kid, y + 1, k + 1, best, stop)
            if best == stop:
                break
    return best


def _shatters_some(sets, n, k):
    """Whether some k-set of [n], k >= 1, is shattered: the trace-count
    search seeded at 2^k - 1, so it extends only shattered prefixes."""
    full = 1 << k
    return _trace_count_search(sets, n, k, 0, 0, 0, full - 1, full) == full


# ---------------------------------------------------------------------------
# op_s-rank and op_s shatter function; thicket is s = 1 without the cap
# ---------------------------------------------------------------------------

def thicket_dimension(system: SetSystem):
    """Largest height of a binary element tree with all leaves properly
    labeled: op_1-rank, without the universe cap."""
    if not system.sets:
        return NEG_INF
    return _op_rank(system.sets, system.universe_size, 1)


def thicket_shatter(system: SetSystem, height):
    """rho_F(height): maximum number of properly labeled leaves, that is
    psi_F^1(height), without the universe cap."""
    return _op_shatter(system.sets, system.universe_size, 1,
                       require_int(height, "height", 0))


def op_rank(system: SetSystem, s, cap=None):
    """Largest height of a 2^s-ary element tree with all leaves properly
    labeled.  NEG_INF for the empty family; 0 for nonempty systems whose
    universe is smaller than s."""
    s = require_int(s, "s", 1)
    if not system.sets:
        return NEG_INF
    check_cap(system.universe_size, cap, DEFAULT_OP_CAP, "op-rank universe")
    return _op_rank(system.sets, system.universe_size, s)


def _op_rank(sets, n, s):
    """op_s-rank of a nonempty family, found once per search by deepening a
    memoized feasibility test over member-index masks."""
    search = _search(sets, n, s)
    if search.rank is None:
        if len(sets) < 1 << 2 * s:
            # Rank 2 needs (2^s)^2 members.  Rank 1 needs a tuple whose
            # children are all nonempty, that is a shattered s-set.
            search.rank = int(_shatters_some(sets, n, s))
        else:
            k = 0
            while _op_rank_at_least(search.full, search, k + 1):
                k += 1
            search.rank = k
    return search.rank


def _op_rank_at_least(fam, search, t):
    """Rank >= t needs arity^t members in the family and arity^(t-1) in
    each child; the children are checked one by one before any recursion,
    which prunes the search hard."""
    if t <= 0:
        return True
    if fam.bit_count() < search.arity ** t:
        return False
    key = (fam, t)
    cached = search.memo.get(key)
    if cached is not None:
        return cached
    need = search.arity ** (t - 1)
    out = False
    for xs in search.tuples:
        children = []
        for sel in search[xs]:
            kid = fam & sel
            if kid.bit_count() < need:
                break
            children.append(kid)
        else:
            if all(_op_rank_at_least(kid, search, t - 1) for kid in children):
                out = True
                break
    search.memo[key] = out
    return out


def op_shatter(system: SetSystem, s, height, cap=None):
    """psi_F^s(height): maximum properly labeled leaves of a 2^s-ary tree."""
    s, height = require_int(s, "s", 1), require_int(height, "height", 0)
    if not system.sets:
        return 0
    check_cap(system.universe_size, cap, DEFAULT_OP_CAP, "op-rank universe")
    return _op_shatter(system.sets, system.universe_size, s, height)


def _op_shatter(sets, n, s, height):
    search = _search(sets, n, s)
    return _op_shatter_leaves(search.full, search, height)


def _op_shatter_leaves(fam, search, height):
    """Members are distinct, so a tree splits any group of two or more on
    some element: from height |fam| - 1 on, every member gets its own leaf.
    A tuple with a child equal to ``fam`` scores psi(fam, height - 1), no
    more than a splitting tuple, so it is skipped; the depth stays below
    |fam|."""
    if not fam:
        return 0
    if height == 0 or not fam & (fam - 1):
        return 1
    key = (fam, height)
    cached = search.leaves.get(key)
    if cached is not None:
        return cached
    size = fam.bit_count()
    if height >= size - 1:
        return size
    cap = min(search.arity ** height, size)
    best = 1
    for xs in search.tuples:
        total = 0
        for sel in search[xs]:
            kid = fam & sel
            if kid == fam:
                # the children split fam, so the others are empty and
                # total stays 0: the tuple is skipped
                break
            total += _op_shatter_leaves(kid, search, height - 1)
        if total > best:
            best = total
            if best == cap:
                break
    search.leaves[key] = best
    return best


def count_children_dropping(system: SetSystem, xs, r, l, cap=None):
    """Number of children F_sigma on tuple ``xs`` whose op_r-rank drops by
    at least ``l`` below op_r-rank(F)."""
    if not system.sets:
        raise InputError("requires a nonempty family (finite op-rank)")
    r, l = require_int(r, "r", 1), require_int(l, "l", 1)
    a = op_rank(system, r, cap=cap)
    return sum(op_rank(child(system, xs, sigma), r, cap=cap) <= a - l
               for sigma in itertools.product((0, 1), repeat=len(xs)))


# ---------------------------------------------------------------------------
# bound auditor
# ---------------------------------------------------------------------------

@dataclass
class BoundAuditReport:
    rows: list[dict] = field(default_factory=list)

    def add(self, bound, params, lhs, rhs, passed):
        self.rows.append({"bound": bound, "params": params,
                          "lhs": lhs, "rhs": rhs, "pass": bool(passed)})

    @property
    def all_pass(self):
        return all(row["pass"] for row in self.rows)

    def failures(self):
        return [row for row in self.rows if not row["pass"]]

    def to_json_list(self):
        return list(self.rows)


def _sauer_sum(n, k, a=1, b=1):
    """sum_{i<=min(k,n)} C(n,i) a^{n-i} b^i for a >= 1, the one binomial-sum
    bound of the lab; 0 for k < 0, ``NEG_INF`` the empty family's rank.
    Each term is the last one times (n - i) b / ((i + 1) a), an exact
    division, so the work grows with min(k, n)."""
    if k < 0:
        return 0
    total = term = a ** n
    for i in range(min(k, n)):
        term = term * (n - i) * b // ((i + 1) * a)
        total += term
    return total


def _digested_rhs(rhs, rank, n):
    """Rows (c) and (g)'s ``rhs``, a float when the rank exceeds n.  Their
    sum once ran i past n, where a^(n-i) is a float, and
    ``bench/reference.json`` digests that float; when the benchmark is
    unpinned (ROADMAP item 1), dropping this float() is the whole mend."""
    return float(rhs) if rank > n else rhs


def audit_bounds(system: SetSystem, s, r, n, cap=None) -> BoundAuditReport:
    """Evaluate every shatter-function bound at the given parameters.

    Bounds: (a) VC Sauer-Shelah, (b) thicket Sauer-Shelah, (c) op_s shatter
    vs op_s-rank, (d) rank-0 power bound, (e) rank comparison across
    arities, (f) rank monotonicity under subfamilies, (g) the two-parameter
    recurrence bound with a0 = sum_{i<r} C(s,i), a1 = 2^s - a0.
    """
    global _searches
    s, r = require_int(s, "s", 1), require_int(r, "r", 1)
    n = require_int(n, "n", 0)
    _searches = {}
    try:
        return _audit(system, s, r, n, cap)
    finally:
        _searches = None


def _audit(system, s, r, n, cap):
    report = BoundAuditReport()
    empty = not system.sets

    # (a) pi_F(n) <= sum_{i<=d} C(n,i); pi is only defined up to the
    # universe size, so evaluate both sides at the clamped value.
    na = min(n, system.universe_size)
    d = NEG_INF if empty else vc_dimension(system, cap=cap)
    lhs = 0 if empty else vc_shatter_function(system, na, cap=cap)
    report.add("vc_sauer_shelah", {"n": na, "dim": rank_to_str(d)},
               lhs, _sauer_sum(na, d), lhs <= _sauer_sum(na, d))

    # (b) rho_F(n) <= sum_{i<=k} C(n,i)
    k = thicket_dimension(system)
    lhs = thicket_shatter(system, n)
    report.add("thicket_sauer_shelah", {"n": n, "dim": rank_to_str(k)},
               lhs, _sauer_sum(n, k), lhs <= _sauer_sum(n, k))

    # (c) psi_F^s(n) <= sum_{i<=k} (2^s-1)^{n-i} C(n,i)
    ks = op_rank(system, s, cap=cap)
    psi = op_shatter(system, s, n, cap=cap)
    rhs = _digested_rhs(_sauer_sum(n, ks, (1 << s) - 1), ks, n)
    report.add("op_shatter_vs_rank", {"n": n, "s": s, "rank": rank_to_str(ks)},
               psi, rhs, psi <= rhs)

    # (d) op_r-rank 0 implies psi_F^s(n) <= a0^n
    a0 = _sauer_sum(s, r - 1)
    kr = NEG_INF if empty else op_rank(system, r, cap=cap)
    if kr == 0:
        report.add("rank_zero_power", {"n": n, "s": s, "r": r},
                   psi, a0 ** n, psi <= a0 ** n)
    else:
        report.add("rank_zero_power", {"n": n, "s": s, "r": r,
                                       "note": "hypothesis op_r-rank = 0 not met"},
                   0, 0, True)

    # (e) opR_{s1} >= floor(s2/s1) * opR_{s2} for s1 < s2 <= s
    for s1 in range(1, s):
        for s2 in range(s1 + 1, s + 1):
            r1 = op_rank(system, s1, cap=cap)
            r2 = op_rank(system, s2, cap=cap)
            rhs = NEG_INF if r2 == NEG_INF else (s2 // s1) * r2
            report.add("rank_arity_comparison", {"s1": s1, "s2": s2},
                       rank_to_str(r1), rank_to_str(rhs), r1 >= rhs)

    # (f) monotonicity under subfamilies
    for label, sub in _subfamily_samples(system):
        rsub = op_rank(sub, s, cap=cap)
        rfull = op_rank(system, s, cap=cap)
        report.add("rank_monotone_subfamily", {"s": s, "subfamily": label},
                   rank_to_str(rsub), rank_to_str(rfull), rsub <= rfull)

    # (g) psi_F^s(n) <= sum_{i<=b} C(n,i) a0^{n-i} a1^i with b = op_r-rank
    a1 = (1 << s) - a0
    rhs = _digested_rhs(_sauer_sum(n, kr, a0, a1), kr, n)
    report.add("two_parameter_recurrence",
               {"n": n, "s": s, "r": r, "b": rank_to_str(kr), "a0": a0, "a1": a1},
               psi, rhs, psi <= rhs)
    return report


def _subfamily_samples(system):
    sets = system.sets
    if len(sets) <= 1:
        return []
    half = SetSystem(system.universe_size, sets[: (len(sets) + 1) // 2])
    evens = SetSystem(system.universe_size, sets[::2])
    trimmed = SetSystem(system.universe_size, sets[:-1])
    return [("first_half", half), ("even_indexed", evens), ("drop_last", trimmed)]
