"""Dimensions and shatter functions of finite set systems.

Implements VC dimension, thicket dimension, op_s-rank and their shatter
functions, plus an auditor that machine-checks the Sauer-Shelah style bounds
relating them.  Every VC quantity comes from one depth-first search over
tuples y_1 < y_2 < ... of the universe, ``_trace_count_search``.  A node of
j elements, r = k - j still to add, bounds what it can reach: its members
fall into classes by their trace m & Y, Y the tuple's mask, and r more
elements split a class of c members into at most min(c, 2^r) traces.  The
node is pruned when its bound cannot beat the best count; at r = 0 the
bound is the trace count itself.  The search stops at min(2^k, |F|).
Seeded with the best count 2^k - 1, it extends only shattered prefixes
whose classes all hold 2^r members.  Every shattered k-set's prefixes are
such, so it returns 2^k exactly when some k-set is shattered.  That one
question gives the VC dimension, the largest such k up to
min(n, floor(log2 |F|)), and the op_s-rank of a family too small for
rank 2.

How a node finds its classes depends only on |F| and n, so every node of
one search does it the same way.  Where 2|F| <= 2^n, the sparse case, a
node carries its classes as member-index masks, ints over ``sets``, and
adding y splits each class c by y's column col, the members that contain
y, into c & col and c ^ (c & col): partition refinement (Paige and Tarjan
1987).  A node costs O(#classes) big-int operations, not O(|F|) Python
steps, and its bound is the sum of min(c, 2^r) over its classes.  A
one-member class always reaches one trace, so those are kept as a count.
At r = 0 the reach is the number of classes plus the number that y
splits.  A class reaches at most 2 * 2^r after the split, so the loop over
the classes stops once those that remain cannot lift the reach above the
best count.  Each public call reads all n columns at once from
``setsystem._member_columns`` and starts from the one class of the whole
family; it shares nothing with the op_s searches below.  Inside
``audit_bounds`` row (a)'s two VC calls read one set of columns.

Where 2|F| > 2^n, the dense case, a node keeps the set of traces m & Y,
O(|F|) per node, bounds its reach by the number of classes times 2^r and
builds no column.  The members of one class lie in one subcube of
2^(n - j) points.  If F holds a fraction p of the cube at random, a class
size has variance at most its mean times (1 - p), so a family holding more
than half of the cube has even classes: their sizes prune nothing, and
splitting |F|-bit class masks costs more than a set of traces.  The class
split took 8 times as long on powerset(16) and 1.3-1.5 times as long on
3/4 of the 14-cube (process time, 2-vCPU Xeon; ``tools/vc_grid.py`` times
such points).  Both bounds are upper bounds, so either search returns the
same count.

op_s-rank and psi^s come from one memoized rank recursion and one memoized
shatter recursion, which split a family on the same tuples: the
min(n, s)-subsets of [n].  Inside one top-level call they carry a subfamily
as an int over the canonical ``sets`` tuple: bit i is set when it contains
``sets[i]``.  A subfamily's child on a tuple and a pattern sigma is the
subfamily ANDed with the whole family's child there, which the call's
``_Search`` builds on first use: the AND over the tuple of each element's
column (sigma bit 1) or its complement (bit 0).  Sizes are bit counts, and
the memo keys are (mask, height) pairs.  A family of fewer
than 2^(2s) members has op_s-rank at most 1, and 1 exactly when it
shatters some s-set, which the rank asks the VC search with sets of traces:
on fewer than 4^s members a column table would cost more than it saves.
Thicket dimension and the thicket shatter function are the s = 1 calls of
those recursions, without the universe cap.

The lowest levels of both recursions are answered from sizes, in place:
a child there costs no call and no memo entry.  A member properly labels
at most one leaf, and a tree of height t has arity^t leaves, so psi(F, t)
<= min(arity^t, |F|), and rank >= t needs arity^t members.  At height 0
these bounds are exact: one leaf, labeled when F is nonempty.  So
psi(F, 1) counts a tuple's nonempty children, and rank >= 1 is the test
that no child on some tuple is empty.  At s = 1 they are exact at height 1
too: two distinct members differ on some element x, which splits them into
the children F_x0 and F_x1, so psi^1(F, 1) = min(2, |F|) and rank >= 1
exactly when |F| >= 2.  So psi^1(F, 2) is the largest sum over the
elements x that split F of min(2, |F_x0|) + min(2, |F_x1|), and rank >= 2
at s = 1 asks only that both children of some element hold two members.
``_Search.sized`` is that height, 1 at s = 1 and 0 otherwise.

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
its rank and shatter memos and the rank once found, and every VC call reads
one set of VC columns per (sets, n).  So each rank is found once, each
column is built once per (family, s), and a repeated call, after its own
argument and cap checks, costs a dict hit.  Row (f)'s subfamilies are
member masks of the family: bit i stands for ``sets[i]`` in a subfamily as
in the family, so ``_subfamily_rank`` ranks each on the family's search,
its columns and its (mask, height) memo, with no family or search of its
own; ``count_children_dropping`` ranks a tuple's children the same way.
Both tables are dropped when the audit returns or raises; outside an audit
every call builds its own search and columns, and nothing is kept on the
``SetSystem``.

The empty family has rank ``NEG_INF`` (serialized as the string "-inf").

Every binomial-sum bound of the lab is one carried sum, ``_sauer_sum(n, k,
a, b)`` = sum_{i<=k} C(n,i) a^(n-i) b^i: the audit's Sauer-Shelah and leaf
bounds and its a0, ``banseq.solution_bound`` (the main theorem's),
``geometry.region_count_general_position`` and ``thicketvc``'s rho bound.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from functools import cached_property
from operator import or_

from .errors import InputError, check_cap, require_int, require_ints
from .setsystem import SetSystem, _member_columns, child_masks, mask_of

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
    s-tuple of universe elements, each read as a non-negative integer at
    construction.  Nodes are tuples over [2^s].

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
        require_ints(lambda: itertools.chain.from_iterable(self.labels.values()),
                     "label entry", 0)

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
        try:
            if req is None:
                # An unlabelable leaf refuses a ``sets`` that is no
                # collection, as a labelable one does.
                iter(sets)
                return False
            req1, req0 = req
            return any(m & req1 == req1 and m & req0 == 0 for m in sets)
        except TypeError:
            raise InputError(f"expected a collection of masks, got {sets!r}") from None

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

_BINARY_DIGITS = bytes.maketrans(b"\0\1", b"01")


class _Search(dict):
    """One op_s search of the family ``sets`` over [n]: the min(n, s)-subsets
    of [n] in ``itertools.combinations`` order as ``tuples``, ``arity`` 2^s,
    ``sized`` the largest height that sizes alone answer (1 at s = 1, else
    0; module docstring), the rank recursion's (mask, height) table
    ``memo``, the shatter recursion's ``leaves`` and ``rank``, the op_s-rank
    once found.

    As a dict it holds the family's children on tuples of elements, which
    the recursions AND into a subfamily's mask: bit i of a member-index mask
    stands for ``sets[i]``.  ``search[xs]`` lists one mask per sigma in
    ``itertools.product((0, 1), repeat=len(xs))`` order, each filled on
    first use, so a search that stops early builds few.  ``search[(x,)][1]``
    is x's column, the members that contain x, read from ``child_masks``
    and parsed from one binary digit string in time linear in |F|;
    ``search[(x,)][0]`` is its complement in the whole family ``full``.  A
    longer tuple's children are its prefix's children ANDed with its last
    element's, so a repeated element's conflicting children are empty."""

    def __init__(self, sets, n, s):
        self.sets, self.full = sets, (1 << len(sets)) - 1
        self[()] = [self.full]
        self.tuples = list(itertools.combinations(range(n), min(n, s)))
        self.arity, self.sized = 1 << s, int(s == 1)
        self.memo, self.leaves, self.rank = {}, {}, None

    def __missing__(self, xs):
        if len(xs) == 1:
            kid = set(child_masks(self.sets, xs, (1,)))
            flags = bytes([m in kid for m in reversed(self.sets)])
            # The leading 0 reads the empty family as 0.
            column = int(b"0" + flags.translate(_BINARY_DIGITS), 2)
            children = [self.full ^ column, column]
        else:
            last = self[xs[-1:]]
            children = [sel & col for sel in self[xs[:-1]] for col in last]
        self[xs] = children
        return children


# The running audit_bounds call's searches by (sets, n, s), and row (a)'s VC
# columns by (sets, n); None outside one.
_searches = _vc_columns = None


def _kept(table, key, build):
    """``table[key]``, built as ``build(*key)`` on first use; a fresh
    ``build(*key)`` when ``table`` is None, outside an audit."""
    if table is None:
        return build(*key)
    value = table.get(key)
    if value is None:
        value = table[key] = build(*key)
    return value


def _search(sets, n, s):
    """The running audit's search of (sets, n, s), or a fresh one outside
    an audit."""
    return _kept(_searches, (sets, n, s), _Search)


# ---------------------------------------------------------------------------
# VC dimension and shatter function
# ---------------------------------------------------------------------------

def _is_empty(system, cap, default, what):
    """Whether the family is empty, so that no search runs.  A nonempty
    family's universe is checked against ``cap`` (``check_cap`` with
    ``default`` and ``what``); the empty family's size, -inf, passes any
    cap, though a non-None one must still be an integer."""
    check_cap(system.universe_size if system.sets else NEG_INF, cap, default, what)
    return not system.sets


def shatters(system: SetSystem, targets) -> bool:
    chosen = mask_of(targets, system.universe_size)
    return len({m & chosen for m in system.sets}) == 1 << chosen.bit_count()


def vc_dimension(system: SetSystem, cap=None):
    """Largest size of a shattered subset; NEG_INF for the empty family."""
    if _is_empty(system, cap, DEFAULT_VC_CAP, "VC enumeration universe"):
        return NEG_INF
    sets, n = system.sets, system.universe_size
    columns = _columns(sets, n)
    # Shattering d elements takes 2^d sets.
    limit = min(n, len(sets).bit_length() - 1)
    d = 0
    while d < limit and _shatters_some(sets, n, d + 1, columns):
        d += 1
    return d


def vc_shatter_function(system: SetSystem, size, cap=None):
    """pi_F(size): the largest trace count over subsets of the given size."""
    size = require_int(size, "size", 0, system.universe_size)
    if _is_empty(system, cap, DEFAULT_VC_CAP, "VC enumeration universe"):
        return 0
    if size == 0:
        return 1
    sets, n = system.sets, system.universe_size
    return _trace_count_search(sets, n, size, 0, min(1 << size, len(sets)),
                               _columns(sets, n))


def _columns(sets, n):
    """The columns the VC search splits classes by, ``columns[y]`` the
    member-index mask of the members that contain y, where 2|F| <= 2^n;
    None on a denser family, whose search keeps sets of traces (module
    docstring)."""
    if 2 * len(sets) > 1 << n:
        return None
    return _kept(_vc_columns, (sets, n), _member_columns)


def _trace_count_search(sets, n, size, best, stop, columns):
    """Largest trace count over the size-sets of [n], size >= 1, at least
    ``best`` and at most ``stop``; ``columns`` is ``_columns(sets, n)``, or
    None for the set-of-traces search on any family."""
    if columns is None:
        return _trace_set_search(sets, n, size - 1, 0, 0, best, stop)
    return _class_split_search(columns, n, size - 1, [(1 << len(sets)) - 1], 0, 0,
                               best, stop)


def _trace_set_search(sets, n, rest, chosen, start, best, stop):
    """The search on a dense family, and on the op-rank shortcut's small
    ones: a node extending the set ``chosen`` by y >= start, with ``rest``
    elements to add after y, counts the set of traces m & Y and bounds each
    by 2^rest."""
    for y in range(start, n - rest):
        kid = chosen | 1 << y
        reach = len({m & kid for m in sets}) << rest
        if reach > best:
            best = reach if not rest else _trace_set_search(
                sets, n, rest - 1, kid, y + 1, best, stop)
            if best == stop:
                break
    return best


def _class_split_search(columns, n, rest, classes, ones, start, best, stop):
    """The search on a sparse family from a node with ``rest`` elements to
    add after y >= start.  ``classes`` holds the node's trace classes as
    member-index masks, but for the one-member classes that a split made,
    which ``ones`` counts: each reaches one trace.  Adding y splits a class
    c by y's column into c & col and c ^ (c & col).  A class of p members
    reaches at most min(p, 2^rest) traces, so at most 2 * 2^rest after the
    split; ``lost`` sums what the classes seen fall short of that, and the
    loop stops once it leaves no room above ``best``."""
    full = 1 << rest
    if not rest:
        # A class reaches 2 traces when y splits it and 1 otherwise.
        budget = 2 * len(classes) + ones - best
        for y in range(start, n):
            if budget <= 0:
                break
            col = columns[y]
            unsplit = 0
            for c in classes:
                part = c & col
                if not part or part == c:
                    unsplit += 1
                    if unsplit == budget:
                        break
            else:
                best = 2 * len(classes) + ones - unsplit
                if best == stop:
                    break
                budget = unsplit
        return best
    budget = 2 * full * len(classes) + ones - best
    for y in range(start, n - rest):
        if budget <= 0:
            break
        col = columns[y]
        kids, singles, lost = [], ones, 0
        for c in classes:
            part = c & col
            if part and part != c:
                other = c ^ part
                p, q = part.bit_count(), other.bit_count()
                if p > 1:
                    kids.append(part)
                else:
                    singles += 1
                if q > 1:
                    kids.append(other)
                else:
                    singles += 1
                lost += (full - p if p < full else 0) + (full - q if q < full else 0)
            else:
                kids.append(c)
                p = c.bit_count()
                lost += full + (full - p if p < full else 0)
            if lost >= budget:
                break
        else:
            best = _class_split_search(columns, n, rest - 1, kids, singles, y + 1,
                                       best, stop)
            if best == stop:
                break
            budget = 2 * full * len(classes) + ones - best
    return best


def _shatters_some(sets, n, k, columns):
    """Whether some k-set of [n], k >= 1, is shattered: never by fewer than
    2^k members, else the trace-count search seeded at 2^k - 1, so it
    extends only shattered prefixes."""
    full = 1 << k
    return (len(sets) >= full
            and _trace_count_search(sets, n, k, full - 1, full, columns) == full)


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
    if _is_empty(system, cap, DEFAULT_OP_CAP, "op-rank universe"):
        return NEG_INF
    return _op_rank(system.sets, system.universe_size, s)


def _op_rank(sets, n, s):
    """op_s-rank of a nonempty family, found once per search."""
    search = _search(sets, n, s)
    if search.rank is None:
        search.rank = _subfamily_rank(search, n, s, sets, search.full)
    return search.rank


def _subfamily_rank(search, n, s, members, mask):
    """op_s-rank of ``members``, a nonempty subfamily of the op_s search's
    family with member-index mask ``mask``, found by deepening a memoized
    feasibility test on that search: every subfamily reads the family's
    columns and (mask, height) memo."""
    if len(search.sets) < 1 << 2 * s:
        # Rank 2 needs (2^s)^2 members.  Rank 1 needs a tuple whose
        # children are all nonempty, that is a shattered s-set.
        return int(_shatters_some(members, n, s, None))
    k = 0
    while _op_rank_at_least(mask, search, k + 1):
        k += 1
    return k


def _op_rank_at_least(fam, search, t):
    """Rank >= t needs arity^t members in the family and arity^(t-1) in
    each child; the children are checked one by one before any recursion,
    which prunes the search hard.  Up to height ``search.sized`` the size
    test is the whole answer, so a child there is never recursed into."""
    if fam.bit_count() < search.arity ** t:
        return False
    if t <= search.sized:
        return True
    key = (fam, t)
    cached = search.memo.get(key)
    if cached is not None:
        return cached
    need = search.arity ** (t - 1)
    sized = t - 1 <= search.sized
    out = False
    for xs in search.tuples:
        sels = search[xs]
        for sel in sels:
            if (fam & sel).bit_count() < need:
                break
        else:
            if sized or all(_op_rank_at_least(fam & sel, search, t - 1) for sel in sels):
                out = True
                break
    search.memo[key] = out
    return out


def op_shatter(system: SetSystem, s, height, cap=None):
    """psi_F^s(height): maximum properly labeled leaves of a 2^s-ary tree."""
    s, height = require_int(s, "s", 1), require_int(height, "height", 0)
    if _is_empty(system, cap, DEFAULT_OP_CAP, "op-rank universe"):
        return 0
    return _op_shatter(system.sets, system.universe_size, s, height)


def _op_shatter(sets, n, s, height):
    search = _search(sets, n, s)
    return _op_shatter_leaves(search.full, search, height)


def _op_shatter_leaves(fam, search, height):
    """Members are distinct, so a tree splits any group of two or more on
    some element: from height |fam| - 1 on, every member gets its own leaf.
    A tuple with a child equal to ``fam`` scores psi(fam, height - 1), no
    more than a splitting tuple, so it is skipped; the depth stays below
    |fam|.  Up to height ``search.sized``, psi is min(arity^height, |fam|),
    so a child there is counted in place."""
    size = fam.bit_count()
    if height <= search.sized:
        return min(search.arity ** height, size)
    if height >= size - 1:
        return size
    key = (fam, height)
    cached = search.leaves.get(key)
    if cached is not None:
        return cached
    cap = min(search.arity ** height, size)
    below = height - 1
    # Where sizes answer the children's height, a nonempty child holds
    # min(arity^below, |kid|) leaves: 1 at height 0, and 1 or 2 at height 1
    # (s = 1 only).
    deep, pairs = below > search.sized, below == 1
    best = 1
    for xs in search.tuples:
        total = 0
        for sel in search[xs]:
            kid = fam & sel
            if kid == fam:
                # the children split fam, so the others are empty and
                # total stays 0: the tuple is skipped
                break
            if deep:
                total += _op_shatter_leaves(kid, search, below)
            elif kid:
                total += 2 if pairs and kid & (kid - 1) else 1
        if total > best:
            best = total
            if best == cap:
                break
    search.leaves[key] = best
    return best


def count_children_dropping(system: SetSystem, xs, r, l, cap=None):
    """Number of children F_sigma on tuple ``xs`` whose op_r-rank drops by
    at least ``l`` below op_r-rank(F).  The children are the member-index
    masks of one op_r search on ``xs``, each ranked on that search."""
    if not system.sets:
        raise InputError("requires a nonempty family (finite op-rank)")
    r, l = require_int(r, "r", 1), require_int(l, "l", 1)
    try:
        len(xs)
    except TypeError:
        raise InputError(f"xs must be a sequence, got {xs!r}") from None
    a = op_rank(system, r, cap=cap)
    sets, n = system.sets, system.universe_size
    mask_of(xs, n)
    search = _search(sets, n, r)
    dropping = 0
    for kid in search[tuple(xs)]:
        # An empty child, on a tuple that repeats an element, has rank -inf.
        members = [m for i, m in enumerate(sets) if kid >> i & 1]
        rank = _subfamily_rank(search, n, r, members, kid) if kid else NEG_INF
        dropping += rank <= a - l
    return dropping


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

    def csv_rows(self):
        """The CSV lines, header first, as a generator: JSON output formats
        none of them, so an int past the interpreter's digit limit is left
        to the JSON writer's cap check."""
        yield "bound,params,lhs,rhs,pass"
        for row in self.rows:
            params = json.dumps(row["params"]).replace(",", ";")
            yield f"{row['bound']},{params},{row['lhs']},{row['rhs']},{int(row['pass'])}"


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
    global _searches, _vc_columns
    s, r = require_int(s, "s", 1), require_int(r, "r", 1)
    n = require_int(n, "n", 0)
    _searches, _vc_columns = {}, {}
    try:
        return _audit(system, s, r, n, cap)
    finally:
        _searches = _vc_columns = None


def _audit(system, s, r, n, cap):
    report = BoundAuditReport()

    # (a) pi_F(n) <= sum_{i<=d} C(n,i); pi is only defined up to the
    # universe size, so evaluate both sides at the clamped value.
    na = min(n, system.universe_size)
    d = vc_dimension(system, cap=cap)
    lhs = vc_shatter_function(system, na, cap=cap)
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
    kr = op_rank(system, r, cap=cap)
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

    # (f) monotonicity under subfamilies, each ranked on the family's search;
    # row (c) checked the universe they share against the cap.
    sets, size = system.sets, system.universe_size
    for label, members, mask in _subfamily_samples(sets):
        rsub = _subfamily_rank(_search(sets, size, s), size, s, members, mask)
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


def _subfamily_samples(sets):
    """Row (f)'s subfamilies of ``sets``, each as (label, members, mask):
    its slice of ``sets`` and its member-index mask over ``sets``."""
    m = len(sets)
    if m <= 1:
        return []
    half = (m + 1) // 2
    return [("first_half", sets[:half], (1 << half) - 1),
            # bits 0, 2, 4, ...: binary digits 0101...01
            ("even_indexed", sets[::2], int("01" * half, 2)),
            ("drop_last", sets[:-1], (1 << m - 1) - 1)]
