"""Banned j-ary sequence problems: solving, hereditariness, reductions,
extremal counts, and the constructions from set systems, element trees, and
type trees.

Conventions.  A problem of length n, fold k, alphabet j assigns to each pair
(S, X) -- S an ascending k-subset of [n], X a value tuple over [n] \\ S in
ascending index order -- a set of banned patterns Z: S -> [j], serialized in
ascending S order.  A sequence is banned when any S catches it.  True
problems have every ban set nonempty; the relaxed variant (produced by the
f-hat / f-prime reductions) may have empty ban sets and only the counting
operations accept it.  ``RelaxedBanProblem`` describes how a problem
stores its table.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from math import comb, ceil

import numpy as np

from .dims import NEG_INF, _sauer_sum, op_rank
from .errors import (InputError, VerificationError, check_cap, reading, require_dict,
                     require_int, require_ints, require_list, require_probability)
from .setsystem import SetSystem, _bit_matrix, mask_of
from .typetree import require_type_tree

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
# ``from_vc`` gathers about this many member bits per block of index
# subsets.
_VC_BLOCK_BITS = 1 << 18


class RelaxedBanProblem:
    """Ban table behind a (possibly lazy) function or a finished array;
    empty ban sets allowed.

    ``_bans``, a numpy bool array of shape (C(n,k), j^(n-k), j^k), is the
    table: ``_bans[r, c, z]`` says pattern z is banned at the r-th index
    subset and the c-th context, all three in ``itertools`` order.  A
    problem is in one of two states.  Built by ``_from_array`` (``from_vc``,
    ``random_problem``, the element-tree and type-tree constructors, the
    reductions) or by ``from_table``, it holds the finished array from the
    start (possibly a read-only broadcast view) and has no function.  Built
    on a function (parity, user functions), it is lazy until ``_table``
    fills the array once, by one ``ban_set`` call per entry, and drops the
    function; whole-table operations fill it after the table cap of
    ``_capped_table``.  Until the fill ``ban_set`` calls the function.

    A problem with a rule holds one ``_Codes``, its code book ``_codes``
    (and ``_coded``, the book's keys view), from ``__init__`` until the
    table fills, when it is dropped with the rule; an array-built problem
    holds none.  The book checks each distinct ban set's patterns and gives
    it a code the first time any reader sees it, so a set is checked once
    per problem: by ``ban_set``'s lazy reads, the lazy fill,
    ``from_table``'s fill and its per-entry fallback, and
    ``is_hereditary``'s one-subset rows alike.

    Every fill goes through ``_fill``, which writes an index subset's row
    from an iterator of its ban sets in context order: ``np.fromiter``
    collects the row's codes from the book, and one take from the distinct
    sets' flags writes the row, so no Python loop body runs per entry.  A
    lazy fill reads the sets through ``ban_set``, which refuses an output
    that is not a set, on a ``BanProblem`` an empty one, and (through the
    book) one holding a pattern that is none of the j^k;
    ``is_hereditary`` fills one row at a time on a lazy problem and leaves
    the table unfilled.

    ``from_table`` builds its problem on the rule that reads the table and
    tries one fill straight from the dict, with no ``ban_set`` call, whose
    empty sets one vectorized test finds.  A table that this fill or test
    refuses is filled again through ``_table``, so the error is the per-entry
    read's, for the first refused entry in (S, X) order: one refusal path.

    ``_last_subset`` is the index subset ``ban_set`` accepted last, and
    ``_last_row`` its row r.  The same tuple object, as a fill passes for
    every context, is not checked again; any other, equal or not, is
    checked in full and ranked.  The array reads use the same row.
    """

    allow_empty = True

    def __init__(self, n, k, j, fn, name=None):
        n, k, j = _check_shape(n, k, j)
        self.n = n
        self.k = k
        self.j = j
        self._fn = fn
        self.name = name
        self._bans = None
        self._last_subset = self._last_row = None
        self._codes = None if fn is None else _Codes(self)
        # ``ban_set`` tests a set against the book's live keys view: ``in``
        # on it runs at set speed, while on the book, a dict subclass, it
        # goes through a Python slot lookup, about 14 ns more a read
        # (Python 3.11, 2-vCPU Xeon): 2-3% of the parity fill.
        self._coded = None if fn is None else self._codes.keys()
        self._alphabet = frozenset(range(j))
        self._context_shape = (j,) * (n - k) + (-1,)

    @classmethod
    def _from_array(cls, n, k, j, bans, name):
        """A problem whose ``_bans`` array its constructor has built."""
        problem = cls(n, k, j, None, name=name)
        problem._bans = bans
        return problem

    @classmethod
    def from_table(cls, n, k, j, table, name=None):
        """The problem of ``table``, a dict (S, X) -> ban set with one entry
        per pair, checked and written into its array at construction.  A
        valid table is filled with no ``ban_set`` call; a refused one is
        named by the per-entry read of ``_table``."""
        require_dict(table, "ban table")
        problem = cls(n, k, j, lambda S, X: table[S, X], name=name)
        expected = comb(n, k) * j ** (n - k)
        if len(table) != expected:
            raise InputError(f"ban table has {len(table)} entries, expected {expected}")
        try:
            bans = problem._fill(lambda S: map(frozenset, map(
                table.__getitem__, zip(itertools.repeat(S), problem.contexts()))))
            if problem.allow_empty or bans.any(axis=2).all():
                problem._bans = bans
                problem._fn = problem._codes = problem._coded = None
        except (KeyError, TypeError, InputError):
            pass
        # A table refused above is still lazy: its per-entry fill raises the
        # error of the first refused entry in (S, X) order.
        try:
            problem._table()
        except KeyError as exc:
            raise InputError(f"missing ban-table entry {exc}") from exc
        # The fill finds keys and patterns by hash-equal integers, which a
        # bool or a float also is.  With every key found, each is a pair of
        # tuples.
        flat = itertools.chain.from_iterable
        require_ints(lambda: flat(itertools.chain(flat(table), flat(table.values()))),
                     "ban-table entry")
        return problem

    def _table(self):
        """The ``_bans`` array, filled on first use."""
        if self._bans is None:
            self._bans = self._fill(self._ban_sets)
            self._fn = self._codes = self._coded = None
        return self._bans

    def _ban_sets(self, S):
        """S's ban sets in context order, one ``ban_set`` call each."""
        return map(self.ban_set, itertools.repeat(S), self.contexts())

    def _fill(self, stream, subsets=None):
        """The rows of ``subsets`` (default: every index subset), an array
        of shape (len(subsets), j^(n-k), j^k): S's rows written from
        ``stream(S)``, an iterator of its ban sets in context order, through
        the problem's code book."""
        subsets = list(self.index_subsets()) if subsets is None else subsets
        bans = np.zeros((len(subsets), self.j ** (self.n - self.k), self.j ** self.k), bool)
        for S, rows in zip(subsets, bans):
            self._codes.write(rows, stream(S))
        return bans

    def ban_set(self, S, X):
        try:
            S, X = tuple(S), tuple(X)
        except TypeError:
            raise InputError(f"index subset {S!r} and context {X!r} must be sequences") from None
        row = self._last_row if S is self._last_subset else self._row(S)
        if len(X) != self.n - self.k or not self._alphabet.issuperset(X):
            raise InputError(f"bad context sequence {X} for S={S}")
        if self._bans is None:
            out = self._fn(S, X)
            try:
                out = frozenset(out)
            except TypeError:
                raise InputError(f"ban set at S={S}, X={X} is not a set of "
                                 f"patterns: {out!r}") from None
            # Emptiness is tested per entry: ``from_table``'s fill may have
            # coded an empty set before its per-entry fallback reads it.
            if not out and not self.allow_empty:
                raise InputError(f"empty ban set at S={S}, X={X}")
            if out not in self._coded:
                self._codes[out]  # checks and codes the set
            return out
        # numpy reads a bool in an index tuple as a mask and fails on a
        # float, so each entry goes through require_int.
        X = tuple(require_int(x, "context entry") for x in X)
        flags = self._bans[row].reshape(self._context_shape)[X]
        return frozenset(itertools.compress(self._patterns, flags.tolist()))

    @cached_property
    def _patterns(self):
        """The j^k patterns on an index subset, in ``itertools`` order, each
        mapped to its index in that order."""
        return {Z: i for i, Z in enumerate(itertools.product(range(self.j), repeat=self.k))}

    def _row(self, S):
        """Check the index subset S, k ascending positions of [n], and keep
        it as the last accepted subset with its row: its rank among the
        k-subsets of [n] in lexicographic order."""
        n, k = self.n, self.k
        mask_of(S, n)
        if len(S) != k or list(S) != sorted(set(S)):
            raise InputError(f"bad index subset {S}")
        row = comb(n, k) - 1 - sum(comb(n - 1 - s, k - i) for i, s in enumerate(S))
        self._last_subset, self._last_row = S, row
        return row

    def index_subsets(self):
        return itertools.combinations(range(self.n), self.k)

    def contexts(self):
        return itertools.product(range(self.j), repeat=self.n - self.k)

    def __eq__(self, other):
        if not isinstance(other, RelaxedBanProblem):
            return NotImplemented
        return ((self.n, self.k, self.j) == (other.n, other.k, other.j)
                and np.array_equal(self._capped_table(walk=True),
                                   other._capped_table(walk=True)))

    def __repr__(self):
        tag = self.name or "lazy"
        return (f"{type(self).__name__}(n={self.n}, k={self.k}, j={self.j}, "
                f"{tag})")

    def _capped_table(self, cap=None, walk=False):
        """``_table``, refused before allocation while unfilled (a lazy
        problem: parity or a user function) if it would hold more than
        ``cap`` entries (``check_table_cap``).  A ``walk`` over every entry
        (``==``, ``to_json_dict``) is refused the same way on a zero-stride
        broadcast view (``from_vc``), which stores one context per row but
        holds them all.  A non-None ``cap`` is read either way."""
        if self._bans is None or walk and 0 in self._bans.strides:
            check_table_cap(self.n, self.k, self.j, cap)
        elif cap is not None:
            require_int(cap, "cap")
        return self._table()

    def to_json_dict(self, cap=None):
        """The table as a ban-problem object, each context and pattern
        written by ``digit_text``.  The patterns are written before the
        cap check, so an alphabet above 10 is refused as such, and the
        j^(n-k) contexts after it, once per call."""
        patterns = list(map(digit_text, self._patterns))
        table = self._capped_table(cap, walk=True)
        contexts = list(map(digit_text, self.contexts()))
        bans = [{"S": list(S), "X": X, "banned": list(itertools.compress(patterns, flags))}
                for S, rows in zip(self.index_subsets(), table)
                for X, flags in zip(contexts, rows.tolist())]
        return {"n": self.n, "k": self.k, "j": self.j, "bans": bans}

    @classmethod
    def from_json_dict(cls, data, cap=None):
        """The problem of a ban-problem object: a table, as ``to_json_dict``
        writes it, or a generator object (``_generated``).  ``cap`` is the
        generators' table cap; a non-None one that is not an integer is
        refused for a table too."""
        if cap is not None:
            require_int(cap, "cap")
        if isinstance(data, dict) and "generator" in data:
            return _generated(data, cap)
        with reading("ban-problem object"):
            n, k, j = data["n"], data["k"], data["j"]
            table = {}
            for entry in data["bans"]:
                S = tuple(require_int(s, "S entry") for s in entry["S"])
                X = _digits(entry["X"])
                banned = require_list(entry["banned"], "ban-problem 'banned'")
                table[S, X] = frozenset(map(_digits, banned))
        return cls.from_table(n, k, j, table)


class _Codes(dict):
    """A problem's code book: ban set -> its code, the index of its j^k
    banned flags in ``flags``.  A set's patterns are checked (each one of
    the j^k, each symbol an int by ``require_int``), the set coded and its
    flags appended the first time it is seen; every later lookup of it is a
    dict hit in C.  The book is keyed by equality, so a set equal to a
    coded one, such as {(True,)} after {(1,)}, is not checked again.
    Emptiness is left to ``ban_set`` and ``from_table``.  One per problem
    with a rule (``RelaxedBanProblem``).

    A refused pattern's error names the problem's ``_last_subset``, the
    subset that ``ban_set`` is reading: every reader but ``from_table``'s
    fast fill codes a set through ``ban_set`` first, and that fill drops
    its error for the per-entry read, which names the entry."""

    def __init__(self, problem):
        self.problem, self.flags = problem, bytearray()

    def __missing__(self, ban_set):
        for Z in ban_set:
            if Z not in self.problem._patterns:
                raise InputError(f"bad banned pattern {Z} for S={self.problem._last_subset}")
            for z in Z:
                require_int(z, "ban-table entry")
        self.flags += bytes(Z in ban_set for Z in self.problem._patterns)
        return self.setdefault(ban_set, len(self))

    def write(self, rows, ban_sets):
        """Write ``rows``, the (j^(n-k), j^k) flags of one index subset,
        from ``ban_sets``, an iterator of its ban sets in context order: one
        code per entry, then one take from the distinct sets' flags.  The
        codes and the view of ``flags`` end with the call, so a fill holds
        one row's codes at a time and the next miss can grow ``flags``."""
        index = np.fromiter(map(self.__getitem__, ban_sets), np.intp, len(rows))
        flags = np.frombuffer(self.flags, bool).reshape(len(self), -1)
        # Every code indexes ``flags``; mode="raise" would buffer ``out``.
        np.take(flags, index, axis=0, out=rows, mode="clip")


def _digits(text):
    """A context or pattern written as a string with one ASCII digit 0-9 per
    entry; the empty string is the empty tuple."""
    if not isinstance(text, str) or text.strip("0123456789"):
        raise InputError(f"expected a string of digits, got {text!r}")
    return tuple(map(int, text))


def digit_text(seq):
    """The text ``_digits`` reads back as ``seq``, a tuple of entries in
    [0, 10): one ASCII digit per entry.  An entry above 9 would write more
    than one, so it is refused."""
    text = "".join(map(str, seq))
    if len(text) != len(seq):
        raise InputError("string serialization supports alphabets up to 10")
    return text


def _generated(data, cap):
    """The problem a generator object names: ``{"generator": "parity",
    "n": ...}``, ``"random"`` (n, k; j 2, seed 0, density 0.5 by default)
    or ``"from_vc"`` (a set-system object ``system`` and m).
    ``random_problem`` and ``from_vc`` check the tables they build at once
    against ``cap``; parity stays lazy until a whole-table operation fills
    it under that operation's cap."""
    with reading("problem generator object"):
        gen = data["generator"]
        if gen == "parity":
            return parity_problem(data["n"])
        if gen == "random":
            return random_problem(data["n"], data["k"], data.get("j", 2), data.get("seed", 0),
                                  data.get("density", 0.5), cap=cap)
        if gen == "from_vc":
            return from_vc(SetSystem.from_json_dict(data["system"]), data["m"], cap=cap)
    raise InputError(f"unknown problem generator {gen!r}")


def _check_shape(n, k, j):
    """(n, k, j) read as integers with 1 <= k <= n and j >= 2."""
    n = require_int(n, "n", 1)
    return n, require_int(k, "k", 1, n), require_int(j, "j", 2)


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

    def to_json_dict(self):
        """S, and each pattern's context as pattern text -> context text,
        both written by ``digit_text``, in pattern order."""
        return {"S": list(self.S),
                "assignments": {digit_text(Z): digit_text(X)
                                for Z, X in sorted(self.assignments.items())}}


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
    check_cap(problem.j ** problem.n, cap, DEFAULT_ENUM_CAP, "j^n")


def check_table_cap(n, k, j, cap=None):
    """Refuse, before anything is built, a table of more than the cap's
    C(n,k) * j^n entries: the size of the ``_bans`` array and of the
    pattern lists of ``to_json_dict``.  A shape the constructor rejects is
    left to it."""
    if 1 <= k <= n and j >= 2:
        check_cap(comb(n, k) * j ** n, cap, DEFAULT_ENUM_CAP, "C(n,k) * j^n table entries")


def _banned_cube(problem, cap=None):
    """The banned flags of the j^n sequences as a cube with position p on
    axis p: True = banned.  Each index subset's rows are marked through its
    ``_subset_view``, in which every run of consecutive positions is one
    axis, so a row's ``|=`` walks at most 2k + 1 axes."""
    _check_enum_cap(problem, cap)
    cube = np.zeros((problem.j,) * problem.n, dtype=bool)
    for S, rows in zip(problem.index_subsets(), problem._capped_table(cap)):
        view = _subset_view(cube, S)
        view |= rows.reshape(view.shape)
    return cube


def _subset_view(cube, S):
    """``cube``, one axis per position with position p on axis p, seen
    with its axes in the order of one index subset's rows: the context
    positions, then S, each ascending.  A row reads the earlier position
    as the more significant digit, as the cube does, so the view's
    consecutive positions keep the cube's nesting.  This and
    ``_cube_rows`` are the one map between the cube and the table."""
    return cube.transpose([p for p in range(cube.ndim) if p not in S] + list(S))


def _cube_rows(cube, k):
    """The table of ``cube`` (position p on axis p, j values per axis):
    its ``_subset_view`` rows over the k-subsets in ``itertools`` order,
    stacked into a new array of shape (C(n,k), j^(n-k), j^k)."""
    width = cube.shape[0] ** k
    # np.array stacks as np.stack does without its per-row expand_dims:
    # about 3 us less a call on small tables (2-vCPU Xeon).
    return np.array([_subset_view(cube, S).reshape(-1, width)
                     for S in itertools.combinations(range(cube.ndim), k)])


def banned_count(problem, cap=None):
    """B(f): sequences containing some banned subsequence."""
    return int(np.count_nonzero(_banned_cube(problem, cap)))


def solutions(problem, cap=None):
    """(solution sequences, banned count); solutions avoid every ban set.
    The solutions are listed in colexicographic order (the last position
    most significant): the cube's free cells with its axes reversed.  They
    are zipped from one index list per position, so no list is built per
    solution."""
    cube = _banned_cube(problem, cap)
    sols = list(zip(*(axis.tolist() for axis in np.nonzero(~cube.T)[::-1])))
    return sols, cube.size - len(sols)


def trivial_upper_bound(problem):
    """(j^k - 1) j^{n-k}: the one-subset bound on the solution count."""
    n, k, j = problem.n, problem.k, problem.j
    return (j ** k - 1) * j ** (n - k)


def is_independent(problem, cap=None):
    """True iff every ban set depends on S alone."""
    _check_enum_cap(problem, cap)
    # Every context agrees iff "any" equals "all" per (subset, pattern).
    # Comparing with one context would allocate the whole table, which
    # for a broadcast table (``from_vc``) is far larger than its storage.
    bans = problem._capped_table(cap)
    return bool((bans.any(axis=1) == bans.all(axis=1)).all())


def _search_witness(problem, S, row):
    """The j-ary decision tree branching exactly at S, as one reduction of
    S's row of j^n banned flags.

    Values at non-S positions are chosen per Z-prefix, which is equivalent
    to the pairwise first-difference condition: two completed sequences
    first differ exactly at the S position where their branches split.
    ``levels[p]``, over the prefixes of length p, says the subtree below
    succeeds: at the leaves the sequence is not banned, at a position in S
    every value succeeds and elsewhere some value does.  The descent takes
    the first value that succeeds outside S.  Returns {Z: X_Z} on success,
    None when S is not a witness.
    """
    n, j = problem.n, problem.j
    outside = [p for p in range(n) if p not in S]
    # S's row written back onto the cube, position p on axis p.
    cube = np.empty((j,) * n, bool)
    view = _subset_view(cube, S)
    np.invert(row.reshape(view.shape), out=view)
    levels = [cube]
    for p in reversed(range(n)):
        levels.append(levels[-1].all(-1) if p in S else levels[-1].any(-1))
    levels.reverse()
    if not levels[0]:
        return None
    prefixes = [()]
    for p in range(n):
        if p in S:
            prefixes = [t + (v,) for t in prefixes for v in range(j)]
        else:
            prefixes = [t + (int(levels[p + 1][t].argmax()),) for t in prefixes]
    return {tuple(t[p] for p in S): tuple(t[p] for p in outside) for t in prefixes}


def is_hereditary(problem, cap=None):
    """(True, None) or (False, witness).  Each index subset's row is the
    filled table's, or on a lazy problem one row of j^n flags built through
    its rule, so the table stays unfilled.  The witness is revalidated
    against the pairwise definition before being returned."""
    _check_enum_cap(problem, cap)
    bans = problem._bans
    for r, S in enumerate(problem.index_subsets()):
        row = bans[r] if bans is not None else problem._fill(problem._ban_sets, [S])[0]
        assignments = _search_witness(problem, S, row)
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
    patterns = problem._patterns
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
    check_table_cap(n - 1, k - 1, j, cap)
    rows = [S[-1] == n - 1 for S in problem.index_subsets()]
    # n-1 is the largest element of S, so it is the last pattern digit.
    bans = problem._capped_table(cap)[rows].reshape(
        -1, j ** (n - k), j ** (k - 1), j)
    return RelaxedBanProblem._from_array(n - 1, k - 1, j, bans.any(axis=3), "hat")


def reduce_prime(problem, cap=None):
    """f-prime: k-fold, length n-1; bans the patterns banned for every
    choice of the appended last entry."""
    if problem.n < 2 or problem.k > problem.n - 1:
        raise InputError("reduce_prime requires n >= 2 and k <= n-1")
    _check_enum_cap(problem, cap)
    n, k, j = problem.n, problem.k, problem.j
    check_table_cap(n - 1, k, j, cap)
    rows = [S[-1] != n - 1 for S in problem.index_subsets()]
    # Outside S, n-1 is the last context digit.
    bans = problem._capped_table(cap)[rows].reshape(
        -1, j ** (n - 1 - k), j, j ** k)
    return RelaxedBanProblem._from_array(n - 1, k, j, bans.all(axis=2), "prime")


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
    return _sauer_sum(n, k - 1, j - 1)


def verify_main_theorem(problem, cap=None):
    """Check the hereditary solution bound; a violation is only legal for
    non-hereditary problems and is reported as such."""
    # Solving first fills the table, so the witness search reduces its rows
    # rather than building each through the rule.
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
    """Minimum size of B in 2^n meeting every k-dimensional subcube, by
    branch and bound.  Cube c is the c-th (index subset, context) row of
    the table layout; bit c of ``cover[p]`` is set when cube c holds p."""
    n = require_int(n, "n", 1)
    k = require_int(k, "k", 1, n)
    check_cap(n, cap, DEFAULT_HITTING_CAP, "hitting-search length n")
    # Point ids read position p as bit p.
    points = np.arange(1 << n).reshape((2,) * n).T
    cubes = _cube_rows(points, k).reshape(-1, 1 << k).tolist()
    cover = [0] * (1 << n)
    for c, cube in enumerate(cubes):
        for p in cube:
            cover[p] |= 1 << c

    # Greedy upper bound.
    uncovered = (1 << len(cubes)) - 1
    greedy = 0
    while uncovered:
        uncovered &= ~max(cover, key=lambda m: (m & uncovered).bit_count())
        greedy += 1
    # Each point lies on one cube per index subset.
    return _hitting_search(cubes, cover, comb(n, k), (1 << len(cubes)) - 1, 0, greedy)


def _hitting_search(cubes, cover, max_cover, uncovered, chosen, best):
    """``chosen`` plus the fewest points meeting every cube in the bitmask
    ``uncovered`` if that is below ``best``, else ``best``."""
    if not uncovered:
        return chosen
    if chosen + ceil(uncovered.bit_count() / max_cover) >= best:
        return best
    target = cubes[(uncovered & -uncovered).bit_length() - 1]
    for p in sorted(target, key=lambda p: -(cover[p] & uncovered).bit_count()):
        best = _hitting_search(cubes, cover, max_cover, uncovered & ~cover[p],
                               chosen + 1, best)
    return best


def max_solutions(n, k, cap=None):
    """Largest solution count over all binary k-fold problems of length n;
    equals 2^n minus the minimum subcube-hitting size."""
    hitting = min_subcube_hitting(n, k, cap)  # reads n and k before 1 << n
    return (1 << n) - hitting


def parity_problem(n):
    """1-fold binary problem banning the entry that would even out the
    count of 1s; its solutions are exactly the even-weight sequences."""
    bans = (frozenset({(1,)}), frozenset({(0,)}))

    def fn(S, X):
        return bans[sum(X) % 2]

    return BanProblem(n, 1, 2, fn, name=f"parity({n})")


def from_vc(system: SetSystem, m, cap=None):
    """Independent m-fold binary problem of length n banning, at each S,
    the membership patterns realized by no member of the family.

    Requires VC dimension < m so that every ban set is nonempty; otherwise
    the error names the first shattered S in ``itertools`` order.  ``cap``
    bounds the C(n,m) * 2^m row entries.  The table is one row per S,
    broadcast over the 2^(n-m) contexts; its C(n,m) * 2^n entries must
    stay within what numpy can index.

    The rows are read from the element x member bit matrix, the transpose
    of ``setsystem._bit_matrix``, one block of index subsets at a time:
    gathering the members' bits at each position of S, with S[0] the high
    bit, gives every member's pattern code on every S of the block, and the
    realized codes are cleared."""
    n = system.universe_size
    m = require_int(m, "m", 1, n)
    check_cap(comb(n, m) << m, cap, DEFAULT_ENUM_CAP, "C(n,m) * 2^m from_vc row entries")
    check_cap(comb(n, m) << n, None, np.iinfo(np.intp).max,
              "C(n,m) * 2^n from_vc table entries (numpy's index limit)")
    sets = system.sets
    # bits[x, i] is 1 when member i holds element x.
    bits = np.ascontiguousarray(_bit_matrix(sets, n).T, dtype=np.intp)
    rows = np.ones((comb(n, m), 1, 1 << m), dtype=bool)
    subsets = itertools.combinations(range(n), m)
    step = max(1, _VC_BLOCK_BITS // max(1, len(sets) * m))
    for start in range(0, len(rows), step):
        block = np.fromiter(itertools.chain.from_iterable(itertools.islice(subsets, step)),
                            np.intp).reshape(-1, m)
        stop = start + len(block)
        # codes[b, i]: member i's pattern on the b-th S, S[0] the high bit.
        codes = bits[block[:, 0]]
        for column in block.T[1:]:
            codes <<= 1
            codes |= bits[column]
        rows[np.arange(start, stop)[:, None], 0, codes] = False
        shattered = np.flatnonzero(~rows[start:stop].any(axis=(1, 2)))
        if len(shattered):
            S = tuple(block[shattered[0]].tolist())
            raise InputError(f"VC dimension >= {m}: the family shatters {S}")
    bans = np.broadcast_to(rows, (len(rows), 1 << (n - m), 1 << m))
    return BanProblem._from_array(n, m, 2, bans,
                                  f"from_vc({system.name or 'F'},{m})")


def from_element_tree(tree, system: SetSystem, m, cap=None):
    """m-fold problem over alphabet 2^s whose banned patterns are the
    leaves of the (S, X)-restricted tree that no family member properly
    labels.  Requires op_s-rank(F) < m and every label an element of the
    family's universe."""
    s = tree.arity_exponent
    n = tree.height
    m = require_int(m, "m", 1, n)
    mask_of(itertools.chain.from_iterable(tree.labels.values()), system.universe_size)
    rank = op_rank(system, s, cap=cap)
    if rank != NEG_INF and rank >= m:
        raise InputError(f"op_{s}-rank {rank} >= fold {m}")
    j = 1 << s
    check_table_cap(n, m, j, cap)
    # One test per leaf.  leaves() puts position p on axis p, the layout of
    # ``_subset_view``.
    unlabeled = ~np.fromiter((tree.properly_labelable(leaf, system.sets)
                              for leaf in tree.leaves()), bool, j ** n)
    bans = _cube_rows(unlabeled.reshape((j,) * n), m)
    return BanProblem._from_array(n, m, j, bans, f"from_element_tree(s={s},m={m})")


def from_type_tree(graph, type_tree, t):
    """t-fold binary problem of length h-1 banning the branch patterns that
    leave the type tree's index set: at S, the sequences whose prefix
    through position S[-1] is no key, read through ``_cube_rows`` from one
    cube of each sequence's depth in the tree.

    A labeling that is no type tree of ``graph`` is an input error.  An
    empty ban set would certify a full binary type tree of height t+1; it
    is raised as a verification error carrying that counterexample."""
    t = require_int(t, "t", 2)
    n = type_tree.height - 1
    if n < t:
        raise InputError(f"degenerate size: length h-1 = {n} < fold {t}")
    require_type_tree(graph, type_tree)
    check_table_cap(n, t, 2)
    # depth[x]: how many of x's nonempty prefixes are keys.  The index set
    # is prefix-closed, so x's prefix through position q is a key iff
    # depth[x] > q.
    depth = np.zeros((2,) * n, np.uint8)
    for key in filter(None, type_tree.labels):
        depth[tuple(map(int, key))] += 1
    subsets = list(itertools.combinations(range(n), t))
    bans = _cube_rows(depth, t) <= np.array([S[-1] for S in subsets])[:, None, None]
    empty = np.argwhere(~bans.any(axis=2))
    if len(empty):
        r, c = empty[0].tolist()
        S, X = subsets[r], list(itertools.product((0, 1), repeat=n - t))[c]
        raise VerificationError(
            "empty ban set: tree rank exceeds "
            f"{t} (full type tree of height {t + 1} at S={S}, X={X})")
    return BanProblem._from_array(n, t, 2, bans, f"from_type_tree(t={t})")


def random_problem(n, k, j, seed, density=0.5, cap=None):
    """Seeded explicit problem; each pattern is banned independently with
    the given probability, with one forced ban to keep sets nonempty.
    ``cap`` bounds the C(n,k) * j^n table entries drawn at once."""
    n, k, j = _check_shape(n, k, j)
    seed = require_int(seed, "seed")
    density = require_probability(density, "density")
    check_table_cap(n, k, j, cap)
    rng = random.Random(seed)
    width = j ** k
    # One flat byte per flag, entry by entry in (S, X, Z) order; numpy views
    # the finished buffer.
    flat = bytearray(comb(n, k) * j ** (n - k) * width)
    for start in range(0, len(flat), width):
        hit = False
        for i in range(start, start + width):
            if rng.random() < density:
                flat[i] = hit = True
        if not hit:
            flat[start + rng.choice(range(width))] = True
    bans = np.frombuffer(flat, dtype=bool).reshape(comb(n, k), j ** (n - k), width)
    return BanProblem._from_array(n, k, j, bans, f"random({n},{k},{j},{seed})")
