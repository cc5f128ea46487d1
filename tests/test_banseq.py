"""Banned sequence problems: solving, hereditariness, reductions, and the
extremal counts, with a pairwise brute-force oracle for hereditariness."""

import inspect
import itertools
import random
import time
import tracemalloc
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import shatterlab
from shatterlab import (BanProblem, InputError, ResourceCapError, SetSystem,
                        VerificationError, banned_count, banseq,
                        build_type_tree, check_counting_inequality,
                        from_element_tree, from_type_tree, from_vc,
                        generate, is_hereditary, is_independent,
                        max_solutions, min_subcube_hitting, parity_problem,
                        random_graph, random_problem, reduce_hat, reduce_prime,
                        solutions, tree_rank, trivial_upper_bound,
                        verify_main_theorem)
from shatterlab.banseq import (RelaxedBanProblem, assemble, solution_bound,
                               witness_is_valid)
from shatterlab.dims import ElementTree, random_element_tree

from families import random_system
from oracles import (backtrack_is_hereditary, brute_banned, brute_element_tree_bans,
                     brute_first_shattered, brute_is_hereditary, brute_is_independent,
                     brute_min_hitting, brute_random_table, brute_reduce_hat,
                     brute_reduce_prime, brute_vc_bans, brute_vc_subset_bans,
                     per_entry_table)


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


@pytest.mark.xfail(strict=True, reason=(
    "a lazy problem checks a context by its length and alphabet membership, "
    "which reads True as 1 and lets 1.0 reach the rule; a type check there "
    "costs about 30% of the parity fill, which the benchmark keeps per-entry"))
@pytest.mark.parametrize("entry", [True, 1.0])
def test_lazy_ban_set_refuses_a_context_entry_that_is_not_an_int(entry):
    with pytest.raises(InputError):
        parity_problem(3).ban_set((0,), (entry, 0))


@pytest.mark.parametrize("out, pattern", [({(7,)}, (7,)), ({(0, 0)}, (0, 0)), ({5}, 5),
                                          ("b", "b"), ({(1,), (0, 1)}, (0, 1))])
def test_lazy_ban_set_refuses_a_set_its_fill_refuses(out, pattern):
    """The rule's set is checked as the fill checks it, with its message."""
    text = f"bad banned pattern {pattern} for S=(0,)"
    with pytest.raises(InputError) as exc:
        BanProblem(2, 1, 2, lambda S, X: out).ban_set((0,), (0,))
    assert str(exc.value) == text
    with pytest.raises(InputError) as exc:
        banned_count(BanProblem(2, 1, 2, lambda S, X: out))
    assert str(exc.value) == text


def test_lazy_ban_set_checks_each_distinct_set_once(monkeypatch):
    """A lazy problem's one code book checks each distinct set once, for
    its ``ban_set`` reads, ``is_hereditary``'s rows and the fill alike; a
    fresh set per call keeps the book's hits to equality, not identity.
    Pattern (0,) is banned everywhere, so the problem is hereditary and
    ``is_hereditary`` reads every row."""
    sets = [frozenset({(0,)}), frozenset({(0,), (1,)})]
    problem = BanProblem(3, 1, 2, lambda S, X: set(sets[X[0]]))
    checked = []
    check = banseq._Codes.__missing__
    monkeypatch.setattr(banseq._Codes, "__missing__",
                        lambda self, ban_set: checked.append(ban_set) or check(self, ban_set))
    for S, X in itertools.product([(0,), (2,)], itertools.product(range(2), repeat=2)):
        assert problem.ban_set(S, X) == sets[X[0]]
    assert checked == sets
    assert is_hereditary(problem) == (True, None)
    assert banned_count(problem) == 2 ** 3
    assert checked == sets and problem._codes is None


KEY_SHAPE = (4, 2, 3)
KEY_SUBSETS = list(itertools.combinations(range(KEY_SHAPE[0]), KEY_SHAPE[1]))
KEY_CONTEXTS = list(itertools.product(range(KEY_SHAPE[2]),
                                      repeat=KEY_SHAPE[0] - KEY_SHAPE[1]))


def key_source(S, X):
    return frozenset({(S[0] % 3, sum(X) % 3), (S[1] % 3, X[0])})


def bool_twin(S):
    """S with True for 1: equal and hash-equal to S, but no index subset."""
    return [True if s == 1 else s for s in S]


def any_key():
    """(S, X) pairs, valid or not: lists of ints around the valid ranges,
    and the bool twins of the valid subsets that hold a 1."""
    n, k, j = KEY_SHAPE
    subsets = st.one_of(st.sampled_from(KEY_SUBSETS).map(list),
                        st.lists(st.integers(-1, n), max_size=k + 1),
                        st.sampled_from([S for S in KEY_SUBSETS if 1 in S]).map(bool_twin))
    contexts = st.one_of(st.sampled_from(KEY_CONTEXTS).map(list),
                         st.lists(st.integers(-1, j), max_size=n - k + 1))
    return st.tuples(subsets, contexts)


@settings(max_examples=300, deadline=None)
@given(key=any_key(), filled=st.booleans(),
       other=st.one_of(st.none(), st.sampled_from(KEY_SUBSETS)))
# The int twin asked first must not let the bool twin pass its check.
@example(key=(bool_twin((0, 1)), [0, 0]), filled=False, other=(0, 1))
@example(key=(bool_twin((0, 1)), [0, 0]), filled=True, other=(0, 1))
def test_ban_set_raises_exactly_on_invalid_keys(key, filled, other):
    S, X = key
    valid = (tuple(S) in KEY_SUBSETS and tuple(X) in KEY_CONTEXTS
             and all(type(v) is int for v in S))
    problem = BanProblem(*KEY_SHAPE, key_source)
    if filled:
        solutions(problem)
    if other is not None:
        X0 = KEY_CONTEXTS[0]
        assert problem.ban_set(other, X0) == key_source(other, X0)
    for _ in range(2):  # a second ask must not pass a memoized check
        if valid:
            assert problem.ban_set(S, X) == key_source(tuple(S), tuple(X))
        else:
            with pytest.raises(InputError):
                problem.ban_set(S, X)
    assert problem.ban_set(KEY_SUBSETS[-1], KEY_CONTEXTS[-1]) == key_source(
        KEY_SUBSETS[-1], KEY_CONTEXTS[-1])


@pytest.mark.parametrize("seed", [1, 3, 4])
@pytest.mark.parametrize("context", [(True, 0), (1.0, 0)])
def test_filled_table_refuses_a_context_that_is_not_integers(seed, context):
    """numpy would read a bool in the index tuple as a mask (a ban set other
    than (1, 0)'s at these seeds) and fail on a float."""
    problem = random_problem(3, 1, 2, seed)
    assert problem.ban_set((0,), (1, 0))
    with pytest.raises(InputError):
        problem.ban_set((0,), context)


def test_json_round_trip():
    problem = random_problem(4, 2, 3, seed=5)
    again = BanProblem.from_json_dict(problem.to_json_dict())
    assert again == problem


@pytest.mark.parametrize("seq, text", [((), ""), ((0,), "0"), ((9, 0, 3), "903")])
def test_digit_text_is_what_the_reader_reads_back(seq, text):
    assert banseq.digit_text(seq) == text
    assert banseq._digits(text) == seq


@pytest.mark.parametrize("seq", [(10,), (1, 0, 10), (3, 11)])
def test_digit_text_refuses_an_entry_above_9(seq):
    with pytest.raises(InputError, match="^string serialization supports alphabets up to 10$"):
        banseq.digit_text(seq)


def test_witness_text_refuses_an_entry_above_9():
    witness = banseq.HereditaryWitness((0,), {(0,): (1,), (10,): (0,)})
    with pytest.raises(InputError, match="alphabets up to 10"):
        witness.to_json_dict()
    assert banseq.HereditaryWitness((1,), {(1,): (9,), (0,): (2,)}).to_json_dict() == {
        "S": [1], "assignments": {"0": "2", "1": "9"}}


def test_wide_alphabet_refused_before_the_table_cap():
    """Patterns are written first: j = 11 is an input error even when the
    table is past the cap."""
    with pytest.raises(InputError, match="alphabets up to 10"):
        BanProblem(30, 1, 11, lambda S, X: {(0,)}).to_json_dict()


def test_to_json_dict_writes_each_context_once(monkeypatch):
    calls, write = [], banseq.digit_text
    monkeypatch.setattr(banseq, "digit_text", lambda seq: calls.append(seq) or write(seq))
    problem = random_problem(4, 2, 3, seed=5)
    problem.to_json_dict()
    assert sorted(calls) == sorted(list(problem._patterns) + list(problem.contexts()))


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


# (table, error text), the entry count checked first and the symbol types
# last; the per-entry fill of the earlier lazy from_table gave the same texts
# for the rest.
BAD_TABLES = {
    "extra-entry": (with_entry(BASE, ((0, 1), (0, 0)), {(0, 1)}),
                    "ban table has 7 entries, expected 6"),
    "foreign-subset": (with_entry(BASE, ((0, 3), (0,)), {(0, 1)}, drop=((0, 2), (1,))),
                       "missing ban-table entry ((0, 2), (1,))"),
    "unsorted-subset": (with_entry(BASE, ((1, 0), (0,)), {(0, 1)}, drop=((0, 1), (0,))),
                        "missing ban-table entry ((0, 1), (0,))"),
    "long-pattern": (with_entry(BASE, ((0, 1), (0,)), {(0, 1, 1)}),
                     "bad banned pattern (0, 1, 1) for S=(0, 1)"),
    "short-pattern": (with_entry(BASE, ((0, 1), (0,)), {(0,)}),
                      "bad banned pattern (0,) for S=(0, 1)"),
    "digit-too-large": (with_entry(BASE, ((1, 2), (1,)), {(2, 0)}),
                        "bad banned pattern (2, 0) for S=(1, 2)"),
    "empty-set": (with_entry(BASE, ((0, 2), (1,)), set()),
                  "empty ban set at S=(0, 2), X=(1,)"),
    "int-entry": (with_entry(BASE, ((0, 2), (1,)), 5),
                  "ban set at S=(0, 2), X=(1,) is not a set of patterns: 5"),
    "none-entry": (with_entry(BASE, ((1, 2), (0,)), None),
                   "ban set at S=(1, 2), X=(0,) is not a set of patterns: None"),
    "bool-subset": (with_entry(BASE, ((0, True), (0,)), {(0, 1)}, drop=((0, 1), (0,))),
                    "ban-table entry must be an integer, got True"),
    "bool-context": (with_entry(BASE, ((0, 1), (False,)), {(0, 1)}, drop=((0, 1), (0,))),
                     "ban-table entry must be an integer, got False"),
    "bool-pattern": (with_entry(BASE, ((0, 1), (0,)), {(0, True)}),
                     "ban-table entry must be an integer, got True"),
    "float-pattern": (with_entry(BASE, ((0, 1), (0,)), {(0, 1.0)}),
                      "ban-table entry must be an integer, got 1.0"),
}


def per_entry_from_table_error(cls, n, k, j, table):
    """The error text of the earlier ``from_table``, which read ``table``
    through a lazy rule and filled it entry by entry, or None."""
    try:
        per_entry_table(cls(n, k, j, lambda S, X: table[(S, X)]))
    except KeyError as exc:
        return f"missing ban-table entry {exc}"
    except InputError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("case", list(BAD_TABLES))
def test_from_table_validates_at_construction(case):
    table, text = BAD_TABLES[case]
    with pytest.raises(InputError) as exc:
        BanProblem.from_table(3, 2, 2, table)
    assert str(exc.value) == text
    if case != "extra-entry" and not case.startswith(("bool", "float")):
        assert per_entry_from_table_error(BanProblem, 3, 2, 2, table) == text


def test_lazy_rule_keeps_its_own_type_error():
    """Only the rule's output is read as a set; an output that is not one is
    the "int-entry" and "none-entry" rows of the table test."""
    def rule(S, X):
        raise TypeError("inside the rule")

    with pytest.raises(TypeError, match="inside the rule"):
        BanProblem(1, 1, 2, rule).ban_set((0,), ())


def test_relaxed_from_table_accepts_empty_sets():
    table = with_entry(BASE, ((0, 2), (1,)), set())
    problem = RelaxedBanProblem.from_table(3, 2, 2, table)
    assert problem.ban_set((0, 2), (1,)) == frozenset()
    assert problem.ban_set((1, 2), (0,)) == {(0, 1)}


def fault(table, key, kind, position):
    """``table`` with one bad entry of ``kind`` at ``key``; a bad pattern
    carries ``position`` so that the error text tells which entry it is."""
    if kind == "missing":
        table.pop(key)
        table[((0, 3 + position), (0,))] = {(0, 1)}
    elif kind == "empty":
        table[key] = set()
    elif kind == "not-a-set":
        table[key] = 5
    else:
        table[key] = {(0, 1), (position, 0, 0)}


def fault_text(key, kind, position):
    if kind == "missing":
        return f"missing ban-table entry {key}"
    if kind == "empty":
        return f"empty ban set at S={key[0]}, X={key[1]}"
    if kind == "not-a-set":
        return f"ban set at S={key[0]}, X={key[1]} is not a set of patterns: 5"
    return f"bad banned pattern {(position, 0, 0)} for S={key[0]}"


@pytest.mark.parametrize("cls", [BanProblem, RelaxedBanProblem])
def test_from_table_reports_the_first_bad_entry_in_product_order(cls):
    keys = list(BASE)  # full_table builds its keys in (S, X) order
    kinds = ["missing", "empty", "not-a-set", "pattern"]
    for (p, first), (q, second) in itertools.combinations(enumerate(keys), 2):
        for kind_p, kind_q in itertools.product(kinds, repeat=2):
            table = dict(BASE)
            fault(table, first, kind_p, p)
            fault(table, second, kind_q, q)
            if cls is RelaxedBanProblem and kind_p == "empty":
                expected = (None if kind_q == "empty" else fault_text(second, kind_q, q))
            else:
                expected = fault_text(first, kind_p, p)
            assert per_entry_from_table_error(cls, 3, 2, 2, table) == expected
            if expected is None:
                assert cls.from_table(3, 2, 2, table).ban_set(*first) == frozenset()
                continue
            with pytest.raises(InputError) as exc:
                cls.from_table(3, 2, 2, table)
            assert str(exc.value) == expected


def test_from_table_checks_one_symbol_of_each_type():
    as_numpy = {(tuple(map(np.int64, S)), tuple(map(np.int64, X))):
                {tuple(map(np.int64, Z)) for Z in bans} for (S, X), bans in BASE.items()}
    assert BanProblem.from_table(3, 2, 2, as_numpy) == BanProblem.from_table(3, 2, 2, BASE)
    # a bool behind numpy integers, and one behind ints, is still refused
    for table in (with_entry(as_numpy, ((1, 2), (1,)), {(0, True)}),
                  with_entry(BASE, ((1, 2), (1,)), {(np.int64(0), 1), (True, 1)})):
        with pytest.raises(InputError, match="got True$"):
            BanProblem.from_table(3, 2, 2, table)


@pytest.mark.parametrize("symbol", [True, 1.0])
def test_lazy_rule_refuses_a_pattern_entry_that_is_not_an_int(symbol):
    """The code book reads each symbol of a new set through ``require_int``,
    as ``from_table`` does, for a lazy read and a fill alike."""
    for read in (lambda problem: problem.ban_set((0,), (0,)), banned_count):
        with pytest.raises(InputError, match=f"^ban-table entry must be an integer, got {symbol}$"):
            read(BanProblem(2, 1, 2, lambda S, X: {(symbol,)}))


@pytest.mark.xfail(strict=True, reason=(
    "a lazy rule's patterns are read by hash-equal integers, and the code "
    "book is keyed by equality, so after the equal int set {(1,)} it reads "
    "{(True,)} as that set's hit and checks no symbol of it"))
@pytest.mark.parametrize("symbol", [True, 1.0])
def test_lazy_rule_fill_refuses_a_pattern_entry_that_is_not_an_int(symbol):
    # the context (0,) answers the equal int set {(1,)} first
    problem = BanProblem(2, 1, 2, lambda S, X: {(1,) if X == (0,) else (symbol,)})
    with pytest.raises(InputError, match=f"got {symbol}$"):
        banned_count(problem)


def seeded_ban_table(seed, n, k, j, allow_empty):
    """A seeded (S, X) -> ban set dict; each value is one of three
    frozensets shared across entries, or a fresh set, list or frozenset,
    empty only when ``allow_empty``."""
    rng = random.Random(seed)
    patterns = list(itertools.product(range(j), repeat=k))
    shared = [frozenset(rng.sample(patterns, 1 + rng.randrange(len(patterns))))
              for _ in range(3)]
    table = {}
    for S in itertools.combinations(range(n), k):
        for X in itertools.product(range(j), repeat=n - k):
            size = rng.randrange(0 if allow_empty else 1, len(patterns) + 1)
            bans = rng.sample(patterns, size)
            table[(S, X)] = rng.choice([rng.choice(shared), set(bans), bans,
                                        frozenset(bans)])
    return table


@pytest.mark.parametrize("n", range(1, 13))
def test_parity_fill_matches_the_per_entry_oracle(n):
    got = parity_problem(n)._table()
    want = per_entry_table(parity_problem(n))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", range(24))
def test_user_rule_fill_matches_the_per_entry_oracle(seed):
    rng = random.Random(seed)
    cls = (BanProblem, RelaxedBanProblem)[seed % 2]
    k, j = 1 + rng.randrange(3), 2 + rng.randrange(2)
    n = k + rng.randrange(4 if j == 2 else 3)
    table = seeded_ban_table(seed, n, k, j, cls.allow_empty)
    got = cls(n, k, j, lambda S, X: table[(S, X)])._table()
    want = per_entry_table(cls(n, k, j, lambda S, X: table[(S, X)]))
    assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("j,k", itertools.product((2, 3), (1, 2, 3)))
@pytest.mark.parametrize("seed", range(4))
def test_from_table_fill_matches_the_per_entry_oracle(j, k, seed):
    n = k + seed % (4 if j == 2 else 3)
    for cls in (BanProblem, RelaxedBanProblem):
        table = seeded_ban_table(seed, n, k, j, cls.allow_empty)
        got = cls.from_table(n, k, j, table)
        want = per_entry_table(cls(n, k, j, lambda S, X: table[(S, X)]))
        assert got._fn is None and got._bans.shape == want.shape
        assert np.array_equal(got._bans, want)


@pytest.mark.parametrize("seed", range(12))
def test_json_round_trip_fill_matches_the_per_entry_oracle(seed):
    n, k, j = [(3, 1, 2), (4, 2, 2), (5, 3, 2), (4, 2, 3), (5, 1, 3), (3, 3, 3)][seed % 6]
    problem = random_problem(n, k, j, seed, density=(0.2, 0.5, 0.8)[seed % 3])
    again = BanProblem.from_json_dict(problem.to_json_dict())
    assert np.array_equal(again._bans, per_entry_table(problem))
    assert np.array_equal(again._bans, problem._bans)
    lazy = parity_problem(n)
    assert np.array_equal(BanProblem.from_json_dict(lazy.to_json_dict())._bans,
                          per_entry_table(parity_problem(n)))


def test_from_table_calls_no_ban_set(monkeypatch):
    calls = []
    original = RelaxedBanProblem.ban_set

    def counting(self, S, X):
        calls.append((S, X))
        return original(self, S, X)

    monkeypatch.setattr(RelaxedBanProblem, "ban_set", counting)
    problem = BanProblem.from_table(3, 2, 2, BASE)
    assert calls == [] and problem._fn is None
    solutions(parity_problem(4))
    assert len(calls) == 4 * 2 ** 3


def test_fill_streams_each_row():
    # A fresh frozenset per entry: a row's 2^13 ban sets or contexts held as
    # a list would take about 1.3-1.7 MB.
    n = 14
    problem = BanProblem(n, 1, 2, lambda S, X: frozenset({(X[0],)}))
    table_bytes = n * 2 ** (n - 1) * 2
    codes_bytes = 2 ** (n - 1) * np.dtype(np.intp).itemsize
    tracemalloc.start()
    try:
        problem._table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table_bytes + codes_bytes + (16 << 10)


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


def tree_and_family(s, height, m, seed, universe=5):
    """A seeded element tree and a family of 2^(s m) - 1 sets: too few
    sets to reach op_s-rank m."""
    tree = random_element_tree(universe, s, height, seed=seed)
    rng = random.Random(seed)
    masks = tuple(rng.sample(range(1 << universe), (1 << (s * m)) - 1))
    return tree, SetSystem(universe, masks)


def type_tree_problem(vertices, seed):
    """``from_type_tree`` at one above the tree rank of a seeded graph."""
    graph = random_graph(vertices, 0.5, seed=seed)
    return from_type_tree(graph, build_type_tree(graph), tree_rank(graph) + 1)


def mod3_problem(n):
    """A lazy 1-fold ternary problem whose ban set reads S and X."""
    return BanProblem(n, 1, 3, lambda S, X: {((2 * sum(X) + S[0]) % 3,)},
                      name=f"mod3({n})")


# Every builder of a cube (the element-tree and type-tree constructors) and
# every kind of table the marking reads: drawn, lazy, broadcast.
ORACLE_PROBLEMS = [
    *(random_problem(n, k, j, seed=10 * n + k + j)
      for n, k, j in [(3, 1, 2), (4, 2, 2), (5, 3, 2), (6, 2, 2), (6, 3, 2),
                      (6, 1, 3), (5, 2, 3), (4, 3, 3), (6, 5, 2),
                      (2, 2, 2), (3, 3, 3), (4, 4, 2)]),
    parity_problem(5),
    mod3_problem(5),
    from_vc(generate("thresholds", 5), 2),
    from_vc(generate("intervals", 5), 3),
    from_element_tree(*tree_and_family(2, 3, 2, seed=8), 2),
    type_tree_problem(12, seed=4),
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
    # Listed in colexicographic order, as ``ban solve --list`` prints them.
    assert sols == sorted(sols, key=lambda s: s[::-1])
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


def test_unfilled_table_capped_before_serializing_or_comparing():
    # C(40,1) * 2^40 entries, about 4.4e13
    big = parity_problem(40)
    with pytest.raises(ResourceCapError):
        big.to_json_dict()
    with pytest.raises(ResourceCapError):
        big == parity_problem(40)
    assert big._bans is None


def test_filled_table_serializes_and_compares_uncapped(monkeypatch):
    problem = random_problem(4, 2, 3, seed=5)
    filled = BanProblem.from_json_dict(problem.to_json_dict())
    monkeypatch.setattr(banseq, "DEFAULT_ENUM_CAP", 1)
    assert filled.to_json_dict(cap=1) == problem.to_json_dict()
    assert filled == problem


def test_filled_table_still_reads_its_cap():
    problem = parity_problem(3)
    solutions(problem)
    assert problem._bans is not None
    with pytest.raises(InputError):
        problem.to_json_dict(cap=1.5)


def test_broadcast_table_capped_before_serializing_or_comparing():
    # from_vc stores C(30,2) rows of 4 flags, broadcast over 2^28 contexts:
    # a walk over every entry would visit C(30,2) * 2^30 of them
    big = from_vc(generate("thresholds", 30), 2)
    with pytest.raises(ResourceCapError):
        big == from_vc(generate("thresholds", 30), 2)
    with pytest.raises(ResourceCapError):
        big.to_json_dict()
    small = from_vc(generate("thresholds", 5), 2)
    assert small == from_vc(generate("thresholds", 5), 2)
    assert small.to_json_dict(cap=320) == small.to_json_dict()
    with pytest.raises(ResourceCapError):
        small.to_json_dict(cap=319)


def test_is_independent():
    assert is_independent(const_problem(3, 1, 2, {(0,)}))
    assert not is_independent(parity_problem(3))


def test_is_independent_makes_no_full_size_temporary():
    # from_vc's table is C(16,2) rows broadcast over 2^14 contexts: a
    # comparison of every entry would allocate about 7.9 MB
    problem = from_vc(generate("thresholds", 16), 2)
    tracemalloc.start()
    try:
        assert is_independent(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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


def assert_backtracking_witness(problem):
    """``is_hereditary`` gives the verdict, S and assignments of the
    backtracking search, whose witnesses the CLI printed before the
    reduction; returns the verdict."""
    hereditary, witness = is_hereditary(problem)
    got = (hereditary, None if witness is None else (witness.S, witness.assignments))
    assert got == backtrack_is_hereditary(problem)
    return hereditary


@pytest.mark.parametrize("density", [0.2, 0.5, 0.8])
def test_hereditary_witness_matches_backtracking(density):
    verdicts = []
    for seed in range(200):
        n = 1 + seed % 7
        k = 1 + seed // 7 % n
        j = 2 + seed // 49 % 2
        problem = random_problem(n, k, j, seed, density)
        hereditary = assert_backtracking_witness(problem)
        # the pairwise enumeration tries up to (j^(n-k))^(j^k) assignments
        if (j ** (n - k)) ** (j ** k) <= 256:
            assert hereditary == brute_is_hereditary(problem)
        verdicts.append(hereditary)
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("n", range(2, 9))
def test_parity_witness_matches_backtracking_lazy_and_filled(n):
    problem = parity_problem(n)
    assert not assert_backtracking_witness(problem)
    assert problem._bans is None
    solutions(problem)
    assert not assert_backtracking_witness(problem)


def test_broadcast_and_user_rule_witnesses_match_backtracking():
    assert assert_backtracking_witness(from_vc(generate("thresholds", 6), 2))
    family = SetSystem(5, (0b00011, 0b00101, 0b01110, 0b11000, 0b10001, 0b01011, 0b00000))
    assert assert_backtracking_witness(from_vc(family, 3))

    def fn(S, X):
        # pattern ranks 0..8, banned when (3 sum(S) + 5 sum(X) + rank) % 4
        # is 0, with the rank sum(X) % 9 always banned
        key = 3 * sum(S) + 5 * sum(X)
        return frozenset(Z for Z in itertools.product(range(3), repeat=2)
                         if (key + 3 * Z[0] + Z[1]) % 4 == 0
                         or 3 * Z[0] + Z[1] == sum(X) % 9)

    problem = BanProblem(5, 2, 3, fn)
    assert not assert_backtracking_witness(problem)
    assert problem._bans is None


def counting_rule(n, k, j, fn):
    """A lazy problem on ``fn`` and the list its rule calls append to."""
    calls = []

    def rule(S, X):
        calls.append((S, X))
        return fn(S, X)

    return BanProblem(n, k, j, rule), calls


def test_lazy_hereditary_builds_one_row_per_visited_subset():
    # parity has its witness at S = (0,): one row of 2^(n-1) contexts, then
    # witness_is_valid's 2 reads
    problem, calls = counting_rule(10, 1, 2, parity_problem(10)._fn)
    assert not is_hereditary(problem)[0]
    assert problem._bans is None
    assert len(calls) == 2 ** 9 + 2
    # no witness: every index subset is visited, each row once
    problem, calls = counting_rule(5, 2, 3, lambda S, X: frozenset({(2, 1)}))
    assert is_hereditary(problem)[0]
    assert problem._bans is None
    assert len(calls) == comb(5, 2) * 3 ** 3
    assert len(set(calls)) == len(calls)


def test_filled_hereditary_reads_no_ban_set_but_the_witness_check(monkeypatch):
    calls = []
    original = RelaxedBanProblem.ban_set

    def counting(self, S, X):
        calls.append((S, X))
        return original(self, S, X)

    monkeypatch.setattr(RelaxedBanProblem, "ban_set", counting)
    filled = parity_problem(6)
    solutions(filled)
    for problem, hereditary in [(random_problem(5, 2, 3, 3, density=0.2), False),
                                (filled, False),
                                (from_vc(generate("thresholds", 6), 2), True)]:
        calls.clear()
        assert is_hereditary(problem)[0] == hereditary
        assert len(calls) == (0 if hereditary else problem.j ** problem.k)


def test_hereditary_makes_no_full_size_temporary():
    # from_vc's table is C(16,2) rows broadcast over 2^14 contexts; each
    # row reduced is 2^16 flags
    problem = from_vc(generate("thresholds", 16), 2)
    tracemalloc.start()
    try:
        assert is_hereditary(problem) == (True, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_witness_is_valid_rejects_garbage():
    problem = parity_problem(3)
    _, witness = is_hereditary(problem)
    bad = type(witness)(witness.S, dict(witness.assignments))
    bad.assignments[(0,)] = bad.assignments[(1,)]
    assert not witness_is_valid(problem, bad)
    # a pattern left without a context
    assert not witness_is_valid(problem, type(witness)(witness.S, {(0,): (0, 0)}))
    # neither context is banned, but 000 and 110 first differ at position
    # 0, outside S = (1,)
    outside = type(witness)((1,), {(0,): (0, 0), (1,): (1, 0)})
    assert not witness_is_valid(problem, outside)


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
    with pytest.raises(InputError, match="requires k >= 2"):
        check_counting_inequality(parity_problem(3))


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


TIGHT_SHAPES = [(n, k, j) for j in (2, 3, 4) for n in range(1, 8) if j ** n <= 1 << 14
                for k in range(1, n + 1)]


def test_main_theorem_bound_is_attained_on_every_small_shape():
    # Banning the all-(j-1) pattern on every S, whatever the context, leaves
    # the sequences with fewer than k copies of j-1: exactly the bound.
    assert len(TIGHT_SHAPES) == 84
    for n, k, j in TIGHT_SHAPES:
        problem = const_problem(n, k, j, {(j - 1,) * k})
        report = verify_main_theorem(problem)
        assert report["hereditary"] and report["slack"] == 0, (n, k, j)
        assert sorted(solutions(problem)[0]) == [
            seq for seq in itertools.product(range(j), repeat=n) if seq.count(j - 1) < k]


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
    # (5, 2) = 10 and (5, 3) = 6 also come out of an independent MILP.
    assert [min_subcube_hitting(5, k) for k in range(1, 6)] == [16, 10, 6, 2, 1]


def test_min_hitting_matches_exhaustive_small():
    for n in range(1, 5):
        for k in range(1, n + 1):
            assert min_subcube_hitting(n, k) == brute_min_hitting(n, k), (n, k)


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


def ban_table(problem):
    return {(S, X): problem.ban_set(S, X)
            for S in problem.index_subsets() for X in problem.contexts()}


def assert_table_and_round_trip(problem, expected):
    """``ban_set`` reads ``expected``, and so does the problem rebuilt from
    its JSON form, whose table is filled entry by entry."""
    assert ban_table(problem) == expected
    again = RelaxedBanProblem.from_json_dict(problem.to_json_dict())
    assert ban_table(again) == expected


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_from_vc_matches_member_walk(m):
    rng = random.Random(m)
    for n in range(m, m + 3):
        # fewer than 2^m members cannot shatter an m-subset
        for size in (0, 1, (1 << m) - 1):
            system = SetSystem(n, tuple(rng.sample(range(1 << n), size)))
            assert_table_and_round_trip(from_vc(system, m), brute_vc_bans(system, m))


def test_from_vc_on_the_largest_universe_it_builds():
    # C(52,2) * 2^52 table entries fit numpy's index range; C(53,2) * 2^53
    # do not, so 53 points are refused before anything is built.
    rng = random.Random(52)
    system = SetSystem(52, tuple(rng.getrandbits(52) for _ in range(3)))
    problem = from_vc(system, 2)
    contexts = [(0,) * 50, tuple(rng.getrandbits(1) for _ in range(50))]
    assert {S: problem.ban_set(S, X) for S in problem.index_subsets()
            for X in contexts} == brute_vc_subset_bans(system, 2)
    with pytest.raises(ResourceCapError, match=r"C\(n,m\) \* 2\^n .* = "
                       f"{comb(53, 2) << 53} exceeds cap {2 ** 63 - 1}"):
        from_vc(SetSystem(53, (1, 6)), 2)
    assert from_vc(SetSystem(53, (6,)), 1).ban_set((0,), (0,) * 52) == {(1,)}


def shattering_family(n, m, size, seed, low=0):
    """``size`` distinct seeded subsets of [low, n), enough to shatter some
    m-subset of [n] but none that meets [0, low)."""
    rng = random.Random(seed)
    masks = set()
    while len(masks) < size:
        masks.add(rng.getrandbits(n - low) << low)
    return SetSystem(n, tuple(masks))


@pytest.mark.parametrize("system,m", [
    (generate("powerset", 3), 2), (generate("powerset", 6), 6),
    *((shattering_family(n, m, size, seed), m)
      for seed, (n, m, size) in enumerate([(5, 2, 6), (6, 3, 12), (8, 3, 20), (9, 4, 40)])),
    # the first shattered S lies in a later block of index subsets
    (shattering_family(20, 3, 111, seed=7, low=7), 3),
])
def test_from_vc_names_the_first_shattered_subset(system, m):
    S = brute_first_shattered(system, m)
    assert S is not None
    with pytest.raises(InputError) as info:
        from_vc(system, m)
    assert str(info.value) == f"VC dimension >= {m}: the family shatters {S}"


def test_later_block_case_shatters_past_the_first_block():
    system = shattering_family(20, 3, 111, seed=7, low=7)
    rank = list(itertools.combinations(range(20), 3)).index(brute_first_shattered(system, 3))
    assert rank >= banseq._VC_BLOCK_BITS // (111 * 3)


def test_from_vc_is_fast_and_small_at_a_large_fold():
    # (n, m, |F|) = (16, 8, 26): C(16,8) rows of 2^8 flags, 3.3 MB; a walk
    # of each subset's traces takes about 0.45 s on a 2-vCPU Xeon
    rng = random.Random(16)
    masks = tuple(sum(1 << x for x in rng.sample(range(16), rng.randrange(8)))
                  for _ in range(26))
    system = SetSystem(16, masks)
    rows = comb(16, 8) << 8
    start = time.process_time()
    from_vc(system, 8)
    assert time.process_time() - start < 0.25
    tracemalloc.start()
    try:
        problem = from_vc(system, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * rows
    subsets = rng.sample(list(problem.index_subsets()), 20)
    assert {S: problem.ban_set(S, (0,) * 8) for S in subsets} == brute_vc_subset_bans(
        system, 8, subsets)


def test_from_vc_builds_one_row_per_index_subset():
    start = time.process_time()
    assert banned_count(from_vc(generate("thresholds", 18), 2)) == 2 ** 18 - 19
    assert time.process_time() - start < 1
    tracemalloc.start()
    try:
        # a filled table would hold C(30,2) * 2^30 flags
        from_vc(generate("thresholds", 30), 2).ban_set((3, 7), (0,) * 28)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_from_element_tree():
    chain = generate("thresholds", 4)
    tree = random_element_tree(4, 1, 4, seed=2)
    problem = from_element_tree(tree, chain, m=3)  # op_1-rank(chain) = 2
    assert (problem.n, problem.k, problem.j) == (4, 3, 2)
    assert is_hereditary(problem)[0]
    assert verify_main_theorem(problem)["within_bound"]
    with pytest.raises(InputError, match="rank"):
        from_element_tree(tree, generate("powerset", 4), m=3)


@pytest.mark.parametrize("s,height,m,seed", [
    (1, 4, 1, 0), (1, 5, 2, 1), (1, 6, 2, 2), (1, 6, 3, 3),
    (2, 2, 1, 4), (2, 3, 1, 5), (2, 3, 2, 6), (2, 4, 2, 7),
])
def test_from_element_tree_matches_label_walk(s, height, m, seed):
    tree, system = tree_and_family(s, height, m, seed)
    problem = from_element_tree(tree, system, m)
    expected = brute_element_tree_bans(tree, system, m)
    solutions(problem)  # fills the table
    assert {key: problem.ban_set(*key) for key in expected} == expected


def test_from_element_tree_tests_each_leaf_once(monkeypatch):
    leaves = []
    original = ElementTree.path_requirements

    def counting(self, leaf):
        leaves.append(leaf)
        return original(self, leaf)

    monkeypatch.setattr(ElementTree, "path_requirements", counting)
    s, height, m = 1, 7, 2
    tree, system = tree_and_family(s, height, m, seed=11)
    problem = from_element_tree(tree, system, m)  # tests every leaf
    is_hereditary(problem)  # the reads test none
    solutions(problem)
    assert leaves == list(tree.leaves())


def test_random_problem_is_seeded():
    assert random_problem(4, 2, 2, seed=1) == random_problem(4, 2, 2, seed=1)
    assert random_problem(4, 2, 2, seed=1) != random_problem(4, 2, 2, seed=2)
    # a value that is not a problem is unequal, never compared as a table
    assert random_problem(4, 2, 2, seed=1) != (4, 2, 2)


@pytest.mark.parametrize("density", [0, 0.5, 1])
@pytest.mark.parametrize("j,max_n", [(2, 4), (3, 3)])
def test_random_problem_matches_entry_by_entry_draws(j, max_n, density):
    # density 0 bans by the forced draw alone
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            seed = 100 * n + 10 * k + j
            assert_table_and_round_trip(random_problem(n, k, j, seed, density),
                                        brute_random_table(n, k, j, seed, density))


# Reading a generator object's "generator" key, or joining sequence entries
# into text, outside banseq would fork the ban-problem file format.
BAN_TEXT_FORKS = ('"".join(map(str', '"".join(str(', '["generator"]', '"generator" in',
                  'get("generator"')


def test_only_banseq_reads_or_writes_ban_problem_text():
    """``RelaxedBanProblem.from_json_dict`` is the one reader of ban-problem
    objects, generator objects included, and ``digit_text`` the one writer
    of sequences as text; no other module of the library does either."""
    package = Path(shatterlab.__file__).parent
    forks = [(path.name, snippet) for path in sorted(package.glob("*.py"))
             if path.name != "banseq.py"
             for snippet in BAN_TEXT_FORKS if snippet in path.read_text()]
    assert not forks


AXIS_CALLS = ("transpose(", "argsort(", "moveaxis(", "swapaxes(")


def test_only_subset_view_maps_the_cube_to_table_rows():
    """``_subset_view`` is the one code of ``banseq`` that reorders a
    position cube's axes into a table row's (``_cube_rows`` stacks its
    views), so the layout cannot fork again."""
    text = Path(banseq.__file__).read_text()
    rest = text.replace(inspect.getsource(banseq._subset_view), "")
    assert [call for call in AXIS_CALLS if call in rest] == []
