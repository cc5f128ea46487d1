"""Test trees: counter-based determinism, exact expectations, and the two
Monte Carlo audits."""

import math
import time
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shatterlab import (InputError, ProbSpace, SetSystem, characteristic_path,
                        exact_expectation, generate, run_vc_theorem, run_weak_law,
                        sample_test_tree, uniform_deviation)
from shatterlab import TestTree as SamplingTree
from shatterlab import test_estimate as estimate_along_path
from shatterlab import thicketvc
from shatterlab.thicketvc import (_simulate_ones, _step_table, _walk, splitmix64,
                                  trial_seed)

from oracles import (binomial_expectation, scalar_counts, scalar_vc_theorem,
                     scalar_weak_law)


def test_prob_space_validation():
    with pytest.raises(InputError):
        ProbSpace((Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(InputError):
        ProbSpace((Fraction(3, 2), Fraction(-1, 2)))
    space = ProbSpace.uniform(4)
    assert space.mass({0, 1}) == Fraction(1, 2)
    assert space.mass(0b1111) == 1
    assert ProbSpace.from_json_dict(space.to_json_dict()) == space
    for weights in ([float("inf"), 0], [float("nan"), 0], ["1/0", 1],
                    [True, False], "10", {"1": 0, "0": 1}):
        with pytest.raises(InputError,
                           match="weight must be a rational|'weights' must be a list"):
            ProbSpace.from_json_dict({"points": 2, "weights": weights})
    with pytest.raises(InputError, match="weight must be a rational"):
        ProbSpace((True, False))
    with pytest.raises(InputError, match="weight count does not match point count"):
        ProbSpace.from_json_dict({"points": 3, "weights": ["1/2", "1/2"]})


def test_sampling_thresholds_partition_the_64_bit_range():
    space = ProbSpace((Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)))
    t = space.sampling_thresholds()
    assert t == [1 << 62, 3 << 62]
    assert len(t) == space.size - 1


def test_tree_is_deterministic_and_lazy():
    space = ProbSpace.uniform(5)
    t1 = sample_test_tree(space, 6, seed=42)
    t2 = sample_test_tree(space, 6, seed=42)
    assert t1.label((0, 1, 0)) == t2.label((0, 1, 0))
    # labeling one node populates only its ancestors
    assert t1.populated_nodes == 4
    assert characteristic_path(t1, {0, 1}) == characteristic_path(t2, {0, 1})
    t3 = sample_test_tree(space, 6, seed=43)
    assert t3._state(()) != t1._state(())


def test_label_bounds():
    tree = sample_test_tree(ProbSpace.uniform(3), 2, seed=0)
    with pytest.raises(InputError):
        tree.label((0, 1))
    with pytest.raises(InputError):
        tree.label((2,))
    # a bool or a float is not a branch bit, even when it equals one
    for bad in (True, 1.0, -1):
        with pytest.raises(InputError):
            tree.label((bad,))


def test_characteristic_path_follows_membership():
    space = ProbSpace.uniform(4)
    tree = sample_test_tree(space, 8, seed=7)
    members = {1, 3}
    path = characteristic_path(tree, members)
    walk = []
    for depth in range(8):
        x = tree.label(tuple(walk))
        walk.append(1 if x in members else 0)
    assert path == tuple(walk)
    assert estimate_along_path(tree, members) == Fraction(sum(path), 8)


def test_exact_expectation_equals_measure():
    space = ProbSpace((Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)))
    for members in ({0}, {1}, {0, 2}, set(), {0, 1, 2}):
        for height in (1, 2, 3, 20):
            assert exact_expectation(space, members, height) == \
                binomial_expectation(space, members, height) == space.mass(members)
    for space, members, height in ((ProbSpace.uniform(10), {0}, 20),
                                   (ProbSpace.uniform(7), {1, 2, 5}, 400)):
        assert exact_expectation(space, members, height) == \
            binomial_expectation(space, members, height)


def test_exact_expectation_does_no_work_per_level():
    start = time.perf_counter()
    assert exact_expectation(ProbSpace.uniform(7), {1, 2, 5}, 10 ** 6) == Fraction(3, 7)
    assert time.perf_counter() - start < 0.1


def test_uniform_deviation():
    space = ProbSpace.uniform(4)
    tree = sample_test_tree(space, 4, seed=1)
    system = generate("thresholds", 4)
    dev = uniform_deviation(tree, system, space)
    assert 0 <= dev <= 1
    assert dev >= abs(estimate_along_path(tree, 0b0011) - Fraction(1, 2))
    with pytest.raises(InputError):
        uniform_deviation(tree, generate("thresholds", 3), space)


def test_simulate_ones_matches_scalar_trees():
    space = ProbSpace((Fraction(1, 8), Fraction(3, 8), Fraction(1, 2)))
    masks = [0b001, 0b110, 0b111]
    ones = _simulate_ones(space, masks, height=9, trials=25, seed=321)
    for t in range(25):
        tree = SamplingTree(space, 9, trial_seed(321, t))
        for i, mask in enumerate(masks):
            assert sum(characteristic_path(tree, mask)) == ones[t, i]


# raw weights: zeros, and 2^20 next to small ones, which puts several
# thresholds in one bucket of the step table
RAW_WEIGHTS = st.lists(st.sampled_from([0, 0, 1, 2, 3, 7, 1 << 20]),
                       min_size=1, max_size=7).filter(any)


@st.composite
def walks(draw):
    raw = draw(RAW_WEIGHTS)
    space = ProbSpace(tuple(Fraction(w, sum(raw)) for w in raw))
    masks = draw(st.lists(st.integers(0, (1 << space.size) - 1), max_size=4))
    return (space, masks, draw(st.integers(1, 40)), draw(st.integers(1, 4)),
            draw(st.integers(0, (1 << 64) - 1)))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(walks())
def test_simulate_ones_matches_scalar_walks(walk):
    space, masks, height, trials, seed = walk
    ones = _simulate_ones(space, masks, height, trials, seed)
    assert ones.shape == (trials, len(masks))
    assert ones.tolist() == scalar_counts(space, masks, height, trials, seed)


def test_splitmix64_reference_value():
    # first output of the reference sequence seeded at 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert 0 <= splitmix64((1 << 64) - 1) < 1 << 64


def test_weak_law_report():
    space = ProbSpace.uniform(8)
    report = run_weak_law(space, {0, 1, 2, 3}, height=60, epsilon=Fraction(1, 4),
                          trials=500, seed=9)
    assert report.passed
    assert report.trials == 500
    assert 0 <= report.exceedances <= 500
    d = report.to_json_dict()
    assert d["kind"] == "weak_law"
    assert d["config"]["mu"] == "1/2"
    rows = report.csv_rows()
    assert rows[0] == "trial,n,epsilon,deviation,exceeded"
    assert len(rows) == 501


def test_weak_law_trivial_bound_is_honest():
    # epsilon so small the bound exceeds 1: every run passes
    report = run_weak_law(ProbSpace.uniform(2), {0}, height=4,
                          epsilon=Fraction(1, 100), trials=50, seed=0)
    assert report.passed
    assert report.bound > 1


def test_vc_theorem_report():
    space = ProbSpace.uniform(6)
    system = SetSystem(6, tuple((1 << i) - 1 for i in range(7)))
    report = run_vc_theorem(space, system, height=10, epsilon=Fraction(2, 5),
                            trials=300, seed=17)
    assert report.passed
    d = report.to_json_dict()
    assert d["notes"]["rho_source"] == "exact"
    assert d["notes"]["rho"] >= 1
    with pytest.raises(InputError):
        run_vc_theorem(ProbSpace.uniform(5), system, height=10,
                       epsilon=Fraction(1, 2), trials=10, seed=0)


def test_empirical_frequency_matches_binomial():
    # single-point set in a two-point space: each level is a fair coin, so
    # the count of 1s is Binomial(n, 1/2); check the mean within 5 sigma.
    space = ProbSpace.uniform(2)
    trials, height = 4000, 11
    ones = _simulate_ones(space, [0b01], height, trials, seed=99)
    mean = float(ones.mean())
    sigma = (height * 0.25 / trials) ** 0.5
    assert abs(mean - height / 2) < 5 * sigma


def test_trials_guard():
    with pytest.raises(InputError):
        run_weak_law(ProbSpace.uniform(2), {0}, height=3, epsilon=Fraction(1, 2),
                     trials=0, seed=0)


F = Fraction
HUGE_A = F((1 << 29) - 1, (1 << 31) - 1)
HUGE_B = F((1 << 59) - 1, (1 << 61) - 1)
MC_SPACES = {
    "uniform": ProbSpace.uniform(6),
    # every threshold starts a bucket of the step table: no correction pass
    "dyadic": ProbSpace.uniform(8),
    "skewed": ProbSpace((F(1, 12), F(5, 12), F(1, 6), F(1, 3))),
    # zero weights first, inside and last: a threshold at 0, a run of
    # equal thresholds and the threshold 2^64-1
    "zero-weights": ProbSpace((F(0), F(1, 3), F(0), F(0), F(2, 3), F(0))),
    # three thresholds inside the first bucket of the step table
    "clustered": ProbSpace((F(1, 1 << 14), F(1, 1 << 14), F(1, 1 << 14),
                            1 - F(3, 1 << 14))),
    # denominators the Mersenne primes 2^31-1 and 2^61-1 and their product
    # times 4: the lcm is above 2^64, so c * lcm overflows int64 at every
    # count c >= 1
    "huge-lcm": ProbSpace((HUGE_A, HUGE_B, F(1, 4), F(3, 4) - HUGE_A - HUGE_B)),
}
MC_RUNS = [(1, 30), (7, 1), (9, 40)]


def _same_reports(fast, slow, *args):
    for keep_rows in (True, False):
        a, b = fast(*args, keep_rows=keep_rows), slow(*args, keep_rows=keep_rows)
        assert a.to_json_dict() == b.to_json_dict()
        assert a.csv_rows() == b.csv_rows()


@pytest.mark.parametrize("name", sorted(MC_SPACES))
@pytest.mark.parametrize("height,trials", MC_RUNS)
def test_weak_law_matches_scalar_oracle(name, height, trials):
    space = MC_SPACES[name]
    # {0, 1, 2} at epsilon 1/2 ties the deviation with epsilon on uniform(6)
    for members, epsilon in (({1}, F(1, 3)), ({0, 3}, F(1, 2)),
                             ({0, 1, 2}, F(1, 2)), (set(), F(1, 9)),
                             (set(range(space.size)), F(1, 4))):
        _same_reports(run_weak_law, scalar_weak_law,
                      space, members, height, epsilon, trials, 77)


@pytest.mark.parametrize("name", sorted(MC_SPACES))
@pytest.mark.parametrize("height,trials", MC_RUNS)
def test_vc_theorem_matches_scalar_oracle(name, height, trials):
    space = MC_SPACES[name]
    n = space.size
    families = (SetSystem(n, ()),
                SetSystem(n, (0b1, 0b10)),
                SetSystem(n, tuple((1 << i) - 1 for i in range(n + 1))))
    for system in families:
        # 1/6 ties with the deviation of {0} and {1} at count 0 on uniform(6)
        for epsilon in (F(0), F(1, 6), F(1, 5), F(1, 2)):
            _same_reports(run_vc_theorem, scalar_vc_theorem,
                          space, system, height, epsilon, trials, 5)


# heights about the settle stride (64): a check with one level left, a
# height the checks end just before, and heights past three checks
STRIDE_HEIGHTS = st.one_of(st.sampled_from([63, 64, 65, 127, 128, 129, 192,
                                            193, 200, 256, 257]),
                           st.integers(1, 260))
EPSILONS = [F(1, 20), F(1, 10), F(1, 5), F(1, 4), F(1, 3), F(1, 2), F(1)]


@st.composite
def audits(draw, least_sets):
    """An audit near the settle stride; epsilon is often the deviation of
    some set at some count, which ties a band's end."""
    raw = draw(RAW_WEIGHTS)
    space = ProbSpace(tuple(F(w, sum(raw)) for w in raw))
    masks = draw(st.lists(st.integers(0, (1 << space.size) - 1),
                          min_size=least_sets, max_size=3))
    height = draw(STRIDE_HEIGHTS)
    epsilon = draw(st.sampled_from(EPSILONS))
    if masks and draw(st.booleans()):
        count = draw(st.integers(0, height))
        mass = space.mass(draw(st.sampled_from(masks)))
        epsilon = abs(F(count, height) - mass) or epsilon
    return (space, masks, height, epsilon, draw(st.integers(1, 5)),
            draw(st.integers(0, (1 << 64) - 1)))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(audits(least_sets=1))
def test_weak_law_matches_scalar_oracle_about_the_stride(audit):
    space, masks, height, epsilon, trials, seed = audit
    _same_reports(run_weak_law, scalar_weak_law,
                  space, masks[0], height, epsilon, trials, seed)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(audits(least_sets=0), st.booleans())
def test_vc_theorem_matches_scalar_oracle_about_the_stride(audit, zero):
    space, masks, height, epsilon, trials, seed = audit
    _same_reports(run_vc_theorem, scalar_vc_theorem, space,
                  SetSystem(space.size, tuple(masks)), height,
                  F(0) if zero else epsilon, trials, seed)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(audits(least_sets=0))
def test_rows_off_report_is_the_rows_on_report_without_rows(audit):
    space, masks, height, epsilon, trials, seed = audit
    system = SetSystem(space.size, tuple(masks))
    for run, what in ((run_vc_theorem, system), (run_weak_law, masks[0] if masks else 0)):
        on = run(space, what, height, epsilon, trials, seed, keep_rows=True)
        off = run(space, what, height, epsilon, trials, seed, keep_rows=False)
        assert off.rows == [] and len(on.rows) == trials
        on.rows = []
        assert off == on


def _settled_by_deviation(counts, masses, height, remaining, epsilon, at_least):
    """Every trial settled, read from the deviations: a set is outside for
    good when its count is beyond epsilon above the centre, or its count
    plus ``remaining`` is beyond it below; inside for good when both ends
    are within epsilon."""
    def within(c, mass):
        dev = abs(F(c, height) - mass)
        return dev < epsilon if at_least else dev <= epsilon

    def settled(row):
        pairs = list(zip(row, masses))
        out = any((not within(c, mu) and F(c, height) >= mu)
                  or (not within(c + remaining, mu) and F(c + remaining, height) <= mu)
                  for c, mu in pairs)
        return out or all(within(c, mu) and within(c + remaining, mu) for c, mu in pairs)
    return all(settled(row) for row in counts.tolist())


@pytest.mark.parametrize("kind", ["vc_theorem", "weak_law"])
def test_rows_off_walk_stops_at_the_first_settled_check(kind, monkeypatch):
    space = MC_SPACES["skewed"]
    height, trials, seed, epsilon = 1000, 40, 11, F(1, 8)
    masks = [0b0001, 0b0110, 0b1011] if kind == "vc_theorem" else [0b0110]
    masses = [space.mass(m) for m in masks]
    at_least = kind == "weak_law"
    # the counts after level l are the counts of a walk of height l
    expected = next(level for level in range(64, height, 64)
                    if _settled_by_deviation(
                        thicketvc._simulate_ones(space, masks, level, trials, seed),
                        masses, height, height - level, epsilon, at_least))
    checks = []
    real = thicketvc._settled

    def spy(counts, remaining, lo, hi):
        checks.append(remaining)
        return real(counts, remaining, lo, hi)

    monkeypatch.setattr(thicketvc, "_settled", spy)
    args = (space, SetSystem(4, tuple(masks)) if kind == "vc_theorem" else masks[0],
            height, epsilon, trials, seed)
    run = run_vc_theorem if kind == "vc_theorem" else run_weak_law
    off = run(*args, keep_rows=False)
    assert [height - r for r in checks] == list(range(64, expected + 1, 64))
    assert expected < height
    checks.clear()
    on = run(*args, keep_rows=True)
    assert checks == []  # rows on: every level walked
    assert off.exceedances == on.exceedances


RAW_SPACES = RAW_WEIGHTS.map(lambda raw: ProbSpace(tuple(F(w, sum(raw)) for w in raw)))
STEP_SPACES = st.one_of(RAW_SPACES, st.sampled_from(list(MC_SPACES.values())))
# set counts that move the step table's bucket bits: 7 points give 6 bits
# up to 512 sets, then 5 and 3; 2 points fall to the least, 2
STEP_SET_COUNTS = st.sampled_from([1, 5, 40, 300, 1000, 4000, 9000])


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(STEP_SPACES, STEP_SET_COUNTS, st.integers(0, 127), st.integers(0, 63))
def test_step_table_matches_bisect(space, sets, a, c):
    # one step of the kernel from each state: the set's membership bit of
    # the state's label, plus 1
    thresholds = space.sampling_thresholds()
    top = (1 << 64) - 1
    xs = sorted({0, top} | {t + d for t in thresholds for d in (-1, 0, 1)
                            if 0 <= t + d <= top})
    # an odd multiplier runs through every mask of the space
    masks = [((2 * a + 1) * k + c) % (1 << space.size) for k in range(sets)]
    steps = _walk(space, masks, np.array(xs, dtype=np.uint64), 1)
    labels = [bisect_right(thresholds, x) for x in xs]
    assert steps.tolist() == [(mask >> label & 1) + 1
                              for label in labels for mask in masks]


@pytest.mark.parametrize("name", sorted(MC_SPACES))
def test_guide_lookup_matches_bisect(name):
    # one step of the kernel from each state at each threshold and its
    # neighbours, for a few masks at a time and for each mask alone: the
    # step reads the membership bit of the bisect_right label
    space = MC_SPACES[name]
    thresholds = space.sampling_thresholds()
    top = (1 << 64) - 1
    xs = sorted({0, top} | {t + d for t in thresholds for d in (-1, 0, 1)
                            if 0 <= t + d <= top})
    x = np.array(xs, dtype=np.uint64)
    labels = [bisect_right(thresholds, v) for v in xs]
    full = (1 << space.size) - 1
    masks = [0, full, 1 << (space.size - 1), full >> 1, 0b0101010101 & full]
    for group in [masks] + [[mask] for mask in masks]:
        steps = _walk(space, group, x, 1)
        assert steps.tolist() == [(mask >> label & 1) + 1
                                  for label in labels for mask in group]


def test_step_table_passes():
    def passes(space, sets=1):
        return _step_table(space, [0] * sets)[0].shape[0] - 1

    # 6 bucket bits: each threshold k/6 inside its own bucket
    assert passes(MC_SPACES["uniform"]) == 1
    # every threshold k/8 starts a bucket
    assert passes(MC_SPACES["dyadic"]) == 0
    # 5 bucket bits: all three thresholds inside the first bucket
    assert passes(MC_SPACES["clustered"]) == 3
    assert passes(ProbSpace.uniform(1)) == 0
    # the most bucket bits, 12, for 1000 points: one threshold per bucket
    assert passes(ProbSpace.uniform(1000)) == 1
    # many sets leave log2(points) bucket bits, no fewer: 1000 points keep
    # 10 bits and one threshold per bucket, where the 6 bits that fit 300
    # sets into 2^15 entries would put 16 in one
    assert passes(ProbSpace.uniform(1000), 300) == 1
    assert passes(ProbSpace.uniform(7), 9000) == 1
    # 2 bits, the least, for 2 points and 9000 sets; 1/3 lies inside the
    # second quarter
    assert passes(ProbSpace((F(1, 3), F(2, 3))), 9000) == 1


@pytest.mark.parametrize("name", sorted(MC_SPACES) + ["raw"])
@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_integer_weights_match_fraction_sums(name, data):
    # masses and thresholds read the weights' numerators over one
    # denominator; here they are summed as Fractions, point by point
    space = data.draw(RAW_SPACES) if name == "raw" else MC_SPACES[name]
    weights = space.weights
    for mask in data.draw(st.lists(st.integers(0, (1 << space.size) - 1),
                                   min_size=1, max_size=4)):
        assert space.mass(mask) == sum(
            (w for i, w in enumerate(weights) if mask >> i & 1), F(0))
    expected, cumulative = [], F(0)
    for w in weights[:-1]:
        cumulative += w
        expected.append(min(math.floor(cumulative * (1 << 64)), (1 << 64) - 1))
    assert space.sampling_thresholds() == expected
    # the integer checks refuse what the Fraction checks refused
    for bad, text in [((), "sum to exactly 1"),
                      (weights + (F(-1), F(1)), "nonnegative"),
                      (weights + (F(1, 1 << 70),), "sum to exactly 1"),
                      (tuple(w / 2 for w in weights), "sum to exactly 1")]:
        with pytest.raises(InputError, match=text):
            ProbSpace(bad)


@pytest.mark.parametrize("height,epsilon", [(0, F(1, 4)), (5, F(0)),
                                            (5, F(-1, 4)), (5, "abc"),
                                            (5, "1/0"), (5, True)])
def test_weak_law_rejects_bad_height_or_epsilon(height, epsilon):
    with pytest.raises(InputError):
        run_weak_law(ProbSpace.uniform(2), {0}, height=height, epsilon=epsilon,
                     trials=3, seed=0)


@pytest.mark.parametrize("height,epsilon", [(0, F(1, 4)), (5, F(-1, 4)),
                                            (5, "abc"), (5, "1/0"), (5, True)])
def test_vc_theorem_rejects_bad_height_or_epsilon(height, epsilon):
    with pytest.raises(InputError):
        run_vc_theorem(ProbSpace.uniform(3), generate("thresholds", 3),
                       height=height, epsilon=epsilon, trials=3, seed=0)
