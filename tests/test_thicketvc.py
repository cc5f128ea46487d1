"""Test trees: counter-based determinism, exact expectations, and the two
Monte Carlo audits."""

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
from shatterlab.thicketvc import (_guide_table, _simulate_ones, _walk,
                                  splitmix64, trial_seed)

from oracles import scalar_counts, scalar_vc_theorem, scalar_weak_law


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
                    [True, False]):
        with pytest.raises(InputError, match="malformed probability space"):
            ProbSpace.from_json_dict({"points": 2, "weights": weights})
    with pytest.raises(InputError, match="weight must be a rational"):
        ProbSpace((True, False))


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
        for height in (1, 2, 3):
            assert exact_expectation(space, members, height) == \
                space.mass(members)


def test_exact_expectation_reads_a_long_path_in_h_plus_one_terms():
    """10^20 label patterns; the sum has 21 terms."""
    assert exact_expectation(ProbSpace.uniform(10), {0}, 20) == Fraction(1, 10)
    assert exact_expectation(ProbSpace.uniform(7), {1, 2, 5}, 400) == Fraction(3, 7)
    assert exact_expectation(ProbSpace.uniform(7), {1, 2, 5}, 1000) == Fraction(3, 7)


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
# thresholds in one guide bucket
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
    # every threshold starts a bucket of the guide table: no correction pass
    "dyadic": ProbSpace.uniform(8),
    "skewed": ProbSpace((F(1, 12), F(5, 12), F(1, 6), F(1, 3))),
    # zero weights first, inside and last: a threshold at 0, a run of
    # equal thresholds and the threshold 2^64-1
    "zero-weights": ProbSpace((F(0), F(1, 3), F(0), F(0), F(2, 3), F(0))),
    # three thresholds inside the first bucket of the guide table
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


@pytest.mark.parametrize("name", sorted(MC_SPACES))
def test_guide_lookup_matches_bisect(name):
    # one step of the kernel from each state: its label, and the step it
    # takes for a set, which reads the label's membership bit
    space = MC_SPACES[name]
    thresholds = space.sampling_thresholds()
    top = (1 << 64) - 1
    xs = sorted({0, top} | {t + d for t in thresholds for d in (-1, 0, 1)
                            if 0 <= t + d <= top})
    x = np.array(xs, dtype=np.uint64)
    full = (1 << space.size) - 1
    for mask in (0, full, 1 << (space.size - 1), full >> 1, 0b0101010101 & full):
        steps, labels = _walk(space, [mask], x, 1)
        assert labels.tolist() == [bisect_right(thresholds, v) for v in xs]
        assert steps.tolist() == [(mask >> bisect_right(thresholds, v) & 1) + 1
                                  for v in xs]


def test_guide_table_passes():
    assert _guide_table(MC_SPACES["uniform"].sampling_thresholds())[2] == 1
    assert _guide_table(MC_SPACES["dyadic"].sampling_thresholds())[2] == 0
    assert _guide_table(MC_SPACES["clustered"].sampling_thresholds())[2] == 3
    assert _guide_table([])[2] == 0


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
