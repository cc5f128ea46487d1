"""Test trees over finite probability spaces and the Monte Carlo audits of
the weak laws and the thicket uniform-convergence bound.

Sampling is counter-based: the label of a tree node is a pure function of
(seed, node path) through a splitmix64 chain, so lazily materialized trees
are identical regardless of traversal order or worker count.  Estimates and
probabilities are exact rationals; only the exp(.) bound comparison uses
floats, with a 1e-12 guard.

The audits walk every (trial, set) path at once in numpy, bit-identical to
the scalar ``TestTree``: a node's label comes from a guide table on the top
12 bits of its state plus a bounded forward correction, which equals
``bisect_right`` on the sampling thresholds.  A deviation depends only on a
set and its count of 1s, so each distinct (set, count) pair gets one exact
``Fraction``, and a trial's supremum is a max over their ranks.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np

from .errors import InputError, ResourceCapError
from .setsystem import SetSystem
from .dims import thicket_dimension, thicket_shatter, NEG_INF
from math import comb

__all__ = [
    "ProbSpace",
    "TestTree",
    "ExperimentReport",
    "sample_test_tree",
    "characteristic_path",
    "test_estimate",
    "exact_expectation",
    "uniform_deviation",
    "run_weak_law",
    "run_vc_theorem",
]

_MASK = (1 << 64) - 1
_SCALE = 1 << 64
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_GUIDE_BITS = 12
_GUIDE_SHIFT = np.uint64(64 - _GUIDE_BITS)
_GUIDE_LOW = np.uint64((1 << (64 - _GUIDE_BITS)) - 1)
FLOAT_GUARD = 1e-12
DEFAULT_EXPECTATION_CAP = 10 ** 6


def splitmix64(x):
    x = (x + _GAMMA) & _MASK
    x ^= x >> 30
    x = (x * _MIX1) & _MASK
    x ^= x >> 27
    x = (x * _MIX2) & _MASK
    return x ^ (x >> 31)


# Made once: building a numpy scalar from a Python int costs about as much
# as one ufunc call on a short array.
_SPLITMIX_NP = tuple(map(np.uint64, (_GAMMA, 30, _MIX1, 27, _MIX2, 31)))


def _splitmix64_np(x, scratch):
    """splitmix64 of every entry of the uint64 array ``x``, in place;
    ``scratch`` is a uint64 array of the same shape."""
    gamma, s1, m1, s2, m2, s3 = _SPLITMIX_NP
    np.add(x, gamma, out=x)
    np.bitwise_xor(x, np.right_shift(x, s1, out=scratch), out=x)
    np.multiply(x, m1, out=x)
    np.bitwise_xor(x, np.right_shift(x, s2, out=scratch), out=x)
    np.multiply(x, m2, out=x)
    np.bitwise_xor(x, np.right_shift(x, s3, out=scratch), out=x)
    return x


@dataclass(frozen=True)
class ProbSpace:
    """Finite base set [N] with exact rational weights summing to 1."""

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        ws = tuple(Fraction(w) for w in self.weights)
        if any(w < 0 for w in ws):
            raise InputError("weights must be nonnegative")
        if sum(ws) != 1:
            raise InputError("weights must sum to exactly 1")
        object.__setattr__(self, "weights", ws)

    @property
    def size(self):
        return len(self.weights)

    @classmethod
    def uniform(cls, size):
        return cls(tuple(Fraction(1, size) for _ in range(size)))

    def mass(self, members):
        mask = _as_mask(members, self.size)
        return sum((w for i, w in enumerate(self.weights) if mask >> i & 1),
                   Fraction(0))

    def sampling_thresholds(self):
        """T_i = floor(cumulative_i * 2^64); the draw with 64-bit value u
        lands on point bisect_right(T, u)."""
        out = []
        cum = Fraction(0)
        for w in self.weights[:-1]:
            cum += w
            out.append(min((cum.numerator * _SCALE) // cum.denominator,
                           _SCALE - 1))
        return out

    def to_json_dict(self):
        return {"points": self.size,
                "weights": [f"{w.numerator}/{w.denominator}" for w in self.weights]}

    @classmethod
    def from_json_dict(cls, data):
        try:
            n = int(data["points"])
            ws = tuple(Fraction(w) for w in data["weights"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed probability space: {exc}") from exc
        if len(ws) != n:
            raise InputError("weight count does not match point count")
        return cls(ws)


def _as_mask(members, size):
    if isinstance(members, int):
        if not 0 <= members < 1 << size:
            raise InputError("membership mask out of range")
        return members
    mask = 0
    for x in members:
        if not 0 <= x < size:
            raise InputError(f"point {x} out of range")
        mask |= 1 << x
    return mask


class TestTree:
    """Lazily materialized sampling tree of the given height.

    Node states chain as state(path + b) = splitmix64(state(path) ^ (b+1))
    from state('') = splitmix64(seed); the node's label is the point picked
    by its state against the space's cumulative thresholds.
    """

    def __init__(self, space: ProbSpace, height, seed):
        if height < 1:
            raise InputError("height must be >= 1")
        self.space = space
        self.height = height
        self.seed = seed & _MASK
        self._thresholds = space.sampling_thresholds()
        self._nodes = {(): splitmix64(self.seed)}

    def _state(self, path):
        state = self._nodes.get(path)
        if state is None:
            state = splitmix64(self._state(path[:-1]) ^ (path[-1] + 1))
            self._nodes[path] = state
        return state

    def label(self, path):
        """Point index at the node; populates exactly the path's ancestors."""
        if len(path) >= self.height or any(b not in (0, 1) for b in path):
            raise InputError(f"bad node {path!r} for height {self.height}")
        return bisect_right(self._thresholds, self._state(tuple(path)))

    @property
    def populated_nodes(self):
        return len(self._nodes)


def sample_test_tree(space: ProbSpace, height, seed) -> TestTree:
    return TestTree(space, height, seed)


def characteristic_path(tree: TestTree, members):
    """The unique branch whose bits equal membership of the visited labels."""
    mask = _as_mask(members, tree.space.size)
    path = []
    for _ in range(tree.height):
        x = tree.label(tuple(path))
        path.append((mask >> x) & 1)
    return tuple(path)


def test_estimate(tree: TestTree, members) -> Fraction:
    """Fraction of positive queries along the characteristic path."""
    path = characteristic_path(tree, members)
    return Fraction(sum(path), tree.height)


def exact_expectation(space: ProbSpace, members, height, cap=None):
    """Exact expectation of the test estimate by enumerating the labels of
    the path-relevant nodes; equals the measure of the queried set."""
    limit = DEFAULT_EXPECTATION_CAP if cap is None else cap
    if space.size ** height > limit:
        raise ResourceCapError(
            f"{space.size}^{height} label patterns exceed cap {limit}", cap=limit)
    mask = _as_mask(members, space.size)
    total = Fraction(0)
    for labels in product(range(space.size), repeat=height):
        weight = Fraction(1)
        ones = 0
        for x in labels:
            weight *= space.weights[x]
            ones += (mask >> x) & 1
        total += weight * Fraction(ones, height)
    return total


def uniform_deviation(tree: TestTree, system: SetSystem, space: ProbSpace):
    """sup over the family of |test estimate - measure|, exact."""
    if system.universe_size != space.size:
        raise InputError("family universe must equal the space's points")
    best = Fraction(0)
    for mask in system.sets:
        dev = abs(test_estimate(tree, mask) - space.mass(mask))
        if dev > best:
            best = dev
    return best


@dataclass
class ExperimentReport:
    kind: str
    config: dict
    trials: int
    exceedances: int
    empirical: Fraction
    bound: float
    slack: float
    passed: bool
    notes: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)

    def to_json_dict(self):
        return {
            "kind": self.kind,
            "config": self.config,
            "trials": self.trials,
            "exceedances": self.exceedances,
            "empirical": f"{self.empirical.numerator}/{self.empirical.denominator}",
            "bound": self.bound,
            "slack": self.slack,
            "pass": self.passed,
            "notes": self.notes,
        }

    def csv_rows(self):
        header = "trial,n,epsilon,deviation,exceeded"
        return [header] + [
            "{trial},{n},{epsilon},{deviation},{exceeded}".format(**row)
            for row in self.rows
        ]


def trial_seed(master_seed, trial_index):
    return splitmix64(splitmix64(master_seed & _MASK) ^ (trial_index + 1))


def _guide_table(thresholds):
    """Guide table for ``bisect_right(thresholds, x)`` over 64-bit x (Chen
    and Asau 1974; Devroye 1986, III.2.4).

    ``guide[b]`` is the label of the start of bucket b, the x whose top 12
    bits are b.  Each threshold strictly inside a bucket moves the label of
    a later x in that bucket by one, so ``passes``, the most such
    thresholds in one bucket, bounds the forward correction.  ``padded``
    appends ``passes`` copies of 2^64-1 so that every pass indexes in
    bounds."""
    t = np.array(thresholds, dtype=np.uint64)
    starts = np.arange(1 << _GUIDE_BITS, dtype=np.uint64) << _GUIDE_SHIFT
    guide = np.searchsorted(t, starts, side="right").astype(np.uint64)
    inside = t[(t & _GUIDE_LOW) != 0] >> _GUIDE_SHIFT
    passes = int(np.bincount(inside.astype(np.intp), minlength=1).max())
    padded = np.concatenate([t, np.full(passes, _MASK, dtype=np.uint64)])
    return guide, padded, passes


def _guide_lookup(table, x, labels, scratch):
    """Set the uint64 array ``labels`` to ``bisect_right(thresholds, x)``
    entrywise for the uint64 array ``x``; ``scratch`` is a uint64 array of
    the same shape.  Every index taken is in range; ``mode="clip"`` only
    spares ``np.take`` its buffered bounds check."""
    guide, padded, passes = table
    np.take(guide, np.right_shift(x, _GUIDE_SHIFT, out=scratch), out=labels,
            mode="clip")
    for _ in range(passes):
        np.take(padded, labels, out=scratch, mode="clip")
        np.add(labels, np.less_equal(scratch, x, out=scratch), out=labels)
    if passes:
        # Only x = 2^64-1 walks on into the padding.
        np.minimum(labels, np.uint64(len(padded) - passes), out=labels)
    return labels


def _simulate_ones(space: ProbSpace, masks, height, trials, seed):
    """Vectorized per-trial, per-set counts of 1s along characteristic
    paths; bit-identical to walking scalar TestTree objects.

    Entry t*m + i follows set i in trial t.  A step XORs ``bit + 1`` into
    the state, as TestTree does, and adds it to the count, which so ends
    ``height`` too high."""
    m, size = len(masks), space.size
    table = _guide_table(space.sampling_thresholds())
    steps = np.array([[(mask >> x & 1) + 1 for x in range(size)]
                      for mask in masks], dtype=np.uint64).reshape(-1)
    offsets = np.tile(np.arange(m, dtype=np.uint64) * np.uint64(size), trials)
    roots = np.arange(1, trials + 1, dtype=np.uint64)
    roots ^= np.uint64(splitmix64(seed & _MASK))
    scratch = np.empty_like(roots)
    _splitmix64_np(roots, scratch)  # trial_seed(seed, t)
    _splitmix64_np(roots, scratch)  # the root node's state
    states = np.repeat(roots, m)
    ones = np.zeros_like(states)
    labels, step, scratch = (np.empty_like(states) for _ in range(3))
    for _ in range(height):
        _guide_lookup(table, states, labels, scratch)
        np.add(labels, offsets, out=labels)
        np.take(steps, labels, out=step, mode="clip")
        np.add(ones, step, out=ones)
        np.bitwise_xor(states, step, out=states)
        _splitmix64_np(states, scratch)
    ones -= np.uint64(height)
    return ones.view(np.int64).reshape(trials, m)


def _report_rows(height, eps, values, hits, index):
    """Trial t's row reads deviation ``values[index[t]]``."""
    text = [f"{v.numerator}/{v.denominator}" for v in values]
    flags = hits.astype(int).tolist()
    epsilon = str(eps)
    return [{"trial": t, "n": height, "epsilon": epsilon,
             "deviation": text[k], "exceeded": flags[k]}
            for t, k in enumerate(index.tolist())]


def _binomial_slack(exceedances, trials):
    p = exceedances / trials
    return 3.0 * math.sqrt(p * (1.0 - p) / trials)


def run_weak_law(space: ProbSpace, members, height, epsilon, trials, seed,
                 keep_rows=True) -> ExperimentReport:
    """Monte Carlo check of the 1/(4 n eps^2) tail bound for a single set."""
    if trials < 1:
        raise InputError("trials must be >= 1")
    if height < 1:
        raise InputError("height must be >= 1")
    eps = Fraction(epsilon)
    if eps <= 0:
        raise InputError("epsilon must be > 0")
    mask = _as_mask(members, space.size)
    mu = space.mass(mask)
    ones = _simulate_ones(space, [mask], height, trials, seed)[:, 0]
    # The deviation of a trial depends only on its count c of 1s.
    devs = [abs(Fraction(c, height) - mu) for c in range(height + 1)]
    hits = np.array([d >= eps for d in devs], dtype=bool)
    exceed = int(np.count_nonzero(hits[ones]))
    rows = _report_rows(height, eps, devs, hits, ones) if keep_rows else []
    bound = Fraction(1, 4 * height) / (eps * eps)
    slack = _binomial_slack(exceed, trials)
    empirical = Fraction(exceed, trials)
    passed = float(empirical) <= float(bound) + slack + FLOAT_GUARD
    return ExperimentReport(
        kind="weak_law",
        config={"n": height, "epsilon": str(eps), "trials": trials,
                "seed": seed, "mu": f"{mu.numerator}/{mu.denominator}"},
        trials=trials, exceedances=exceed, empirical=empirical,
        bound=float(bound), slack=slack, passed=passed,
        notes={"bound_exact": f"{bound.numerator}/{bound.denominator}"},
        rows=rows)


def _thicket_shatter_estimate(system: SetSystem, height):
    """Exact rho when small enough, else the Sauer-style polynomial bound."""
    if system.universe_size <= 12 and height <= 12:
        return thicket_shatter(system, height), "exact"
    k = thicket_dimension(system)
    if k == NEG_INF:
        return 0, "bounded"
    return sum(comb(height, i) for i in range(int(k) + 1)), "bounded"


def run_vc_theorem(space: ProbSpace, system: SetSystem, height, epsilon,
                   trials, seed, keep_rows=True) -> ExperimentReport:
    """Monte Carlo audit of the 8 rho(n) exp(-n eps^2 / 32) uniform bound."""
    if trials < 1:
        raise InputError("trials must be >= 1")
    if height < 1:
        raise InputError("height must be >= 1")
    if system.universe_size != space.size:
        raise InputError("family universe must equal the space's points")
    eps = Fraction(epsilon)
    if eps < 0:
        raise InputError("epsilon must be >= 0")
    masses = [space.mass(m) for m in system.sets]
    ones = _simulate_ones(space, list(system.sets), height, trials, seed)
    # One exact deviation per distinct (set i, count c) pair, keyed
    # i*(height+1) + c; a trial's supremum is the max of their ranks among
    # the distinct values, with 0 (rank 0) for an empty family.
    keys, inverse = np.unique(
        (ones + np.arange(len(masses)) * (height + 1)).ravel(),
        return_inverse=True)
    devs = []
    for key in keys.tolist():
        i, c = divmod(key, height + 1)
        devs.append(abs(Fraction(c, height) - masses[i]))
    values = sorted(set(devs) | {Fraction(0)})
    rank = {v: r for r, v in enumerate(values)}
    ranks = np.array([rank[d] for d in devs], dtype=np.intp)
    best = ranks[inverse].reshape(ones.shape).max(axis=1, initial=0)
    hits = np.array([v > eps for v in values], dtype=bool)
    exceed = int(np.count_nonzero(hits[best]))
    rows = _report_rows(height, eps, values, hits, best) if keep_rows else []
    rho, rho_source = _thicket_shatter_estimate(system, height)
    bound = min(1.0, 8.0 * rho * math.exp(-height * float(eps) ** 2 / 32.0))
    slack = _binomial_slack(exceed, trials)
    empirical = Fraction(exceed, trials)
    passed = float(empirical) <= bound + slack + FLOAT_GUARD
    return ExperimentReport(
        kind="vc_theorem",
        config={"n": height, "epsilon": str(eps), "trials": trials,
                "seed": seed, "sets": len(system.sets)},
        trials=trials, exceedances=exceed, empirical=empirical,
        bound=bound, slack=slack, passed=passed,
        notes={"rho": rho, "rho_source": rho_source,
               "bound_vacuous": bound >= 1.0},
        rows=rows)
