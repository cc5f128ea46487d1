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
``bisect_right`` on the sampling thresholds.  The correction compares with
each threshold minus 1 and ends on a 2^64-1 that no state passes, so a
label never walks past the last point and needs no clip.  One step is a
fixed sequence of ufunc and take calls with preallocated outputs, the
splitmix64 step inlined.  A deviation depends only on a set and its count
of 1s, so the counts at which set i stays within epsilon form one integer
band [lo_i, hi_i], and a trial exceeds epsilon when some set's final count
lies outside its band.  With rows off the walk checks every 64 levels, with
r levels left, whether each trial is settled: some count c is outside for
good (c > hi or c + r < lo), or every count is inside for good (c >= lo and
c + r <= hi); it stops once every trial is.  CSV rows need each trial's
deviation, so with rows on the walk covers every level, and each distinct
(set, count) pair gets one exact integer numerator over a common
denominator; a trial's supremum is a max over their ranks, and a
``Fraction`` is built only for the rows.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InputError, check_cap, rational_text, require_int, require_rational
from .setsystem import SetSystem, mask_of, require_mask
from .dims import _sauer_sum, thicket_dimension, thicket_shatter

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
# (trial, set) entries of one Monte Carlo audit, about 64 bytes each
DEFAULT_MC_CAP = 10 ** 6
# levels between two checks of whether a rows-off walk may stop
_SETTLE_STRIDE = 64


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
        ws = tuple(require_rational(w, "weight") for w in self.weights)
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
        size = require_int(size, "size", 1)
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
                "weights": [rational_text(w) for w in self.weights]}

    @classmethod
    def from_json_dict(cls, data):
        try:
            n = require_int(data["points"], "points")
            ws = data["weights"]
            if not isinstance(ws, list):
                raise TypeError(f"weights must be a list, got {ws!r}")
            if len(ws) != n:
                raise InputError("weight count does not match point count")
            return cls(ws)
        except (KeyError, TypeError, InputError) as exc:
            raise InputError(f"malformed probability space: {exc}") from exc


def _as_mask(members, size):
    """``members`` as a mask over [size]: an integer is read as a mask, and
    anything else as a collection of points."""
    if isinstance(members, int):
        return require_mask(members, size)
    return mask_of(members, size)


class TestTree:
    """Lazily materialized sampling tree of the given height.

    Node states chain as state(path + b) = splitmix64(state(path) ^ (b+1))
    from state('') = splitmix64(seed); the node's label is the point picked
    by its state against the space's cumulative thresholds.
    """

    def __init__(self, space: ProbSpace, height, seed):
        self.space = space
        self.height = require_int(height, "height", 1)
        self.seed = require_int(seed, "seed") & _MASK
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
        if len(path) >= self.height:
            raise InputError(f"bad node {path!r} for height {self.height}")
        path = tuple(require_int(b, "branch bit", 0, 1) for b in path)
        return bisect_right(self._thresholds, self._state(path))

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


def exact_expectation(space: ProbSpace, members, height):
    """Exact expectation of the test estimate: the measure of the queried
    set.  The path reads ``height`` independent labels, so its count of 1s
    is Bin(h, mu), mu the set's measure, whose mean over h is mu."""
    require_int(height, "height", 1)
    return space.mass(members)


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
            "empirical": rational_text(self.empirical),
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
    thresholds in one bucket, bounds the forward correction, which adds
    ``below[label] < x`` per pass.  ``below`` holds each threshold minus 1,
    so that ``<`` reads as ``<=`` on it, and then 2^64-1, which no x
    passes, so a label never walks past the last point.  (A threshold of 0
    stays 0 and is never read: it lies at or before every bucket's start.)"""
    t = np.array(thresholds, dtype=np.uint64)
    starts = np.arange(1 << _GUIDE_BITS, dtype=np.uint64) << _GUIDE_SHIFT
    guide = np.searchsorted(t, starts, side="right")
    inside = t[(t & _GUIDE_LOW) != 0] >> _GUIDE_SHIFT
    passes = int(np.bincount(inside.astype(np.intp), minlength=1).max())
    below = np.append(t - (t != 0), np.uint64(_MASK))
    return guide, below, passes


def _walk(space: ProbSpace, masks, roots, height, bands=None):
    """Walk ``height`` levels down the characteristic path of every set of
    ``masks`` in the test tree of every root state of the uint64 array
    ``roots``, all (root, set) pairs at once; entry t*m + i follows set i
    from root t.

    A step XORs ``bit + 1`` into the state, as TestTree does.  Returns each
    entry's sum of its steps, and the index of its last node's label in the
    flat step table, ``label + i * size``.  Every ufunc gets its output
    array positionally and its constants as zero-stride views, and every
    take reads int64 indices with ``mode="clip"`` (all are in range): on
    arrays of a few hundred entries each of these spares a fixed cost of
    about half a call.

    ``bands``, the int64 arrays (lo, hi) of each set's band of final counts
    of 1s, lets the walk stop early: every _SETTLE_STRIDE levels it stops
    if every root's verdict is settled (``_settled``).  The levels it did
    not walk are then summed as steps of bit 0, so each count of 1s is the
    count so far, which lies outside some band exactly when the full count
    would."""
    m, size = len(masks), space.size
    guide, below, passes = _guide_table(space.sampling_thresholds())
    steps = np.array([(mask >> x & 1) + 1 for mask in masks for x in range(size)],
                     dtype=np.uint64)
    n = len(roots) * m
    offsets = np.tile(np.arange(0, m * size, size, dtype=np.int64), len(roots))
    gamma, mix1, mix2, s30, s27, s31, shift = (
        np.broadcast_to(np.uint64(c), (n,))
        for c in (_GAMMA, _MIX1, _MIX2, 30, 27, 31, _GUIDE_SHIFT))
    states = np.repeat(roots, m)
    ones = np.zeros_like(states)
    scratch = np.empty_like(states)
    bucket = scratch.view(np.int64)  # a state's top 12 bits read alike as int64
    labels = np.empty(n, dtype=np.int64)
    passed = np.empty(n, dtype=bool)
    add, xor, rshift, mul, less = (np.add, np.bitwise_xor, np.right_shift,
                                   np.multiply, np.less)
    guide_take, below_take, steps_take = guide.take, below.take, steps.take
    for level in range(height):
        if bands is not None and level and not level % _SETTLE_STRIDE:
            counts = ones.view(np.int64).reshape(len(roots), m) - level
            if _settled(counts, height - level, *bands):
                add(ones, np.uint64(height - level), ones)
                break
        rshift(states, shift, scratch)
        guide_take(bucket, out=labels, mode="clip")
        for _ in range(passes):
            below_take(labels, out=scratch, mode="clip")
            less(scratch, states, passed)
            add(labels, passed, labels)
        add(labels, offsets, labels)
        steps_take(labels, out=scratch, mode="clip")
        add(ones, scratch, ones)
        xor(states, scratch, states)
        # splitmix64, inline
        add(states, gamma, states)
        xor(states, rshift(states, s30, scratch), states)
        mul(states, mix1, states)
        xor(states, rshift(states, s27, scratch), states)
        mul(states, mix2, states)
        xor(states, rshift(states, s31, scratch), states)
    return ones, labels


def _simulate_ones(space: ProbSpace, masks, height, trials, seed, cap=None,
                   bands=None):
    """Vectorized per-trial, per-set counts of 1s along characteristic
    paths; bit-identical to walking scalar TestTree objects.  The
    trials x max(sets, 1) working set is capped before anything is
    allocated.  With ``bands`` the walk may stop once every trial is
    settled (``_walk``), and the counts are those so far."""
    check_cap(trials * max(len(masks), 1), cap, DEFAULT_MC_CAP,
              "trials x sets entries")
    roots = np.arange(1, trials + 1, dtype=np.uint64)
    roots ^= np.uint64(splitmix64(seed & _MASK))
    scratch = np.empty_like(roots)
    _splitmix64_np(roots, scratch)  # trial_seed(seed, t)
    _splitmix64_np(roots, scratch)  # the root node's state
    ones, _ = _walk(space, masks, roots, height, bands)
    # each step added bit + 1
    ones -= np.uint64(height)
    return ones.view(np.int64).reshape(trials, len(masks))


def _numerators(masses, height):
    """The deviations |c/height - masses[i]| as exact integer numerators
    over one denominator, height * D with D the lcm of the mass
    denominators: set i at count c has the numerator |c*D - centers[i]|,
    centers[i] = masses[i] * D * height.  Returns (D, centers)."""
    scale = math.lcm(*(w.denominator for w in masses))
    return scale, [w.numerator * (scale // w.denominator) * height for w in masses]


def _bands(masses, height, eps, at_least):
    """Per set, the int64 arrays (lo, hi) of the band of counts c at which
    |c/height - mass| is below ``eps`` (``at_least``) or at most ``eps``,
    clamped to [-1, height + 1]; an empty band has lo > hi."""
    scale, centers = _numerators(masses, height)
    limit = eps * height * scale
    if at_least:
        # a numerator v is below limit iff v <= ceil(limit) - 1
        reach = -(-limit.numerator // limit.denominator) - 1
    else:
        # a numerator v is at most limit iff v <= floor(limit)
        reach = limit.numerator // limit.denominator
    lo = [max(-((reach - a) // scale), -1) for a in centers]
    hi = [min((a + reach) // scale, height + 1) for a in centers]
    return np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64)


def _outside(counts, lo, hi):
    """Per trial (row of ``counts``, trials x sets), whether some set's
    count lies outside its band [lo, hi]."""
    return ((counts < lo) | (counts > hi)).any(axis=1)


def _settled(counts, r, lo, hi):
    """Whether every trial's verdict is settled with ``r`` steps left:
    some count c is outside its band for good (c > hi or c + r < lo), or
    every count is inside for good (c >= lo and c + r <= hi)."""
    return bool((_outside(counts, lo - r, hi) | ~_outside(counts, lo, hi - r)).all())


def _ranked_deviations(counts, masses, height):
    """The deviations of the (set i, count c) pairs in ``counts`` (trials x
    sets) as ``_numerators``.  Returns the sorted distinct numerators, with
    0 among them, the denominator, and each trial's supremum as a rank into
    the numerators (rank 0 when there are no sets)."""
    scale, centers = _numerators(masses, height)
    keys, inverse = np.unique(
        (counts + np.arange(len(masses)) * (height + 1)).ravel(),
        return_inverse=True)
    numerators = [abs(c * scale - centers[i])
                  for i, c in (divmod(k, height + 1) for k in keys.tolist())]
    values = sorted(set(numerators) | {0})
    rank = {v: r for r, v in enumerate(values)}
    ranks = np.array([rank[v] for v in numerators], dtype=np.intp)
    best = ranks[inverse].reshape(counts.shape).max(axis=1, initial=0)
    return values, height * scale, best


def _report_rows(height, eps, counts, masses, exceeded):
    """One CSV row per trial: its supremum deviation as a fraction, and its
    verdict."""
    values, denominator, best = _ranked_deviations(counts, masses, height)
    text = [rational_text(Fraction(v, denominator)) for v in values]
    epsilon = str(eps)
    return [{"trial": t, "n": height, "epsilon": epsilon,
             "deviation": text[k], "exceeded": int(hit)}
            for t, (k, hit) in enumerate(zip(best.tolist(), exceeded.tolist()))]


def _binomial_slack(exceedances, trials):
    p = exceedances / trials
    return 3.0 * math.sqrt(p * (1.0 - p) / trials)


def _tail_audit(kind, space, masks, height, epsilon, trials, seed, keep_rows,
                cap, tail_bound, at_least, config):
    """The Monte Carlo audit behind ``run_weak_law`` and ``run_vc_theorem``:
    the share of ``trials`` test trees in which the supremum over ``masks``
    of |estimate - measure| is at least ``epsilon`` (``at_least``, which
    needs epsilon > 0) or exceeds it.  ``tail_bound(eps)`` returns the
    float bound that share is held to and the report's notes; ``config``
    holds the caller's extra config fields."""
    trials, height = require_int(trials, "trials", 1), require_int(height, "height", 1)
    seed = require_int(seed, "seed")
    eps = require_rational(epsilon, "epsilon")
    if eps < 0 or (at_least and eps == 0):
        raise InputError("epsilon must be > 0" if at_least else "epsilon must be >= 0")
    masses = [space.mass(m) for m in masks]
    lo, hi = _bands(masses, height, eps, at_least)
    # CSV rows need every trial's full counts: no early stop
    counts = _simulate_ones(space, masks, height, trials, seed, cap,
                            None if keep_rows else (lo, hi))
    exceeded = _outside(counts, lo, hi)
    exceed = int(np.count_nonzero(exceeded))
    rows = _report_rows(height, eps, counts, masses, exceeded) if keep_rows else []
    bound, notes = tail_bound(eps)
    slack = _binomial_slack(exceed, trials)
    empirical = Fraction(exceed, trials)
    return ExperimentReport(
        kind=kind,
        config={"n": height, "epsilon": str(eps), "trials": trials,
                "seed": seed, **config},
        trials=trials, exceedances=exceed, empirical=empirical,
        bound=bound, slack=slack,
        passed=float(empirical) <= bound + slack + FLOAT_GUARD,
        notes=notes, rows=rows)


def run_weak_law(space: ProbSpace, members, height, epsilon, trials, seed,
                 keep_rows=True, cap=None) -> ExperimentReport:
    """Monte Carlo check of the 1/(4 n eps^2) tail bound for a single set;
    ``cap`` bounds the number of trials."""
    mask = _as_mask(members, space.size)
    mu = space.mass(mask)

    def tail_bound(eps):
        bound = Fraction(1, 4 * height) / (eps * eps)
        return float(bound), {"bound_exact": rational_text(bound)}

    return _tail_audit("weak_law", space, [mask], height, epsilon, trials, seed,
                       keep_rows, cap, tail_bound, at_least=True,
                       config={"mu": rational_text(mu)})


def _thicket_shatter_estimate(system: SetSystem, height):
    """Exact rho when small enough, else the Sauer-style polynomial bound."""
    if system.universe_size <= 12 and height <= 12:
        return thicket_shatter(system, height), "exact"
    return _sauer_sum(height, thicket_dimension(system)), "bounded"


def run_vc_theorem(space: ProbSpace, system: SetSystem, height, epsilon,
                   trials, seed, keep_rows=True, cap=None) -> ExperimentReport:
    """Monte Carlo audit of the 8 rho(n) exp(-n eps^2 / 32) uniform bound;
    ``cap`` bounds trials x max(sets, 1)."""
    if system.universe_size != space.size:
        raise InputError("family universe must equal the space's points")

    def tail_bound(eps):
        rho, rho_source = _thicket_shatter_estimate(system, height)
        bound = min(1.0, 8.0 * rho * math.exp(-height * float(eps) ** 2 / 32.0))
        return bound, {"rho": rho, "rho_source": rho_source,
                       "bound_vacuous": bound >= 1.0}

    return _tail_audit("vc_theorem", space, list(system.sets), height, epsilon,
                       trials, seed, keep_rows, cap, tail_bound, at_least=False,
                       config={"sets": len(system.sets)})
