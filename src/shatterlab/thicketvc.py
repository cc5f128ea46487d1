"""Test trees over finite probability spaces and the Monte Carlo audits of
the weak laws and the thicket uniform-convergence bound.

Sampling is counter-based: the label of a tree node is a pure function of
(seed, node path) through a splitmix64 chain, so lazily materialized trees
are identical regardless of traversal order or worker count.  A space holds
its weights once as integer numerators over one denominator D, and masses,
sampling thresholds, bands and deviations are integer sums and products over
D; estimates and probabilities are reported as exact rationals, and only the
exp(.) bound comparison uses floats, with a 1e-12 guard.

The audits walk every (trial, set) path at once in numpy, bit-identical to
the scalar ``TestTree``.  The walk never reads a node's label, only the step
its set takes there, 1 + the set's membership bit of the label, and reads
that from one uint64 table over (set, bucket of the state's top bits): the
step at the bucket's start, and per correction pass one cut, a threshold
minus 1 at which the set's membership changes inside the bucket (else the
bucket's end).  A state past a cut takes the other step, v ^ 3, tested as
``(cut - x) >> 62``; together this equals the membership bit at
``bisect_right`` on the sampling thresholds.  The bucket bits follow the
space's points and the number of sets, so that the table stays small.  One
step is a fixed sequence of ufunc and take calls with preallocated outputs,
the splitmix64 step inlined.  A deviation depends only on a set and its
count of 1s, so the counts at which set i stays within epsilon form one
integer band [lo_i, hi_i], and a trial exceeds epsilon when some set's final
count lies outside its band.  With rows off the walk runs in blocks of 64
levels and after each checks, with r levels left, whether each trial is
settled: some count c is outside for good (c > hi or c + r < lo), or every
count is inside for good (c >= lo and c + r <= hi); it stops once every
trial is.  CSV rows need each trial's deviation, so with rows on the walk
covers every level, and each distinct (set, count) pair, found by one
``np.unique`` over the pairs' integer keys, gets one exact integer numerator
over a common denominator; a trial's supremum is a max over their ranks, and
a ``Fraction`` is built only for the rows.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, compress

import numpy as np

from .errors import (InputError, check_cap, rational_text, reading, require_int,
                     require_iterable, require_list, require_rational)
from .setsystem import SetSystem, _bit_matrix, mask_of, require_mask
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
    """Finite base set [N] with exact rational weights summing to 1.

    ``weights`` are the reduced Fractions.  The space also holds them once
    as integers over one denominator D, the lcm of the weight denominators:
    ``_denominator`` is D and ``_weight_numerators[i]`` is weight i times
    D.  Masses, sampling thresholds and the audits read these integers."""

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        ws = tuple(require_rational(w, "weight")
                   for w in require_iterable(self.weights, "weights"))
        scale = math.lcm(*(w.denominator for w in ws))
        nums = tuple(w.numerator * (scale // w.denominator) for w in ws)
        if any(v < 0 for v in nums):
            raise InputError("weights must be nonnegative")
        if sum(nums) != scale:
            raise InputError("weights must sum to exactly 1")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "_denominator", scale)
        object.__setattr__(self, "_weight_numerators", nums)

    @property
    def size(self):
        return len(self.weights)

    @classmethod
    def uniform(cls, size):
        size = require_int(size, "size", 1)
        return cls((Fraction(1, size),) * size)

    def _mass_numerator(self, mask):
        """The mass of ``mask``, a checked mask, times D."""
        return sum(compress(self._weight_numerators, map(int, bin(mask)[:1:-1])))

    def mass(self, members):
        return Fraction(self._mass_numerator(_as_mask(members, self.size)),
                        self._denominator)

    def sampling_thresholds(self):
        """T_i = floor(cumulative_i * 2^64); the draw with 64-bit value u
        lands on point bisect_right(T, u)."""
        return [min(cum * _SCALE // self._denominator, _SCALE - 1)
                for cum in accumulate(self._weight_numerators[:-1])]

    def to_json_dict(self):
        return {"points": self.size,
                "weights": [rational_text(w) for w in self.weights]}

    @classmethod
    def from_json_dict(cls, data):
        with reading("probability space"):
            n = require_int(data["points"], "points")
            ws = require_list(data["weights"], "probability-space 'weights'")
        if len(ws) != n:
            raise InputError("weight count does not match point count")
        return cls(ws)


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
        """Point index at the node; populates exactly the path's ancestors.
        A path is a sequence of branch bits."""
        try:
            deep = len(path) >= self.height
        except TypeError:
            raise InputError(f"path must be a sequence, got {path!r}") from None
        if deep:
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


def _step_table(space: ProbSpace, masks):
    """The walk's step table: uint64 rows over (set i, bucket b), entry
    i * 2^bits + b, with b a state's top ``bits`` bits (a guide table after
    Chen and Asau 1974; Devroye 1986, III.2.4): the steps, then one row per
    correction pass.  Returns (table, bits).

    Row 0 holds the step v = bit + 1, the bit being set i's membership of
    the label ``bisect_right(thresholds, x)`` at x the bucket's start.
    Each threshold strictly inside the bucket moves the label of a later x
    in it by one; row k >= 1, a correction pass, holds the cut of the k-th
    such threshold: the threshold minus 1 where set i's membership changes
    there, else the bucket's end, which no x in the bucket passes.  A
    state x past a cut takes the other step, v ^ 3; the passes are the
    most such thresholds in one bucket.  (A threshold of 0, or one at a
    bucket's start, is counted in that start's label.)  Every membership is
    read from one ``setsystem._bit_matrix`` of the sets over the points."""
    size, m = space.size, len(masks)
    # about log2(points) + 3 bucket bits, so that a small space gets a
    # small, cache-resident table; at most 12; fewer as the sets grow, so
    # that sets x buckets stays within 2^15, but not below log2(points),
    # so that a bucket holds about one threshold and the passes stay few;
    # at least 2, so that a bucket spans at most 2^62 states, as the cut
    # test needs
    least = (size - 1).bit_length()
    bits = max(2, min(12, least + 3, max(least, 15 - (max(m, 1) - 1).bit_length())))
    low = np.uint64((1 << (64 - bits)) - 1)
    t = np.array(space.sampling_thresholds(), dtype=np.uint64)
    starts = np.arange(1 << bits, dtype=np.uint64) << np.uint64(64 - bits)
    ends = starts | low
    member = _bit_matrix(masks, size)
    inside = np.flatnonzero(t & low)
    bucket = (t[inside] >> np.uint64(64 - bits)).astype(np.intp)
    # the k-th threshold inside its bucket, from 0
    nth = np.arange(len(inside)) - np.searchsorted(bucket, bucket)
    passes = int(nth.max(initial=-1)) + 1
    table = np.empty((1 + passes, m, 1 << bits), dtype=np.uint64)
    table[0] = member[:, np.searchsorted(t, starts, side="right")] + 1
    table[1:] = ends
    flips = member[:, inside] != member[:, inside + 1]
    table[1 + nth, :, bucket] = np.where(flips.T, (t[inside] - 1)[:, None],
                                         ends[bucket][:, None])
    return table.reshape(1 + passes, -1), bits


def _walk(space: ProbSpace, masks, roots, height, bands=None):
    """Walk ``height`` levels down the characteristic path of every set of
    ``masks`` in the test tree of every root state of the uint64 array
    ``roots``, all (root, set) pairs at once; entry t*m + i follows set i
    from root t.  Returns each entry's sum of its steps.

    A step XORs ``bit + 1`` into the state, as TestTree does, and the walk
    reads it from the one (set, bucket) table of ``_step_table``: the
    entry's step at its bucket's start, flipped by XOR with
    ``(cut - x) >> 62`` per correction pass, which in uint64 is 3 when the
    state x lies past the cut (both lie in one bucket, at most 2^62 wide)
    and 0 otherwise.  A level is 14 calls, 4 more per pass.  Every ufunc
    gets its output array positionally and its constants as zero-stride
    views, and every take reads int64 indices with ``mode="clip"`` (all
    are in range): on arrays of a few hundred entries each of these spares
    a fixed cost of about half a call.

    ``bands``, the int64 arrays (lo, hi) of each set's band of final counts
    of 1s, lets the walk stop early: it runs in blocks of _SETTLE_STRIDE
    levels and after each stops if every root's verdict is settled
    (``_settled``).  The levels it did not walk are then summed as steps of
    bit 0, so each count of 1s is the count so far, which lies outside some
    band exactly when the full count would."""
    m = len(masks)
    table, bits = _step_table(space, masks)
    n = len(roots) * m
    offsets = np.tile(np.arange(0, table.shape[1], 1 << bits, dtype=np.int64), len(roots))
    gamma, mix1, mix2, s30, s27, s31, shift, s62 = (
        np.broadcast_to(np.uint64(c), (n,))
        for c in (_GAMMA, _MIX1, _MIX2, 30, 27, 31, 64 - bits, 62))
    states = np.repeat(roots, m)
    ones = np.zeros_like(states)
    step = np.empty_like(states)
    scratch = np.empty_like(states)
    index = np.empty(n, dtype=np.int64)
    bucket = index.view(np.uint64)
    add, sub, xor, rshift, mul = (np.add, np.subtract, np.bitwise_xor,
                                  np.right_shift, np.multiply)
    step_take, *cut_takes = (row.take for row in table)
    stride = height if bands is None else _SETTLE_STRIDE
    for level in range(0, height, stride):
        if level:
            counts = ones.view(np.int64).reshape(len(roots), m) - level
            if _settled(counts, height - level, *bands):
                add(ones, np.uint64(height - level), ones)
                break
        for _ in range(min(stride, height - level)):
            rshift(states, shift, bucket)
            add(index, offsets, index)
            step_take(index, out=step, mode="clip")
            for cut_take in cut_takes:
                cut_take(index, out=scratch, mode="clip")
                sub(scratch, states, scratch)
                rshift(scratch, s62, scratch)
                xor(step, scratch, step)
            add(ones, step, ones)
            xor(states, step, states)
            # splitmix64, inline
            add(states, gamma, states)
            xor(states, rshift(states, s30, scratch), states)
            mul(states, mix1, states)
            xor(states, rshift(states, s27, scratch), states)
            mul(states, mix2, states)
            xor(states, rshift(states, s31, scratch), states)
    return ones


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
    ones = _walk(space, masks, roots, height, bands)
    # each step added bit + 1
    ones -= np.uint64(height)
    return ones.view(np.int64).reshape(trials, len(masks))


def _bands(centers, scale, height, eps, at_least):
    """Per set, the int64 arrays (lo, hi) of the band of counts c at which
    |c/height - mass| is below ``eps`` (``at_least``) or at most ``eps``,
    clamped to [-1, height + 1]; an empty band has lo > hi.  The deviations
    are integer numerators over height * ``scale``, D of the space: set i
    at count c has the numerator |c*D - centers[i]|, centers[i] its mass
    times D * height."""
    limit = eps * height * scale
    # an integer numerator v is below limit iff v <= ceil(limit) - 1, and
    # at most limit iff v <= floor(limit)
    reach = math.ceil(limit) - 1 if at_least else math.floor(limit)
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


def _report_rows(height, eps, counts, centers, scale, exceeded):
    """One CSV row per trial: its supremum deviation as a fraction, and its
    verdict.  Rows need a full walk, so every count in ``counts`` (trials x
    sets) lies in [0, height] and the key i * (height + 1) + c of set i at
    count c fits in int64.  Each distinct key gets the numerator of its
    deviation over height * ``scale``, read as in ``_bands``, and a trial's
    supremum is the greatest rank among its keys (rank 0, deviation 0, when
    there are no sets)."""
    keys, inverse = np.unique(
        (counts + np.arange(len(centers)) * (height + 1)).ravel(),
        return_inverse=True)
    # Python ints: c * scale may pass 2^63
    numerators = [abs(c * scale - centers[i])
                  for i, c in (divmod(k, height + 1) for k in keys.tolist())]
    values = sorted(set(numerators) | {0})
    rank = {v: r for r, v in enumerate(values)}
    ranks = np.array([rank[v] for v in numerators], dtype=np.intp)
    best = ranks[inverse].reshape(counts.shape).max(axis=1, initial=0)
    text = [rational_text(Fraction(v, height * scale)) for v in values]
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
    scale = space._denominator
    centers = [space._mass_numerator(m) * height for m in masks]
    lo, hi = _bands(centers, scale, height, eps, at_least)
    # CSV rows need every trial's full counts: no early stop
    counts = _simulate_ones(space, masks, height, trials, seed, cap,
                            None if keep_rows else (lo, hi))
    exceeded = _outside(counts, lo, hi)
    exceed = int(np.count_nonzero(exceeded))
    rows = (_report_rows(height, eps, counts, centers, scale, exceeded)
            if keep_rows else [])
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
