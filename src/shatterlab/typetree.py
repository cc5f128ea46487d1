"""Graphs, type trees, tree rank, and clique/independent-set extraction.

A type tree is a prefix-closed labeling of binary strings by vertices where
the child direction records adjacency to the parent (condition 1) and an
ancestor's adjacency is constant across its strict descendants through a
child (condition 2).  Heights count levels: a lone root has height 1.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Collection
from dataclasses import dataclass
from math import factorial

from .errors import InputError, VerificationError, require_int, require_probability
from .setsystem import SetSystem, mask_of
from .dims import thicket_dimension, NEG_INF

__all__ = [
    "Graph",
    "TypeTree",
    "build_type_tree",
    "validate_type_tree",
    "tree_rank",
    "extract_clique_or_independent",
    "check_height_bound",
    "random_graph",
]

DEFAULT_RANK_CAP = 18


@dataclass(frozen=True)
class Graph:
    """Simple graph on vertices 0..vertex_count-1.  ``edges`` may be any
    collection of edges, each checked to be a collection of two distinct
    vertices by the element rule (``mask_of``), and is kept as a frozenset
    of frozensets.  ``_neighbors[v]`` is v's neighbour bitmask, built once,
    so adjacency is a bit test (on vertices in range only)."""
    vertex_count: int
    edges: frozenset[frozenset[int]]

    def __post_init__(self):
        n = require_int(self.vertex_count, "vertex_count", 0)
        if not isinstance(self.edges, Collection):
            raise InputError(f"edges must be a collection, got {self.edges!r}")
        masks, edges = [0] * n, set()
        for edge in self.edges:
            pair = mask_of(edge, n)
            if pair.bit_count() != 2 or len(edge) != 2:
                raise InputError(f"edge {edge!r} is not two distinct vertices")
            for x in edge:
                masks[x] |= pair ^ 1 << x
            edges.add(frozenset(edge))
        object.__setattr__(self, "edges", frozenset(edges))
        object.__setattr__(self, "_neighbors", tuple(masks))

    @classmethod
    def from_edge_list(cls, vertex_count, edge_list):
        return cls(vertex_count, edge_list)

    def adjacent(self, u, v):
        return bool(self._neighbors[u] >> v & 1)

    def neighbor_mask(self, v):
        return self._neighbors[v]

    def neighborhood_system(self) -> SetSystem:
        """Set system {N(v) : v in V} over the vertex universe."""
        return SetSystem(self.vertex_count, self._neighbors, name="neighborhoods")

    def to_json_dict(self):
        return {"vertices": self.vertex_count,
                "edges": sorted(sorted(e) for e in self.edges)}

    @classmethod
    def from_json_dict(cls, data):
        try:
            return cls.from_edge_list(data["vertices"], data["edges"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed graph object: {exc}") from exc


def random_graph(vertex_count, edge_probability, seed):
    vertex_count = require_int(vertex_count, "vertex_count", 0)
    edge_probability = require_probability(edge_probability, "edge_probability")
    rng = random.Random(require_int(seed, "seed"))
    edges = [(u, v) for u, v in itertools.combinations(range(vertex_count), 2)
             if rng.random() < edge_probability]
    return Graph.from_edge_list(vertex_count, edges)


@dataclass(frozen=True)
class TypeTree:
    """Labels: prefix-closed map from binary strings ('' is the root) to
    vertex ids, each vertex used exactly once."""

    labels: dict[str, int]

    @property
    def height(self):
        return max(len(key) for key in self.labels) + 1 if self.labels else 0

    def to_json_dict(self):
        return dict(self.labels)

    @classmethod
    def from_json_dict(cls, data):
        try:
            return cls({str(key): require_int(v, f"label of {key!r}")
                        for key, v in data.items()})
        except AttributeError as exc:
            raise InputError(f"malformed type tree: {exc}") from exc


def build_type_tree(graph: Graph, order=None) -> TypeTree:
    """Insert vertices BST-style: descend right on adjacency, left otherwise,
    occupying the first empty slot.  Both type-tree conditions hold by
    construction; the result is revalidated anyway."""
    n = graph.vertex_count
    order = list(range(n) if order is None else order)
    if len(order) != n or mask_of(order, n) != (1 << n) - 1:
        raise InputError("order must be a permutation of the vertices")
    labels = {}
    for v in order:
        key = ""
        while key in labels:
            key += "1" if graph.adjacent(v, labels[key]) else "0"
        labels[key] = v
    tree = TypeTree(labels)
    ok, violation = validate_type_tree(graph, tree)
    if not ok:
        raise VerificationError(f"built tree failed validation: {violation}")
    return tree


def validate_type_tree(graph: Graph, tree: TypeTree):
    """(True, None) or (False, description of the first violation).
    Conditions 1 and 2 are one rule: a node's vertex is adjacent to its
    ancestor at depth d iff the key turns "1" at depth d; the parent's
    depth is condition 1, shallower depths are condition 2."""
    labels = tree.labels
    if sorted(labels.values()) != list(range(graph.vertex_count)):
        return False, "labeling is not a bijection with the vertex set"
    for key, v in labels.items():
        if set(key) - {"0", "1"}:
            return False, f"bad node key {key!r}"
        for d, turn in enumerate(key):
            if key[:d] not in labels:
                return False, f"index set not prefix-closed at {key!r}"
            if graph.adjacent(labels[key[:d]], v) != (turn == "1"):
                rule = 1 if d == len(key) - 1 else 2
                marked = "adjacent" if turn == "1" else "nonadjacent"
                return False, (f"condition {rule}: {key!r} marked {marked} "
                               f"to ancestor {key[:d]!r} but is not")
    return True, None


def tree_rank(graph: Graph, cap=None):
    """Largest t admitting a full binary type tree of height t on some
    vertex subset.  Exact up to the cap (default 18 vertices); above it,
    returns (greedy lower bound, upper bound) flagged inexact."""
    n = graph.vertex_count
    if n == 0:
        raise InputError("tree rank needs at least one vertex")
    limit = DEFAULT_RANK_CAP if cap is None else require_int(cap, "cap")
    if n > limit:
        return _tree_rank_bounds(graph)
    memo = {}
    t = 1
    while _holds_full_tree(graph._neighbors, memo, (1 << n) - 1, t + 1):
        t += 1
    return t


def _holds_full_tree(neighbors, memo, pool, t):
    """Whether the vertex bitmask ``pool`` holds a full binary type tree of
    height t: some root whose non-neighbours and neighbours in the pool
    each hold one of height t - 1.  ``memo`` is keyed by (pool, t)."""
    if t <= 1:
        return pool != 0
    if pool.bit_count() < (1 << t) - 1:
        return False
    key = (pool, t)
    out = memo.get(key)
    if out is None:
        out = False
        rest = pool
        while rest:
            bit = rest & -rest
            rest ^= bit
            others = pool ^ bit
            ones = others & neighbors[bit.bit_length() - 1]
            if (_holds_full_tree(neighbors, memo, others ^ ones, t - 1)
                    and _holds_full_tree(neighbors, memo, ones, t - 1)):
                out = True
                break
        memo[key] = out
    return out


def _greedy_rank_lower_bound(graph: Graph):
    """Height of the largest full binary subtree of a built type tree; any
    full type tree of height t inside it witnesses tree rank >= t."""
    best = 1
    for seed_vertex in range(min(graph.vertex_count, 4)):
        order = ([seed_vertex]
                 + [v for v in range(graph.vertex_count) if v != seed_vertex])
        labels = build_type_tree(graph, order).labels
        best = max(best, _full_height(labels, ""))
    return best


def _full_height(labels, key):
    """Height of the full binary subtree of the index set rooted at key."""
    if key not in labels:
        return 0
    return 1 + min(_full_height(labels, key + "0"), _full_height(labels, key + "1"))


def _tree_rank_bounds(graph: Graph):
    lower = _greedy_rank_lower_bound(graph)
    k = thicket_dimension(graph.neighborhood_system())
    upper = 1 if k == NEG_INF else int(k) + 1
    # a full tree of height t needs 2^t - 1 vertices
    upper = min(upper, (graph.vertex_count + 1).bit_length() - 1)
    return {"exact": False, "lower": lower, "upper": max(lower, upper)}


def extract_clique_or_independent(tree: TypeTree):
    """From a deepest branch: right-turn ancestors plus the leaf form a
    clique, left-turn ancestors plus the leaf an independent set."""
    if not tree.labels:
        raise InputError("empty type tree")
    leaf = max(tree.labels, key=len)
    clique = {tree.labels[leaf]}
    independent = {tree.labels[leaf]}
    for depth, turn in enumerate(leaf):
        v = tree.labels[leaf[:depth]]
        (clique if turn == "1" else independent).add(v)
    return clique, independent


def check_height_bound(graph: Graph, tree: TypeTree, cap=None):
    """Exact check of (h-1)^t >= n (t-2)! for t >= 2, h >= 2t."""
    rank = tree_rank(graph, cap=cap)
    h = tree.height
    n = graph.vertex_count
    if isinstance(rank, dict):
        return {"applicable": False, "reason": "tree rank inexact above cap",
                "rank_bounds": rank, "height": h}
    if rank < 2 or h < 2 * rank:
        return {"applicable": False,
                "reason": f"hypotheses not met (t={rank}, h={h})",
                "tree_rank": rank, "height": h}
    lhs = (h - 1) ** rank
    rhs = n * factorial(rank - 2)
    return {"applicable": True, "tree_rank": rank, "height": h,
            "n": n, "lhs": lhs, "rhs": rhs, "pass": lhs >= rhs}
