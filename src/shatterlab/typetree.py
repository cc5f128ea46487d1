"""Graphs, type trees, tree rank, and clique/independent-set extraction.

A type tree is a prefix-closed labeling of binary strings by vertices where
the child direction records adjacency to the parent (condition 1) and an
ancestor's adjacency is constant across its strict descendants through a
child (condition 2).  Heights count levels: a lone root has height 1.

The tree rank is one exact memoized search.  Its cap counts the search's
memo states, not vertices, since the vertex count does not predict the
cost; past the cap it raises ResourceCapError, as every exponential path
of the lab does.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Collection
from dataclasses import dataclass
from math import factorial

from .errors import (InputError, VerificationError, check_cap, reading, require_int,
                     require_ints, require_iterable, require_probability)
from .setsystem import SetSystem, mask_of

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

# Memo states of one tree-rank search.  Refusing random_graph(140, 0.3, 0),
# which needs 2.4M states, at 2^20 took 1.7-2.0 s and 182 MB peak RSS, about
# 1.8 us and 150 bytes a state (Python 3.11, 2-vCPU Xeon).  Criterion 9's
# graphs on 5-60 vertices need at most 3,471 states.
DEFAULT_RANK_CAP = 1 << 20
_RANK_STATES = "tree rank memo states"


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
        with reading("graph object"):
            return cls.from_edge_list(data["vertices"], data["edges"])


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
    vertex ids, each vertex used exactly once.  At construction ``labels``
    must be a dict whose keys are strings and whose values pass
    ``require_int``; the structure is left to ``validate_type_tree``."""

    labels: dict[str, int]

    def __post_init__(self):
        labels = self.labels
        if not isinstance(labels, dict):
            raise InputError(f"type-tree labels must be a dict, got {labels!r}")
        if set(map(type, labels)) - {str}:
            key = next(k for k in labels if type(k) is not str)
            raise InputError(f"type-tree key {key!r} is not a string")
        require_ints(labels.values, "type-tree label")

    @property
    def height(self):
        return max(len(key) for key in self.labels) + 1 if self.labels else 0

    def to_json_dict(self):
        return dict(self.labels)

    @classmethod
    def from_json_dict(cls, data):
        return cls(data)


def build_type_tree(graph: Graph, order=None) -> TypeTree:
    """Insert vertices BST-style: descend right on adjacency, left otherwise,
    occupying the first empty slot.  Both type-tree conditions hold by
    construction; the result is revalidated anyway."""
    n = graph.vertex_count
    order = list(range(n) if order is None else require_iterable(order, "vertices"))
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
    """(True, None) or (False, description of the first violation): of
    the bijection, then of the keys' shape (``_shape_violation``), then of
    the conditions.  Conditions 1 and 2 are one rule: a node's vertex is
    adjacent to its ancestor at depth d iff the key turns "1" at depth d;
    the parent's depth is condition 1, shallower depths are condition 2."""
    labels = tree.labels
    if sorted(labels.values()) != list(range(graph.vertex_count)):
        return False, "labeling is not a bijection with the vertex set"
    violation = _shape_violation(labels)
    if violation is not None:
        return False, violation
    for key, v in labels.items():
        for d, turn in enumerate(key):
            if graph.adjacent(labels[key[:d]], v) != (turn == "1"):
                rule = 1 if d == len(key) - 1 else 2
                marked = "adjacent" if turn == "1" else "nonadjacent"
                return False, (f"condition {rule}: {key!r} marked {marked} "
                               f"to ancestor {key[:d]!r} but is not")
    return True, None


def _shape_violation(labels):
    """The first key of ``labels`` that is not a binary string or whose
    parent is no key, described, or None: the structural rule of a type
    tree, the part that needs no graph."""
    for key in labels:
        if set(key) - {"0", "1"}:
            return f"bad node key {key!r}"
        if key and key[:-1] not in labels:
            return f"index set not prefix-closed at {key!r}"
    return None


def require_type_tree(graph: Graph, tree: TypeTree):
    """Refuse, as an input error, a tree that ``validate_type_tree``
    rejects."""
    valid, violation = validate_type_tree(graph, tree)
    if not valid:
        raise InputError(f"not a type tree of the graph: {violation}")


def tree_rank(graph: Graph, cap=None):
    """Largest t admitting a full binary type tree of height t on some
    vertex subset, by one exact memoized search.  ``cap`` (default
    DEFAULT_RANK_CAP) bounds the search's memo states; past it the search
    raises ResourceCapError, so a refused call has already spent up to the
    budget: no cheaper count predicts the work.  A ``cap`` that is not an
    integer is refused before any search."""
    n = graph.vertex_count
    if n == 0:
        raise InputError("tree rank needs at least one vertex")
    limit = DEFAULT_RANK_CAP if cap is None else cap
    check_cap(0, limit, None, _RANK_STATES)
    memo = {}
    t = 1
    while n >= (1 << (t + 1)) - 1 and _holds_full_tree(
            graph._neighbors, memo, limit, (1 << n) - 1, t + 1):
        t += 1
    return t


def _holds_full_tree(neighbors, memo, limit, pool, t):
    """Whether the vertex bitmask ``pool`` holds a full binary type tree of
    height t >= 2: some root whose non-neighbours and neighbours in the
    pool each hold one of height t - 1.  Callers see that the pool has at
    least the tree's 2^t - 1 vertices; so does the recursion, before it
    calls, and a tree of height 1 is any one vertex.  ``memo`` is keyed by
    (pool, t) and holds at most ``limit`` states."""
    key = (pool, t)
    out = memo.get(key)
    if out is None:
        out = False
        child = t - 1
        need = (1 << child) - 1
        rest = pool
        while rest:
            bit = rest & -rest
            rest ^= bit
            others = pool ^ bit
            ones = others & neighbors[bit.bit_length() - 1]
            zeros = others ^ ones
            if (zeros.bit_count() >= need
                    and (child == 1 or _holds_full_tree(neighbors, memo, limit, zeros, child))
                    and ones.bit_count() >= need
                    and (child == 1 or _holds_full_tree(neighbors, memo, limit, ones, child))):
                out = True
                break
        memo[key] = out
        if len(memo) > limit:
            check_cap(len(memo), limit, None, _RANK_STATES)
    return out


def extract_clique_or_independent(tree: TypeTree):
    """From a deepest branch: right-turn ancestors plus the leaf form a
    clique, left-turn ancestors plus the leaf an independent set.  A tree
    whose keys are not binary strings or not prefix-closed is refused."""
    if not tree.labels:
        raise InputError("empty type tree")
    violation = _shape_violation(tree.labels)
    if violation is not None:
        raise InputError(f"not a type tree: {violation}")
    leaf = max(tree.labels, key=len)
    clique = {tree.labels[leaf]}
    independent = {tree.labels[leaf]}
    for depth, turn in enumerate(leaf):
        v = tree.labels[leaf[:depth]]
        (clique if turn == "1" else independent).add(v)
    return clique, independent


def check_height_bound(graph: Graph, tree: TypeTree, cap=None):
    """Exact check of (h-1)^t >= n (t-2)! for t >= 2, h >= 2t; ``cap``
    bounds the tree-rank search as in ``tree_rank``.  A tree that is no
    type tree of ``graph`` is refused first (``require_type_tree``)."""
    require_type_tree(graph, tree)
    rank = tree_rank(graph, cap=cap)
    h = tree.height
    n = graph.vertex_count
    if rank < 2 or h < 2 * rank:
        return {"applicable": False,
                "reason": f"hypotheses not met (t={rank}, h={h})",
                "tree_rank": rank, "height": h}
    lhs = (h - 1) ** rank
    rhs = n * factorial(rank - 2)
    return {"applicable": True, "tree_rank": rank, "height": h,
            "n": n, "lhs": lhs, "rhs": rhs, "pass": lhs >= rhs}
