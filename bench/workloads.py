"""The benchmark's four workloads, generated from one seed.

A workload is a fixed cycle of item kinds.  Item ``i`` of a run is built
from kind ``i mod len(cycle)`` with its own ``random.Random`` derived from
(seed, i), so a run's items are a prefix of one seeded stream: the same
seed and item count give the same inputs, and every kind keeps its share of
the mix.  Input sizes are fixed per kind and only the content is drawn, so
runs on different seeds do the same amount of work.  A workload may repeat
its first ``input_cycles`` cycles instead of drawing new inputs.

An item is one user-level call.  Everything it receives is built here, in
set-up, by the benchmark's own code; the library's own constructors
(``parity_problem``, ``from_vc``, ``random_problem``, ...) run inside the
item because users pay for them on every call.  Each item carries a check
that does not trust the call it checks, and a canonical form of its result
that the runner digests and compares with the recorded reference.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from shatterlab import banseq, cli, dims, setsystem, thicketvc, typetree


def _same(result):
    return result


@dataclass
class Item:
    """``call`` is the timed user-level call; ``check`` returns None when
    its result is right, else what is wrong; ``canon`` gives the JSON form
    of the result that is digested.  ``defect`` names a known program
    defect that makes this item fail today."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    canon: Callable[[object], object] = _same
    defect: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str                  # why each workload exists: BENCHMARK.json, README.md
    item: str                  # what one item is, and its input sizes
    cycle: tuple               # kind builders: (rng, files) -> Item
    cycle_s: float             # one cycle's item time on the reference machine
    nonzero: tuple             # per-layer metrics this workload must move
    input_cycles: int = 0      # cycles with fresh inputs before they repeat; 0: never

    def cycles(self, seconds):
        """Whole cycles making about ``seconds`` of item time, and at least
        20 items so that a tail percentile exists."""
        least = math.ceil(20 / len(self.cycle))
        return max(least, round(seconds / self.cycle_s))

    def build(self, seed, count, workdir):
        files = _Files(Path(workdir))
        fresh = self.input_cycles * len(self.cycle) or count
        items = []
        for i in range(count):
            if i >= fresh:
                items.append(items[i % fresh])
                continue
            kind = self.cycle[i % len(self.cycle)]
            items.append(kind(random.Random(seed * 1_000_003 + i), files))
        return items


class _Files:
    """Input files for the CLI items, written in set-up."""

    def __init__(self, root):
        self.root = root
        self.count = 0

    def write(self, content):
        self.count += 1
        path = self.root / f"in{self.count}.json"
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        return str(path)


def _masks(rng, universe, count, density):
    return tuple(sum(1 << x for x in range(universe) if rng.random() < density)
                 for _ in range(count))


def _distinct_masks(rng, universe, count):
    return tuple(rng.sample(range(1 << universe), count))


def _solutions_canon(result):
    sols, banned = result
    return [["".join(map(str, s)) for s in sols], banned]


def _sauer(n, d):
    return sum(math.comb(n, i) for i in range(d + 1))


# ---------------------------------------------------------------------------
# ban-solve
# ---------------------------------------------------------------------------

def parity(n):
    def build(rng, files):
        def check(result):
            sols, banned = result
            if len(sols) != 1 << (n - 1) or banned != 1 << (n - 1):
                return f"{len(sols)} solutions and {banned} banned, expected 2^{n - 1} each"
            if any(sum(s) % 2 for s in sols):
                return "a solution has odd weight"
            return None

        return Item(f"parity-{n}",
                    lambda: banseq.solutions(banseq.parity_problem(n)),
                    check, _solutions_canon)
    return build


def vc_ban(n, m, sets=30):
    """from_vc on a family of sets smaller than m, so its VC dimension is
    below m by construction."""
    def build(rng, files):
        masks = tuple(sum(1 << x for x in rng.sample(range(n), rng.randrange(m)))
                      for _ in range(sets))
        system = setsystem.SetSystem(n, masks)

        def check(result):
            sols, banned = result
            found = set(sols)
            if any(tuple(mask >> p & 1 for p in range(n)) not in found for mask in masks):
                return "a family member is not a solution"
            if len(sols) + banned != 1 << n:
                return "solutions and banned do not add up to 2^n"
            # solutions have VC dimension < m, so Sauer-Shelah bounds them
            if len(sols) > _sauer(n, m - 1):
                return f"{len(sols)} solutions exceed the Sauer-Shelah bound"
            return None

        return Item(f"from_vc-{n}-{m}",
                    lambda: banseq.solutions(banseq.from_vc(system, m)),
                    check, _solutions_canon)
    return build


def _labelable_leaves(labels, s, height, sets):
    """Leaves of an element tree that some member labels properly,
    walked directly from the labels."""
    out = set()
    for leaf in itertools.product(range(1 << s), repeat=height):
        inside = outside = 0
        for depth, symbol in enumerate(leaf):
            for i, x in enumerate(labels[leaf[:depth]]):
                if symbol >> i & 1:
                    inside |= 1 << x
                else:
                    outside |= 1 << x
        if not inside & outside and any(m & inside == inside and not m & outside
                                        for m in sets):
            out.add(leaf)
    return out


def tree_ban(s, height, m, universe=6):
    """from_element_tree on fewer than 2^(s m) sets, so op_s-rank < m."""
    def build(rng, files):
        labels = {node: tuple(rng.randrange(universe) for _ in range(s))
                  for depth in range(height)
                  for node in itertools.product(range(1 << s), repeat=depth)}
        tree = dims.ElementTree(s, height, labels)
        system = setsystem.SetSystem(universe, _distinct_masks(rng, universe,
                                                               (1 << (s * m)) - 1))

        def check(result):
            sols, _ = result
            if set(sols) != _labelable_leaves(labels, s, height, system.sets):
                return "solutions differ from the properly labeled leaves"
            return None

        return Item(f"from_element_tree-s{s}-h{height}-m{m}",
                    lambda: banseq.solutions(banseq.from_element_tree(tree, system, m)),
                    check, _solutions_canon)
    return build


def counting(n, k, j):
    def build(rng, files):
        seed = rng.randrange(1 << 31)

        def check(r):
            if not r["pass"]:
                return "counting inequality failed"
            if not 0 <= r["B_f"] <= j ** n or r["rhs"] != r["B_hat"] + (j - 1) * r["B_prime"]:
                return "inconsistent counts"
            return None

        return Item(f"random-{n}-{k}-{j}",
                    lambda: banseq.check_counting_inequality(
                        banseq.random_problem(n, k, j, seed)),
                    check)
    return build


def hereditary(n, k, j):
    """An S-only ban table: ban sets depend on S alone, so no S is a
    non-hereditariness witness and is_hereditary searches all of them."""
    def build(rng, files):
        patterns = list(itertools.product(range(j), repeat=k))
        table = {}
        for S in itertools.combinations(range(n), k):
            bans = frozenset(rng.sample(patterns, 1 + rng.randrange(2)))
            for X in itertools.product(range(j), repeat=n - k):
                table[(S, X)] = bans
        bound = sum((j - 1) ** (n - i) * math.comb(n, i) for i in range(k))

        def check(r):
            if r["hereditary"] is not True:
                return "an S-only problem was reported non-hereditary"
            if not r["pass"] or r["solutions"] > bound:
                return f"{r['solutions']} solutions exceed the hereditary bound {bound}"
            return None

        return Item(f"hereditary-{n}-{k}-{j}",
                    lambda: banseq.verify_main_theorem(
                        banseq.BanProblem.from_table(n, k, j, table)),
                    check)
    return build


# ---------------------------------------------------------------------------
# set-audit
# ---------------------------------------------------------------------------

def audit(s, r, universe, sets, n):
    def build(rng, files):
        system = setsystem.SetSystem(universe, _distinct_masks(rng, universe, sets))

        def check(report):
            if not report.all_pass:
                return f"bounds failed: {[row['bound'] for row in report.failures()]}"
            return None

        return Item(f"audit-s{s}-r{r}-u{universe}",
                    lambda: dims.audit_bounds(system, s, r, n),
                    check, lambda report: report.to_json_list())
    return build


def vc(universe, sets, density=0.3):
    """VC dimension d with the shatter function at d and d+1, which must
    show a shattered d-set and no shattered (d+1)-set."""
    def build(rng, files):
        system = setsystem.SetSystem(universe, _masks(rng, universe, sets, density))

        def call():
            d = dims.vc_dimension(system)
            return [d, dims.vc_shatter_function(system, d),
                    dims.vc_shatter_function(system, min(d + 1, universe))]

        def check(result):
            d, at_d, above = result
            if at_d != 1 << d:
                return f"no shattered set of the VC dimension {d}"
            if d < universe and above >= 1 << (d + 1):
                return f"a set of size {d + 1} is shattered"
            return None

        return Item(f"vc-u{universe}", call, check)
    return build


def thicket(universe, sets, height):
    """Thicket dimension and shatter function against op_1-rank and
    op_1 shatter function, their second implementation."""
    def build(rng, files):
        system = setsystem.SetSystem(universe, _distinct_masks(rng, universe, sets))

        def call():
            return [dims.thicket_dimension(system), dims.op_rank(system, 1),
                    dims.thicket_shatter(system, height),
                    dims.op_shatter(system, 1, height)]

        def check(result):
            k, rank, rho, psi = result
            if k != rank or rho != psi:
                return f"thicket {k}/{rho} differs from op_1 {rank}/{psi}"
            if rho > _sauer(height, k):
                return "thicket shatter function above its Sauer-Shelah bound"
            return None

        return Item(f"thicket-u{universe}", call, check)
    return build


def _random_edges(rng, vertices, p=0.5):
    return [(u, v) for u, v in itertools.combinations(range(vertices), 2)
            if rng.random() < p]


def _bst_labels(order, adjacent):
    """The BST-style type tree: insert in ``order``, descending right on
    adjacency and left otherwise."""
    labels = {}
    for v in order:
        key = ""
        while key in labels:
            key += "1" if frozenset((v, labels[key])) in adjacent else "0"
        labels[key] = v
    return labels


def _greedy_full_height(vertices, edges):
    """Height of the full binary subtree at the root of the type tree built
    in vertex order; a lower bound on tree rank."""
    labels = _bst_labels(range(vertices), {frozenset(e) for e in edges})

    def full(key):
        return 0 if key not in labels else 1 + min(full(key + "0"), full(key + "1"))
    return full("")


def _brute_tree_rank(vertices, adjacent):
    """Largest t with a full type tree of height t on some vertex subset,
    by trying every root and splitting the rest by adjacency to it."""
    def full(pool, t):
        if t == 1:
            return bool(pool)
        if len(pool) < (1 << t) - 1:
            return False
        for root in pool:
            ones = {v for v in pool if frozenset((root, v)) in adjacent}
            if full(ones, t - 1) and full(pool - ones - {root}, t - 1):
                return True
        return False

    t = 1
    while full(set(range(vertices)), t + 1):
        t += 1
    return t


def type_tree(vertices):
    def build(rng, files):
        edges = _random_edges(rng, vertices)
        graph = typetree.Graph.from_edge_list(vertices, edges)
        adjacent = {frozenset(e) for e in edges}

        def call():
            tree = typetree.build_type_tree(graph)
            valid = typetree.validate_type_tree(graph, tree)
            clique, independent = typetree.extract_clique_or_independent(tree)
            return [tree.labels, list(valid), sorted(clique), sorted(independent)]

        def check(result):
            labels, valid, clique, independent = result
            if valid != [True, None] or sorted(labels.values()) != list(range(vertices)):
                return "type tree is not a valid labeling"
            if any(frozenset(p) not in adjacent for p in itertools.combinations(clique, 2)):
                return "extracted clique is not a clique"
            if any(frozenset(p) in adjacent for p in itertools.combinations(independent, 2)):
                return "extracted independent set has an edge"
            return None

        return Item(f"typetree-v{vertices}", call, check)
    return build


def tree_rank(vertices):
    def build(rng, files):
        edges = _random_edges(rng, vertices)
        graph = typetree.Graph.from_edge_list(vertices, edges)
        lower = _greedy_full_height(vertices, edges)

        def check(t):
            if not isinstance(t, int) or not lower <= t or (1 << t) - 1 > vertices:
                return f"tree rank {t} outside [{lower}, log2({vertices} + 1)]"
            return None

        return Item(f"tree_rank-v{vertices}", lambda: typetree.tree_rank(graph), check)
    return build


# ---------------------------------------------------------------------------
# mc-tail
# ---------------------------------------------------------------------------

def _space(rng, points, skewed):
    if not skewed:
        return thicketvc.ProbSpace.uniform(points)
    raw = [rng.randrange(1, 10) for _ in range(points)]
    return thicketvc.ProbSpace(tuple(Fraction(w, sum(raw)) for w in raw))


def _check_report(height, trials):
    def check(report):
        if not report.passed:
            return "empirical exceedance rate above the bound"
        if (report.trials != trials or report.config["n"] != height
                or not 0 <= report.exceedances <= trials
                or report.empirical != Fraction(report.exceedances, trials)):
            return "report does not match its configuration"
        return None
    return check


def _report_canon(report):
    return report.to_json_dict()


def vc_theorem(points, sets, height, trials, skewed):
    def build(rng, files):
        space = _space(rng, points, skewed)
        system = setsystem.SetSystem(points, _distinct_masks(rng, points, sets))
        seed = rng.randrange(1 << 31)
        return Item(f"vc_theorem-h{height}-m{sets}" + ("-skewed" if skewed else ""),
                    lambda: thicketvc.run_vc_theorem(space, system, height,
                                                     Fraction(1, 4), trials, seed,
                                                     keep_rows=False),
                    _check_report(height, trials), _report_canon)
    return build


def weak_law(points, size, height, trials, skewed):
    def build(rng, files):
        space = _space(rng, points, skewed)
        members = tuple(rng.sample(range(points), size))
        seed = rng.randrange(1 << 31)
        return Item(f"weak_law-h{height}-t{trials}" + ("-skewed" if skewed else ""),
                    lambda: thicketvc.run_weak_law(space, members, height,
                                                   Fraction(1, 4), trials, seed,
                                                   keep_rows=False),
                    _check_report(height, trials), _report_canon)
    return build


# ---------------------------------------------------------------------------
# cli-queries
# ---------------------------------------------------------------------------

MC_KEYS = {"kind", "config", "trials", "exceedances", "empirical", "bound",
           "slack", "pass", "notes"}
BAN_KEYS = {"n", "k", "j", "solutions", "banned", "trivial_upper_bound"}
TABLE_KEYS = {"n", "k", "j", "bans"}


def _cli_item(label, argv, expect, keys=None, verify=None, defect=None):
    """One in-process ``shatterlab.cli.main(argv)`` call with stdout and
    stderr captured.  The check wants the expected exit code, no traceback
    and, for exit 0, the payload key set and ``verify(payload)``."""
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(result):
        code, out, err = result
        if "Traceback" in err:
            return "traceback on stderr"
        if code != expect:
            return f"exit {code}, expected {expect}"
        if expect != 0:
            return None
        payload = json.loads(out)
        if keys is not None and set(payload) != keys:
            return f"payload keys {sorted(payload)}, expected {sorted(keys)}"
        return verify(payload) if verify else None

    return Item(label, call, check, lambda result: [result[0], result[1]], defect)


def _system_json(universe, masks):
    return {"universe": universe,
            "sets": ["".join("1" if m >> i & 1 else "0" for i in range(universe))
                     for m in masks]}


def _system_file(rng, files, universe, sets):
    return files.write(_system_json(universe, _distinct_masks(rng, universe, sets)))


def _expect(key, value):
    def verify(payload):
        return None if payload[key] == value else f"{key} = {payload[key]!r}, expected {value!r}"
    return verify


def cli_sys_dim(kind, universe, sets, s=1):
    def build(rng, files):
        path = _system_file(rng, files, universe, sets)
        return _cli_item(f"sys-dim-{kind}", ["sys", "dim", "--kind", kind, "--s", str(s), path],
                         0, {"kind", "dimension"})
    return build


def cli_sys_shatter(kind, universe, sets, n, s=1):
    def build(rng, files):
        path = _system_file(rng, files, universe, sets)
        return _cli_item(f"sys-shatter-{kind}",
                         ["sys", "shatter", "--kind", kind, "--s", str(s), "--n", str(n), path],
                         0, {"kind", "n", "value"})
    return build


def cli_sys_audit(rng, files):
    path = _system_file(rng, files, 6, 10)

    def verify(rows):
        bad = [row["bound"] for row in rows if not row["pass"]]
        return f"bounds failed: {bad}" if bad else None

    return _cli_item("sys-audit", ["sys", "audit", "--s", "2", "--r", "1", "--n", "2", path],
                     0, verify=verify)


def cli_sys_generator(rng, files):
    n = rng.randrange(4, 8)
    return _cli_item("sys-dim-intervals", ["sys", "dim", "--kind", "vc", f"intervals:{n}"],
                     0, {"kind", "dimension"}, _expect("dimension", "2"))


def cli_ban_parity(rng, files):
    n = rng.randrange(5, 9)
    path = files.write({"generator": "parity", "n": n})
    return _cli_item("ban-solve-parity", ["ban", "solve", path], 0, BAN_KEYS,
                     _expect("solutions", 1 << (n - 1)))


def _random_shorthand(rng, files, n=5, k=2):
    return files.write({"generator": "random", "n": n, "k": k, "j": 2,
                        "seed": rng.randrange(1 << 20)})


def cli_ban_list(rng, files):
    path = _random_shorthand(rng, files)
    return _cli_item("ban-solve-list", ["ban", "solve", "--list", path], 0,
                     BAN_KEYS | {"sequences"})


def _ban_table_json(rng, n, k, j, drop_x=False):
    bans = []
    patterns = ["".join(map(str, z)) for z in itertools.product(range(j), repeat=k)]
    for S in itertools.combinations(range(n), k):
        for X in itertools.product(range(j), repeat=n - k):
            entry = {"S": list(S), "X": "".join(map(str, X)),
                     "banned": rng.sample(patterns, 1 + rng.randrange(2))}
            if drop_x:
                del entry["X"]
            bans.append(entry)
    return {"n": n, "k": k, "j": j, "bans": bans}


def cli_ban_table(rng, files):
    path = files.write(_ban_table_json(rng, 4, 2, 2))
    return _cli_item("ban-solve-table", ["ban", "solve", path], 0, BAN_KEYS)


def cli_ban_hereditary_parity(rng, files):
    path = files.write({"generator": "parity", "n": rng.randrange(4, 7)})
    return _cli_item("ban-hereditary-parity", ["ban", "hereditary", path], 0,
                     verify=_keys_within({"hereditary", "witness"}))


def _keys_within(allowed):
    def verify(payload):
        return None if set(payload) <= allowed else f"unexpected keys {sorted(payload)}"
    return verify


def cli_ban_hereditary_vc(rng, files):
    n = rng.randrange(4, 7)
    masks = [0] + [1 << x for x in rng.sample(range(n), 2)]
    path = files.write({"generator": "from_vc", "m": 2, "system": _system_json(n, masks)})
    return _cli_item("ban-hereditary-from_vc", ["ban", "hereditary", path], 0,
                     {"hereditary"}, _expect("hereditary", True))


def cli_ban_reduce(which):
    def build(rng, files):
        path = _random_shorthand(rng, files)
        return _cli_item(f"ban-reduce-{which}", ["ban", "reduce", "--which", which, path],
                         0, TABLE_KEYS)
    return build


def cli_ban_maxsol(rng, files):
    n, k = rng.choice([(3, 1), (3, 2), (4, 2), (4, 3)])

    def verify(payload):
        if payload["max_solutions"] + payload["min_hitting"] != 1 << n:
            return "max_solutions + min_hitting != 2^n"
        return None

    return _cli_item("ban-maxsol", ["ban", "maxsol", "--n", str(n), "--k", str(k)], 0,
                     {"n", "k", "min_hitting", "max_solutions"}, verify)


def cli_ban_gen(rng, files):
    return _cli_item("ban-gen", ["ban", "gen", "--generator", "random", "--n", "5",
                                 "--k", "2", "--seed", str(rng.randrange(1 << 20))],
                     0, TABLE_KEYS)


def _graph(rng, files):
    vertices = rng.randrange(8, 13)
    edges = _random_edges(rng, vertices)
    return vertices, edges, files.write({"vertices": vertices, "edges": edges})


def cli_graph_typetree(rng, files):
    vertices, _, path = _graph(rng, files)

    def verify(labels):
        if sorted(labels.values()) != list(range(vertices)):
            return "labels are not a bijection onto the vertices"
        return None

    return _cli_item("graph-typetree", ["graph", "typetree", path], 0, verify=verify)


def cli_graph_treerank(rng, files):
    _, _, path = _graph(rng, files)
    return _cli_item("graph-treerank", ["graph", "treerank", path], 0,
                     {"exact", "tree_rank"}, _expect("exact", True))


def cli_graph_extract(rng, files):
    _, edges, path = _graph(rng, files)
    adjacent = {frozenset(e) for e in edges}

    def verify(payload):
        if any(frozenset(p) not in adjacent
               for p in itertools.combinations(payload["clique"], 2)):
            return "clique is not a clique"
        if any(frozenset(p) in adjacent
               for p in itertools.combinations(payload["independent"], 2)):
            return "independent set has an edge"
        return None

    return _cli_item("graph-extract", ["graph", "extract", path], 0,
                     {"height", "clique", "independent"}, verify)


def cli_graph_heightcheck(rng, files):
    """The height bound (h-1)^t >= n (t-2)! is checked on a type tree built
    in a seeded shuffled order.  The bound can fail on valid inputs, where
    the command must exit 1, so the expected exit code comes from the tree
    rank and height computed here directly."""
    vertices, edges, path = _graph(rng, files)
    seed = rng.randrange(1 << 20)
    item = _cli_item("graph-heightcheck",
                     ["graph", "heightcheck", "--shuffle", "--seed", str(seed), path], 0)

    def check(result):
        code, out, err = result
        if "Traceback" in err:
            return "traceback on stderr"
        adjacent = {frozenset(e) for e in edges}
        rank = _brute_tree_rank(vertices, adjacent)
        order = list(range(vertices))
        random.Random(seed).shuffle(order)
        height = max(map(len, _bst_labels(order, adjacent))) + 1
        applicable = rank >= 2 and height >= 2 * rank
        holds = not applicable or (height - 1) ** rank >= vertices * math.factorial(rank - 2)
        if code != (0 if holds else 1):
            return f"exit {code}, expected {0 if holds else 1}"
        payload = json.loads(out)
        if (payload["applicable"], payload["tree_rank"], payload["height"]) != (
                applicable, rank, height):
            return "applicability, tree rank or height differ from the direct computation"
        return None

    item.check = check
    return item


def _members_arg(rng, points, size):
    return ",".join(map(str, sorted(rng.sample(range(points), size))))


def cli_mc_weaklaw(rng, files):
    return _cli_item("mc-weaklaw",
                     ["mc", "weaklaw", "--uniform", "16", "--set", _members_arg(rng, 16, 4),
                      "--n", "20", "--epsilon", "1/4", "--trials", "500",
                      "--seed", str(rng.randrange(1 << 20))],
                     0, MC_KEYS, _expect("pass", True))


def cli_mc_weaklaw_space(rng, files):
    raw = [rng.randrange(1, 10) for _ in range(8)]
    path = files.write({"points": 8, "weights": [f"{w}/{sum(raw)}" for w in raw]})
    return _cli_item("mc-weaklaw-space",
                     ["mc", "weaklaw", "--space", path, "--set", _members_arg(rng, 8, 3),
                      "--n", "20", "--epsilon", "1/4", "--trials", "500",
                      "--seed", str(rng.randrange(1 << 20))],
                     0, MC_KEYS, _expect("pass", True))


def cli_mc_vcthm(rng, files):
    return _cli_item("mc-vcthm",
                     ["mc", "vcthm", "--uniform", "8", "--n", "50", "--epsilon", "3/10",
                      "--trials", "200", "--seed", str(rng.randrange(1 << 20)),
                      "thresholds:8"],
                     0, MC_KEYS, _expect("pass", True))


def cli_geom_regions(rng, files):
    r, s = rng.randrange(1, 4), rng.randrange(0, 12)
    return _cli_item("geom-regions", ["geom", "regions", "--r", str(r), "--s", str(s)],
                     0, {"r", "s", "regions"}, _expect("regions", _sauer(s, r)))


def _general_lines(rng, count):
    """Lines a x + y = c with distinct slopes and no three concurrent."""
    while True:
        lines = [(Fraction(a), Fraction(1), Fraction(rng.randrange(-50, 50), rng.randrange(1, 7)))
                 for a in rng.sample(range(-20, 20), count)]
        meets = set()
        for (a1, b1, c1), (a2, b2, c2) in itertools.combinations(lines, 2):
            det = a1 * b2 - a2 * b1
            meets.add(((c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det))
        if len(meets) == math.comb(count, 2):
            return lines


def cli_geom_cells(rng, files):
    count = rng.randrange(3, 7)
    lines = _general_lines(rng, count)
    path = files.write({"lines": [{"normal": [str(a), str(b)], "offset": str(c)}
                                  for a, b, c in lines]})
    return _cli_item("geom-cells", ["geom", "cells", path], 0, {"lines", "cells"},
                     _expect("cells", 1 + count + math.comb(count, 2)))


def _malformed(label, argv_of, defect=None):
    """An input the CLI must reject with exit code 2 and no traceback."""
    def build(rng, files):
        return _cli_item(label, argv_of(rng, files), 2, defect=defect)
    return build


def _weaklaw_argv(n="10", epsilon="1/4"):
    def argv(rng, files):
        return ["mc", "weaklaw", "--uniform", "8", "--set", _members_arg(rng, 8, 2),
                "--n", n, "--epsilon", epsilon, "--trials", "10"]
    return argv


MALFORMED = (
    _malformed("bad-set-string", lambda rng, files: [
        "sys", "dim", "--kind", "vc",
        files.write({"universe": 3, "sets": ["01", "1" * rng.randrange(4, 6)]})]),
    _malformed("missing-file", lambda rng, files: [
        "ban", "solve", str(files.root / f"missing{rng.randrange(1000)}.json")]),
    _malformed("bad-json", lambda rng, files: [
        "sys", "dim", "--kind", "vc", files.write("{\"universe\": " + "[" * rng.randrange(1, 4))]),
    _malformed("unknown-generator", lambda rng, files: [
        "sys", "dim", "--kind", "vc", f"nosuch:{rng.randrange(9)}"]),
    _malformed("bad-usage", lambda rng, files: ["sys", "dim"]),
    _malformed("self-loop", lambda rng, files: [
        "graph", "treerank", files.write({"vertices": 3, "edges": [[1, 1]]})]),
    _malformed("short-ban-table", lambda rng, files: [
        "ban", "solve",
        files.write(dict(_ban_table_json(rng, 4, 2, 2), bans=[]))]),
)

# The malformed inputs the CLI mishandles today: each raises out of main,
# which as a command exits 1 with a traceback.
KNOWN_DEFECTS = (
    _malformed("ban-entry-without-X", lambda rng, files: [
        "ban", "solve", files.write(_ban_table_json(rng, 4, 2, 2, drop_x=True))],
        defect="ban entry missing \"X\" raises KeyError"),
    _malformed("random-generator-without-n", lambda rng, files: [
        "ban", "solve", files.write({"generator": "random", "k": 2})],
        defect="{\"generator\": \"random\"} without n raises KeyError"),
    _malformed("cells-one-element-normal", lambda rng, files: [
        "geom", "cells", files.write({"lines": [{"normal": [rng.randrange(1, 5)], "offset": 0},
                                                {"normal": [1, 2], "offset": 1}]})],
        defect="geom cells with a one-element normal raises IndexError"),
    _malformed("weaklaw-epsilon-abc", _weaklaw_argv(epsilon="abc"),
               defect="mc weaklaw --epsilon abc raises ValueError"),
    _malformed("weaklaw-epsilon-0", _weaklaw_argv(epsilon="0"),
               defect="mc weaklaw --epsilon 0 raises ZeroDivisionError"),
    _malformed("weaklaw-n-0", _weaklaw_argv(n="0"),
               defect="mc weaklaw --n 0 raises ZeroDivisionError"),
    _malformed("vcthm-n-0", lambda rng, files: [
        "mc", "vcthm", "--uniform", "8", "--n", "0", "--epsilon", "1/4", "--trials", "10",
        "thresholds:8"],
        defect="mc vcthm --n 0 raises ZeroDivisionError"),
    _malformed("cells-bare-list", lambda rng, files: [
        "geom", "cells", files.write([{"normal": [1, rng.randrange(2, 5)], "offset": 0}])],
        defect="geom cells on a bare JSON list raises AttributeError"),
)


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

WORKLOADS = {w.name: w for w in (
    Workload(
        "ban-solve",
        "one ban problem built and fully enumerated: parity n=10-14, from_vc on "
        "universes 8-11 with m=2-4, from_element_tree of height 4-9 through solutions; "
        "random_problem n=5-7, k=2-3, j=2-3 through check_counting_inequality; "
        "S-only tables n=6-9 through verify_main_theorem (is_hereditary searches every S)",
        # parity(10) puts a deterministic kind at the median of the mix
        (parity(10), parity(11), parity(12), parity(13), parity(14),
         vc_ban(8, 2), vc_ban(9, 2), vc_ban(9, 3), vc_ban(10, 3), vc_ban(11, 3), vc_ban(10, 4),
         tree_ban(1, 7, 2), tree_ban(1, 8, 2), tree_ban(1, 9, 2), tree_ban(1, 9, 3),
         tree_ban(2, 4, 2), tree_ban(2, 5, 2),
         counting(5, 2, 2), counting(6, 2, 3), counting(7, 3, 2), counting(7, 2, 3),
         counting(7, 3, 3), counting(6, 3, 3), counting(6, 2, 2), counting(7, 2, 2),
         hereditary(7, 2, 3), hereditary(8, 2, 2), hereditary(8, 3, 2),
         hereditary(6, 2, 3), hereditary(7, 3, 2), hereditary(9, 2, 2)),
        3.85,
        ("banseq.self_s", "banseq.solve_s", "banseq.ban_set_calls",
         "banseq.sequences_enumerated", "banseq.table_entries",
         "banseq.ban_set_per_entry", "banseq.construct_s", "banseq.reduce_s",
         "banseq.hereditary_s", "dims.path_requirements_calls", "dims.op_rank_calls"),
    ),
    Workload(
        "set-audit",
        "one call on a seeded family or graph: audit_bounds at s, r in {1,2,3} "
        "(universe 7-8, s=3 at 5-6); vc_dimension with vc_shatter_function on "
        "universes 14-16 (20-28 sets); thicket vs op_1 identities on universes 7-8; type trees and "
        "tree_rank on 16-18 vertices",
        (audit(1, 1, 8, 24, 3), audit(1, 2, 8, 24, 3), audit(1, 3, 8, 24, 3),
         audit(2, 1, 8, 20, 3), audit(2, 2, 7, 16, 2), audit(2, 3, 7, 16, 2),
         audit(3, 1, 5, 12, 2), audit(3, 2, 6, 16, 2), audit(3, 3, 6, 12, 2),
         audit(1, 1, 7, 20, 2), audit(2, 1, 7, 20, 2), audit(2, 2, 8, 20, 2),
         audit(3, 1, 6, 16, 2), audit(3, 2, 5, 12, 2), audit(3, 3, 5, 10, 2),
         vc(14, 20), vc(15, 24), vc(16, 28),
         thicket(8, 20, 4), thicket(7, 16, 5),
         type_tree(16), type_tree(18), tree_rank(16), tree_rank(18)),
        0.426,
        ("dims.self_s", "dims.op_shatter_calls", "dims.op_shatter_s", "dims.op_rank_calls",
         "dims.op_rank_s", "dims.audit_bounds_s", "dims.thicket_s", "dims.vc_s",
         "setsystem.self_s", "setsystem.child_masks_calls", "typetree.self_s",
         "typetree.tree_rank_calls", "typetree.build_s"),
    ),
    Workload(
        "mc-tail",
        "one seeded experiment, rows off: run_vc_theorem at heights 1000-5000 with "
        "5-60 sets; run_weak_law at heights 10-50 with 1e4-4e4 trials; uniform and "
        "skewed spaces of 8-64 points",
        (vc_theorem(8, 5, 1000, 32, False), vc_theorem(12, 15, 2000, 24, True),
         vc_theorem(16, 30, 3000, 16, False), vc_theorem(16, 60, 5000, 8, True),
         vc_theorem(10, 10, 1500, 32, True), vc_theorem(14, 45, 4000, 8, False),
         weak_law(8, 3, 10, 40000, False), weak_law(16, 5, 20, 20000, True),
         weak_law(32, 10, 30, 10000, False), weak_law(64, 20, 50, 10000, True),
         weak_law(12, 4, 15, 30000, True), weak_law(24, 8, 40, 15000, False)),
        1.365,
        ("thicketvc.self_s", "thicketvc.vc_theorem_s", "thicketvc.weak_law_s",
         "thicketvc.trial_steps", "thicketvc.steps_per_s", "dims.thicket_s"),
    ),
    Workload(
        "cli-queries",
        "one in-process shatterlab.cli.main(argv) call with captured output, cycling "
        "through sys, ban, graph, mc and geom on small files, plus malformed inputs "
        "that must exit 2",
        (cli_sys_dim("vc", 8, 12), cli_sys_dim("thicket", 8, 12), cli_sys_dim("op", 6, 10, s=2),
         cli_sys_shatter("vc", 8, 12, 3), cli_sys_shatter("thicket", 8, 12, 3),
         cli_sys_shatter("op", 6, 10, 2, s=2), cli_sys_audit, cli_sys_generator,
         cli_ban_parity, cli_ban_list, cli_ban_table, cli_ban_hereditary_parity,
         cli_ban_hereditary_vc, cli_ban_reduce("hat"), cli_ban_reduce("prime"),
         cli_ban_maxsol, cli_ban_gen,
         cli_graph_typetree, cli_graph_treerank, cli_graph_extract, cli_graph_heightcheck,
         cli_mc_weaklaw, cli_mc_weaklaw_space, cli_mc_vcthm,
         cli_geom_regions, cli_geom_cells) + MALFORMED + KNOWN_DEFECTS,
        0.195,
        ("cli.calls", "cli.self_s", "cli.exit_0", "cli.exit_2", "geometry.calls",
         "geometry.self_s", "banseq.self_s", "banseq.hitting_s", "dims.self_s",
         "typetree.self_s", "typetree.build_s", "thicketvc.self_s"),
        # Calls cost mostly fixed overhead, so inputs repeat after eight
        # cycles rather than set-up writing thousands of files.
        input_cycles=8,
    ),
)}
