"""Command-line entry point.

Verb-noun subcommands over the library; JSON (default) or CSV payloads on
stdout, diagnostics on stderr.  Exit codes: 0 success, 1 verification
failure, 2 invalid input, 3 resource cap.  All randomness flows from
--seed; the SHATTERLAB_CAP environment variable overrides default caps.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import banseq, dims, geometry, setsystem, thicketvc, typetree
from .errors import InputError, ResourceCapError, VerificationError

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_CAP = 3


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _load_system(spec):
    """A set system from a JSON file or a generator shorthand like
    'powerset:3' or 'all_subsets_of_size_at_most:4:2'."""
    if os.path.exists(spec):
        return setsystem.SetSystem.from_json_dict(_load_json(spec))
    if ":" in spec:
        kind, *params = spec.split(":")
        return setsystem.generate(kind, *params)
    raise InputError(f"no such file or generator shorthand: {spec!r}")


def _load_problem(spec):
    if os.path.exists(spec):
        data = _load_json(spec)
        if isinstance(data, dict) and "generator" in data:
            make, params, _ = _generator_call(data)
            return make(*params)
        return banseq.BanProblem.from_json_dict(data)
    raise InputError(f"no such ban-problem file: {spec!r}")


def _generator_call(data):
    """The constructor and arguments a generator object names, and the
    (n, k, j) shape of the problem it builds."""
    try:
        gen = data["generator"]
        if gen == "parity":
            n = int(data["n"])
            make, params, shape = banseq.parity_problem, (n,), (n, 1, 2)
        elif gen == "random":
            n, k, j = int(data["n"]), int(data["k"]), int(data.get("j", 2))
            make, params, shape = banseq.random_problem, (
                n, k, j, int(data.get("seed", 0)),
                float(data.get("density", 0.5))), (n, k, j)
        elif gen == "from_vc":
            system = setsystem.SetSystem.from_json_dict(data["system"])
            m = int(data["m"])
            make, params, shape = (banseq.from_vc, (system, m),
                                   (system.universe_size, m, 2))
        else:
            raise InputError(f"unknown problem generator {gen!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed problem generator object: {exc}") from exc
    return make, params, shape


def _emit(args, payload, csv_lines=None):
    if args.quiet:
        return
    if args.format == "csv" and csv_lines is not None:
        sys.stdout.write("\n".join(csv_lines) + "\n")
    else:
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# sys commands
# ---------------------------------------------------------------------------

def cmd_sys_dim(args):
    system = _load_system(args.system)
    if args.kind == "vc":
        value = dims.vc_dimension(system, cap=args.cap)
    elif args.kind == "thicket":
        value = dims.thicket_dimension(system)
    else:
        value = dims.op_rank(system, args.s, cap=args.cap)
    _emit(args, {"kind": args.kind, "dimension": dims.rank_to_str(value)})
    return EXIT_OK


def cmd_sys_shatter(args):
    system = _load_system(args.system)
    if args.kind == "vc":
        value = dims.vc_shatter_function(system, args.n, cap=args.cap)
    elif args.kind == "thicket":
        value = dims.thicket_shatter(system, args.n)
    else:
        value = dims.op_shatter(system, args.s, args.n, cap=args.cap)
    _emit(args, {"kind": args.kind, "n": args.n, "value": value})
    return EXIT_OK


def cmd_sys_audit(args):
    system = _load_system(args.system)
    report = dims.audit_bounds(system, args.s, args.r, args.n, cap=args.cap)
    rows = report.to_json_list()
    csv_lines = ["bound,params,lhs,rhs,pass"] + [
        "{},{},{},{},{}".format(row["bound"], json.dumps(row["params"]).replace(",", ";"),
                                row["lhs"], row["rhs"], int(row["pass"]))
        for row in rows]
    _emit(args, rows, csv_lines)
    if not report.all_pass:
        for row in report.failures():
            print(f"bound failed: {row['bound']} {row['params']}", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# ban commands
# ---------------------------------------------------------------------------

def cmd_ban_solve(args):
    problem = _load_problem(args.problem)
    sols, banned = banseq.solutions(problem, cap=args.cap)
    bound = banseq.trivial_upper_bound(problem)
    if len(sols) > bound:
        print(f"solution count {len(sols)} exceeds trivial bound {bound}",
              file=sys.stderr)
        return EXIT_VERIFICATION
    payload = {"n": problem.n, "k": problem.k, "j": problem.j,
               "solutions": len(sols), "banned": banned,
               "trivial_upper_bound": bound}
    if args.list:
        payload["sequences"] = ["".join(str(v) for v in s) for s in sols]
    csv_lines = None
    if args.list:
        csv_lines = ["sequence"] + payload["sequences"]
    _emit(args, payload, csv_lines)
    return EXIT_OK


def cmd_ban_hereditary(args):
    problem = _load_problem(args.problem)
    hereditary, witness = banseq.is_hereditary(problem, cap=args.cap)
    payload = {"hereditary": hereditary}
    if witness is not None:
        payload["witness"] = {
            "S": list(witness.S),
            "assignments": {"".join(map(str, z)): "".join(map(str, x))
                            for z, x in sorted(witness.assignments.items())},
        }
    _emit(args, payload)
    return EXIT_OK


def cmd_ban_reduce(args):
    problem = _load_problem(args.problem)
    if args.which == "hat":
        reduced = banseq.reduce_hat(problem, cap=args.cap)
    else:
        reduced = banseq.reduce_prime(problem, cap=args.cap)
    _emit(args, reduced.to_json_dict())
    return EXIT_OK


def cmd_ban_maxsol(args):
    hitting = banseq.min_subcube_hitting(args.n, args.k, cap=args.cap)
    _emit(args, {"n": args.n, "k": args.k,
                 "min_hitting": hitting,
                 "max_solutions": (1 << args.n) - hitting})
    return EXIT_OK


def cmd_ban_gen(args):
    data = {"generator": args.generator, "n": args.n}
    if args.k is not None:
        data["k"] = args.k
    if args.j is not None:
        data["j"] = args.j
    data["seed"] = args.seed
    make, params, shape = _generator_call(data)
    banseq.check_table_cap(*shape, cap=args.cap)
    _emit(args, make(*params).to_json_dict())
    return EXIT_OK


# ---------------------------------------------------------------------------
# graph commands
# ---------------------------------------------------------------------------

def _load_graph(path):
    return typetree.Graph.from_json_dict(_load_json(path))


def _build_tree(args, graph):
    if args.shuffle:
        import random as _random

        order = list(range(graph.vertex_count))
        _random.Random(args.seed).shuffle(order)
    else:
        order = None
    return typetree.build_type_tree(graph, order)


def cmd_graph_typetree(args):
    graph = _load_graph(args.graph)
    tree = _build_tree(args, graph)
    _emit(args, tree.to_json_dict())
    return EXIT_OK


def cmd_graph_treerank(args):
    graph = _load_graph(args.graph)
    rank = typetree.tree_rank(graph, cap=args.cap)
    if isinstance(rank, dict):
        _emit(args, rank)
    else:
        _emit(args, {"exact": True, "tree_rank": rank})
    return EXIT_OK


def cmd_graph_extract(args):
    graph = _load_graph(args.graph)
    tree = _build_tree(args, graph)
    clique, independent = typetree.extract_clique_or_independent(tree)
    for u in clique:
        for v in clique:
            if u < v and not graph.adjacent(u, v):
                print(f"extracted clique is invalid at ({u},{v})", file=sys.stderr)
                return EXIT_VERIFICATION
    for u in independent:
        for v in independent:
            if u < v and graph.adjacent(u, v):
                print(f"extracted independent set is invalid at ({u},{v})",
                      file=sys.stderr)
                return EXIT_VERIFICATION
    _emit(args, {"height": tree.height,
                 "clique": sorted(clique),
                 "independent": sorted(independent)})
    return EXIT_OK


def cmd_graph_heightcheck(args):
    graph = _load_graph(args.graph)
    tree = _build_tree(args, graph)
    report = typetree.check_height_bound(graph, tree, cap=args.cap)
    _emit(args, report)
    if report.get("applicable") and not report["pass"]:
        print("height bound violated", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# mc commands
# ---------------------------------------------------------------------------

def _load_space(args):
    if args.space is not None:
        return thicketvc.ProbSpace.from_json_dict(_load_json(args.space))
    if args.uniform is not None:
        return thicketvc.ProbSpace.uniform(args.uniform)
    raise InputError("provide --space FILE or --uniform N")


def _parse_members(text):
    if not text:
        return ()
    return tuple(int(x) for x in text.split(","))


def _report_exit(args, report):
    _emit(args, report.to_json_dict(), report.csv_rows())
    if not report.passed:
        print("empirical exceedance rate above the theoretical bound",
              file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def _parse_epsilon(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad --epsilon {text!r}: {exc}") from exc


def cmd_mc_weaklaw(args):
    space = _load_space(args)
    members = _parse_members(args.set)
    report = thicketvc.run_weak_law(space, members, args.n,
                                    _parse_epsilon(args.epsilon), args.trials,
                                    args.seed, keep_rows=args.format == "csv")
    return _report_exit(args, report)


def cmd_mc_vcthm(args):
    space = _load_space(args)
    system = _load_system(args.system)
    report = thicketvc.run_vc_theorem(space, system, args.n,
                                      _parse_epsilon(args.epsilon), args.trials,
                                      args.seed, keep_rows=args.format == "csv")
    return _report_exit(args, report)


# ---------------------------------------------------------------------------
# geom commands
# ---------------------------------------------------------------------------

def cmd_geom_regions(args):
    _emit(args, {"r": args.r, "s": args.s,
                 "regions": geometry.region_count_general_position(args.r, args.s)})
    return EXIT_OK


def cmd_geom_cells(args):
    data = _load_json(args.lines)
    entries = (data.get("lines", data.get("halfspaces"))
               if isinstance(data, dict) else None)
    if entries is None:
        raise InputError("expected an object with a 'lines' or 'halfspaces' array")
    try:
        lines = [((Fraction(e["normal"][0]), Fraction(e["normal"][1])),
                  Fraction(e["offset"])) for e in entries]
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed line entry: {exc}") from exc
    cells = geometry.line_arrangement_cells(lines)
    _emit(args, {"lines": len(lines), "cells": cells})
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(prog="shatterlab")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--cap", type=int,
                        default=(int(os.environ["SHATTERLAB_CAP"])
                                 if os.environ.get("SHATTERLAB_CAP") else None))
    common.add_argument("--quiet", action="store_true")

    top = parser.add_subparsers(dest="noun", required=True)

    sys_p = top.add_parser("sys").add_subparsers(dest="verb", required=True)
    p = sys_p.add_parser("dim", parents=[common])
    p.add_argument("--kind", choices=("vc", "thicket", "op"), required=True)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("system")
    p.set_defaults(func=cmd_sys_dim)
    p = sys_p.add_parser("shatter", parents=[common])
    p.add_argument("--kind", choices=("vc", "thicket", "op"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("system")
    p.set_defaults(func=cmd_sys_shatter)
    p = sys_p.add_parser("audit", parents=[common])
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("system")
    p.set_defaults(func=cmd_sys_audit)

    ban_p = top.add_parser("ban").add_subparsers(dest="verb", required=True)
    p = ban_p.add_parser("solve", parents=[common])
    p.add_argument("--list", action="store_true")
    p.add_argument("problem")
    p.set_defaults(func=cmd_ban_solve)
    p = ban_p.add_parser("hereditary", parents=[common])
    p.add_argument("problem")
    p.set_defaults(func=cmd_ban_hereditary)
    p = ban_p.add_parser("reduce", parents=[common])
    p.add_argument("--which", choices=("hat", "prime"), required=True)
    p.add_argument("problem")
    p.set_defaults(func=cmd_ban_reduce)
    p = ban_p.add_parser("maxsol", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_ban_maxsol)
    p = ban_p.add_parser("gen", parents=[common])
    p.add_argument("--generator", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--j", type=int)
    p.set_defaults(func=cmd_ban_gen)

    graph_p = top.add_parser("graph").add_subparsers(dest="verb", required=True)
    for verb, func in (("typetree", cmd_graph_typetree),
                       ("treerank", cmd_graph_treerank),
                       ("extract", cmd_graph_extract),
                       ("heightcheck", cmd_graph_heightcheck)):
        p = graph_p.add_parser(verb, parents=[common])
        p.add_argument("--shuffle", action="store_true",
                       help="insert vertices in seeded random order")
        p.add_argument("graph")
        p.set_defaults(func=func)

    mc_p = top.add_parser("mc").add_subparsers(dest="verb", required=True)
    p = mc_p.add_parser("weaklaw", parents=[common])
    p.add_argument("--space")
    p.add_argument("--uniform", type=int)
    p.add_argument("--set", default="", help="comma-separated point indices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.set_defaults(func=cmd_mc_weaklaw)
    p = mc_p.add_parser("vcthm", parents=[common])
    p.add_argument("--space")
    p.add_argument("--uniform", type=int)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("system")
    p.set_defaults(func=cmd_mc_vcthm)

    geom_p = top.add_parser("geom").add_subparsers(dest="verb", required=True)
    p = geom_p.add_parser("regions", parents=[common])
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=cmd_geom_regions)
    p = geom_p.add_parser("cells", parents=[common])
    p.add_argument("lines")
    p.set_defaults(func=cmd_geom_cells)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the input-error code
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
