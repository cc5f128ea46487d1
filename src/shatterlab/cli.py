"""Command-line entry point.

Verb-noun subcommands over the library; JSON (default) or CSV payloads on
stdout, diagnostics on stderr.  Exit codes: 0 success, 1 verification
failure, 2 invalid input, 3 resource cap.  All randomness flows from
--seed; the SHATTERLAB_CAP environment variable overrides default caps.

A call ``NOUN VERB ARGS...`` is parsed by the verb's own parser on ARGS
alone: the top and noun parsers only pick the next parser, and skipping
them saves about two thirds of each parse.  Every other argv, and any
whose ARGS the verb's parser leaves unrecognized, goes through the full
parser tree, so help, usage and error messages read as before.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import random
import sys

from . import banseq, dims, geometry, setsystem, thicketvc, typetree
from .errors import InputError, ResourceCapError, VerificationError, check_cap

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_CAP = 3

_LOG10_2 = math.log10(2)


def _finite_float(text):
    """A JSON number or constant (``NaN``, ``Infinity``) as a float,
    refused unless finite: 1e400 overflows to infinity."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=_finite_float, parse_float=_finite_float)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # non-finite numbers, bytes that are not UTF-8, integers longer
        # than int() converts, and nesting deeper than the decoder recurses
        raise InputError(f"{path}: {exc}") from exc


def _load_system(spec, cap):
    """A set system from a JSON file or a generator shorthand like
    'powerset:3' or 'all_subsets_of_size_at_most:4:2'; ``cap`` bounds the
    shorthands that walk all 2^n masks."""
    if os.path.exists(spec):
        return setsystem.SetSystem.from_json_dict(_load_json(spec))
    if ":" in spec:
        kind, *fields = spec.split(":")
        try:
            params = [int(field) for field in fields]
        except ValueError as exc:
            raise InputError(f"bad generator shorthand {spec!r}: {exc}") from exc
        return setsystem.generate(kind, *params, cap=cap)
    raise InputError(f"no such file or generator shorthand: {spec!r}")


def _load_problem(spec, cap=None):
    if os.path.exists(spec):
        data = _load_json(spec)
        if isinstance(data, dict) and "generator" in data:
            return _generated_problem(data, cap)
        return banseq.BanProblem.from_json_dict(data)
    raise InputError(f"no such ban-problem file: {spec!r}")


def _generated_problem(data, cap):
    """The problem a generator object names.  ``random_problem`` and
    ``from_vc`` check the tables they build at once against ``cap``;
    parity stays lazy until a whole-table verb fills it under the same
    cap."""
    try:
        gen = data["generator"]
        if gen == "parity":
            return banseq.parity_problem(data["n"])
        if gen == "random":
            return banseq.random_problem(data["n"], data["k"], data.get("j", 2),
                                         data.get("seed", 0), data.get("density", 0.5),
                                         cap=cap)
        if gen == "from_vc":
            return banseq.from_vc(setsystem.SetSystem.from_json_dict(data["system"]),
                                  data["m"], cap=cap)
    except KeyError as exc:
        raise InputError(f"malformed problem generator object: {exc}") from exc
    raise InputError(f"unknown problem generator {gen!r}")


def _digits(value):
    """Decimal digits of the int ``value``, from its bit length b rather
    than a conversion: floor(b·log10(2)) is the digit count or one less."""
    magnitude = abs(value) or 1
    estimate = int(magnitude.bit_length() * _LOG10_2)
    return estimate + (magnitude >= 10 ** estimate)


def _longest_int(value):
    """The most decimal digits of an int in the JSON-like ``value``."""
    if isinstance(value, int):
        return _digits(value)
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        return 0
    return max(map(_longest_int, value), default=0)


def _emit(args, payload, csv_lines=None):
    """Write ``payload`` as JSON, or in CSV mode ``csv_lines`` when given
    (any iterable of lines, read here).  An int in ``payload`` with more
    decimal digits than the cap (``--cap``, else the interpreter's limit on
    int-to-str conversion) is a ResourceCapError, and nothing is written."""
    if args.quiet:
        return
    default = sys.get_int_max_str_digits()
    if args.cap is not None:
        check_cap(_longest_int(payload), args.cap, default, "output integer digits")
        sys.set_int_max_str_digits(0)
    try:
        if args.format == "csv" and csv_lines is not None:
            text = "\n".join(csv_lines) + "\n"
        else:
            text = json.dumps(payload, sort_keys=True) + "\n"
    except ValueError:
        # the conversion refused an int longer than the interpreter's limit
        check_cap(_longest_int(payload), None, default, "output integer digits")
        raise
    finally:
        sys.set_int_max_str_digits(default)
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# sys commands
# ---------------------------------------------------------------------------

def cmd_sys_dim(args):
    system = _load_system(args.system, args.cap)
    if args.kind == "vc":
        value = dims.vc_dimension(system, cap=args.cap)
    elif args.kind == "thicket":
        value = dims.thicket_dimension(system)
    else:
        value = dims.op_rank(system, args.s, cap=args.cap)
    _emit(args, {"kind": args.kind, "dimension": dims.rank_to_str(value)})
    return EXIT_OK


def cmd_sys_shatter(args):
    system = _load_system(args.system, args.cap)
    if args.kind == "vc":
        value = dims.vc_shatter_function(system, args.n, cap=args.cap)
    elif args.kind == "thicket":
        value = dims.thicket_shatter(system, args.n)
    else:
        value = dims.op_shatter(system, args.s, args.n, cap=args.cap)
    _emit(args, {"kind": args.kind, "n": args.n, "value": value})
    return EXIT_OK


def cmd_sys_audit(args):
    system = _load_system(args.system, args.cap)
    report = dims.audit_bounds(system, args.s, args.r, args.n, cap=args.cap)
    rows = report.to_json_list()
    csv_lines = itertools.chain(["bound,params,lhs,rhs,pass"], (
        "{},{},{},{},{}".format(row["bound"], json.dumps(row["params"]).replace(",", ";"),
                                row["lhs"], row["rhs"], int(row["pass"]))
        for row in rows))
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
    problem = _load_problem(args.problem, args.cap)
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
    problem = _load_problem(args.problem, args.cap)
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
    problem = _load_problem(args.problem, args.cap)
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
    _emit(args, _generated_problem(data, args.cap).to_json_dict(cap=args.cap))
    return EXIT_OK


# ---------------------------------------------------------------------------
# graph commands
# ---------------------------------------------------------------------------

def _load_graph(path):
    return typetree.Graph.from_json_dict(_load_json(path))


def _build_tree(args, graph):
    if args.shuffle:
        order = list(range(graph.vertex_count))
        random.Random(args.seed).shuffle(order)
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
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad --set {text!r}: {exc}") from exc


def _report_exit(args, report):
    _emit(args, report.to_json_dict(), report.csv_rows())
    if not report.passed:
        print("empirical exceedance rate above the theoretical bound",
              file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_mc_weaklaw(args):
    space = _load_space(args)
    members = _parse_members(args.set)
    report = thicketvc.run_weak_law(space, members, args.n,
                                    args.epsilon, args.trials,
                                    args.seed, keep_rows=args.format == "csv",
                                    cap=args.cap)
    return _report_exit(args, report)


def cmd_mc_vcthm(args):
    space = _load_space(args)
    system = _load_system(args.system, args.cap)
    report = thicketvc.run_vc_theorem(space, system, args.n,
                                      args.epsilon, args.trials,
                                      args.seed, keep_rows=args.format == "csv",
                                      cap=args.cap)
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
    lines = geometry.PointArrangement.from_json_dict({"r": 2, "halfspaces": entries}).halfspaces
    _emit(args, {"lines": len(lines), "cells": geometry.line_arrangement_cells(lines)})
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

@functools.cache
def build_parser():
    """The argument parser, built once per process and shared by every
    ``main`` call; it reads nothing at run time.  It nests three levels:
    the top parser picks a noun parser, which picks a verb parser, the leaf
    that holds the verb's options.  ``parser.leaves`` maps each (noun, verb)
    to its leaf, so that ``main`` can hand an argv's tail straight to it."""
    parser = argparse.ArgumentParser(prog="shatterlab")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--cap", type=int)
    common.add_argument("--quiet", action="store_true")

    top = parser.add_subparsers(dest="noun", required=True)
    nouns = {}

    def verbs(noun):
        nouns[noun] = top.add_parser(noun).add_subparsers(dest="verb", required=True)
        return nouns[noun]

    sys_p = verbs("sys")
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

    ban_p = verbs("ban")
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

    graph_p = verbs("graph")
    for verb, func in (("typetree", cmd_graph_typetree),
                       ("treerank", cmd_graph_treerank),
                       ("extract", cmd_graph_extract),
                       ("heightcheck", cmd_graph_heightcheck)):
        p = graph_p.add_parser(verb, parents=[common])
        p.add_argument("--shuffle", action="store_true",
                       help="insert vertices in seeded random order")
        p.add_argument("graph")
        p.set_defaults(func=func)

    mc_common = argparse.ArgumentParser(add_help=False, parents=[common])
    mc_common.add_argument("--space")
    mc_common.add_argument("--uniform", type=int)
    mc_common.add_argument("--n", type=int, required=True)
    mc_common.add_argument("--epsilon", required=True)
    mc_common.add_argument("--trials", type=int, required=True)
    mc_p = verbs("mc")
    p = mc_p.add_parser("weaklaw", parents=[mc_common])
    p.add_argument("--set", default="", help="comma-separated point indices")
    p.set_defaults(func=cmd_mc_weaklaw)
    p = mc_p.add_parser("vcthm", parents=[mc_common])
    p.add_argument("system")
    p.set_defaults(func=cmd_mc_vcthm)

    geom_p = verbs("geom")
    p = geom_p.add_parser("regions", parents=[common])
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=cmd_geom_regions)
    p = geom_p.add_parser("cells", parents=[common])
    p.add_argument("lines")
    p.set_defaults(func=cmd_geom_cells)

    parser.leaves = {(noun, verb): leaf for noun, action in nouns.items()
                     for verb, leaf in action.choices.items()}
    return parser


def _env_cap():
    """The SHATTERLAB_CAP override of the default caps; None when unset."""
    text = os.environ.get("SHATTERLAB_CAP")
    try:
        return int(text) if text else None
    except ValueError:
        raise InputError(f"SHATTERLAB_CAP must be an integer, got {text!r}") from None


def _parse(argv):
    """``argv`` parsed as the nested parser would.  An argv that starts
    with a noun and one of its verbs is parsed by that verb's parser alone;
    any other argv, or one that leaves arguments unrecognized, goes through
    the nested parser, whose help, usage and error texts stay in force."""
    parser = build_parser()
    leaf = parser.leaves.get(tuple(argv[:2]))
    if leaf is not None:
        args, extra = leaf.parse_known_args(argv[2:])
        if not extra:
            args.noun, args.verb = argv[:2]
            return args
    return parser.parse_args(argv)


def main(argv=None):
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the input-error code
        return int(exc.code) if exc.code else EXIT_OK
    try:
        if args.cap is None:
            args.cap = _env_cap()
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
