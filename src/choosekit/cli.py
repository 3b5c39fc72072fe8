"""Batch command-line front end.

Subcommands: check, decide, construct, amplify, bounds, classify, pblocked,
frontier, simulate, selftest.  All output is machine-readable (JSON lines or
CSV); identical arguments and seeds produce byte-identical output.  Exit
codes: 0 success, 1 exhausted search, out of memory or failed selftest,
2 usage error (bad arguments, an input file that cannot be read or used, or
an output file that cannot be written).  One parser with every subcommand
is built on the first call and reused by later calls in the same process;
numpy is imported only by selftest and pblocked --mc.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction

from . import amplify, bounds, checker, constructions, indepset
from .model import (
    RegimePoint,
    dump_instance,
    instance_to_dict,
    load_instance,
    read_json,
    usable_cpus,
    validate,
)

BUDGET_ENV = "CHOOSEKIT_BUDGET"


def _number_in(kind, low, high, what: str):
    """An argparse type: kind(text) in [low, high], else a usage error."""

    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


_parse_budget = _number_in(int, 0, math.inf, "a non-negative integer")
_positive_int = _number_in(int, 1, math.inf, "a positive integer")
_parse_eps = _number_in(float, 0.0, math.inf, "a non-negative number")
_parse_probability = _number_in(float, 0.0, 1.0, "a number in [0, 1]")


def _parse_sizes(text) -> tuple:
    return tuple(_positive_int(x) for x in text.split(","))


def _parse_criteria(text) -> set:
    from .acceptance import CRITERIA

    count = len(CRITERIA)
    number = _number_in(int, 1, count, f"comma-separated criterion numbers in 1-{count}")
    return {number(x) for x in text.split(",")}


def _parse_point(text) -> RegimePoint:
    parts = text.split(",")
    with contextlib.suppress(argparse.ArgumentTypeError):
        if len(parts) == 4:
            return RegimePoint(*map(_positive_int, parts))
    raise argparse.ArgumentTypeError(
        f"point must be four positive integers dA,dB,kA,kB, got {text!r}"
    )


def _emit(obj) -> None:
    """Print a dict or named tuple as one JSON line: keys in camelCase and
    sorted, and a non-finite float, which JSON cannot hold, as "inf"."""
    fields = obj._asdict() if hasattr(obj, "_asdict") else obj
    print(json.dumps({
        re.sub(r"_([a-z])", lambda m: m[1].upper(), key):
            "inf" if isinstance(v, float) and not math.isfinite(v) else v
        for key, v in fields.items()
    }, sort_keys=True))


def _valid_instance(args):
    """The instance in args.infile, or None once the invariants it breaks
    are reported as a violations JSON line (the command exits 2)."""
    inst = load_instance(args.infile)
    problems = validate(inst)
    if problems:
        _emit({"wellFormed": False, "violations": problems})
        return None
    return inst


def _cmd_check(args) -> int:
    inst = _valid_instance(args)
    if inst is None:
        return 2
    try:
        found, coloring = checker.has_proper_coloring(inst, engine=args.engine, budget=args.budget)
    except checker.SearchBudgetExceeded as exc:
        _emit({"tag": checker.EXHAUSTED, "nodesExplored": exc.nodes})
        return 1
    out = {"properColoring": found}
    if found and coloring is not None:
        out["coloring"] = [[list(k), v] for k, v in coloring.assignment]
    _emit(out)
    return 0


def _cmd_decide(args) -> int:
    verdict = checker.decide_choosable(args.point, budget=args.budget)
    out = verdict.to_dict()
    if verdict.witness is not None and args.witness_out:
        dump_instance(verdict.witness, args.witness_out)
        del out["witness"]
        out["witnessFile"] = args.witness_out
    _emit(out)
    return 1 if verdict.tag == checker.EXHAUSTED else 0


def _verify_and_emit(inst, args) -> int:
    out = {"instance": instance_to_dict(inst), "point": None}
    if inst.is_complete:
        out["point"] = list(inst.point())
    if args.out:
        dump_instance(inst, args.out)
        out["file"] = args.out
        del out["instance"]
    if args.verify:
        found, _ = checker.has_proper_coloring(inst)
        out["properColoring"] = found
    _emit(out)
    return 0


def _cmd_construct(args) -> int:
    if args.generator == "blocks":
        inst = constructions.construct_blocks(constructions.BlockSpec(args.ka, args.a))
    else:
        inst = constructions.construct_simple(args.ka, args.a_uniform, args.r)
    return _verify_and_emit(inst, args)


def _cmd_amplify(args) -> int:
    inst = _valid_instance(args)
    if inst is None:
        return 2
    return _verify_and_emit(getattr(amplify, args.kind)(inst, args.r), args)


def _cmd_bounds(args) -> int:
    k = args.k
    xb = bounds.xim_bounds(k)
    out = {
        "k": k,
        "alpha": bounds.alpha(k).alpha,
        "uStar": bounds.alpha(k).u_star,
        "ximLo": xb.lo,
        "ximLoRule": xb.lo_rule,
        "ximHi": xb.hi,
        "ximHiRule": xb.hi_rule,
    }
    if k >= 2:
        out["ximPrimeUpper"] = bounds.xim_prime_upper(k)
        out["ximPrimeLower"] = bounds.xim_prime_lower(k)
    _emit(out)
    return 0


def _cmd_classify(args) -> int:
    _emit(bounds.classify(args.point))
    return 0


def _cmd_pblocked(args) -> int:
    if args.counterexample:
        graph = indepset.counterexample_graph()
    else:
        graph = read_json(args.infile, indepset.STGraph.from_dict)
    p = indepset.p_blocked_exact(graph) if args.exact else None
    if args.mc is not None:
        _emit(indepset.p_blocked_monte_carlo(graph, args.mc, args.seed))
        return 0
    out = {"exact": f"{p.numerator}/{p.denominator}", "float": float(p)}
    if args.counterexample:
        prod = indepset.local_product_bound(graph)
        out["productBound"] = prod
        out["exceedsProductBound"] = p > Fraction(prod)
        fb = indepset.fancy_bound(graph)
        out["degreeBound"] = fb
        out["withinDegreeBound"] = float(p) <= fb
    _emit(out)
    return 0


def _frontier_row(point, budget, sweep):
    verdict = checker.decide_choosable(point, budget=budget, sweep=sweep)
    return (
        point.delta_a,
        point.delta_b,
        point.ka,
        point.kb,
        format(bounds.xi(point), ".12g"),
        verdict.tag,
        verdict.rule,
        verdict.nodes_explored,
    )


def _cmd_frontier(args) -> int:
    points = [
        RegimePoint(da, db, args.ka, args.kb)
        for da in range(1, args.max_a + 1)
        for db in range(1, args.max_b + 1)
    ]
    # opened before the sweep, so an unwritable path fails before any work
    target = open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout)
    with target as out:
        sweep = checker.Sweep(points)
        # the pool forks all its workers up front, so never more than can be
        # busy: no more than the CPUs this process may use
        workers = min(args.jobs, len(sweep.columns), usable_cpus())
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                sweep.walk(args.budget, pool.map)
        rows = [_frontier_row(point, args.budget, sweep) for point in points]
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["deltaA", "deltaB", "kA", "kB", "xi", "verdict", "rule", "nodesExplored"]
        )
        writer.writerows(rows)
    return 1 if any(r[5] == checker.EXHAUSTED for r in rows) else 0


def _cmd_simulate(args) -> int:
    inst = _valid_instance(args)
    if inst is None:
        return 2
    sim = checker.simulate_reserve_coloring(inst, args.p, args.trials, args.seed, eps=args.eps)
    _emit({**sim._asdict(), "success_rate": sim.success_rate})
    return 0


def _cmd_selftest(args) -> int:
    from .acceptance import run_criteria

    results = run_criteria(args.only)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser with every subcommand, built on first use
    and shared by every later call.  It holds nothing from the environment:
    --budget defaults to None, and main reads CHOOSEKIT_BUDGET after
    parsing, so a bad value only breaks the commands that take a budget."""
    parser = argparse.ArgumentParser(
        prog="choosekit",
        description="Exact and probabilistic tools for asymmetric list coloring "
        "of complete bipartite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True, prog="choosekit")

    p = sub.add_parser("check", help="decide whether a list assignment admits a proper coloring")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--engine", choices=("auto", "backtracking", "transversal"), default="auto")
    p.add_argument("--budget", type=_parse_budget)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("decide", help="decide choosability at a parameter point")
    p.add_argument("--point", type=_parse_point, required=True, metavar="dA,dB,kA,kB")
    p.add_argument("--budget", type=_parse_budget)
    p.add_argument("--witness-out", dest="witness_out")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("construct", help="emit an uncolorable block-construction instance")
    gen = p.add_subparsers(dest="generator", required=True)
    pb = gen.add_parser("blocks")
    pb.add_argument("--ka", type=_positive_int, required=True)
    pb.add_argument(
        "--a", type=_parse_sizes, required=True, help="comma-separated block sizes, e.g. 2,2"
    )
    pb.add_argument("--out")
    pb.add_argument("--verify", action="store_true")
    pb.set_defaults(func=_cmd_construct)
    ps = gen.add_parser("simple")
    ps.add_argument("--ka", type=_positive_int, required=True)
    ps.add_argument("--a", dest="a_uniform", type=_positive_int, required=True)
    ps.add_argument("--r", type=_positive_int, required=True)
    ps.add_argument("--out")
    ps.add_argument("--verify", action="store_true")
    ps.set_defaults(func=_cmd_construct)

    p = sub.add_parser("amplify", help="blow up or expand an instance")
    p.add_argument("--kind", choices=("blowup", "expand"), required=True)
    p.add_argument("--r", type=_positive_int, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_amplify)

    p = sub.add_parser("bounds", help="print threshold values for a list size k")
    p.add_argument("--k", type=_positive_int, required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("classify", help="sufficient-condition verdict for a parameter point")
    p.add_argument("--point", type=_parse_point, required=True, metavar="dA,dB,kA,kB")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("pblocked", help="blocking probability of an S/T graph", usage=(
        "%(prog)s [-h] (--in INFILE | --counterexample)\n" + " " * 26
        + "(--exact | --mc TRIALS) [--seed SEED]"))
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--in", dest="infile")
    src.add_argument("--counterexample", action="store_true")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--mc", type=_positive_int, metavar="TRIALS")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_pblocked)

    p = sub.add_parser("frontier", help="sweep decide over a degree grid, emit CSV")
    p.add_argument("--ka", type=_positive_int, required=True)
    p.add_argument("--kb", type=_positive_int, required=True)
    p.add_argument("--maxA", dest="max_a", type=_positive_int, required=True)
    p.add_argument("--maxB", dest="max_b", type=_positive_int, required=True)
    p.add_argument("--budget", type=_parse_budget)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_frontier)

    p = sub.add_parser("simulate", help="run the randomized reserve-coloring procedure")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--p", type=_parse_probability, required=True)
    p.add_argument("--trials", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--eps", type=_parse_eps, default=0.1)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--only", type=_parse_criteria, help="comma-separated criterion numbers")
    p.set_defaults(func=_cmd_selftest)
    # written out: Python 3.13 wraps this usage and pblocked's unlike 3.10-3.12
    indent = "\n" + " " * len("usage: choosekit ")
    parser.usage = f"%(prog)s [-h]{indent}{{{','.join(sub.choices)}}}{indent}..."
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "budget") and args.budget is None:  # no --budget flag given
        raw = os.environ.get(BUDGET_ENV)
        try:
            args.budget = _parse_budget(raw) if raw else checker.DEFAULT_NODE_BUDGET
        except argparse.ArgumentTypeError as exc:
            print(f"choosekit: error: {BUDGET_ENV} {exc}", file=sys.stderr)
            return 2
    if args.command == "pblocked" and args.mc is not None and args.seed is None:
        parser.error("--mc requires --seed")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # a bad input file or an unwritable output
        print(f"choosekit: error: {args.command}: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # a search that ran out, like an exhausted budget
        print(f"choosekit: error: {args.command}: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
