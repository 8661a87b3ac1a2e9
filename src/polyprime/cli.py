"""Command-line interface.

Subcommands: parse, check-simple, graph, gens, toric, cycles, gb, verify, sweep.
Grids come from --grid (inline, with \\n escapes) or --file, as ASCII art
or as the JSON form {"cells": [[x, y], ...]}. Every algebraic output embeds
the monomial order it was computed under, so results are self-describing.

Exit codes: 0 success, 1 verification violation or exhausted budget,
2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from polyprime import algebra, grid, intervals, verify
from polyprime.binomials import default_grid_order, order_from_json, render_binomial
from polyprime.errors import (
    BudgetExceededError,
    CapExceededError,
    GridInputError,
    InternalInconsistencyError,
    InvariantViolationError,
    PolyprimeError,
)

USAGE_EXIT = 2
FAILURE_EXIT = 1


def _add_input_flags(sub):
    sub.add_argument("--grid", help='inline grid, \\n separating rows, '
                     'or the JSON object {"cells": [[x, y], ...]}')
    sub.add_argument("--file", help="path to a grid file (ASCII art or JSON)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="polyprime",
        description="Polyomino ideals: inner minors, toric ideals, and verification sweeps.")
    subs = parser.add_subparsers(dest="command", required=True)
    # each subcommand takes only the flags it reads; argparse rejects the rest
    for name in ("parse", "check-simple", "graph", "gens", "toric", "cycles", "gb", "verify", "sweep"):
        sub = subs.add_parser(name)
        if name != "sweep":
            _add_input_flags(sub)
        if name in ("toric", "gb"):
            sub.add_argument("--order", help="monomial order as JSON, e.g. "
                             '\'{"kind":"degrevlex","ranking":"row-major"}\'')
        if name in ("toric", "gb", "verify", "sweep"):
            sub.add_argument("--budget-pairs", type=int, default=algebra.DEFAULT_BUDGETS.pairs)
            sub.add_argument("--budget-elems", type=int, default=algebra.DEFAULT_BUDGETS.elements)
        if name == "cycles":
            sub.add_argument("--max-cycle-len", type=int, default=None)
        if name in ("verify", "sweep"):
            sub.add_argument("--no-timings", action="store_true")
        if name == "sweep":
            sub.add_argument("n", type=int)
        sub.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _load_polyomino(args):
    sources = [s for s in (args.grid, args.file) if s is not None]
    if len(sources) != 1:
        raise GridInputError("exactly one of --grid or --file is required")
    if args.grid is not None:
        text = args.grid.replace("\\n", "\n")
    else:
        # utf-8-sig drops a leading byte-order mark, as some editors write one
        with open(args.file, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return grid.from_json_dict(json.loads(text))
    return grid.parse_grid(text)


def _budgets(args):
    return algebra.EngineBudgets(pairs=args.budget_pairs, elements=args.budget_elems)


def _grid_order(args, variables):
    if args.order is None:
        return default_grid_order(variables)
    return order_from_json(json.loads(args.order), variables)


def _emit(args, payload_json, payload_text):
    if args.format == "json":
        print(json.dumps(payload_json, indent=2))
    else:
        print(payload_text)


def _cmd_parse(args):
    poly = _load_polyomino(args)
    _emit(args, grid.to_json_dict(poly), grid.to_text(poly))
    return 0


def _cmd_check_simple(args):
    poly = _load_polyomino(args)
    simple = grid.is_simple(poly)
    _emit(args, {"simple": simple}, "true" if simple else "false")
    return 0


def _cmd_graph(args):
    poly = _load_polyomino(args)
    g = intervals.build_interval_graph(poly)
    _emit(args, intervals.graph_to_json(g), intervals.graph_to_dot(g))
    return 0


def _cmd_gens(args):
    poly = _load_polyomino(args)
    gvars = grid.grid_variables(poly)
    rendered = [render_binomial(b, gvars) for b in grid.inner_minors(poly, gvars)]
    _emit(args, {"variables": list(gvars.names), "binomials": rendered}, "\n".join(rendered))
    return 0


def _cmd_toric(args):
    poly = _load_polyomino(args)
    gvars = grid.grid_variables(poly)
    graph = intervals.build_interval_graph(poly)
    gb = algebra.toric_ideal_elimination(graph, gvars, _grid_order(args, gvars), budgets=_budgets(args))
    payload = dict(algebra.gb_to_json(gb, gvars), oracle="elimination")
    _emit(args, payload, "\n".join(payload["elements"]))
    return 0


def _cmd_cycles(args):
    poly = _load_polyomino(args)
    gvars = grid.grid_variables(poly)
    gens = algebra.toric_ideal_cycles(poly, max_len=args.max_cycle_len, variables=gvars)
    rendered = [render_binomial(b, gvars) for b in gens]
    _emit(args, {"oracle": "cycles", "binomials": rendered}, "\n".join(rendered))
    return 0


def _cmd_gb(args):
    poly = _load_polyomino(args)
    gvars = grid.grid_variables(poly)
    order = _grid_order(args, gvars)
    gb = algebra.buchberger(grid.inner_minors(poly, gvars), order, budgets=_budgets(args))
    payload = algebra.gb_to_json(gb, gvars)
    _emit(args, payload, "\n".join(payload["elements"]))
    return 0


def _verify_config(args, search_quadratic):
    return verify.VerifyConfig(budgets=_budgets(args), search_quadratic=search_quadratic)


def _report_text(data):
    lines = []
    for key in ("simple", "weakly_chordal", "ideals_equal", "gap_witness", "quadratic_order"):
        lines.append(f"{key}: {json.dumps(data[key])}")
    return "\n".join(lines)


def _cmd_verify(args):
    poly = _load_polyomino(args)
    config = _verify_config(args, search_quadratic=True)
    report = verify.verify_polyomino(poly, config)
    data = verify.report_to_json(report)
    if args.no_timings:
        data["timings"] = None
    _emit(args, data, _report_text(data))
    return 0


def _cmd_sweep(args):
    config = _verify_config(args, search_quadratic=False)
    summary = verify.sweep(args.n, config)
    data = verify.sweep_to_json(summary, with_timings=not args.no_timings)
    text_lines = [f"polyominoes with up to {summary.n_max} cells: {len(summary.reports)}"]
    for n, row in sorted(summary.per_size.items()):
        text_lines.append(
            f"  size {n}: {row['count']} shapes, {row['simple']} simple, {row['non_simple']} non-simple")
    text_lines.append(f"violations: {len(summary.violations)}")
    _emit(args, data, "\n".join(text_lines))
    if summary.budget_errors:
        print(f"polyprime: budget exhausted on {len(summary.budget_errors)} shapes", file=sys.stderr)
        return FAILURE_EXIT
    return 0


_COMMANDS = {
    "parse": _cmd_parse,
    "check-simple": _cmd_check_simple,
    "graph": _cmd_graph,
    "gens": _cmd_gens,
    "toric": _cmd_toric,
    "cycles": _cmd_cycles,
    "gb": _cmd_gb,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (GridInputError, CapExceededError) as exc:
        print(f"polyprime: input error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (OSError, ValueError) as exc:  # a JSONDecodeError is a ValueError
        print(f"polyprime: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (InvariantViolationError, InternalInconsistencyError) as exc:
        print(f"polyprime: VIOLATION: {exc}", file=sys.stderr)
        return FAILURE_EXIT
    except BudgetExceededError as exc:
        print(f"polyprime: budget exhausted: {exc}", file=sys.stderr)
        return FAILURE_EXIT
    except PolyprimeError as exc:
        print(f"polyprime: {exc}", file=sys.stderr)
        return FAILURE_EXIT


if __name__ == "__main__":
    sys.exit(main())
