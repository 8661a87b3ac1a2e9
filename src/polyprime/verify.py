"""Per-polyomino verification reports and exhaustive sweeps.

A report ties together the three checked facts: simplicity of the shape,
weak chordality of its interval graph, and equality of the inner-minor
ideal with the toric ideal. ``simple == True`` must imply the other two;
any violation aborts the run, because it means either an engine bug or a
counterexample, and both demand attention. Non-simple shapes get a gap
witness instead.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

from polyprime.algebra import (
    DEFAULT_BUDGETS,
    EngineBudgets,
    buchberger,
    find_quadratic_order,
    ideal_equal_paths,
    toric_ideal_elimination,
    witness_from_bases,
)
from polyprime.binomials import default_grid_order, render_binomial
from polyprime.errors import (
    BudgetExceededError,
    InternalInconsistencyError,
    InvariantViolationError,
)
from polyprime.graph import graph_is_connected, is_weakly_chordal
from polyprime.grid import (
    Polyomino, check_cell_count, enumerate_polyominoes, grid_variables, inner_minors, is_simple)
from polyprime.intervals import build_interval_graph

REPORT_SCHEMA = "polyprime.report/1"
SWEEP_SCHEMA = "polyprime.sweep/1"


@dataclass(frozen=True)
class VerifyConfig:
    budgets: EngineBudgets = field(default=DEFAULT_BUDGETS)
    search_quadratic: bool = False
    workers: int = 1

    def __post_init__(self):
        if not isinstance(self.budgets, EngineBudgets):
            raise ValueError(f"budgets must be an EngineBudgets, got {self.budgets!r}")
        if type(self.search_quadratic) is not bool:
            raise ValueError(f"search_quadratic must be a bool, got {self.search_quadratic!r}")
        if type(self.workers) is not int or self.workers < 1:
            raise ValueError(f"workers must be an int >= 1, got {self.workers!r}")


@dataclass
class VerificationReport:
    cells: tuple
    simple: bool = None
    weakly_chordal: bool = None
    ideals_equal: bool = None
    gap_witness: object = None
    gap_witness_text: str = None
    quadratic_order: object = None
    timings: dict = None
    error: str = None         # set only on a budget error, which leaves the report incomplete


def check_report_invariants(report):
    """Raise InvariantViolationError if the report breaks a structural invariant."""
    if report.error is not None:
        return
    if report.simple and not (report.weakly_chordal and report.ideals_equal):
        raise InvariantViolationError(
            "simple polyomino without weakly chordal graph or equal ideals: "
            + str(report_to_json(report)))
    if (report.gap_witness is None) != bool(report.ideals_equal):
        raise InvariantViolationError(
            "gap witness must be present exactly when the ideals differ: "
            + str(report_to_json(report)))


def _while_verifying(error, cells):
    return f"{error} while verifying {list(cells)}"


def verify_polyomino(poly, config=VerifyConfig()):
    """Run all checks on one polyomino and return the report.

    The report keeps the time of every stage that ran. Budget exhaustion
    raises BudgetExceededError with the partial report, its ``error`` set,
    attached as ``.report``.
    """
    timings = {}
    report = VerificationReport(cells=poly.cells_sorted, timings=timings)

    def staged(name, fn):
        t0 = time.perf_counter()
        out = fn()
        timings[name] = time.perf_counter() - t0
        return out

    try:
        report.simple = staged("simple", lambda: is_simple(poly))
        graph = staged("graph", lambda: build_interval_graph(poly))
        if not graph_is_connected(graph):
            raise InvariantViolationError(
                f"interval graph of {list(poly.cells_sorted)} is disconnected")
        report.weakly_chordal = staged("weakly_chordal", lambda: is_weakly_chordal(graph))
        gvars = grid_variables(poly)
        order = default_grid_order(gvars)
        gens = inner_minors(poly, gvars)
        gb_inner = staged("gb_inner", lambda: buchberger(gens, order, budgets=config.budgets))
        gb_toric = staged(
            "gb_toric", lambda: toric_ideal_elimination(graph, gvars, order, budgets=config.budgets))

        gaps, identity = staged(
            "ideal_equal", lambda: ideal_equal_paths(gb_inner, gb_toric, budgets=config.budgets))
        # membership says equal iff there is no gap; identity must agree
        if identity == bool(gaps):
            raise InternalInconsistencyError(
                f"ideal equality paths disagree on {list(poly.cells_sorted)}")
        report.ideals_equal = identity
        if not identity:
            report.gap_witness = staged("witness", lambda: witness_from_bases(gaps, gvars))
            report.gap_witness_text = render_binomial(report.gap_witness, gvars)
        if config.search_quadratic:
            found = staged(
                "quadratic_order",
                lambda: find_quadratic_order(gens, gvars, budgets=config.budgets, basis=gb_inner))
            report.quadratic_order = None if found is None else found.to_json(gvars)
    except BudgetExceededError as exc:
        report.error = str(exc)
        err = BudgetExceededError(_while_verifying(exc, poly.cells_sorted))
        err.report = report
        raise err from exc

    check_report_invariants(report)
    return report


def report_to_json(report):
    return {
        "schema": REPORT_SCHEMA,
        "cells": [list(c) for c in report.cells],
        "cell_count": len(report.cells),
        "simple": report.simple,
        "weakly_chordal": report.weakly_chordal,
        "ideals_equal": report.ideals_equal,
        "gap_witness": report.gap_witness_text,
        "quadratic_order": report.quadratic_order,
        "incomplete": report.error is not None,
        "error": report.error,
        "timings": report.timings,
    }


@dataclass
class SweepSummary:
    n_max: int
    per_size: dict
    non_simple: list          # [{"cells": [...], "witness": str}]
    violations: list
    budget_errors: list
    wall_clock: float
    reports: list


def _verify_or_partial(poly, config):
    """verify_polyomino, returning the incomplete report on a budget error."""
    try:
        return verify_polyomino(poly, config)
    except BudgetExceededError as exc:
        return exc.report


def _verify_shard(args):
    cells, config = args
    # the enumeration's canonical cells: checking them again in each worker finds nothing
    return _verify_or_partial(Polyomino._trusted(cells), config)


def sweep(n_max, config=VerifyConfig()):
    """Verify every fixed polyomino with up to n_max cells.

    Shards are verified independently (in parallel when config.workers > 1)
    and merged in canonical enumeration order, so the summary content is
    deterministic; only timing fields vary between runs. A shape that
    exhausts a budget keeps its incomplete report and is listed in
    ``budget_errors``; the sweep carries on.
    """
    # a bad size fails before any shape is verified, not after the sizes below it
    check_cell_count(n_max)
    t0 = time.perf_counter()
    reports = []
    per_size = {}
    non_simple = []
    # one pool for all sizes, shut down before returning so that the
    # workers' CPU time is reaped into this process's children
    pooled = config.workers > 1
    if pooled:
        # imported here: multiprocessing costs every unpooled run memory and startup time
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=config.workers) if pooled else contextlib.nullcontext() as pool:
        for n in range(1, n_max + 1):
            shapes = list(enumerate_polyominoes(n))
            if not pooled:
                size_reports = [_verify_or_partial(p, config) for p in shapes]
            else:
                chunksize = max(1, len(shapes) // (4 * config.workers))
                size_reports = list(pool.map(
                    _verify_shard, ((p.cells_sorted, config) for p in shapes), chunksize=chunksize))
                # share the enumeration's cell tuples instead of keeping unpickled copies
                for p, r in zip(shapes, size_reports):
                    r.cells = p.cells_sorted
            simple_count = sum(1 for r in size_reports if r.simple)
            per_size[n] = {
                "count": len(size_reports),
                "simple": simple_count,
                "non_simple": len(size_reports) - simple_count,
            }
            for r in size_reports:
                if not r.simple:
                    non_simple.append({"cells": [list(c) for c in r.cells], "witness": r.gap_witness_text})
            reports.extend(size_reports)
    budget_errors = [
        {"cells": [list(c) for c in r.cells], "error": _while_verifying(r.error, r.cells)}
        for r in reports if r.error is not None]
    return SweepSummary(
        n_max=n_max,
        per_size=per_size,
        non_simple=non_simple,
        violations=[],
        budget_errors=budget_errors,
        wall_clock=time.perf_counter() - t0,
        reports=reports,
    )


def sweep_to_json(summary, with_timings=True):
    return {
        "schema": SWEEP_SCHEMA,
        "n_max": summary.n_max,
        "total": len(summary.reports),
        "per_size": {str(k): v for k, v in sorted(summary.per_size.items())},
        "non_simple": summary.non_simple,
        "violations": summary.violations,
        "budget_errors": summary.budget_errors,
        "wall_clock": summary.wall_clock if with_timings else None,
    }
