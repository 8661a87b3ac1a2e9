import json
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from polyprime import grid, intervals, verify
from polyprime.errors import BudgetExceededError, InternalInconsistencyError, InvariantViolationError
from polyprime.algebra import EngineBudgets
from polyprime.grid import enumerate_polyominoes
from polyprime.verify import (
    VerificationReport,
    VerifyConfig,
    check_report_invariants,
    report_to_json,
    sweep,
    sweep_to_json,
    verify_polyomino,
)


class TestVerifyPolyomino:
    def test_single_cell(self, cell):
        report = verify_polyomino(cell)
        assert report.simple is True
        assert report.weakly_chordal is True
        assert report.ideals_equal is True
        assert report.gap_witness is None
        assert report.error is None

    def test_annulus(self, annulus):
        report = verify_polyomino(annulus)
        assert report.simple is False
        assert report.ideals_equal is False
        assert report.gap_witness_text == "x(1,1)*x(2,2) - x(1,2)*x(2,1)"

    def test_not_weakly_chordal(self, three_six_cycles):
        report = verify_polyomino(three_six_cycles)
        assert report.simple is False
        assert report.weakly_chordal is False
        assert report.ideals_equal is False
        assert report.gap_witness_text == "x(1,3)*x(3,5) - x(1,5)*x(3,3)"

    def test_graph_and_variables_built_once(self, monkeypatch, annulus):
        # the toric stage takes the interval graph and the grid variables
        # that verify_polyomino built, instead of building its own, and the
        # inner minors' inner_intervals reads the cells, not a graph
        counts = Counter()
        for original in (intervals.build_interval_graph, grid.grid_variables):
            def counted(*args, _original=original):
                counts[_original.__name__, sys._getframe(1).f_globals["__name__"]] += 1
                return _original(*args)
            for name, module in list(sys.modules.items()):
                if name == "polyprime" or name.startswith("polyprime."):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, attr, counted)
        assert verify_polyomino(annulus).gap_witness_text == "x(1,1)*x(2,2) - x(1,2)*x(2,1)"
        assert counts == {("build_interval_graph", "polyprime.verify"): 1,
                          ("grid_variables", "polyprime.verify"): 1}

    def test_l_tromino_with_quadratic_search(self, tromino_l):
        report = verify_polyomino(tromino_l, VerifyConfig(search_quadratic=True))
        assert report.simple and report.weakly_chordal and report.ideals_equal
        assert report.quadratic_order is not None
        assert report.quadratic_order["kind"] == "degrevlex"

    def test_timings_always_kept(self, cell, annulus):
        # every stage that ran is timed; the witness stage runs only when the ideals differ
        stages = {"simple", "graph", "weakly_chordal", "gb_inner", "gb_toric", "ideal_equal"}
        assert set(verify_polyomino(cell).timings) == stages
        assert set(verify_polyomino(annulus).timings) == stages | {"witness"}
        searched = verify_polyomino(cell, VerifyConfig(search_quadratic=True))
        assert set(searched.timings) == stages | {"quadratic_order"}

    def test_budget_error_carries_partial_report(self, square2):
        config = VerifyConfig(budgets=EngineBudgets(pairs=2))
        with pytest.raises(BudgetExceededError) as err:
            verify_polyomino(square2, config)
        assert "[(0, 0)" in str(err.value)
        report = err.value.report
        assert report.error
        assert report_to_json(report)["incomplete"] is True
        # the stages that finished before the budget ran out keep their times
        assert {"simple", "graph", "weakly_chordal"} <= set(report.timings)

    def test_order_search_runs_under_the_config_budgets(self, monkeypatch, domino):
        seen = []
        search = verify.find_quadratic_order

        def spy(*args, **kwargs):
            seen.append(kwargs.get("budgets"))
            return search(*args, **kwargs)

        monkeypatch.setattr(verify, "find_quadratic_order", spy)
        budgets = EngineBudgets(pairs=99_999)
        report = verify_polyomino(domino, VerifyConfig(budgets=budgets, search_quadratic=True))
        assert report.quadratic_order is not None
        assert seen == [budgets]

    @pytest.mark.parametrize("paths", [([], False), (["a gap"], True)],
                             ids=["no-gap-not-identical", "gap-but-identical"])
    def test_disagreeing_equality_paths_raise(self, monkeypatch, annulus, paths):
        monkeypatch.setattr(verify, "ideal_equal_paths", lambda *args, **kwargs: paths)
        with pytest.raises(InternalInconsistencyError, match="paths disagree"):
            verify_polyomino(annulus)

    @pytest.mark.parametrize("shape", ["domino", "annulus"])
    def test_graph_count_disagreeing_with_identity_raises(self, monkeypatch, request, shape):
        # a simple shape with one 4-cycle too many, a holed one with only the
        # 4-cycles of its inner intervals, one per inner minor
        poly = request.getfixturevalue(shape)
        g = intervals.build_interval_graph(poly)
        real = list(verify.four_cycles(g))
        inner = set(grid.inner_intervals(poly))
        fake = real + real[:1] if shape == "domino" else [
            c for c in real if (g.label(*c[0]), g.label(*c[1])) in inner]
        assert len(fake) != len(real)
        if shape == "annulus":
            assert len(fake) == len(grid.inner_minors(poly, grid.grid_variables(poly)))
        monkeypatch.setattr(verify, "four_cycles", lambda graph: iter(fake))
        with pytest.raises(InternalInconsistencyError, match="paths disagree"):
            verify_polyomino(poly)


class TestReportInvariants:
    def test_simple_implies_rest(self):
        forged = VerificationReport(
            cells=((0, 0),), simple=True, weakly_chordal=False, ideals_equal=True)
        with pytest.raises(InvariantViolationError):
            check_report_invariants(forged)

    def test_witness_exactly_when_unequal(self):
        forged = VerificationReport(
            cells=((0, 0),), simple=False, weakly_chordal=True,
            ideals_equal=True, gap_witness="nonsense")
        with pytest.raises(InvariantViolationError):
            check_report_invariants(forged)

    def test_incomplete_reports_are_not_checked(self):
        partial = VerificationReport(
            cells=((0, 0),), simple=True, error="budget exhausted")
        check_report_invariants(partial)


class TestReportJson:
    def test_schema_fields(self, cell):
        data = report_to_json(verify_polyomino(cell))
        assert data["schema"] == "polyprime.report/1"
        assert data["cells"] == [[0, 0]]
        assert data["cell_count"] == 1
        assert data["gap_witness"] is None
        assert data["incomplete"] is False
        assert json.dumps(data)  # serializable

    def test_round_trip_stability(self, annulus):
        a = report_to_json(verify_polyomino(annulus))
        b = report_to_json(verify_polyomino(annulus))
        assert a.pop("timings").keys() == b.pop("timings").keys()
        assert a == b


class TestVerifyConfig:
    @pytest.mark.parametrize("workers", [0, -3, True, 2.5, "2", None])
    def test_workers_must_be_a_positive_int(self, workers):
        # none of these may fall back to a sequential run or fail inside the pool
        with pytest.raises(ValueError, match="workers must be an int >= 1"):
            VerifyConfig(workers=workers)

    @pytest.mark.parametrize("bad", [5, None, "no", 1])
    def test_budgets_and_search_quadratic_are_type_checked(self, bad):
        # neither may reach the engine: "no" would switch the order search on
        with pytest.raises(ValueError, match=f"budgets must be an EngineBudgets, got {bad!r}"):
            VerifyConfig(budgets=bad)
        with pytest.raises(ValueError, match=f"search_quadratic must be a bool, got {bad!r}"):
            VerifyConfig(search_quadratic=bad)


class TestSweep:
    def test_sweep3_counts(self):
        summary = sweep(3)
        assert sweep_to_json(summary)["total"] == 9
        assert summary.per_size == {
            1: {"count": 1, "simple": 1, "non_simple": 0},
            2: {"count": 2, "simple": 2, "non_simple": 0},
            3: {"count": 6, "simple": 6, "non_simple": 0},
        }
        assert summary.violations == []
        assert summary.non_simple == []
        assert len(summary.reports) == 9

    def test_sweep_json_deterministic_without_timings(self):
        a = sweep_to_json(sweep(3), with_timings=False)
        b = sweep_to_json(sweep(3), with_timings=False)
        assert a == b
        assert a["schema"] == "polyprime.sweep/1"
        assert a["wall_clock"] is None

    def test_parallel_matches_sequential(self, monkeypatch):
        seq = sweep(5)
        enumerated = []

        def recording(n):
            shapes = list(enumerate_polyominoes(n))
            enumerated.extend(shapes)
            return iter(shapes)

        monkeypatch.setattr(verify, "enumerate_polyominoes", recording)
        par = sweep(5, VerifyConfig(workers=2))
        assert len(seq.reports) == len(par.reports) == 1 + 2 + 6 + 19 + 63
        assert all(r.timings for r in seq.reports + par.reports)

        def untimed(report):
            return {k: v for k, v in report_to_json(report).items() if k != "timings"}

        assert [untimed(r) for r in seq.reports] == [untimed(r) for r in par.reports]
        # pool reports share the sweep's own enumeration's cell tuples
        assert len(enumerated) == len(par.reports)
        assert all(r.cells is p.cells_sorted for r, p in zip(par.reports, enumerated))
        assert sweep_to_json(seq, with_timings=False) == sweep_to_json(par, with_timings=False)

    def test_budget_error_identifies_polyomino(self):
        # at 20 S-pairs the monomino completes and both dominoes run out
        summary = sweep(2, VerifyConfig(budgets=EngineBudgets(pairs=20)))
        assert sweep_to_json(summary)["total"] == 3
        assert [r.error is not None for r in summary.reports] == [False, True, True]
        assert [e["cells"] for e in summary.budget_errors] == [[[0, 0], [0, 1]], [[0, 0], [1, 0]]]
        for entry, report in zip(summary.budget_errors, summary.reports[1:]):
            assert set(entry) == {"cells", "error"}
            assert entry["error"].startswith(report.error)
            assert "while verifying" in entry["error"]
        assert sweep_to_json(summary)["budget_errors"] == summary.budget_errors

    @pytest.mark.parametrize("workers", [1, 2])
    def test_reduction_step_budget_errors(self, workers):
        # one reduction step is too few for every shape, the monomino too
        summary = sweep(3, VerifyConfig(budgets=EngineBudgets(reduction_steps=1), workers=workers))
        assert len(summary.reports) == 9
        assert [e["cells"] for e in summary.budget_errors] == [
            [list(c) for c in r.cells] for r in summary.reports]
        for entry in summary.budget_errors:
            cells = [tuple(c) for c in entry["cells"]]
            assert entry["error"] == f"reduction step budget 1 exhausted while verifying {cells}"

    def test_unpooled_run_leaves_the_pool_unimported(self):
        # only a pooled sweep needs multiprocessing; the pooled tests above cover that path
        code = (f"import sys\nsys.path.insert(0, {str(Path(verify.__file__).resolve().parents[1])!r})\n"
                "import polyprime.cli\n"
                "from polyprime import parse_grid\n"
                "from polyprime.verify import verify_polyomino\n"
                "assert verify_polyomino(parse_grid('###\\n#.#\\n###')).ideals_equal is False\n"
                "print('concurrent.futures.process' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, timeout=300)
        assert done.stdout == "False\n"

    def test_budget_errors_same_on_pool_path(self):
        config = VerifyConfig(budgets=EngineBudgets(pairs=20))
        seq = sweep(2, config)
        par = sweep(2, replace(config, workers=2))
        assert par.budget_errors == seq.budget_errors
        assert [r.error for r in par.reports] == [r.error for r in seq.reports]
