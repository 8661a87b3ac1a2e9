import json
from dataclasses import replace

import pytest

from polyprime import verify
from polyprime.errors import BudgetExceededError, InvariantViolationError
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
        assert report.incomplete is False

    def test_annulus(self, annulus):
        report = verify_polyomino(annulus)
        assert report.simple is False
        assert report.ideals_equal is False
        assert report.gap_witness_text == "x(1,1)*x(2,2) - x(1,2)*x(2,1)"

    def test_l_tromino_with_quadratic_search(self, tromino_l):
        report = verify_polyomino(tromino_l, VerifyConfig(search_quadratic=True))
        assert report.simple and report.weakly_chordal and report.ideals_equal
        assert report.quadratic_order is not None
        assert report.quadratic_order["kind"] == "degrevlex"

    def test_timings_optional(self, cell):
        with_timings = verify_polyomino(cell, VerifyConfig(collect_timings=True))
        without = verify_polyomino(cell, VerifyConfig(collect_timings=False))
        assert set(with_timings.timings) >= {"simple", "graph", "weakly_chordal", "gb_inner"}
        assert without.timings is None

    def test_budget_error_carries_partial_report(self, square2):
        config = VerifyConfig(budgets=EngineBudgets(pairs=2))
        with pytest.raises(BudgetExceededError) as err:
            verify_polyomino(square2, config)
        assert "[(0, 0)" in str(err.value)
        report = err.value.report
        assert report.incomplete is True
        assert report.error

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


class TestReportInvariants:
    def test_simple_implies_rest(self):
        forged = VerificationReport(
            cells=((0, 0),), cell_count=1, simple=True, weakly_chordal=False, ideals_equal=True)
        with pytest.raises(InvariantViolationError):
            check_report_invariants(forged)

    def test_witness_exactly_when_unequal(self):
        forged = VerificationReport(
            cells=((0, 0),), cell_count=1, simple=False, weakly_chordal=True,
            ideals_equal=True, gap_witness="nonsense")
        with pytest.raises(InvariantViolationError):
            check_report_invariants(forged)

    def test_incomplete_reports_are_not_checked(self):
        partial = VerificationReport(
            cells=((0, 0),), cell_count=1, simple=True, incomplete=True)
        check_report_invariants(partial)


class TestReportJson:
    def test_schema_fields(self, cell):
        data = report_to_json(verify_polyomino(cell))
        assert data["schema"] == "polyprime.report/1"
        assert data["cells"] == [[0, 0]]
        assert data["cell_count"] == 1
        assert data["gap_witness"] is None
        assert json.dumps(data)  # serializable

    def test_round_trip_stability(self, annulus):
        config = VerifyConfig(collect_timings=False)
        a = report_to_json(verify_polyomino(annulus, config))
        b = report_to_json(verify_polyomino(annulus, config))
        assert a == b


class TestSweep:
    def test_sweep3_counts(self):
        summary = sweep(3, VerifyConfig(collect_timings=False))
        assert summary.total == 9
        assert summary.per_size == {
            1: {"count": 1, "simple": 1, "non_simple": 0},
            2: {"count": 2, "simple": 2, "non_simple": 0},
            3: {"count": 6, "simple": 6, "non_simple": 0},
        }
        assert summary.violations == []
        assert summary.non_simple == []
        assert len(summary.reports) == 9

    def test_sweep_json_deterministic_without_timings(self):
        config = VerifyConfig(collect_timings=False)
        a = sweep_to_json(sweep(3, config), with_timings=False)
        b = sweep_to_json(sweep(3, config), with_timings=False)
        assert a == b
        assert a["schema"] == "polyprime.sweep/1"
        assert a["wall_clock"] is None

    def test_parallel_matches_sequential(self):
        seq = sweep(5, VerifyConfig(collect_timings=False))
        par = sweep(5, VerifyConfig(workers=2))
        assert seq.total == par.total == 1 + 2 + 6 + 19 + 63
        assert all(r.timings for r in par.reports)

        def untimed(report):
            return {k: v for k, v in report_to_json(report).items() if k != "timings"}

        assert [untimed(r) for r in seq.reports] == [untimed(r) for r in par.reports]
        # pool reports share the enumeration's cell tuples
        assert par.reports[-1].cells is list(enumerate_polyominoes(5))[-1].cells_sorted
        assert sweep_to_json(seq, with_timings=False) == sweep_to_json(par, with_timings=False)

    def test_budget_error_identifies_polyomino(self):
        # at 20 S-pairs the monomino completes and both dominoes run out
        summary = sweep(2, VerifyConfig(budgets=EngineBudgets(pairs=20), collect_timings=False))
        assert summary.total == 3
        assert [r.incomplete for r in summary.reports] == [False, True, True]
        assert [e["cells"] for e in summary.budget_errors] == [[[0, 0], [0, 1]], [[0, 0], [1, 0]]]
        for entry, report in zip(summary.budget_errors, summary.reports[1:]):
            assert set(entry) == {"cells", "error"}
            assert entry["error"].startswith(report.error)
            assert "while verifying" in entry["error"]
        assert sweep_to_json(summary)["budget_errors"] == summary.budget_errors

    def test_budget_errors_same_on_pool_path(self):
        config = VerifyConfig(budgets=EngineBudgets(pairs=20), collect_timings=False)
        seq = sweep(2, config)
        par = sweep(2, replace(config, workers=2))
        assert par.budget_errors == seq.budget_errors
        assert [r.incomplete for r in par.reports] == [r.incomplete for r in seq.reports]
