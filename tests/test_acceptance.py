"""Acceptance suite: the eight exit criteria, one line printed per criterion.

Run as `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines
with measured runtimes. Criterion texts are asserted at their stated
tolerances (violation counts, exact witnesses, runtime bounds).
"""

import hashlib
import json
import random
import time

import pytest

import oracles
from polyprime import (
    Binomial,
    build_interval_graph,
    buchberger,
    enumerate_polyominoes,
    find_quadratic_order,
    grid_variables,
    inner_minors,
    is_simple,
    is_weakly_chordal,
    parse_grid,
    render_binomial,
    toric_ideal_cycles,
    toric_ideal_elimination,
)
from polyprime.algebra import Reducer, default_grid_order, ideal_equal_paths
from polyprime.binomials import ZERO, mono_from_indices
from polyprime.grid import random_polyomino
from polyprime.verify import VerifyConfig, sweep, sweep_to_json, verify_polyomino

CONTAINMENT_SEED = 20260808
# SHA-256 of `polyprime sweep 7 --format json --no-timings`
SWEEP7_DIGEST = "835d69d945d24b925a400029527f3ff34a652f22853f14de6d8c9b8b28027519"


def announce(number, name, ok, elapsed, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} {name}: {status} ({elapsed:.1f}s; {detail})")


def shapes_upto(n):
    for k in range(1, n + 1):
        yield from enumerate_polyominoes(k)


@pytest.fixture(scope="module")
def theorem_data():
    """Both ideal-equality decision paths for every shape with <= 6 cells."""
    t0 = time.perf_counter()
    rows = []
    for poly in shapes_upto(6):
        gvars = grid_variables(poly)
        order = default_grid_order(gvars)
        mutual, identity = ideal_equal_paths(
            buchberger(inner_minors(poly, gvars), order),
            toric_ideal_elimination(build_interval_graph(poly), gvars, order))
        rows.append((poly.cells_sorted, mutual, identity))
    return {"rows": rows, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def oracle_data():
    """Cycle-generator ideal vs elimination ideal for every shape with <= 5 cells."""
    t0 = time.perf_counter()
    rows = []
    for poly in shapes_upto(5):
        gvars = grid_variables(poly)
        order = default_grid_order(gvars)
        mutual, identity = ideal_equal_paths(
            buchberger(toric_ideal_cycles(poly, variables=gvars), order),
            toric_ideal_elimination(build_interval_graph(poly), gvars, order),
        )
        rows.append((poly.cells_sorted, mutual, identity))
    return {"rows": rows, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def annulus_paths():
    poly = parse_grid("###\n#.#\n###")
    gvars = grid_variables(poly)
    order = default_grid_order(gvars)
    return ideal_equal_paths(
        buchberger(inner_minors(poly, gvars), order),
        toric_ideal_elimination(build_interval_graph(poly), gvars, order))


def test_criterion_1_weak_chordality_lemma():
    t0 = time.perf_counter()
    shapes = list(shapes_upto(6))
    violations = [p.cells_sorted for p in shapes if not is_weakly_chordal(build_interval_graph(p))]
    not_simple = [p.cells_sorted for p in shapes if not is_simple(p)]
    elapsed = time.perf_counter() - t0
    ok = len(shapes) == 307 and not violations and not not_simple and elapsed < 60
    announce(1, "weak chordality for all shapes <= 6 cells", ok, elapsed,
             f"{len(shapes)} shapes, {len(violations)} violations")
    assert len(shapes) == 307
    assert not_simple == []
    assert violations == []
    assert elapsed < 60


def test_criterion_2_ideal_equality_theorem(theorem_data):
    rows, elapsed = theorem_data["rows"], theorem_data["elapsed"]
    violations = [cells for cells, mutual, identity in rows if not (mutual and identity)]
    ok = len(rows) == 307 and not violations and elapsed < 600
    announce(2, "inner-minor ideal equals toric ideal for all shapes <= 6 cells", ok, elapsed,
             f"{len(rows)} shapes, {len(violations)} violations")
    assert len(rows) == 307
    assert violations == []
    assert elapsed < 600


def test_criterion_3_universal_containment():
    t0 = time.perf_counter()
    rng = random.Random(CONTAINMENT_SEED)
    violations = []
    for _ in range(100):
        poly = random_polyomino(rng.randint(1, 10), rng)
        gvars = grid_variables(poly)
        order = default_grid_order(gvars)
        graph = build_interval_graph(poly)
        toric = Reducer(toric_ideal_elimination(graph, gvars, order).elements, order)
        for minor in inner_minors(poly, gvars):
            if not oracles.balanced(graph, gvars, minor) or toric.binomial(minor) is not ZERO:
                violations.append((poly.cells_sorted, render_binomial(minor, gvars)))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 600
    announce(3, "every inner minor lies in the toric ideal (100 random shapes <= 10 cells)",
             ok, elapsed, f"{len(violations)} violations")
    assert violations == []


def test_criterion_4_annulus_negative_control():
    t0 = time.perf_counter()
    poly = parse_grid("###\n#.#\n###")
    gvars = grid_variables(poly)
    order = default_grid_order(gvars)
    simple = is_simple(poly)
    witness = verify_polyomino(poly).gap_witness
    expected = Binomial(
        mono_from_indices(len(gvars), (gvars.index((1, 1)), gvars.index((2, 2)))),
        mono_from_indices(len(gvars), (gvars.index((1, 2)), gvars.index((2, 1)))),
    )
    gb_inner = buchberger(inner_minors(poly, gvars), order)
    gb_toric = toric_ideal_elimination(build_interval_graph(poly), gvars, order)
    in_toric = Reducer(gb_toric.elements, order).binomial(witness) is ZERO
    in_inner = Reducer(gb_inner.elements, order).binomial(witness) is ZERO
    elapsed = time.perf_counter() - t0
    ok = (not simple) and witness == expected and in_toric and not in_inner and elapsed < 5
    announce(4, "one-hole annulus: not simple, hole minor witnesses the gap", ok, elapsed,
             f"witness={render_binomial(witness, gvars)}")
    assert simple is False
    assert witness == expected
    assert in_toric and not in_inner
    assert elapsed < 5


def test_criterion_5_non_simple_heptominoes():
    t0 = time.perf_counter()
    summary = sweep(7, VerifyConfig(collect_timings=False))
    elapsed = time.perf_counter() - t0
    found = summary.non_simple
    found_shapes = {frozenset(tuple(c) for c in item["cells"]) for item in found}
    # The only holed heptomino is the 3x3 ring minus one corner. It is symmetric
    # about the diagonal through the missing corner, so its dihedral orbit holds
    # 8 / 2 = 4 fixed shapes.
    ring = {(x, y) for x in range(3) for y in range(3)} - {(1, 1)}
    expected = {frozenset(ring - {corner}) for corner in ((0, 0), (2, 0), (0, 2), (2, 2))}
    witnesses_ok = all(item["witness"] for item in found)
    counts_ok = summary.total == 1067 and summary.per_size[7]["count"] == 760
    per_size_ok = summary.per_size[7]["non_simple"] == 4 and all(
        summary.per_size[n]["non_simple"] == 0 for n in range(1, 7))
    # simple => weakly chordal and equal ideals; not simple => the ideals differ
    theorem_breaks = [r.cells for r in summary.reports
                      if (r.simple and not (r.weakly_chordal and r.ideals_equal))
                      or (not r.simple and r.ideals_equal)]
    # the bytes `polyprime sweep 7 --format json --no-timings` prints
    printed = json.dumps(sweep_to_json(summary, with_timings=False), indent=2) + "\n"
    digest_ok = hashlib.sha256(printed.encode()).hexdigest() == SWEEP7_DIGEST
    ok = (counts_ok and per_size_ok and witnesses_ok and found_shapes == expected
          and not theorem_breaks and digest_ok and elapsed < 1800)
    announce(5, "non-simple heptomino detection in sweep(7)", ok, elapsed,
             f"found {len(found)} non-simple shapes (expected the 4 fixed forms of the "
             f"3x3 ring minus a corner), witnesses nonempty: {witnesses_ok}, "
             f"{len(theorem_breaks)} theorem violations, output digest matches: {digest_ok}")
    assert counts_ok
    assert per_size_ok
    assert witnesses_ok
    assert summary.violations == []
    assert theorem_breaks == []
    assert digest_ok
    assert elapsed < 1800
    assert len(found) == 4, (
        "expected the 4 fixed forms of the 3x3 ring minus a corner (its diagonal symmetry "
        f"halves the dihedral orbit of 8), found {len(found)}")
    assert found_shapes == expected


def test_criterion_6_cycle_oracle_equivalence(oracle_data):
    rows, elapsed = oracle_data["rows"], oracle_data["elapsed"]
    violations = [cells for cells, mutual, identity in rows if not (mutual and identity)]
    ok = not violations and len(rows) == 91
    announce(6, "cycle binomials generate the elimination ideal for all shapes <= 5 cells",
             ok, elapsed, f"{len(rows)} shapes, {len(violations)} violations")
    # all 1-,2-,3-,4-,5-cell shapes: 1+2+6+19+63 = 91 ("88" discounts the
    # one- and two-generator trivial sizes; the sweep here covers them too)
    assert len(rows) == 91
    assert violations == []


def test_criterion_7_quadratic_order_witness():
    t0 = time.perf_counter()
    failures = []
    for text in ("#", "##", "#.\n##", "##\n##"):
        poly = parse_grid(text)
        gvars = grid_variables(poly)
        gens = inner_minors(poly, gvars)
        order = find_quadratic_order(gens, gvars)
        if order is None:
            failures.append(text)
            continue
        gb = buchberger(gens, order)
        if not all(b.is_quadratic() and b.is_squarefree() for b in gb.elements):
            failures.append(text)
    elapsed = time.perf_counter() - t0
    ok = not failures
    announce(7, "squarefree quadratic bases found for cell, domino, L-tromino, 2x2 square",
             ok, elapsed, f"failures: {failures or 'none'}")
    assert failures == []


def test_criterion_8_engine_self_consistency(theorem_data, oracle_data, annulus_paths):
    t0 = time.perf_counter()
    disagreements = []
    for cells, mutual, identity in theorem_data["rows"] + oracle_data["rows"]:
        if mutual != identity:
            disagreements.append(cells)
    mutual, identity = annulus_paths
    if mutual != identity:
        disagreements.append("annulus")
    elapsed = time.perf_counter() - t0
    ok = not disagreements
    announce(8, "both ideal-equality decision paths agree on every instance", ok, elapsed,
             f"{len(theorem_data['rows']) + len(oracle_data['rows']) + 1} instances, "
             f"{len(disagreements)} disagreements")
    assert disagreements == []
