import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from polyprime import (
    GraphCycle,
    build_interval_graph,
    chordless_cycles,
    cycle_binomial,
    enumerate_polyominoes,
    grid_variables,
    inner_intervals,
    is_weakly_chordal,
    parse_grid,
    render_binomial,
    toric_ideal_cycles,
)
from oracles import (
    PolyoCycle,
    graph_cycle_to_polyo_cycle,
    has_self_crossing,
    is_primitive,
    polyo_cycle_binomial,
    validate_polyo_cycle,
)
from polyprime.errors import LimitExceededError


class SyntheticBipartite:
    """Minimal graph duck type for the cycle machinery."""

    def __init__(self, m, n, pairs, labels=None):
        self.m = m
        self.n = n
        self.edge_pairs = frozenset(pairs)
        self._labels = labels if labels is not None else {pq: pq for pq in self.edge_pairs}

    def label(self, p, q):
        return self._labels[(p, q)]


def c6():
    # v0-h0-v1-h1-v2-h2-v0
    return SyntheticBipartite(3, 3, {(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)})


def k33():
    return SyntheticBipartite(3, 3, set(itertools.product(range(3), range(3))))


def cycle_vertex_ids(cycle, m):
    ids = []
    for i, j in cycle.pairs:
        ids.append(i)
        ids.append(m + j)
    return frozenset(ids)


class TestChordlessCycles:
    def test_c6_has_one_six_cycle(self):
        cycles = list(chordless_cycles(c6(), min_len=6))
        assert len(cycles) == 1
        assert len(cycles[0].pairs) == 3

    def test_k33_has_no_chordless_six_cycle(self):
        assert list(chordless_cycles(k33(), min_len=6)) == []

    def test_k33_has_nine_four_cycles(self):
        cycles = list(chordless_cycles(k33(), min_len=4, max_len=4))
        assert len(cycles) == 9
        brute = oracles.brute_chordless_cycles(
            6, {(p, 3 + q) for p, q in k33().edge_pairs}, 4, 4)
        assert {cycle_vertex_ids(c, 3) for c in cycles} == set(brute)

    def test_each_cycle_reported_once(self):
        cycles = list(chordless_cycles(k33(), min_len=4, max_len=4))
        assert len(set(cycles)) == len(cycles)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=4), st.integers(min_value=2, max_value=4),
           st.integers(min_value=0, max_value=10 ** 9))
    def test_matches_brute_force_on_random_bipartite(self, m, n, seed):
        rng = random.Random(seed)
        pairs = {pq for pq in itertools.product(range(m), range(n)) if rng.random() < 0.6}
        graph = SyntheticBipartite(m, n, pairs)
        ours = {cycle_vertex_ids(c, m) for c in chordless_cycles(graph, min_len=4)}
        brute = set(oracles.brute_chordless_cycles(
            m + n, {(p, m + q) for p, q in pairs}, 4, m + n))
        assert ours == brute

    def test_budget_exhaustion_raises(self):
        with pytest.raises(LimitExceededError):
            list(chordless_cycles(k33(), min_len=4, budget=2))

    def test_canonical_pairs_oracle(self):
        pairs = ((0, 0), (1, 1), (2, 2), (3, 3))
        vs = [i for i, _ in pairs]
        hs = [j for _, j in pairs]
        reflected = tuple((vs[-k % 4], hs[-k - 1]) for k in range(4))
        assert reflected == ((0, 3), (3, 2), (2, 1), (1, 0))
        for k in range(4):
            assert oracles.canonical_cycle_pairs(pairs[k:] + pairs[:k]) == pairs
            assert oracles.canonical_cycle_pairs(reflected[k:] + reflected[:k]) == pairs

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=4), st.integers(min_value=2, max_value=4),
           st.integers(min_value=0, max_value=10 ** 9))
    def test_yields_canonical_form_on_random_bipartite(self, m, n, seed):
        # the cycle binomial's sign is read off the pairs, so it depends on this form
        rng = random.Random(seed)
        pairs = {pq for pq in itertools.product(range(m), range(n)) if rng.random() < 0.6}
        for gc in chordless_cycles(SyntheticBipartite(m, n, pairs), min_len=4):
            assert gc.pairs == oracles.canonical_cycle_pairs(gc.pairs)

    def test_yields_canonical_form_on_small_shapes(self):
        for n in range(1, 8):
            for poly in enumerate_polyominoes(n):
                for gc in chordless_cycles(build_interval_graph(poly), min_len=4):
                    assert gc.pairs == oracles.canonical_cycle_pairs(gc.pairs), poly


class TestWeaklyChordal:
    def test_c6_is_not(self):
        assert not is_weakly_chordal(c6())

    def test_k33_is(self):
        assert is_weakly_chordal(k33())

    def test_annulus_graph_is(self, annulus):
        assert is_weakly_chordal(build_interval_graph(annulus))

    def test_invariant_under_relabeling(self):
        for poly in ("##\n.#", "###\n#..", "##\n##"):
            g = build_interval_graph(parse_grid(poly))
            rng = random.Random(11)
            sigma = rng.sample(range(g.m), g.m)
            tau = rng.sample(range(g.n), g.n)
            relabeled = SyntheticBipartite(
                g.m, g.n, {(sigma[p], tau[q]) for p, q in g.edge_pairs})
            assert is_weakly_chordal(g) == is_weakly_chordal(relabeled)


class TestCycleConversion:
    def test_single_cell_four_cycle(self, cell):
        g = build_interval_graph(cell)
        (gc,) = chordless_cycles(g, 4, 4)
        pc = graph_cycle_to_polyo_cycle(g, gc)
        assert set(pc.points) == {(0, 0), (1, 0), (1, 1), (0, 1)}
        validate_polyo_cycle(cell, pc)

    def test_square2_outer_cycle(self, square2):
        g = build_interval_graph(square2)
        pc = graph_cycle_to_polyo_cycle(g, GraphCycle(((0, 0), (2, 2))))
        assert set(pc.points) == {(0, 0), (2, 0), (2, 2), (0, 2)}
        validate_polyo_cycle(square2, pc)

    def test_square2_six_cycle_is_staircase(self, square2):
        g = build_interval_graph(square2)
        gc = GraphCycle(((0, 0), (1, 1), (2, 2)))
        pc = graph_cycle_to_polyo_cycle(g, gc)
        validate_polyo_cycle(square2, pc)  # conditions (i) and (ii)
        assert len(pc.points) == 6
        assert is_primitive(square2, pc)

    def test_images_are_primitive_small_sweep(self):
        for n in range(1, 5):
            for poly in enumerate_polyominoes(n):
                g = build_interval_graph(poly)
                for gc in chordless_cycles(g, 4):
                    pc = graph_cycle_to_polyo_cycle(g, gc)
                    validate_polyo_cycle(poly, pc)
                    assert is_primitive(poly, pc)


class TestPrimitivity:
    def test_inner_interval_corner_cycles_primitive(self, square2):
        for (x1, y1), (x2, y2) in inner_intervals(square2):
            pc = PolyoCycle(((x1, y1), (x2, y1), (x2, y2), (x1, y2)))
            assert is_primitive(square2, pc)

    def test_non_primitive_cycle_exists_in_1x3_rectangle(self):
        poly = parse_grid("###")
        cycles = [PolyoCycle(c) for c in oracles.alternating_cycles(poly.cells, 8)]
        assert cycles, "oracle found no cycles"
        non_primitive = [c for c in cycles if not is_primitive(poly, c)]
        assert non_primitive, "expected a cycle with three vertices on one maximal interval"
        worst = non_primitive[0]
        # it really does put >2 vertices on one line
        assert any(
            sum(1 for p in worst.points if p[1] == y) > 2 for y in (0, 1)
        ) or any(sum(1 for p in worst.points if p[0] == x) > 2 for x in range(4))


class TestCycleBinomial:
    def test_unit_cell(self, cell):
        gvars = grid_variables(cell)
        g = build_interval_graph(cell)
        (gc,) = chordless_cycles(g, 4, 4)
        assert render_binomial(cycle_binomial(g, gc, gvars), gvars) == "x(0,0)*x(1,1) - x(0,1)*x(1,0)"

    def test_square2_outer(self, square2):
        gvars = grid_variables(square2)
        g = build_interval_graph(square2)
        b = cycle_binomial(g, GraphCycle(((0, 0), (2, 2))), gvars)
        assert render_binomial(b, gvars) == "x(0,0)*x(2,2) - x(0,2)*x(2,0)"

    def test_annulus_octagon_both_formulas_agree(self, annulus):
        gvars = grid_variables(annulus)
        g = build_interval_graph(annulus)
        gc = GraphCycle(((0, 0), (1, 1), (2, 2), (3, 3)))
        pc = graph_cycle_to_polyo_cycle(g, gc)
        validate_polyo_cycle(annulus, pc)
        from_points = polyo_cycle_binomial(pc, gvars)
        from_graph = cycle_binomial(g, gc, gvars)
        assert from_points == from_graph
        assert from_points.degree == 4
        assert render_binomial(from_points, gvars) == (
            "x(0,0)*x(1,1)*x(2,2)*x(3,3) - x(0,3)*x(1,0)*x(2,1)*x(3,2)")

    def test_formulas_agree_on_all_small_cycles(self):
        # the toric generators, cycle for cycle and in order, against the binomials
        # read off each cycle's grid points
        for n in range(1, 8):
            for poly in enumerate_polyominoes(n):
                g = build_interval_graph(poly)
                gvars = grid_variables(poly)
                from_points = [polyo_cycle_binomial(graph_cycle_to_polyo_cycle(g, gc), gvars)
                               for gc in chordless_cycles(g, 4)]
                assert toric_ideal_cycles(poly, variables=gvars) == from_points, poly


class TestBijection:
    def test_four_cycles_match_alternating_cycles(self):
        """Graph 4-cycles correspond exactly to the 4-vertex alternating cycles."""
        def canonical(points):
            forms = []
            p = list(points)
            for _ in range(2):
                for k in range(len(p)):
                    forms.append(tuple(p[k:] + p[:k]))
                p = list(reversed(p))
            return min(forms)

        for n in range(1, 6):
            for poly in enumerate_polyominoes(n):
                g = build_interval_graph(poly)
                images = {}
                for gc in chordless_cycles(g, 4, 4):
                    pc = graph_cycle_to_polyo_cycle(g, gc)
                    assert is_primitive(poly, pc)
                    images[canonical(pc.points)] = gc
                oracle_cycles = {
                    canonical(c) for c in oracles.alternating_cycles(poly.cells, 4)}
                assert set(images) == oracle_cycles

    def test_annulus_hole_cycle_interval_not_inner(self, annulus):
        g = build_interval_graph(annulus)
        four_cycle_intervals = set()
        for gc in chordless_cycles(g, 4, 4):
            pts = graph_cycle_to_polyo_cycle(g, gc).points
            xs = sorted({p[0] for p in pts})
            ys = sorted({p[1] for p in pts})
            four_cycle_intervals.add(((xs[0], ys[0]), (xs[1], ys[1])))
        inner = set(inner_intervals(annulus))
        assert ((1, 1), (2, 2)) in four_cycle_intervals - inner


class TestSelfCrossing:
    def test_rectangle_cycles_do_not_cross(self, square2):
        pc = PolyoCycle(((0, 0), (2, 0), (2, 2), (0, 2)))
        assert not has_self_crossing(square2, pc)

    def test_crossing_cycle_exists_in_square2(self, square2):
        cycles = [PolyoCycle(c) for c in oracles.alternating_cycles(square2.cells, 8)]
        crossing = [c for c in cycles if has_self_crossing(square2, c)]
        assert crossing, "expected two overlapping staircases to cross"

    def test_crossing_vertex_is_interval_intersection(self, square2):
        # a crossing implies a chord: the shared vertex joins a maximal
        # vertical and a maximal horizontal interval of the cycle
        g = build_interval_graph(square2)
        cycles = [PolyoCycle(c) for c in oracles.alternating_cycles(square2.cells, 8)]
        seen_crossing = False
        for pc in cycles:
            if not has_self_crossing(square2, pc):
                continue
            seen_crossing = True
            pts = set(pc.points)
            shared = {
                v
                for i, (a, b) in enumerate(pc.segments())
                for j, (c, d) in enumerate(pc.segments())
                if j > i + 1 and not (i == 0 and j == len(pc.segments()) - 1)
                for v in set(oracles_points(a, b)) & set(oracles_points(c, d))
                if v not in {a, b, c, d}
            }
            assert shared
            for v in shared:
                p, q = g.intervals_through(v)
                assert (p, q) in g.edge_pairs
        assert seen_crossing

    def test_chordless_images_never_cross(self):
        for n in range(1, 5):
            for poly in enumerate_polyominoes(n):
                g = build_interval_graph(poly)
                for gc in chordless_cycles(g, 4):
                    pc = graph_cycle_to_polyo_cycle(g, gc)
                    assert not has_self_crossing(poly, pc)


def oracles_points(a, b):
    (x1, y1), (x2, y2) = a, b
    if x1 == x2:
        lo, hi = sorted((y1, y2))
        return [(x1, y) for y in range(lo, hi + 1)]
    lo, hi = sorted((x1, x2))
    return [(x, y1) for x in range(lo, hi + 1)]
