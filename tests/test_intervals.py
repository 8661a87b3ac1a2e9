import random

from hypothesis import given, settings, strategies as st

import oracles
from polyprime import build_interval_graph, enumerate_polyominoes, maximal_edge_intervals
from polyprime.graph import graph_is_connected
from polyprime.grid import random_polyomino
from polyprime.intervals import EdgeInterval, graph_to_dot, graph_to_json

random_polys = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.integers(min_value=0, max_value=10 ** 9).map(
        lambda seed: random_polyomino(n, random.Random(seed))))


class TestMaximalIntervals:
    def test_single_cell(self, cell):
        vert, horiz = maximal_edge_intervals(cell)
        assert vert == [EdgeInterval(0, (0, 1)), EdgeInterval(1, (0, 1))]
        assert horiz == [EdgeInterval(0, (0, 1)), EdgeInterval(1, (0, 1))]

    def test_square2(self, square2):
        vert, horiz = maximal_edge_intervals(square2)
        assert vert == [EdgeInterval(x, (0, 2)) for x in range(3)]
        assert horiz == [EdgeInterval(y, (0, 2)) for y in range(3)]

    def test_annulus_middle_lines_not_split(self, annulus):
        # derived by enumerating the edges of the 8 ring cells: every unit
        # step on the middle lines borders a ring cell, so nothing splits
        edges = oracles.polyomino_edges(annulus.cells)
        for x in (1, 2):
            assert all(((x, y), (x, y + 1)) in edges for y in range(3))
        vert, horiz = maximal_edge_intervals(annulus)
        assert vert == [EdgeInterval(x, (0, 3)) for x in range(4)]
        assert horiz == [EdgeInterval(y, (0, 3)) for y in range(4)]

    @settings(max_examples=50, deadline=None)
    @given(random_polys)
    def test_partition_of_edges(self, poly):
        vert, horiz = maximal_edge_intervals(poly)
        covered = []
        for vi in vert:
            a, b = vi.span
            covered.extend(((vi.line, t), (vi.line, t + 1)) for t in range(a, b))
        for hj in horiz:
            a, b = hj.span
            covered.extend(((t, hj.line), (t + 1, hj.line)) for t in range(a, b))
        assert len(covered) == len(set(covered))
        assert set(covered) == oracles.polyomino_edges(poly.cells)

    @settings(max_examples=50, deadline=None)
    @given(random_polys)
    def test_maximality(self, poly):
        edges = oracles.polyomino_edges(poly.cells)
        vert, horiz = maximal_edge_intervals(poly)
        for vi in vert:
            a, b = vi.span
            assert ((vi.line, a - 1), (vi.line, a)) not in edges
            assert ((vi.line, b), (vi.line, b + 1)) not in edges
        for hj in horiz:
            a, b = hj.span
            assert ((a - 1, hj.line), (a, hj.line)) not in edges
            assert ((b, hj.line), (b + 1, hj.line)) not in edges


class TestIntervalGraph:
    def test_single_cell_is_k22(self, cell):
        g = build_interval_graph(cell)
        assert (g.m, g.n) == (2, 2)
        assert {(p, q) for p, q, _ in g.edges} == {(p, q) for p in range(2) for q in range(2)}

    def test_square2_is_k33(self, square2):
        g = build_interval_graph(square2)
        assert (g.m, g.n) == (3, 3)
        assert len(g.edges) == 9
        assert {(p, q) for p, q, _ in g.edges} == {(p, q) for p in range(3) for q in range(3)}

    def test_annulus_is_k44(self, annulus):
        # all 16 intersections of the 4x4 interval grid are ring vertices
        verts = oracles.polyomino_vertices(annulus.cells)
        assert all((x, y) in verts for x in range(4) for y in range(4))
        g = build_interval_graph(annulus)
        assert (g.m, g.n) == (4, 4)
        assert {(p, q) for p, q, _ in g.edges} == {(p, q) for p in range(4) for q in range(4)}

    def test_edge_labels_are_the_intersections(self, square2):
        g = build_interval_graph(square2)
        for p, q, (x, y) in g.edges:
            assert oracles.contains_vertex(g.v_intervals[p], "v", (x, y))
            assert oracles.contains_vertex(g.h_intervals[q], "h", (x, y))

    @settings(max_examples=50, deadline=None)
    @given(random_polys)
    def test_edge_count_equals_vertex_count(self, poly):
        g = build_interval_graph(poly)
        labels = [pt for _, _, pt in g.edges]
        vertices = oracles.polyomino_vertices(poly.cells)
        assert len(labels) == len(set(labels)) == len(vertices)
        assert set(labels) == vertices

    def test_graph_connected_small_sweep(self):
        for n in range(1, 6):
            for poly in enumerate_polyominoes(n):
                assert graph_is_connected(build_interval_graph(poly))


def assert_matches_pairwise(poly):
    g = build_interval_graph(poly)
    vert, horiz, edges = oracles.pairwise_interval_graph(poly)
    assert (g.m, g.n) == (len(vert), len(horiz))
    assert g.edges == tuple(edges)
    through = oracles.intervals_through(g)
    masks = [0] * (g.m + g.n)
    for p, q, point in edges:
        assert g.label(p, q) == point
        assert through[point] == (p, q)
        masks[p] |= 1 << (g.m + q)
        masks[g.m + q] |= 1 << p
    assert g.adjacency == tuple(masks)


class TestGraphFromRuns:
    """The graph read off the runs equals the one built by testing every interval pair."""

    def test_every_shape_up_to_seven_cells(self):
        for n in range(1, 8):
            for poly in enumerate_polyominoes(n):
                assert_matches_pairwise(poly)

    def test_seeded_shapes_up_to_fourteen_cells(self):
        rng = random.Random(17)
        for _ in range(200):
            assert_matches_pairwise(random_polyomino(rng.randint(8, 14), rng))


class TestExport:
    def test_json(self, cell):
        g = build_interval_graph(cell)
        assert graph_to_json(g) == {
            "v": 2,
            "h": 2,
            "edges": [
                [0, 0, [0, 0]],
                [0, 1, [0, 1]],
                [1, 0, [1, 0]],
                [1, 1, [1, 1]],
            ],
        }

    def test_dot(self, cell):
        dot = graph_to_dot(build_interval_graph(cell))
        assert dot.startswith("graph G {")
        assert 'v1 -- h1 [label="(0,0)"];' in dot
        assert dot.endswith("}")
