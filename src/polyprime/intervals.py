"""Maximal edge intervals of a polyomino and its interval bipartite graph.

A maximal vertical (resp. horizontal) edge interval is an inclusion-maximal
run of unit cell edges on one grid line. The interval graph has one vertex
per maximal vertical interval and one per maximal horizontal interval, with
an edge whenever the two intervals meet; the meeting point is a vertex of
the polyomino and labels the edge. Since every vertex lies on exactly one
maximal interval of each orientation, the graph has exactly |V(P)| edges.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EdgeInterval:
    line: int         # the fixed coordinate (x for vertical, y for horizontal)
    span: tuple       # inclusive (start, end) of the varying coordinate, end > start

    def __post_init__(self):
        if self.span[1] <= self.span[0]:
            raise ValueError("an edge interval must contain at least one edge")


def _runs(flags):
    """Maximal runs of consecutive True positions; (start, end) spans inclusive-exclusive -> inclusive edges."""
    runs = []
    start = None
    for i, on in enumerate(flags + [False]):
        if on and start is None:
            start = i
        elif not on and start is not None:
            runs.append((start, i))
            start = None
    return runs


def maximal_edge_intervals(poly):
    """(vertical, horizontal) maximal edge intervals, each sorted by (line, span start)."""
    w, h = poly.width, poly.height
    cells = poly.cells
    vertical = []
    for x in range(w + 1):
        flags = [((x, y) in cells or (x - 1, y) in cells) for y in range(h)]
        for a, b in _runs(flags):
            vertical.append(EdgeInterval(x, (a, b)))
    horizontal = []
    for y in range(h + 1):
        flags = [((x, y) in cells or (x, y - 1) in cells) for x in range(w)]
        for a, b in _runs(flags):
            horizontal.append(EdgeInterval(y, (a, b)))
    return vertical, horizontal


class IntervalGraph:
    """Bipartite graph on maximal vertical x horizontal intervals.

    ``edges`` holds one (p, q, vertex) triple per polyomino vertex, sorted:
    v_p and h_q are the maximal intervals through the vertex, and the
    vertex labels the edge v_p h_q. ``adjacency`` holds one neighbour
    bitmask per vertex id, where v_p has id p and h_q id m + q.
    """

    __slots__ = ("v_intervals", "h_intervals", "edges", "adjacency")

    def __init__(self, v_intervals, h_intervals, edges):
        self.v_intervals = tuple(v_intervals)
        self.h_intervals = tuple(h_intervals)
        self.edges = tuple(sorted(edges))
        m = len(self.v_intervals)
        masks = [0] * (m + len(self.h_intervals))
        for p, q, _ in self.edges:
            masks[p] |= 1 << (m + q)
            masks[m + q] |= 1 << p
        self.adjacency = tuple(masks)

    @property
    def m(self):
        return len(self.v_intervals)

    @property
    def n(self):
        return len(self.h_intervals)

    def label(self, p, q):
        """The vertex where v_p meets h_q."""
        return (self.v_intervals[p].line, self.h_intervals[q].line)

    def __repr__(self):
        return f"IntervalGraph(m={self.m}, n={self.n}, edges={len(self.edges)})"


def build_interval_graph(poly):
    """The interval graph, read off the runs: each vertex lies on one run of each orientation."""
    vert, horiz = maximal_edge_intervals(poly)
    vertical_of = {}
    for p, vi in enumerate(vert):
        a, b = vi.span
        for y in range(a, b + 1):
            vertical_of[(vi.line, y)] = p
    edges = []
    for q, hj in enumerate(horiz):
        a, b = hj.span
        for x in range(a, b + 1):
            point = (x, hj.line)
            edges.append((vertical_of[point], q, point))
    return IntervalGraph(vert, horiz, edges)


def graph_to_json(graph):
    return {
        "v": graph.m,
        "h": graph.n,
        "edges": [[p, q, [pt[0], pt[1]]] for p, q, pt in graph.edges],
    }


def graph_to_dot(graph):
    lines = ["graph G {", "  rankdir=LR;"]
    for p in range(graph.m):
        lines.append(f'  v{p + 1} [shape=box];')
    for q in range(graph.n):
        lines.append(f'  h{q + 1} [shape=ellipse];')
    for p, q, (x, y) in graph.edges:
        lines.append(f'  v{p + 1} -- h{q + 1} [label="({x},{y})"];')
    lines.append("}")
    return "\n".join(lines)
