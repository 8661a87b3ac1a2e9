"""Cycle machinery on interval graphs.

Graph cycles live in the bipartite interval graph (vertices = maximal
intervals); polyomino cycles are closed alternating sequences of grid
vertices whose consecutive segments are edge intervals. A graph cycle maps
to a primitive polyomino cycle by intersecting consecutive intervals, and
both carry the same attached binomial: odd-position product minus
even-position product.
"""

from __future__ import annotations

from dataclasses import dataclass

from polyprime.binomials import Binomial, grid_key, mono_from_indices
from polyprime.errors import LimitExceededError, MissingVertexError

DEFAULT_CYCLE_BUDGET = 10 ** 6


@dataclass(frozen=True)
class GraphCycle:
    """Alternating cycle v_{i1}, h_{j1}, ..., v_{ir}, h_{jr}, stored canonically.

    ``pairs`` holds ((i1, j1), ..., (ir, jr)); the canonical representative is
    the least tuple over all rotations and the reflection.
    """

    pairs: tuple

    def __post_init__(self):
        object.__setattr__(self, "pairs", _canonical_pairs(self.pairs))

    @property
    def length(self):
        return 2 * len(self.pairs)


def _canonical_pairs(pairs):
    pairs = tuple((int(i), int(j)) for i, j in pairs)
    r = len(pairs)
    vs = [p[0] for p in pairs]
    hs = [p[1] for p in pairs]
    # reflection: v_{i1}, h_{jr}, v_{ir}, h_{j(r-1)}, ..., v_{i2}, h_{j1}
    refl = tuple(
        (vs[-k % r], hs[-k - 1]) for k in range(r)
    )
    candidates = []
    for base in (pairs, refl):
        for k in range(r):
            candidates.append(base[k:] + base[:k])
    return min(candidates)


@dataclass(frozen=True)
class PolyoCycle:
    """Closed cycle of grid vertices; segments alternate horizontal/vertical."""

    points: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", tuple((int(x), int(y)) for x, y in self.points))
        if len(self.points) < 4 or len(self.points) % 2:
            raise ValueError("a cycle needs an even number (>= 4) of vertices")
        if len(set(self.points)) != len(self.points):
            raise ValueError("cycle vertices must be distinct")

    def segments(self):
        pts = self.points
        return [(pts[k], pts[(k + 1) % len(pts)]) for k in range(len(pts))]


# ---------------------------------------------------------------------------
# induced (chordless) cycle enumeration

def _adjacency(graph):
    m, n = graph.m, graph.n
    total = m + n
    masks = [0] * total
    for p, q in graph.edge_pairs:
        masks[p] |= 1 << (m + q)
        masks[m + q] |= 1 << p
    sorted_adj = [[y for y in range(total) if (masks[x] >> y) & 1] for x in range(total)]
    return total, masks, sorted_adj


def induced_cycles(total, masks, sorted_adj, min_len, max_len, budget):
    """Yield every chordless cycle once as a vertex-id list (min id first)."""
    spent = 0
    for s in range(total):
        s_bit = 1 << s
        for u in sorted_adj[s]:
            if u <= s:
                continue
            stack = [([s, u], s_bit | (1 << u), u)]
            while stack:
                path, pmask, x = stack.pop()
                spent += 1
                if spent > budget:
                    raise LimitExceededError(
                        f"cycle enumeration budget {budget} exhausted")
                x_bit = 1 << x
                for y in sorted_adj[x]:
                    if y <= s or (pmask >> y) & 1:
                        continue
                    inter = masks[y] & pmask
                    if inter == x_bit:
                        if len(path) + 2 <= max_len:
                            stack.append((path + [y], pmask | (1 << y), y))
                    elif inter == x_bit | s_bit:
                        if len(path) + 1 >= max(min_len, 4) and y > path[1]:
                            yield path + [y]


def chordless_cycles(graph, min_len=4, max_len=None, budget=DEFAULT_CYCLE_BUDGET):
    """Chordless cycles of a bipartite graph with length in [min_len, max_len]."""
    if min_len < 4:
        raise ValueError("min_len must be at least 4")
    total, masks, sorted_adj = _adjacency(graph)
    max_len = total if max_len is None else min(max_len, total)
    if max_len < min_len:
        return
    for ids in induced_cycles(total, masks, sorted_adj, min_len, max_len, budget):
        # the smallest id is a v-side vertex, so even positions are v-side
        pairs = tuple((ids[2 * k], ids[2 * k + 1] - graph.m) for k in range(len(ids) // 2))
        yield GraphCycle(pairs)


def is_weakly_chordal(graph, budget=DEFAULT_CYCLE_BUDGET):
    """True iff every cycle of length greater than 4 has a chord.

    In a bipartite graph all cycles are even, so this checks for chordless
    cycles of length >= 6.
    """
    for _ in chordless_cycles(graph, min_len=6, budget=budget):
        return False
    return True


def graph_is_connected(graph):
    total, masks, sorted_adj = _adjacency(graph)
    if total == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in sorted_adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == total


# ---------------------------------------------------------------------------
# graph cycles <-> polyomino cycles, attached binomials

def graph_cycle_to_polyo_cycle(graph, cycle):
    """Intersect consecutive intervals of a graph cycle into a polyomino cycle."""
    pairs = cycle.pairs
    r = len(pairs)
    points = []
    for k in range(r):
        i_k, j_k = pairs[k]
        i_next = pairs[(k + 1) % r][0]
        points.append(_intersection(graph, i_k, j_k))
        points.append(_intersection(graph, i_next, j_k))
    return PolyoCycle(tuple(points))


def _intersection(graph, p, q):
    if (p, q) not in graph.edge_pairs:
        raise MissingVertexError(
            f"intervals v{p + 1} and h{q + 1} do not meet in a vertex of the polyomino")
    return graph.label(p, q)


def cycle_binomial(cycle, variables):
    """Product over odd-position vertices minus product over even-position vertices."""
    pts = cycle.points
    n = len(variables)
    plus = mono_from_indices(n, (variables.index(grid_key(p)) for p in pts[0::2]))
    minus = mono_from_indices(n, (variables.index(grid_key(p)) for p in pts[1::2]))
    return Binomial(plus, minus)
