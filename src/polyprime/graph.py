"""Cycle machinery on interval graphs.

Graph cycles live in the bipartite interval graph (vertices = maximal
intervals). Consecutive intervals of a cycle meet in grid vertices, and
the cycle's binomial multiplies the variables of those meeting points,
alternately on the plus and the minus side.
"""

from __future__ import annotations

from dataclasses import dataclass

from polyprime.binomials import Binomial, mono_from_indices
from polyprime.errors import LimitExceededError

DEFAULT_CYCLE_BUDGET = 10 ** 6


@dataclass(frozen=True)
class GraphCycle:
    """Alternating cycle v_{i1}, h_{j1}, ..., v_{ir}, h_{jr}.

    ``pairs`` holds ((i1, j1), ..., (ir, jr)). ``chordless_cycles`` yields
    each cycle in canonical form, the least such tuple over all rotations
    and the reflection: i1 is the least v-index, and j1 the smaller of the
    two h-neighbours of v_{i1}.
    """

    pairs: tuple


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
    if max_len is not None and max_len < 4:
        raise ValueError(
            f"max_len must be at least 4, the length of the shortest chordless cycle, got {max_len}")
    total, masks, sorted_adj = _adjacency(graph)
    max_len = total if max_len is None else min(max_len, total)
    if max_len < min_len:
        return
    for ids in induced_cycles(total, masks, sorted_adj, min_len, max_len, budget):
        # the smallest id is a v-side vertex, so even positions are v-side;
        # the walk goes on to its smaller h-neighbour (``y > path[1]``), so
        # the pairs come in GraphCycle's canonical form
        pairs = tuple((ids[2 * k], ids[2 * k + 1] - graph.m) for k in range(len(ids) // 2))
        yield GraphCycle(pairs)


def is_weakly_chordal(graph):
    """True iff every cycle of length greater than 4 has a chord.

    In a bipartite graph all cycles are even, so this checks for chordless
    cycles of length >= 6.
    """
    for _ in chordless_cycles(graph, min_len=6):
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
# attached binomials

def cycle_binomial(graph, cycle, variables):
    """f_C for the cycle v_1, h_1, ..., v_r, h_r (indices mod r).

    The plus side multiplies x(v_k meet h_k), the minus side x(v_(k+1) meet h_k).
    """
    pairs = cycle.pairs
    r = len(pairs)
    n = len(variables)
    plus = mono_from_indices(n, (variables.index(graph.label(i, j)) for i, j in pairs))
    minus = mono_from_indices(
        n, (variables.index(graph.label(pairs[(k + 1) % r][0], j)) for k, (_, j) in enumerate(pairs)))
    return Binomial(plus, minus)
