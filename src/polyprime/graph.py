"""Cycle machinery on interval graphs.

Graph cycles live in the bipartite interval graph (vertices = maximal
intervals). Consecutive intervals of a cycle meet in grid vertices, and
the cycle's binomial multiplies the variables of those meeting points,
alternately on the plus and the minus side.
"""

from __future__ import annotations

from itertools import combinations

from polyprime.binomials import Binomial, mono_from_indices
from polyprime.errors import LimitExceededError

CYCLE_BUDGET = 10 ** 6


# ---------------------------------------------------------------------------
# chordless cycle enumeration

def chordless_cycles(graph, min_len=4, max_len=None):
    """Chordless cycles of a bipartite graph with length in [min_len, max_len].

    Each cycle v_{i1}, h_{j1}, ..., v_{ir}, h_{jr} comes as its pairs
    ((i1, j1), ..., (ir, jr)) in canonical form, the least such tuple over
    all rotations and the reflection: i1 is the least v-index, and j1 the
    smaller of the two h-neighbours of v_{i1}.

    From each start vertex s the search grows induced paths through higher
    ids, lowest set bit of ``graph.adjacency`` first. A search that takes
    more than ``CYCLE_BUDGET`` paths off its stack raises LimitExceededError.
    The lengths are checked at the call, and the search runs as the
    returned iterator is read.
    """
    if min_len < 4:
        raise ValueError("min_len must be at least 4")
    if max_len is not None and max_len < 4:
        raise ValueError(
            f"max_len must be at least 4, the length of the shortest chordless cycle, got {max_len}")
    return _chordless_cycles(graph, min_len, len(graph.adjacency) if max_len is None else max_len)


def _chordless_cycles(graph, min_len, max_len):
    masks = graph.adjacency
    if max_len < min_len:
        return
    budget = CYCLE_BUDGET
    spent = 0
    for s, s_adj in enumerate(masks):
        s_bit = 1 << s
        above = ~((s_bit << 1) - 1)   # the ids greater than s
        rest = s_adj & above
        while rest:
            u_bit = rest & -rest
            rest ^= u_bit
            u = u_bit.bit_length() - 1
            stack = [([s, u], s_bit | u_bit, u)]
            while stack:
                path, pmask, x = stack.pop()
                spent += 1
                if spent > budget:
                    raise LimitExceededError(
                        f"cycle enumeration budget {budget} exhausted")
                x_bit = 1 << x
                fresh = masks[x] & above & ~pmask
                while fresh:
                    y_bit = fresh & -fresh
                    fresh ^= y_bit
                    y = y_bit.bit_length() - 1
                    inter = masks[y] & pmask
                    if inter == x_bit:
                        if len(path) + 2 <= max_len:
                            stack.append((path + [y], pmask | y_bit, y))
                    elif inter == x_bit | s_bit:
                        # s, the least id, is v-side, so even positions are; y > path[1]
                        # leaves s by its smaller h-neighbour: canonical form
                        if len(path) + 1 >= min_len and y > path[1]:
                            ids = path + [y]
                            yield tuple((ids[k], ids[k + 1] - graph.m) for k in range(0, len(ids), 2))


def is_weakly_chordal(graph):
    """True iff every cycle of length greater than 4 has a chord.

    In a bipartite graph all cycles are even, so this checks for chordless
    cycles of length >= 6.
    """
    for _ in chordless_cycles(graph, min_len=6):
        return False
    return True


def four_cycles(graph):
    """Each 4-cycle v_p, h_q, v_r, h_s as chordless_cycles yields it, ((p, q), (r, s)) with p < r, q < s."""
    for (p, a), (r, b) in combinations(enumerate(graph.adjacency[:graph.m]), 2):
        common = (a & b) >> graph.m
        for q, s in combinations([q for q in range(common.bit_length()) if common >> q & 1], 2):
            yield (p, q), (r, s)


def graph_is_connected(graph):
    """Grow the set reachable from vertex id 0 one neighbourhood at a time."""
    masks = graph.adjacency
    seen = frontier = 1 if masks else 0
    while frontier:
        reach = 0
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            reach |= masks[bit.bit_length() - 1]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << len(masks)) - 1


# ---------------------------------------------------------------------------
# attached binomials

def cycle_binomial(graph, pairs, variables):
    """f_C for the cycle v_1, h_1, ..., v_r, h_r (indices mod r), given as its pairs.

    The plus side multiplies x(v_k meet h_k), the minus side x(v_(k+1) meet h_k).
    """
    r = len(pairs)
    n = len(variables)
    plus = mono_from_indices(n, (variables.index(graph.label(i, j)) for i, j in pairs))
    minus = mono_from_indices(
        n, (variables.index(graph.label(pairs[(k + 1) % r][0], j)) for k, (_, j) in enumerate(pairs)))
    return Binomial(plus, minus)
