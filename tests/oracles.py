"""Independent oracles used by the test suite.

Everything here is implemented from first principles, without calling the
library code under test: enumeration by subset filtering and by growth on
cell tuples, hole detection via the Euler characteristic, induced-cycle
search by subset inspection, alternating cycle search by DFS over
segments, dense linear algebra for degree-bounded ideal membership,
textbook monomial-order comparators, a dense weight-row comparator,
and normal forms rewritten on exponent tuples.

The last three sections are the exceptions. One is the Buchberger engine
as it was before it worked over lead supports, scanning dense exponent
tuples; it runs on the package's kernel, so that a differential test can
check that the two engines make the same kernel calls. The next is the
quadratic-order search as it was before it stopped a failing order at its
first cubic: every candidate's basis is computed in full. The last holds
the polyomino-cycle model (a graph cycle mapped to its grid points, and the
binomial read off those points), a sign-blind binomial comparison, cycle
checks and dihedral images, all built on the package's types. The package
itself never needs them.
"""

import functools
import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from polyprime import kernel as _kernel
from polyprime.algebra import DEFAULT_BUDGETS, GroebnerBasis, OrderSearchConfig, buchberger
from polyprime.binomials import (
    GREATER, ZERO, Binomial, MonomialOrder, kernel_order, mono_from_indices, named_ranking)
from polyprime.errors import BudgetExceededError
from polyprime.grid import Polyomino
from polyprime.intervals import maximal_edge_intervals

STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


# ---------------------------------------------------------------------------
# monomials and edge intervals

def mono_one(nvars):
    return (0,) * nvars


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def contains_vertex(interval, point):
    """Does the EdgeInterval pass through the grid vertex ``point``?"""
    x, y = point
    if interval.orientation == "v":
        return x == interval.line and interval.span[0] <= y <= interval.span[1]
    return y == interval.line and interval.span[0] <= x <= interval.span[1]


# ---------------------------------------------------------------------------
# polyomino enumeration and simplicity

def subsets_connected(cells):
    cells = set(cells)
    start = next(iter(cells))
    seen = {start}
    stack = [start]
    while stack:
        x, y = stack.pop()
        for dx, dy in STEPS:
            nb = (x + dx, y + dy)
            if nb in cells and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(cells)


def naive_fixed_polyominoes(n):
    """All fixed n-cell polyominoes by filtering n-subsets of an n x n box."""
    box = [(x, y) for x in range(n) for y in range(n)]
    found = set()
    for sub in combinations(box, n):
        if min(x for x, _ in sub) or min(y for _, y in sub):
            continue
        if subsets_connected(sub):
            found.add(tuple(sorted(sub)))
    return sorted(found)


def grown_fixed_polyominoes(n):
    """All fixed n-cell polyominoes by growing cell sets one neighbour at a time."""
    level = {((0, 0),)}
    for _ in range(n - 1):
        grown = set()
        for shape in level:
            for x, y in shape:
                for dx, dy in STEPS:
                    nb = (x + dx, y + dy)
                    if nb not in shape:
                        cells = shape + (nb,)
                        mx = min(cx for cx, _ in cells)
                        my = min(cy for _, cy in cells)
                        grown.add(tuple(sorted((cx - mx, cy - my) for cx, cy in cells)))
        level = grown
    return sorted(level)


def euler_is_simple(cells):
    """chi(closed cell complex) = 1 - holes, so simple iff V - E + F == 1."""
    verts, edges = set(), set()
    for x, y in cells:
        a, b, c, d = (x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)
        verts.update((a, b, c, d))
        edges.update({(a, b), (a, c), (b, d), (c, d)})
    return len(verts) - len(edges) + len(cells) == 1


def polyomino_edges(cells):
    edges = set()
    for x, y in cells:
        a, b, c, d = (x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)
        edges.update({(a, b), (a, c), (b, d), (c, d)})
    return edges


def polyomino_vertices(cells):
    verts = set()
    for x, y in cells:
        verts.update(((x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)))
    return verts


# ---------------------------------------------------------------------------
# chordless cycles by subset inspection

def brute_chordless_cycles(nvertices, edge_set, min_len, max_len):
    """Vertex sets of induced cycles: every vertex of the subset has induced
    degree 2 and the subset is connected."""
    adj = {v: set() for v in range(nvertices)}
    for a, b in edge_set:
        adj[a].add(b)
        adj[b].add(a)
    found = []
    for k in range(max(min_len, 3), max_len + 1):
        for sub in combinations(range(nvertices), k):
            ss = set(sub)
            if any(len(adj[v] & ss) != 2 for v in sub):
                continue
            # connected check within the subset
            seen = {sub[0]}
            stack = [sub[0]]
            while stack:
                v = stack.pop()
                for w in adj[v] & ss:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) == k:
                found.append(frozenset(sub))
    return found


def canonical_cycle_pairs(pairs):
    """The least of a graph cycle's ((i1, j1), ..., (ir, jr)) tuples over all
    rotations and the reflection v_{i1}, h_{jr}, v_{ir}, ..., v_{i2}, h_{j1}."""
    r = len(pairs)
    vs = [i for i, _ in pairs]
    hs = [j for _, j in pairs]
    reflected = tuple((vs[-k % r], hs[-k - 1]) for k in range(r))
    return min(base[k:] + base[:k] for base in (pairs, reflected) for k in range(r))


# ---------------------------------------------------------------------------
# alternating cycles in a polyomino by DFS over axis segments

def _segment_ok(a, b, edges):
    (x1, y1), (x2, y2) = a, b
    if x1 == x2 and y1 != y2:
        lo, hi = sorted((y1, y2))
        return all(((x1, t), (x1, t + 1)) in edges for t in range(lo, hi))
    if y1 == y2 and x1 != x2:
        lo, hi = sorted((x1, x2))
        return all(((t, y1), (t + 1, y1)) in edges for t in range(lo, hi))
    return False


def alternating_cycles(cells, max_vertices=8):
    """All cycles of grid vertices with alternating horizontal/vertical
    edge-interval segments, canonicalized up to rotation and reflection."""
    edges = polyomino_edges(cells)
    verts = sorted(polyomino_vertices(cells))

    def moves(v, want):
        vx, vy = v
        for w in verts:
            if w == v:
                continue
            horizontal = w[1] == vy and w[0] != vx
            vertical = w[0] == vx and w[1] != vy
            if want == "h" and not horizontal:
                continue
            if want == "v" and not vertical:
                continue
            if want is None and not (horizontal or vertical):
                continue
            if _segment_ok(v, w, edges):
                yield w, ("h" if horizontal else "v")

    found = set()

    def canonical(path):
        forms = []
        p = list(path)
        for _ in range(2):
            for k in range(len(p)):
                forms.append(tuple(p[k:] + p[:k]))
            p = list(reversed(p))
        return min(forms)

    def dfs(path, first_dir, last_dir):
        v = path[-1]
        for w, d in moves(v, "h" if last_dir == "v" else "v" if last_dir == "h" else None):
            if w == path[0]:
                # closing segment must alternate with both neighbors
                if len(path) >= 4 and len(path) % 2 == 0 and d != first_dir:
                    found.add(canonical(path))
                continue
            if w in path or len(path) == max_vertices:
                continue
            dfs(path + [w], first_dir if first_dir else d, d)

    for v0 in verts:
        for w, d in moves(v0, None):
            if w > v0:
                dfs([v0, w], d, d)
    return sorted(found)


# ---------------------------------------------------------------------------
# dense degree-bounded membership for homogeneous binomial ideals

def monomials_of_degree(nvars, deg):
    if nvars == 1:
        yield (deg,)
        return
    for first in range(deg + 1):
        for rest in monomials_of_degree(nvars - 1, deg - first):
            yield (first,) + rest


def dense_member(f_plus, f_minus, gens, nvars):
    """Is the homogeneous binomial f in the ideal generated by homogeneous
    binomial gens? Exact for homogeneous ideals: degree-d membership only
    needs monomial multiples of degree exactly d."""
    deg = sum(f_plus)
    assert deg == sum(f_minus), "oracle needs homogeneous input"
    vectors = []
    for g_plus, g_minus in gens:
        gdeg = sum(g_plus)
        if gdeg > deg:
            continue
        for m in monomials_of_degree(nvars, deg - gdeg):
            vec = {}
            mp = tuple(a + b for a, b in zip(m, g_plus))
            mm = tuple(a + b for a, b in zip(m, g_minus))
            vec[mp] = vec.get(mp, Fraction(0)) + 1
            vec[mm] = vec.get(mm, Fraction(0)) - 1
            vec = {k: v for k, v in vec.items() if v}
            if vec:
                vectors.append(vec)
    target = {}
    target[f_plus] = target.get(f_plus, Fraction(0)) + 1
    target[f_minus] = target.get(f_minus, Fraction(0)) - 1
    target = {k: v for k, v in target.items() if v}

    pivots = {}

    def reduce_row(row):
        row = dict(row)
        while row:
            m = max(row)
            if m not in pivots:
                return m, row
            c = row[m]
            for k, v in pivots[m].items():
                nv = row.get(k, Fraction(0)) - c * v
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
        return None, {}

    for vec in vectors:
        m, row = reduce_row(vec)
        if m is not None:
            inv = Fraction(1) / row[m]
            pivots[m] = {k: v * inv for k, v in row.items()}
    m, _ = reduce_row(target)
    return m is None


# ---------------------------------------------------------------------------
# textbook order comparators

def direct_lex(a, b, ranking):
    for i in ranking:
        if a[i] != b[i]:
            return 1 if a[i] > b[i] else -1
    return 0


def direct_deglex(a, b, ranking):
    da, db = sum(a), sum(b)
    if da != db:
        return 1 if da > db else -1
    return direct_lex(a, b, ranking)


def direct_degrevlex(a, b, ranking):
    da, db = sum(a), sum(b)
    if da != db:
        return 1 if da > db else -1
    for i in reversed(ranking):
        if a[i] != b[i]:
            return 1 if a[i] < b[i] else -1
    return 0


def direct_block(a, b, blocks):
    """Block order from (kind, ranking) pairs: the first block that differs decides."""
    for kind, ranking in blocks:
        sub_a = tuple(a[i] for i in ranking)
        sub_b = tuple(b[i] for i in ranking)
        local = range(len(ranking))
        c = {"lex": direct_lex, "deglex": direct_deglex, "degrevlex": direct_degrevlex}[kind](
            sub_a, sub_b, local)
        if c:
            return c
    return 0


# ---------------------------------------------------------------------------
# normal form on exponent tuples

def tuple_normal_form(rules, mono, budget, target=None):
    """Rewrite ``mono`` by the first divisible lead of ``rules`` [(lead, tail)].

    The scan restarts after every hit; returns None when ``budget`` steps
    were not enough, and stops early once the chain reaches ``target``.
    This is the kernel contract on plain tuples.
    """
    m = tuple(mono)
    steps = 0
    changed = True
    while changed and m != target:
        changed = False
        for lead, tail in rules:
            if all(le <= me for le, me in zip(lead, m)):
                if steps >= budget:
                    return None
                steps += 1
                m = tuple(me - le + te for me, le, te in zip(m, lead, tail))
                changed = True
                break
    return m


def tuple_rewrite_chain(rules, mono):
    """Every monomial the rewrite of ``mono`` passes through, ``mono`` first, its normal form last."""
    chain = [tuple(mono)]
    while True:
        for lead, tail in rules:
            if mono_divides(lead, chain[-1]):
                chain.append(tuple(me - le + te for me, le, te in zip(chain[-1], lead, tail)))
                break
        else:
            return chain


# ---------------------------------------------------------------------------
# reference engine: dense exponent-tuple loops, on the package's kernel

def dense_buchberger(gens, order, budgets=DEFAULT_BUDGETS):
    """Canonical reduced Groebner basis of a pure-difference binomial ideal."""
    kern = _kernel.get_kernel()
    ko = kernel_order(order)
    kb = kern.Basis(order.nvars)
    basis = []
    seen = set()

    def push_element(plus, minus):
        if len(basis) >= budgets.elements:
            raise BudgetExceededError(f"basis element budget {budgets.elements} exhausted")
        basis.append((plus, minus))
        kb.append(plus, minus)
        k = len(basis) - 1
        for i in range(k):
            lead_i = basis[i][0]
            lcm_deg = 0
            coprime = True
            for x, y in zip(lead_i, plus):
                if x:
                    if y:
                        coprime = False
                    lcm_deg += x if x > y else y
                else:
                    lcm_deg += y
            # coprime leading terms: the S-pair reduces to zero, never enqueue it
            if not coprime:
                heapq.heappush(pairs, (lcm_deg, i, k))

    def nf(mono, target=None):
        steps = budgets.reduction_steps
        out = kb.normal_form(mono, steps) if target is None else kb.normal_form_until(mono, steps, target)
        if out is None:
            raise BudgetExceededError(f"reduction step budget {steps} exhausted")
        return out

    pairs = []
    for g in gens:
        if g is ZERO:
            raise ValueError("generators must be nonzero")
        c = kern.compare(ko, g.plus, g.minus)
        plus, minus = (g.plus, g.minus) if c == GREATER else (g.minus, g.plus)
        if (plus, minus) in seen:
            continue
        seen.add((plus, minus))
        push_element(plus, minus)

    processed = 0
    while pairs:
        _, i, j = heapq.heappop(pairs)
        processed += 1
        if processed > budgets.pairs:
            raise BudgetExceededError(f"S-pair budget {budgets.pairs} exhausted")
        lead_i, tail_i = basis[i]
        lead_j, tail_j = basis[j]
        # S-binomial of (lead_i - tail_i, lead_j - tail_j): both lcm cofactors applied
        a = nf(tuple((y if y > x else x) - x + t for x, y, t in zip(lead_i, lead_j, tail_i)))
        b = nf(tuple((y if y > x else x) - y + t for x, y, t in zip(lead_i, lead_j, tail_j)), a)
        if a == b:
            continue
        c = kern.compare(ko, a, b)
        plus, minus = (a, b) if c == GREATER else (b, a)
        if (plus, minus) in seen:
            continue
        seen.add((plus, minus))
        push_element(plus, minus)

    return dense_inter_reduce(basis, order, budgets)


def dense_inter_reduce(basis, order, budgets):
    """Canonical reduced basis from a (possibly redundant) Groebner basis."""
    kern = _kernel.get_kernel()
    ko = kernel_order(order)
    by_lead = sorted(basis, key=functools.cmp_to_key(lambda a, b: kern.compare(ko, a[0], b[0])))
    kb = kern.Basis(order.nvars)
    kept = []
    for lead, tail in by_lead:
        # the kernel's budget-0 test, as the engine asks it, checked against a dense scan
        divisible = kb.normal_form(lead, 0) is None
        assert divisible == any(mono_divides(kl, lead) for kl, _ in kept)
        if not divisible:
            kb.append(lead, tail)
            kept.append((lead, tail))
    elements = []
    for lead, tail in kept:
        nf_tail = kb.normal_form(tail, budgets.reduction_steps)
        if nf_tail is None:
            raise BudgetExceededError(f"reduction step budget {budgets.reduction_steps} exhausted")
        elements.append(Binomial(lead, nf_tail))
    return GroebnerBasis(order, tuple(elements))


# ---------------------------------------------------------------------------
# quadratic-order search, every candidate run to completion

def full_quadratic_order_search(gens, variables, budgets=DEFAULT_BUDGETS):
    """First order of the OrderSearchConfig family whose complete reduced basis is quadratic and squarefree."""
    family = OrderSearchConfig()
    for name in family.rankings:
        ranking = named_ranking(name, variables)
        for kind in family.kinds:
            order = MonomialOrder(kind, len(variables), ranking)
            gb = buchberger(gens, order, budgets=budgets)
            if all(b.is_quadratic() and b.is_squarefree() for b in gb.elements):
                return order
    return None


# ---------------------------------------------------------------------------
# polyomino cycles and symmetries, on the package's types

def same_up_to_sign(a, b):
    return a == b or (a.plus == b.minus and a.minus == b.plus)


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


def graph_cycle_to_polyo_cycle(graph, cycle):
    """Intersect consecutive intervals of a graph cycle into a polyomino cycle."""
    pairs = cycle.pairs
    r = len(pairs)
    points = []
    for k in range(r):
        i_k, j_k = pairs[k]
        i_next = pairs[(k + 1) % r][0]
        points.append(graph.label(i_k, j_k))
        points.append(graph.label(i_next, j_k))
    return PolyoCycle(tuple(points))


def polyo_cycle_binomial(cycle, variables):
    """Product over odd-position vertices minus product over even-position vertices."""
    pts = cycle.points
    n = len(variables)
    plus = mono_from_indices(n, (variables.index(p) for p in pts[0::2]))
    minus = mono_from_indices(n, (variables.index(p) for p in pts[1::2]))
    return Binomial(plus, minus)


def _segment_points(a, b):
    (x1, y1), (x2, y2) = a, b
    if x1 == x2 and y1 != y2:
        lo, hi = sorted((y1, y2))
        return [(x1, y) for y in range(lo, hi + 1)]
    if y1 == y2 and x1 != x2:
        lo, hi = sorted((x1, x2))
        return [(x, y1) for x in range(lo, hi + 1)]
    raise ValueError(f"segment {a}-{b} is not axis-aligned")


def _segment_is_edge_interval(edges, a, b):
    pts = _segment_points(a, b)
    return all(
        tuple(sorted((pts[k], pts[k + 1]))) in edges for k in range(len(pts) - 1)
    )


def validate_polyo_cycle(poly, cycle):
    """Raise ValueError unless the cycle's segments are alternating edge intervals of the polyomino."""
    pts = cycle.points
    m = len(pts)
    edges = polyomino_edges(poly.cells)
    orientations = []
    for k in range(m):
        a, b = pts[k], pts[(k + 1) % m]
        if not _segment_is_edge_interval(edges, a, b):
            raise ValueError(f"segment {a}-{b} is not an edge interval of the polyomino")
        orientations.append("h" if a[1] == b[1] else "v")
    for k in range(m):
        if orientations[k] == orientations[(k + 1) % m]:
            raise ValueError("consecutive segments must alternate orientation")


def is_primitive(poly, cycle):
    """True iff every maximal edge interval contains at most two cycle vertices."""
    vert, horiz = maximal_edge_intervals(poly)
    pts = set(cycle.points)
    for interval in list(vert) + list(horiz):
        hits = sum(1 for p in pts if contains_vertex(interval, p))
        if hits > 2:
            return False
    return True


def has_self_crossing(poly, cycle):
    """True iff two non-adjacent cycle segments share a vertex besides their endpoints."""
    segs = cycle.segments()
    m = len(segs)
    pts = [set(_segment_points(a, b)) for a, b in segs]
    for i in range(m):
        for j in range(i + 1, m):
            if j == i + 1 or (i == 0 and j == m - 1):
                continue
            shared = pts[i] & pts[j]
            if not shared:
                continue
            endpoints = set(segs[i]) | set(segs[j])
            if shared - endpoints:
                return True
    return False


def _rot(cells):
    return [(-y, x) for x, y in cells]


def _mirror(cells):
    return [(-x, y) for x, y in cells]


def symmetry_images(poly):
    """The 8 dihedral images of the polyomino (possibly with repeats)."""
    out = []
    cells = list(poly.cells_sorted)
    for _ in range(2):
        for _ in range(4):
            out.append(Polyomino(cells))
            cells = _rot(cells)
        cells = _mirror(cells)
    return out
