"""Independent oracles used by the test suite.

Everything here is implemented from first principles, without calling the
library code under test: enumeration by subset filtering and by growth on
cell tuples, hole detection via the Euler characteristic, inner
intervals by testing every cell of every rectangle, induced-cycle
search by subset inspection, alternating cycle search by DFS over
segments, dense linear algebra for degree-bounded ideal membership,
Hilbert numerators of monomial ideals by pivoting, rook polynomials by
subset counting, plain and up to switches, textbook monomial-order
comparators, a dense weight-row comparator, and normal forms and
two-ended meetings rewritten on exponent tuples.

The last six sections are the exceptions. One is the Buchberger engine
as it was before it worked over lead supports, scanning dense exponent
tuples: it reads each pair's result off the tuple rewrite chains of its
cofactors, finds redundant elements by a dense divisibility scan and
reduces the kept tails on the package's kernel, so that a differential
test can check that the two engines make the same kernel calls. The
next is the interval graph as it was built before it was read off the runs, every
vertical interval tested against every horizontal one, next to the map
from each vertex to its intervals, read off the graph's edges, and the
test that a binomial is balanced under the toric map. The next is block
elimination as it was before v_0 was set to 1, with one auxiliary
variable per interval: once on the package's engine, only the eliminated
slice reduced, and once with the whole basis reduced, then sliced. The
next is the
quadratic-order search as it was before it stopped a failing order at its
first cubic: every candidate's basis is computed in full. The next holds
the inner intervals as they were found before the staircase scan over the
cells, from the interval graph's 4-cycles, and random growth as it was
before its frontier was kept sorted. The last holds
the polyomino-cycle model (a graph cycle mapped to its grid points, and the
binomial read off those points), a sign-blind binomial comparison, cycle
checks and dihedral images, all built on the package's types. The package
itself never needs them.
"""

import functools
import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from math import comb

from polyprime import kernel as _kernel
from polyprime.algebra import (
    DEFAULT_BUDGETS, GroebnerBasis, OrderSearchConfig, _groebner, _reduced, buchberger)
from polyprime.binomials import (
    GREATER, ZERO, Binomial, MonomialOrder, block_order, mono_from_indices, named_ranking, order_key)
from polyprime.errors import BudgetExceededError, LimitExceededError
from polyprime.graph import four_cycles
from polyprime.grid import Polyomino
from polyprime.intervals import build_interval_graph, maximal_edge_intervals

STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


# ---------------------------------------------------------------------------
# monomials and edge intervals

def mono_one(nvars):
    return (0,) * nvars


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def contains_vertex(interval, orientation, point):
    """Does the EdgeInterval of ``orientation`` ("v" or "h") pass through the grid vertex ``point``?"""
    x, y = point
    if orientation == "v":
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


def flood_is_simple(poly):
    """True iff the polyomino has no holes, by a flood fill of the empty cells.

    Every cell of the bounding box that is not in the polyomino must
    reach, through empty cells sharing edges, a cell strictly outside the
    box.

    The box plus a one-cell ring around it is a bitmask with one bit per
    cell, column by column. The fill starts from the ring and grows by
    shifts until it stops changing; a shift that wraps from the top of one
    column to the bottom of the next only ever joins two ring cells.
    """
    stride = poly.height + 2              # bits per column, ring included
    cols = poly.width + 2
    origin = stride + 1                   # cell (0, 0), inside the ring
    cells = 0
    for x, y in poly.cells_sorted:
        cells |= 1 << (origin + x * stride + y)
    inner_column = ((1 << (stride - 2)) - 1) << 1
    interior = 0
    for _ in range(cols - 2):
        interior = (interior | inner_column) << stride
    empty = ((1 << (cols * stride)) - 1) ^ cells
    reached = empty & ~interior
    while True:
        grown = (reached | reached << 1 | reached >> 1
                 | reached << stride | reached >> stride) & empty
        if grown == reached:
            return reached == empty
        reached = grown


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


def area_inner_intervals(poly):
    """All intervals [lo, hi] (lo < hi componentwise) whose cells all lie in the polyomino.

    Ordered lexicographically by (lo, hi).
    """
    w, h = poly.width, poly.height
    out = []
    for x1 in range(w):
        for y1 in range(h):
            for x2 in range(x1 + 1, w + 1):
                for y2 in range(y1 + 1, h + 1):
                    if all(
                        (cx, cy) in poly.cells
                        for cx in range(x1, x2)
                        for cy in range(y1, y2)
                    ):
                        out.append(((x1, y1), (x2, y2)))
    return out


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
# Hilbert numerators of monomial ideals, and rook polynomials
#
# Polynomials in t are coefficient lists, lowest degree first, with no
# trailing zeros.

def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def hilbert_numerator(gens):
    """K(t) with Hilbert series K(t) / (1 - t)^n for S / (gens), S in n variables.

    ``gens`` are exponent tuples of one length n. Pivots on a variable x of
    a generator of degree at least 2: K(I) = K(I + (x)) + t * K(I : x). An
    ideal generated by k variables has K = (1 - t)^k.
    """
    minimal = []
    for g in sorted(set(gens), key=sum):
        if not any(mono_divides(h, g) for h in minimal):
            minimal.append(g)
    if any(sum(g) == 0 for g in minimal):
        return []
    wide = next((g for g in minimal if sum(g) > 1), None)
    if wide is None:
        k = len(minimal)
        return [(-1) ** i * comb(k, i) for i in range(k + 1)]
    i = next(i for i, e in enumerate(wide) if e)
    with_x = hilbert_numerator(minimal + [tuple(int(j == i) for j in range(len(wide)))])
    colon = hilbert_numerator([g[:i] + (max(g[i] - 1, 0),) + g[i + 1:] for g in minimal])
    out = [0] * max(len(with_x), len(colon) + 1)
    for d, c in enumerate(with_x):
        out[d] += c
    for d, c in enumerate(colon):
        out[d + 1] += c
    return _trim(out)


def divide_by_one_minus_t(coeffs, times):
    """coeffs / (1 - t)^times; raises ValueError unless the division is exact."""
    for _ in range(times):
        if sum(coeffs):
            raise ValueError(f"{coeffs} is not divisible by 1 - t")
        coeffs = list(accumulate(coeffs))[:-1]
    return _trim(coeffs)


def rook_placements(cells):
    """For each k, the rook placements of k rooks: the k-sets of cells no two sharing a segment.

    A segment is a maximal run of cells in one row or one column, so two
    cells of one row with a gap between them do not attack each other.
    """
    cells = set(cells)

    def segment_start(cell, dx, dy):
        x, y = cell
        while (x - dx, y - dy) in cells:
            x, y = x - dx, y - dy
        return (dx, x, y)

    segments = {c: (segment_start(c, 1, 0), segment_start(c, 0, 1)) for c in cells}
    placements = []
    for k in range(len(cells) + 1):
        placements.append(set())
        for chosen in combinations(cells, k):
            used = [seg for c in chosen for seg in segments[c]]
            if len(used) == len(set(used)):
                placements[k].add(frozenset(chosen))
    return placements


def rook_polynomial(cells):
    """r_0, r_1, ...: r_k counts the rook placements of k rooks on the cells."""
    return _trim(len(placed) for placed in rook_placements(cells))


def switching_rook_polynomial(cells):
    """r_0, r_1, ...: r_k counts the rook placements of k rooks up to switches.

    A switch takes two rooks on opposite corner cells of a rectangle of
    cells inside the polyomino and moves them to the other two corners
    (Qureshi, Rinaldo and Romeo, "Hilbert series of parallelogram
    polyominoes", Res. Math. Sci. 2022). It keeps the placement
    non-attacking: each moved rook stays in a segment of one of the two.
    """
    cells = set(cells)
    counts = []
    for placed in rook_placements(cells):
        classes = 0
        seen = set()
        for start in placed:
            if start in seen:
                continue
            classes += 1
            seen.add(start)
            stack = [start]
            while stack:
                rooks = stack.pop()
                for (x1, y1), (x2, y2) in combinations(rooks, 2):
                    inside = x1 != x2 and y1 != y2 and all(
                        (x, y) in cells
                        for x in range(min(x1, x2), max(x1, x2) + 1)
                        for y in range(min(y1, y2), max(y1, y2) + 1))
                    if inside:
                        switched = rooks - {(x1, y1), (x2, y2)} | {(x1, y2), (x2, y1)}
                        if switched not in seen:
                            seen.add(switched)
                            stack.append(switched)
        counts.append(classes)
    return _trim(counts)


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


def dense_rows(order):
    """The weight matrix of ``order``, one dense row of ``order.nvars`` weights each, per the textbook.

    Per block: lex ranks by e_i for each ranked variable, highest first;
    deglex and degrevlex first by the block's degree, then deglex by e_i
    down the ranking but for the last variable, and degrevlex by -e_i up
    the ranking but for the first.
    """
    def unit(i, sign=1):
        return tuple(sign if j == i else 0 for j in range(order.nvars))

    rows = []
    for kind, ranking in order.parts:
        if kind == "lex":
            rows += [unit(i) for i in ranking]
            continue
        rows.append(tuple(1 if j in ranking else 0 for j in range(order.nvars)))
        if kind == "deglex":
            rows += [unit(i) for i in ranking[:-1]]
        else:
            rows += [unit(i, -1) for i in reversed(ranking[1:])]
    return tuple(rows)


def weight_row_compare(rows, a, b):
    """Three-way compare of exponent tuples by their images under dense weight rows, first row first."""
    for row in rows:
        s = sum(w * (x - y) for w, x, y in zip(row, a, b))
        if s:
            return 1 if s > 0 else -1
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

def tuple_normal_form(rules, mono, budget):
    """Rewrite ``mono`` by the first divisible lead of ``rules`` [(lead, tail)].

    The scan restarts after every hit; returns None when ``budget`` steps
    were not enough. This is the kernel contract on plain tuples.
    """
    m = tuple(mono)
    steps = 0
    changed = True
    while changed:
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


def tuple_cofactors(rules, i, j):
    """The two cofactors of the S-pair of rules i and j: tail * lcm(lead_i, lead_j) / lead."""
    (lead_i, tail_i), (lead_j, tail_j) = rules[i], rules[j]
    lcm = [x if x > y else y for x, y in zip(lead_i, lead_j)]
    return (tuple(c - x + t for c, x, t in zip(lcm, lead_i, tail_i)),
            tuple(c - y + t for c, y, t in zip(lcm, lead_j, tail_j)))


def tuple_meet(rules, m, n, budget, limit=None):
    """The kernel's ``meet`` on plain tuples, read off the two rewrite chains.

    In round k, ``n``'s chain takes its k-th step, then ``m``'s. The result
    is () as soon as a chain reaches the other's start or the monomial the
    other chain is at, None when a side needs step ``budget + 1``, and
    otherwise () or the two normal forms (m's, n's) once both chains end.
    With ``limit`` set, a step to an exponent past it raises
    LimitExceededError naming the chain's start.
    """
    if tuple(m) == tuple(n):
        return ()
    # one step past the budget, so that a side that needs it shows
    a = tuple_rewrite_chain(rules, m, max(budget, 0) + 1)
    b = tuple_rewrite_chain(rules, n, max(budget, 0) + 1)
    for k in range(1, max(len(a), len(b))):
        # n's step k finds m after k - 1 steps; m's step k finds n after k
        for chain, other, at in ((b, a, k - 1), (a, b, k)):
            if k < len(chain):
                if k > budget:
                    return None
                if limit is not None and any(e > limit for e in chain[k]):
                    raise LimitExceededError(
                        f"rewriting {chain[0]} pushed an exponent past the kernel limit {limit}")
                if chain[k] in (other[0], other[min(at, len(other) - 1)]):
                    return ()
    return () if a[-1] == b[-1] else (a[-1], b[-1])


def tuple_s_pair(rules, i, j, budget, limit=None):
    """The kernel's ``s_pair`` on plain tuples: ``tuple_meet`` of the two
    cofactors, the first checked against ``limit`` before the second."""
    cofactors = tuple_cofactors(rules, i, j)
    for c in cofactors if limit is not None else ():
        if any(e > limit for e in c):
            raise LimitExceededError(f"exponent of {c} outside the kernel limit 0..{limit}")
    return tuple_meet(rules, *cofactors, budget, limit)


def tuple_rewrite_chain(rules, mono, steps=None):
    """Every monomial the rewrite of ``mono`` passes through, ``mono`` first,
    its normal form last; with ``steps`` set, at most that many steps."""
    chain = [tuple(mono)]
    while steps is None or len(chain) <= steps:
        for lead, tail in rules:
            if mono_divides(lead, chain[-1]):
                chain.append(tuple(me - le + te for me, le, te in zip(chain[-1], lead, tail)))
                break
        else:
            break
    return chain


# ---------------------------------------------------------------------------
# reference engine: dense exponent-tuple loops, on the package's kernel

def dense_buchberger(gens, order, budgets=DEFAULT_BUDGETS):
    """Canonical reduced Groebner basis of a pure-difference binomial ideal.

    Each pair's result comes from the rewrite chains of its two cofactors
    (``tuple_s_pair``, looked up at each call), with no kernel call. The
    kernel basis holds every element and reduces the kept tails.
    """
    kern = _kernel.get_kernel()
    kb = kern.Basis(order.nvars)
    basis = []

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

    pairs = []
    for g in gens:
        if g is ZERO:
            raise ValueError("generators must be nonzero")
        c = kern.compare(order, g.plus, g.minus)
        push_element(*((g.plus, g.minus) if c == GREATER else (g.minus, g.plus)))

    processed = 0
    while pairs:
        _, i, j = heapq.heappop(pairs)
        processed += 1
        if processed > budgets.pairs:
            raise BudgetExceededError(f"S-pair budget {budgets.pairs} exhausted")
        # S-binomial of (lead_i - tail_i, lead_j - tail_j): both lcm cofactors applied
        reduced = tuple_s_pair(basis, i, j, budgets.reduction_steps)
        if reduced is None:
            raise BudgetExceededError(f"reduction step budget {budgets.reduction_steps} exhausted")
        if reduced:
            a, b = reduced
            c = kern.compare(order, a, b)
            push_element(*((a, b) if c == GREATER else (b, a)))

    # a lead that another element's lead divides is redundant; of equal leads the last stays
    kept = [(lead, tail) for k, (lead, tail) in enumerate(basis)
            if not any(mono_divides(other, lead) and (other != lead or m > k)
                       for m, (other, _) in enumerate(basis) if m != k)]
    key = order_key(order)
    by_lead = sorted(kept, key=lambda rule: key(rule[0]))
    # the key must sort as a comparator does; the dense rows' comparator
    # makes no kernel call, so the engine's calls still compare like with like
    rows = dense_rows(order)
    assert by_lead == sorted(kept, key=functools.cmp_to_key(lambda a, b: weight_row_compare(rows, a[0], b[0])))
    elements = []
    for lead, tail in by_lead:
        nf_tail = kb.normal_form(tail, budgets.reduction_steps)
        if nf_tail is None:
            raise BudgetExceededError(f"reduction step budget {budgets.reduction_steps} exhausted")
        elements.append(Binomial(lead, nf_tail))
    return GroebnerBasis(order, tuple(elements))


# ---------------------------------------------------------------------------
# the interval graph by pairwise intersection, and the toric map

def pairwise_interval_graph(poly):
    """(vertical, horizontal, edges): every pair of maximal intervals tested for a meeting point."""
    vert, horiz = maximal_edge_intervals(poly)
    edges = []
    for p, vi in enumerate(vert):
        for q, hj in enumerate(horiz):
            if vi.span[0] <= hj.line <= vi.span[1] and hj.span[0] <= vi.line <= hj.span[1]:
                edges.append((p, q, (vi.line, hj.line)))
    return vert, horiz, edges


def intervals_through(graph):
    """{vertex: (p, q)}: the maximal intervals v_p and h_q through each polyomino vertex."""
    return {point: (p, q) for p, q, point in graph.edges}


def balanced(graph, variables, binomial):
    """Do both sides of ``binomial`` have one image under x(i,j) |-> v_p * h_q?"""
    through = intervals_through(graph)

    def image(mono):
        aux = [0] * (graph.m + graph.n)
        for idx, e in enumerate(mono):
            if e:
                p, q = through[variables.points[idx]]
                aux[p] += e
                aux[graph.m + q] += e
        return aux

    return image(binomial.plus) == image(binomial.minus)


# ---------------------------------------------------------------------------
# block elimination with every auxiliary variable, v_0 included

def _full_elimination_ring(graph, variables, grid_order):
    """(aux_count, order, gens): one auxiliary variable per interval, v_0..v_{m-1}
    then h_0..h_{n-1}, as the first block, and x_pq - v_p h_q per edge in variable order."""
    aux_count = graph.m + graph.n
    total = aux_count + len(variables)
    elim_order = block_order(total, [("degrevlex", range(aux_count))] + [
        (kind, [aux_count + i for i in ranking]) for kind, ranking in grid_order.parts])
    through = intervals_through(graph)
    gens = [Binomial(mono_from_indices(total, (p, graph.m + q)), mono_from_indices(total, (aux_count + idx,)))
            for idx, (p, q) in enumerate(through[point] for point in variables.points)]
    return aux_count, elim_order, gens


def full_elimination(graph, variables, grid_order, budgets=DEFAULT_BUDGETS):
    """The toric ideal's reduced basis by elimination over all m + n auxiliary
    variables: the kept elements of the slice free of them, reduced."""
    aux_count, elim_order, gens = _full_elimination_ring(graph, variables, grid_order)
    rules, red = _groebner(gens, elim_order, budgets)
    return _reduced([rule for rule in rules if not any(rule[0][:aux_count])], red, grid_order, aux_count)


def reduced_then_sliced_elimination(graph, variables, grid_order, budgets=DEFAULT_BUDGETS):
    """The toric ideal's reduced basis: the elements of the reduced elimination basis free of auxiliary variables."""
    aux_count, elim_order, gens = _full_elimination_ring(graph, variables, grid_order)
    gb = buchberger(gens, elim_order, budgets=budgets)
    return GroebnerBasis(grid_order, tuple(Binomial(b.plus[aux_count:], b.minus[aux_count:])
                                           for b in gb.elements if not any(b.plus[:aux_count])))


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
# inner intervals from the 4-cycles, and random growth over a re-sorted frontier

def four_cycle_inner_intervals(poly):
    """All intervals [lo, hi] (lo < hi componentwise) whose cells all lie in the polyomino, sorted by (lo, hi).

    Each side of one lies on a maximal edge interval, so they are the rectangles of the interval graph's
    4-cycles v_p, h_q, v_r, h_s that a table of cell counts finds full; lo = label(p, q), hi = label(r, s).
    """
    graph = build_interval_graph(poly)
    below = [[0] * (poly.height + 1) for _ in range(poly.width + 1)]   # below[x][y]: cells left of x, below y
    for x in range(poly.width):
        for y in range(poly.height):
            below[x + 1][y + 1] = below[x][y + 1] + below[x + 1][y] - below[x][y] + ((x, y) in poly.cells)
    corners = (graph.label(p, q) + graph.label(r, s) for (p, q), (r, s) in four_cycles(graph))
    return sorted(((x1, y1), (x2, y2)) for x1, y1, x2, y2 in corners
                  if below[x2][y2] - below[x1][y2] - below[x2][y1] + below[x1][y1] == (x2 - x1) * (y2 - y1))


def resorted_random_polyomino(n, rng):
    """Seeded random growth: uniformly pick an adjacent empty cell n-1 times."""
    if n < 1:
        raise ValueError("cell count must be positive")
    cells = {(0, 0)}
    while len(cells) < n:
        frontier = sorted(
            {
                (x + dx, y + dy)
                for x, y in cells
                for dx, dy in STEPS
                if (x + dx, y + dy) not in cells
            }
        )
        cells.add(frontier[rng.randrange(len(frontier))])
    return Polyomino(cells)


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


def graph_cycle_to_polyo_cycle(graph, pairs):
    """Intersect consecutive intervals of a graph cycle, given as its pairs, into a polyomino cycle."""
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
    for orientation, interval in [("v", i) for i in vert] + [("h", i) for i in horiz]:
        hits = sum(1 for p in pts if contains_vertex(interval, orientation, p))
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
