"""Exact binomial algebra: Buchberger engine, toric ideals, order search.

Everything stays inside pure-difference binomials: the S-polynomial of two
difference binomials and the remainder of one modulo others are again
difference binomials (or zero), so no general polynomial arithmetic is
needed. The engine is deterministic: pairs are processed in (lcm degree,
age) order, rewriting always uses the first divisible lead in basis order,
and the returned reduced basis is the canonical one for (ideal, order),
sorted by leading monomial.

One run builds one kernel ``Basis``. Each popped pair is one
``Basis.s_pair`` call, which rewrites the two cofactors in lockstep until
their chains meet or end. When an element is pushed, it marks every
element whose lead its lead divides as redundant, and a generator whose
lead an earlier lead divides marks itself. Once the pair loop
ends, the basis holds a Groebner basis, so the kept tails are reduced in
that same basis: a normal form modulo a Groebner basis does not depend
on which reducers it uses.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, fields

from polyprime import kernel as _kernel
from polyprime.binomials import (
    Binomial,
    GREATER,
    MonomialOrder,
    ZERO,
    block_order,
    mono_from_indices,
    named_ranking,
    order_key,
    render_binomial,
)
from polyprime.errors import BudgetExceededError, DegreeExceededError
from polyprime.graph import chordless_cycles, cycle_binomial
from polyprime.grid import grid_variables
from polyprime.intervals import build_interval_graph


@dataclass(frozen=True)
class EngineBudgets:
    pairs: int = 100_000
    elements: int = 10_000
    reduction_steps: int = 10_000_000

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # a bool is an int and NaN compares False with everything: test the exact type
            if type(value) is not int or value < 0:
                kind = "" if type(value) is int else "an int "
                raise ValueError(f"{f.name} budget must be {kind}>= 0, got {value!r}")


DEFAULT_BUDGETS = EngineBudgets()


@dataclass(frozen=True)
class GroebnerBasis:
    """The reduced Groebner basis of an ideal under ``order``, sorted by lead."""

    order: MonomialOrder
    elements: tuple


def _orient(order, a, b):
    """(lead, tail): the larger of two distinct monomials under ``order`` first."""
    return (a, b) if _kernel.compare(order, a, b) == GREATER else (b, a)


class Reducer:
    """Packed rewrite system: normal forms under one step budget.

    Starts from ``elements``, binomials whose plus side is the lead;
    ``append`` adds further rules lead -> tail.
    """

    __slots__ = ("kb", "steps")

    def __init__(self, elements, order, budgets=DEFAULT_BUDGETS):
        self.kb = _kernel.Basis(order.nvars)
        self.steps = budgets.reduction_steps
        for b in elements:
            self.kb.append(b.plus, b.minus)

    def append(self, lead, tail):
        self.kb.append(lead, tail)

    def monomial(self, mono):
        return self._within(self.kb.normal_form(tuple(mono), self.steps))

    def s_pair(self, i, j):
        """The S-pair of rules ``i`` and ``j`` reduced: ``()`` if it is zero,
        else the normal forms of its two cofactors (``Basis.s_pair``)."""
        return self._within(self.kb.s_pair(i, j, self.steps))

    def binomial(self, b):
        """``b`` reduced: ZERO if its two sides have one normal form, else
        the binomial of their normal forms."""
        plus, minus = self.monomial(b.plus), self.monomial(b.minus)
        return ZERO if plus == minus else Binomial(plus, minus)

    def _within(self, out):
        if out is None:
            raise BudgetExceededError(f"reduction step budget {self.steps} exhausted")
        return out


def buchberger(gens, order, budgets=DEFAULT_BUDGETS, max_degree=None):
    """Canonical reduced Groebner basis of a pure-difference binomial ideal.

    With ``max_degree`` set, raises DegreeExceededError as soon as an S-pair
    leaves a nonzero remainder of higher degree.
    """
    rules, red = _groebner(gens, order, budgets, max_degree)
    return _reduced(rules, red, order)


def _groebner(gens, order, budgets, max_degree=None):
    """(rules, reducer) for the ideal of ``gens``: the Groebner basis that
    the reducer holds, in append order, and its rules whose lead no other
    lead divides, as (lead, tail) pairs; of equal leads the last is kept."""
    red = Reducer((), order, budgets=budgets)
    basis = []
    supports = []     # per element: the variables its lead uses
    degrees = []      # per element: the total degree of its lead
    redundant = []    # per element: whether another element's lead divides its lead
    by_variable = {}  # variable -> elements whose lead uses it

    def push_element(plus, minus):
        if len(basis) >= budgets.elements:
            raise BudgetExceededError(f"basis element budget {budgets.elements} exhausted")
        k = len(basis)
        support = tuple(v for v, e in enumerate(plus) if e)
        deg = sum(plus)
        basis.append((plus, minus))
        supports.append(support)
        degrees.append(deg)
        redundant.append(False)
        red.append(plus, minus)
        # leads sharing no variable with this one are coprime: their S-pair
        # reduces to zero, so only partners found through the index are
        # enqueued; keys are unique, so the pop order ignores push order
        partners = set()
        for v in support:
            ks = by_variable.get(v)
            if ks is None:
                by_variable[v] = [k]
            else:
                partners.update(ks)
                ks.append(k)
        for i in partners:
            lead_i = basis[i][0]
            shared = 0
            for v in supports[i]:
                x, y = lead_i[v], plus[v]
                shared += x if x < y else y
            # shared is the degree of gcd(lead_i, plus): it is deg exactly
            # when plus divides lead_i, and degrees[i] when lead_i divides
            # plus, which only a generator's lead can be
            if shared == deg:
                redundant[i] = True
            elif shared == degrees[i]:
                redundant[k] = True
            heapq.heappush(pairs, (degrees[i] + deg - shared, i, k))

    pairs = []
    for g in gens:
        if g is ZERO:
            raise ValueError("generators must be nonzero")
        # a repeated generator is harmless: its S-pair with the first copy
        # reduces to zero, and the later copy's lead marks the first redundant
        push_element(*_orient(order, g.plus, g.minus))

    processed = 0
    while pairs:
        _, i, j = heapq.heappop(pairs)
        processed += 1
        if processed > budgets.pairs:
            raise BudgetExceededError(f"S-pair budget {budgets.pairs} exhausted")
        # S-binomial of rules i and j: the kernel applies both lcm cofactors
        # and rewrites the two in lockstep until their chains meet or end
        reduced = red.s_pair(i, j)
        # a and b are normal forms modulo every lead so far, so the new lead
        # is divisible by none of them and cannot repeat an element
        if reduced:
            a, b = reduced
            if max_degree is not None:
                degree = max(sum(a), sum(b))
                if degree > max_degree:
                    raise DegreeExceededError(f"an S-pair left a remainder of degree {degree} > {max_degree}")
            push_element(*_orient(order, a, b))

    return [rule for rule, dropped in zip(basis, redundant) if not dropped], red


def _reduced(rules, red, order, cut=0):
    """The reduced basis under ``order`` of the rules that ``_groebner`` kept,
    with the first ``cut`` variables, which no rule uses, dropped.

    Each tail is rewritten in ``red`` itself: its rules are a Groebner basis
    of the ideal, so the normal form is the unique one, whichever leads the
    chain meets on the way.
    """
    key = order_key(order)
    return GroebnerBasis(order, tuple(
        Binomial(lead[cut:], red.monomial(tail)[cut:])
        for lead, tail in sorted(rules, key=lambda rule: key(rule[0][cut:]))))


def ideal_equal_paths(gb_inner, gb_toric, budgets=DEFAULT_BUDGETS):
    """(gaps, identity): the two decision paths of inner == toric for reduced bases.

    ``gaps`` lists the toric-basis elements outside the inner-minor ideal,
    so the ideals are equal by membership iff it is empty; every inner
    minor lies in the toric ideal, so the other inclusion is not tested.
    ``identity`` is True iff the two reduced bases are the same.
    """
    if gb_inner.order != gb_toric.order:
        raise ValueError("the two bases are under different orders")
    red = Reducer(gb_inner.elements, gb_inner.order, budgets=budgets)
    gaps = [g for g in gb_toric.elements if red.binomial(g) is not ZERO]
    return gaps, gb_inner.elements == gb_toric.elements


# ---------------------------------------------------------------------------
# toric ideal of the interval graph

def toric_ideal_elimination(graph, variables, grid_order, budgets=DEFAULT_BUDGETS):
    """Kernel of the edge-ring parametrization, computed by block elimination.

    ``graph`` is the polyomino's interval graph and ``variables`` its grid
    variables; the map sends x_pq to v_p h_q. The torus action v -> t v,
    h -> h / t leaves every image fixed, so v_0 is set to 1 and the m + n - 1
    auxiliary variables v_1..v_{m-1}, h_0..h_{n-1} remain. The kernel does
    not change: every image of x^a has v-degree and h-degree |a|, so two
    monomials with one image under v_0 = 1 have the same h-degree, hence the
    same degree and the same exponent of v_0 (Sturmfels, *Groebner Bases and
    Convex Polytopes*, 1996, Ch. 4).

    Builds a Groebner basis of <x_0q - h_q, x_pq - v_p h_q (p > 0)> in the
    combined ring, under the block order that ranks the auxiliary variables
    above all grid variables and compares grid monomials by ``grid_order``.
    By the elimination theorem its elements free of auxiliary variables
    form a Groebner basis of the toric ideal under ``grid_order``, so only
    the kept elements of that slice are reduced, then cut down to the grid
    variables. A monomial parametrization needs no saturation step.
    """
    # the auxiliary variables v_1..v_{m-1}, h_0..h_{n-1} come first, as one block
    aux_count = graph.m - 1 + graph.n
    total = aux_count + len(variables)
    elim_order = block_order(total, [("degrevlex", range(aux_count))] + [
        (kind, [aux_count + i for i in ranking]) for kind, ranking in grid_order.parts])
    # one generator per edge, at its vertex's variable index, so they run in variable order
    gens = [None] * len(variables)
    for p, q, point in graph.edges:
        idx = variables.index(point)
        image = (graph.m - 1 + q,) if p == 0 else (p - 1, graph.m - 1 + q)
        gens[idx] = Binomial(mono_from_indices(total, image),
                             mono_from_indices(total, (aux_count + idx,)))
    # a lead free of auxiliary variables has a tail free of them too, and
    # only such leads divide monomials free of them, so a tail's chain in
    # the whole basis never leaves the slice
    rules, red = _groebner(gens, elim_order, budgets)
    return _reduced([rule for rule in rules if not any(rule[0][:aux_count])], red, grid_order, aux_count)


def toric_ideal_cycles(poly, max_len=None, variables=None):
    """Cycle binomials f_C for all chordless cycles of the interval graph."""
    variables = variables if variables is not None else grid_variables(poly)
    graph = build_interval_graph(poly)
    return [cycle_binomial(graph, pairs, variables)
            for pairs in chordless_cycles(graph, min_len=4, max_len=max_len)]


# ---------------------------------------------------------------------------
# quadratic-order search

class OrderSearchConfig:
    """The nine orders ``find_quadratic_order`` tries: each ranking under each kind."""

    __slots__ = ()
    rankings = ("row-major", "column-major", "diagonal")
    kinds = ("degrevlex", "deglex", "lex")


def find_quadratic_order(gens, variables, budgets=DEFAULT_BUDGETS, *, basis=None):
    """First order of the OrderSearchConfig family whose reduced basis is quadratic and squarefree.

    An order fails at the first S-pair that leaves a cubic or higher
    remainder. For homogeneous generators that verdict is final: pairs pop
    in nondecreasing lcm degree, so every later element has at least that
    degree and none can divide the new lead, which stays in the reduced
    basis. Inhomogeneous generators raise ValueError. ``basis``, a reduced
    basis of ``gens`` already computed, is tested in place of a new run
    when its order is a candidate: the truncated run fails exactly when
    the full basis has an element of higher degree, so the verdict is the
    same.
    """
    for g in gens:
        if g is not ZERO and sum(g.plus) != sum(g.minus):
            raise ValueError(f"order search needs homogeneous generators, got {g}")
    nvars = len(variables)
    candidates = []
    for name in OrderSearchConfig.rankings:
        ranking = named_ranking(name, variables)
        for kind in OrderSearchConfig.kinds:
            candidates.append(MonomialOrder(kind, nvars, ranking))
    for order in candidates:
        if basis is not None and basis.order == order:
            gb = basis
        else:
            try:
                gb = buchberger(gens, order, budgets=budgets, max_degree=2)
            except DegreeExceededError:
                continue
        if all(b.is_quadratic() and b.is_squarefree() for b in gb.elements):
            return order
    return None


# ---------------------------------------------------------------------------
# gap witness

def _witness_key(binomial, variables):
    verts = [variables.points[i] for i in binomial.support()]
    xs = [v[0] for v in verts]
    ys = [v[1] for v in verts]
    area = (max(xs) - min(xs)) * (max(ys) - min(ys))
    return (binomial.degree, area, tuple(sorted(verts)), binomial.plus, binomial.minus)


def _present(binomial, variables):
    """Sign-normalize: the side with the smaller support comes first.

    For a 2-minor this puts the diagonal product in front, matching the
    inner-minor convention.
    """

    def side_key(mono):
        return tuple(sorted((variables.points[i], e) for i, e in enumerate(mono) if e))

    if side_key(binomial.minus) < side_key(binomial.plus):
        return binomial.flipped()
    return binomial


def witness_from_bases(gaps, variables):
    """The minimal-degree gap of ``ideal_equal_paths``, sign-normalized.

    Ties are broken by the bounding-box area of the support (most local
    witness first), then by support vertices. Returns None when there is
    no gap.
    """
    if not gaps:
        return None
    return _present(min(gaps, key=lambda g: _witness_key(g, variables)), variables)


def gb_to_json(gb, variables):
    return {
        "order": gb.order.to_json(variables),
        "reduced": True,
        "elements": [render_binomial(b, variables) for b in gb.elements],
    }
