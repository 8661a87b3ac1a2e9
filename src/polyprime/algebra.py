"""Exact binomial algebra: Buchberger engine, toric ideals, order search.

Everything stays inside pure-difference binomials: the S-polynomial of two
difference binomials and the remainder of one modulo others are again
difference binomials (or zero), so no general polynomial arithmetic is
needed. The engine is deterministic: pairs are processed in (lcm degree,
age) order, rewriting always uses the first divisible lead in basis order,
and the returned reduced basis is the canonical one for (ideal, order),
sorted by leading monomial.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass, fields

from polyprime import kernel as _kernel
from polyprime.binomials import (
    Binomial,
    GREATER,
    MonomialOrder,
    ZERO,
    block_order,
    degrevlex_order,
    kernel_order,
    mono_from_indices,
    named_ranking,
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
            if value < 0:
                raise ValueError(f"{f.name} budget must be >= 0, got {value}")


DEFAULT_BUDGETS = EngineBudgets()


@dataclass(frozen=True)
class GroebnerBasis:
    """The reduced Groebner basis of an ideal under ``order``, sorted by lead."""

    order: MonomialOrder
    elements: tuple


def _orient(ko, a, b):
    """(lead, tail): the larger of two distinct monomials under kernel order ``ko`` first."""
    return (a, b) if _kernel.get_kernel().compare(ko, a, b) == GREATER else (b, a)


class Reducer:
    """Packed rewrite system: normal forms under one step budget.

    Starts from ``elements``, binomials whose plus side is the lead;
    ``append`` adds further rules lead -> tail.
    """

    __slots__ = ("kb", "steps")

    def __init__(self, elements, order, budgets=DEFAULT_BUDGETS):
        self.kb = _kernel.get_kernel().Basis(order.nvars)
        self.steps = budgets.reduction_steps
        for b in elements:
            self.kb.append(b.plus, b.minus)

    def append(self, lead, tail):
        self.kb.append(lead, tail)

    def monomial(self, mono):
        out = self.kb.normal_form(tuple(mono), self.steps)
        if out is None:
            raise BudgetExceededError(f"reduction step budget {self.steps} exhausted")
        return out

    def monomial_until(self, mono, target):
        """The normal form of ``mono``, or ``target`` once its rewrite chain reaches it.

        With ``target`` irreducible, that is the normal form too: rewriting
        is deterministic, so a chain through ``target`` ends there.
        """
        out = self.kb.normal_form_until(tuple(mono), self.steps, target)
        if out is None:
            raise BudgetExceededError(f"reduction step budget {self.steps} exhausted")
        return out

    def divisible(self, mono):
        """True iff some lead divides ``mono``: budget 0 stops at the first rewrite."""
        return self.kb.normal_form(mono, 0) is None

    def binomial(self, b):
        plus = self.monomial(b.plus)
        minus = self.monomial_until(b.minus, plus)
        if plus == minus:
            return ZERO
        return Binomial(plus, minus)


def buchberger(gens, order, budgets=DEFAULT_BUDGETS, max_degree=None):
    """Canonical reduced Groebner basis of a pure-difference binomial ideal.

    With ``max_degree`` set, raises DegreeExceededError as soon as an S-pair
    leaves a nonzero remainder of higher degree.
    """
    ko = kernel_order(order)
    red = Reducer((), order, budgets=budgets)
    basis = []
    supports = []     # per element: the variables its lead uses
    degrees = []      # per element: the total degree of its lead
    by_variable = {}  # variable -> elements whose lead uses it
    seen = set()      # oriented generators, so that a repeated one is pushed once

    def push_element(plus, minus):
        if len(basis) >= budgets.elements:
            raise BudgetExceededError(f"basis element budget {budgets.elements} exhausted")
        k = len(basis)
        support = tuple(v for v, e in enumerate(plus) if e)
        deg = sum(plus)
        basis.append((plus, minus))
        supports.append(support)
        degrees.append(deg)
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
            heapq.heappush(pairs, (degrees[i] + deg - shared, i, k))

    def cofactor_times(tail, lead, other, other_support):
        """tail * lcm(lead, other) / lead: add the positive part of other - lead."""
        out = list(tail)
        for v in other_support:
            d = other[v] - lead[v]
            if d > 0:
                out[v] += d
        return tuple(out)

    pairs = []
    for g in gens:
        if g is ZERO:
            raise ValueError("generators must be nonzero")
        plus, minus = _orient(ko, g.plus, g.minus)
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
        a = red.monomial(cofactor_times(tail_i, lead_i, lead_j, supports[j]))
        # a zero pair stops where the second chain meets a, without a
        # second scan proving irreducibility
        b = red.monomial_until(cofactor_times(tail_j, lead_j, lead_i, supports[i]), a)
        # a and b are normal forms modulo every lead so far, so the new lead
        # is divisible by none of them and cannot repeat an element
        if a != b:
            if max_degree is not None:
                degree = max(sum(a), sum(b))
                if degree > max_degree:
                    raise DegreeExceededError(f"an S-pair left a remainder of degree {degree} > {max_degree}")
            push_element(*_orient(ko, a, b))

    return _inter_reduce(basis, order, budgets)


def _inter_reduce(basis, order, budgets):
    """Canonical reduced basis from a (possibly redundant) Groebner basis."""
    kern = _kernel.get_kernel()
    ko = kernel_order(order)
    by_lead = sorted(basis, key=functools.cmp_to_key(lambda a, b: kern.compare(ko, a[0], b[0])))
    red = Reducer((), order, budgets=budgets)
    kept = []
    for lead, tail in by_lead:
        # only a smaller lead can divide this one, and every smaller one that
        # is not itself redundant is already kept
        if not red.divisible(lead):
            red.append(lead, tail)
            kept.append((lead, tail))
    return GroebnerBasis(order, tuple(Binomial(lead, red.monomial(tail)) for lead, tail in kept))


def ideal_equal_paths(gb_a, gb_b, budgets=DEFAULT_BUDGETS):
    """(mutual-reduction verdict, reduced-basis-identity verdict) for two reduced bases."""
    if gb_a.order != gb_b.order:
        raise ValueError("the two bases are under different orders")
    red_a = Reducer(gb_a.elements, gb_a.order, budgets=budgets)
    red_b = Reducer(gb_b.elements, gb_b.order, budgets=budgets)
    mutual = all(red_b.binomial(g) is ZERO for g in gb_a.elements) and all(
        red_a.binomial(g) is ZERO for g in gb_b.elements)
    identity = gb_a.elements == gb_b.elements
    return mutual, identity


# ---------------------------------------------------------------------------
# toric ideal of the interval graph

@dataclass(frozen=True)
class ToricMap:
    """x(i,j) |-> v_p * h_q for the maximal intervals through each vertex."""

    m: int
    n: int
    images: tuple  # per grid-variable index: (p, q)

    def image_exponents(self, mono):
        aux = [0] * (self.m + self.n)
        for idx, e in enumerate(mono):
            if e:
                p, q = self.images[idx]
                aux[p] += e
                aux[self.m + q] += e
        return tuple(aux)

    def balanced(self, binomial):
        return self.image_exponents(binomial.plus) == self.image_exponents(binomial.minus)


def toric_map(graph, variables):
    images = tuple(graph.intervals_through(point) for point in variables.points)
    return ToricMap(graph.m, graph.n, images)


def default_grid_order(variables):
    """degrevlex over the construction ranking (row-major descending on (y, x))."""
    return degrevlex_order(len(variables))


def toric_ideal_elimination(graph, variables, grid_order, budgets=DEFAULT_BUDGETS):
    """Kernel of the edge-ring parametrization, computed by block elimination.

    ``graph`` is the polyomino's interval graph and ``variables`` its grid
    variables. Builds <x_a - v_p h_q> in the combined ring, under the block
    order that ranks the auxiliary variables above all grid variables and
    compares grid monomials by ``grid_order``. The basis elements free of
    auxiliary variables are then the reduced basis of the toric ideal under
    ``grid_order``, already sorted by lead (elimination theorem). A monomial
    parametrization needs no saturation step.
    """
    tmap = toric_map(graph, variables)
    # the auxiliary variables v_1..v_m, h_1..h_n come first, as one block
    aux_count = graph.m + graph.n
    total = aux_count + len(variables)
    elim_order = block_order(total, [("degrevlex", range(aux_count))] + [
        (kind, [aux_count + i for i in ranking]) for kind, ranking in grid_order.parts])
    gens = []
    for idx in range(len(variables)):
        p, q = tmap.images[idx]
        plus = mono_from_indices(total, (p, tmap.m + q))
        minus = mono_from_indices(total, (aux_count + idx,))
        gens.append(Binomial(plus, minus))
    gb = buchberger(gens, elim_order, budgets=budgets)
    # a lead free of auxiliary variables has a tail free of them too
    return GroebnerBasis(grid_order, tuple(Binomial(b.plus[aux_count:], b.minus[aux_count:])
                                           for b in gb.elements if not any(b.plus[:aux_count])))


def toric_ideal_cycles(poly, max_len=None, variables=None):
    """Cycle binomials f_C for all chordless cycles of the interval graph."""
    variables = variables if variables is not None else grid_variables(poly)
    graph = build_interval_graph(poly)
    return [cycle_binomial(graph, gc, variables)
            for gc in chordless_cycles(graph, min_len=4, max_len=max_len)]


# ---------------------------------------------------------------------------
# quadratic-order search

class OrderSearchConfig:
    """The nine orders ``find_quadratic_order`` tries: each ranking under each kind."""

    __slots__ = ()
    rankings = ("row-major", "column-major", "diagonal")
    kinds = ("degrevlex", "deglex", "lex")


def find_quadratic_order(gens, variables, budgets=DEFAULT_BUDGETS):
    """First order of the OrderSearchConfig family whose reduced basis is quadratic and squarefree.

    An order fails at the first S-pair that leaves a cubic or higher
    remainder. For homogeneous generators that verdict is final: pairs pop
    in nondecreasing lcm degree, so every later element has at least that
    degree and none can divide the new lead, which stays in the reduced
    basis. Inhomogeneous generators raise ValueError.
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


def witness_from_bases(gb_inner, gb_toric, variables, budgets=DEFAULT_BUDGETS):
    """Minimal-degree element of the toric basis missing from the inner-minor ideal.

    Ties are broken by the bounding-box area of the support (most local
    witness first), then by support vertices. Returns None when the toric
    basis lies inside the inner-minor ideal.
    """
    red = Reducer(gb_inner.elements, gb_inner.order, budgets=budgets)
    gaps = [g for g in gb_toric.elements if red.binomial(g) is not ZERO]
    if not gaps:
        return None
    return _present(min(gaps, key=lambda g: _witness_key(g, variables)), variables)


def gb_to_json(gb, variables):
    return {
        "order": gb.order.to_json(variables),
        "reduced": True,
        "elements": [render_binomial(b, variables) for b in gb.elements],
    }
