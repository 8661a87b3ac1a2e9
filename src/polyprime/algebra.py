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

    def s_pair(self, i, j):
        """The S-pair of rules ``i`` and ``j`` reduced: ``()`` if it is zero,
        else the normal forms of its two cofactors (``Basis.s_pair``)."""
        out = self.kb.s_pair(i, j, self.steps)
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
    return _inter_reduce(_groebner(gens, order, budgets, max_degree), order, budgets)


def _groebner(gens, order, budgets, max_degree=None):
    """A Groebner basis of the ideal of ``gens``, as unreduced (lead, tail) pairs in append order."""
    red = Reducer((), order, budgets=budgets)
    basis = []
    supports = []     # per element: the variables its lead uses
    degrees = []      # per element: the total degree of its lead
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

    pairs = []
    for g in gens:
        if g is ZERO:
            raise ValueError("generators must be nonzero")
        # a repeated generator is harmless: its S-pair with the first copy
        # reduces to zero, and inter-reduction drops its repeated lead
        push_element(*_orient(order, g.plus, g.minus))

    processed = 0
    while pairs:
        _, i, j = heapq.heappop(pairs)
        processed += 1
        if processed > budgets.pairs:
            raise BudgetExceededError(f"S-pair budget {budgets.pairs} exhausted")
        # S-binomial of rules i and j: the kernel applies both lcm cofactors,
        # rewrites the first to its normal form a and the second only until
        # its chain meets a, with no second scan proving a irreducible
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

    return basis


def _inter_reduce(basis, order, budgets):
    """Canonical reduced basis from a (possibly redundant) Groebner basis of (lead, tail) pairs."""
    key = order_key(order)
    red = Reducer((), order, budgets=budgets)
    kept = []
    # leads compare like their keys; the sort is stable, so a repeated lead keeps its input order
    for lead, tail in sorted(basis, key=lambda rule: key(rule[0])):
        # only a smaller lead can divide this one, and every smaller one that
        # is not itself redundant is already kept
        if not red.divisible(lead):
            red.append(lead, tail)
            kept.append((lead, tail))
    return GroebnerBasis(order, tuple(Binomial(lead, red.monomial(tail)) for lead, tail in kept))


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
    variables. Builds a Groebner basis of <x_a - v_p h_q> in the combined
    ring, under the block order that ranks the auxiliary variables above all
    grid variables and compares grid monomials by ``grid_order``. By the
    elimination theorem its elements free of auxiliary variables form a
    Groebner basis of the toric ideal under ``grid_order``, so only that
    slice is inter-reduced. A monomial parametrization needs no saturation
    step.
    """
    # the auxiliary variables v_1..v_m, h_1..h_n come first, as one block
    aux_count = graph.m + graph.n
    total = aux_count + len(variables)
    elim_order = block_order(total, [("degrevlex", range(aux_count))] + [
        (kind, [aux_count + i for i in ranking]) for kind, ranking in grid_order.parts])
    # one generator per edge, at its vertex's variable index, so they run in variable order
    gens = [None] * len(variables)
    for p, q, point in graph.edges:
        idx = variables.index(point)
        gens[idx] = Binomial(mono_from_indices(total, (p, graph.m + q)),
                             mono_from_indices(total, (aux_count + idx,)))
    # a lead free of auxiliary variables has a tail free of them too, and
    # only such leads divide monomials free of them
    return _inter_reduce([(lead[aux_count:], tail[aux_count:])
                          for lead, tail in _groebner(gens, elim_order, budgets)
                          if not any(lead[:aux_count])], grid_order, budgets)


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
