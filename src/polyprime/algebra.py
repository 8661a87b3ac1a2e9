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
from dataclasses import dataclass, field

from polyprime import kernel as _kernel
from polyprime.binomials import (
    Binomial,
    GREATER,
    MonomialOrder,
    VariableSet,
    ZERO,
    aux_h_key,
    aux_v_key,
    block_order,
    degrevlex_order,
    kernel_order,
    mono_divides,
    mono_from_indices,
    render_binomial,
)
from polyprime.errors import BudgetExceededError, InternalInconsistencyError
from polyprime.graph import chordless_cycles, cycle_binomial, graph_cycle_to_polyo_cycle
from polyprime.grid import grid_variables, inner_minors
from polyprime.intervals import build_interval_graph


@dataclass(frozen=True)
class EngineBudgets:
    pairs: int = 100_000
    elements: int = 10_000
    reduction_steps: int = 10_000_000


DEFAULT_BUDGETS = EngineBudgets()


@dataclass(frozen=True)
class GroebnerBasis:
    order: MonomialOrder
    elements: tuple
    reduced: bool = True

    def __len__(self):
        return len(self.elements)


class Reducer:
    """Packed rewrite system for repeated normal forms against a fixed basis."""

    __slots__ = ("kb", "steps")

    def __init__(self, elements, order, budgets=DEFAULT_BUDGETS, oriented=True):
        kern = _kernel.get_kernel()
        self.kb = kern.Basis(order.nvars)
        self.steps = budgets.reduction_steps
        ko = kernel_order(order)
        for b in elements:
            if oriented:
                plus, minus = b.plus, b.minus
            else:
                plus, minus = (b.plus, b.minus) if kern.compare(ko, b.plus, b.minus) == GREATER else (b.minus, b.plus)
            self.kb.append(plus, minus)

    def monomial(self, mono):
        out = self.kb.normal_form(tuple(mono), self.steps)
        if out is None:
            raise BudgetExceededError(f"reduction step budget {self.steps} exhausted")
        return out

    def binomial(self, b):
        plus = self.monomial(b.plus)
        minus = self.monomial(b.minus)
        if plus == minus:
            return ZERO
        return Binomial(plus, minus)


def reduce(f, basis, order, budgets=DEFAULT_BUDGETS):
    """Normal form of a binomial modulo a list of binomials; Binomial or ZERO."""
    if f is ZERO:
        return ZERO
    red = Reducer(basis, order, budgets=budgets, oriented=False)
    return red.binomial(f)


def buchberger(gens, order, budgets=DEFAULT_BUDGETS):
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

    def nf(mono):
        out = kb.normal_form(mono, budgets.reduction_steps)
        if out is None:
            raise BudgetExceededError(f"reduction step budget {budgets.reduction_steps} exhausted")
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
        b = nf(tuple((y if y > x else x) - y + t for x, y, t in zip(lead_i, lead_j, tail_j)))
        if a == b:
            continue
        c = kern.compare(ko, a, b)
        plus, minus = (a, b) if c == GREATER else (b, a)
        if (plus, minus) in seen:
            continue
        seen.add((plus, minus))
        push_element(plus, minus)

    return _inter_reduce(basis, order, budgets)


def _inter_reduce(basis, order, budgets):
    """Canonical reduced basis from a (possibly redundant) Groebner basis."""
    kern = _kernel.get_kernel()
    ko = kernel_order(order)
    by_lead = sorted(basis, key=functools.cmp_to_key(lambda a, b: kern.compare(ko, a[0], b[0])))
    kept = []
    for lead, tail in by_lead:
        if not any(mono_divides(kl, lead) for kl, _ in kept):
            kept.append((lead, tail))
    kb = kern.Basis(order.nvars)
    for lead, tail in kept:
        kb.append(lead, tail)
    elements = []
    for lead, tail in kept:
        nf_tail = kb.normal_form(tail, budgets.reduction_steps)
        if nf_tail is None:
            raise BudgetExceededError(f"reduction step budget {budgets.reduction_steps} exhausted")
        elements.append(Binomial(lead, nf_tail))
    return GroebnerBasis(order, tuple(elements), reduced=True)


def ideal_member(f, gb, budgets=DEFAULT_BUDGETS):
    return reduce(f, gb.elements, gb.order, budgets=budgets) is ZERO


def _as_generators(side):
    if isinstance(side, GroebnerBasis):
        return list(side.elements)
    return list(side)


def _ensure_gb(side, order, budgets):
    if isinstance(side, GroebnerBasis) and side.order == order and side.reduced:
        return side
    return buchberger(_as_generators(side), order, budgets=budgets)


def ideal_equal_paths(gens_a, gens_b, order, budgets=DEFAULT_BUDGETS):
    """(mutual-reduction verdict, reduced-basis-identity verdict)."""
    gb_a = _ensure_gb(gens_a, order, budgets)
    gb_b = _ensure_gb(gens_b, order, budgets)
    red_a = Reducer(gb_a.elements, order, budgets=budgets)
    red_b = Reducer(gb_b.elements, order, budgets=budgets)
    mutual = all(red_b.binomial(g) is ZERO for g in _as_generators(gens_a)) and all(
        red_a.binomial(g) is ZERO for g in _as_generators(gens_b)
    )
    identity = gb_a.elements == gb_b.elements
    return mutual, identity


def ideal_equal(gens_a, gens_b, order, budgets=DEFAULT_BUDGETS):
    """Decide equality of two binomial ideals; both decision paths must agree."""
    mutual, identity = ideal_equal_paths(gens_a, gens_b, order, budgets=budgets)
    if mutual != identity:
        raise InternalInconsistencyError(
            f"ideal equality paths disagree: mutual-reduction={mutual}, basis-identity={identity}")
    return identity


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


def toric_map(poly, graph=None, variables=None):
    graph = graph if graph is not None else build_interval_graph(poly)
    variables = variables if variables is not None else grid_variables(poly)
    images = tuple(graph.intervals_through(key[1]) for key in variables.keys)
    return ToricMap(graph.m, graph.n, images)


def default_grid_order(variables):
    """degrevlex over the construction ranking (row-major descending on (y, x))."""
    return degrevlex_order(len(variables))


def _combined_ring(poly, graph, gvars):
    m, n = graph.m, graph.n
    names = [f"v{p + 1}" for p in range(m)] + [f"h{q + 1}" for q in range(n)]
    keys = [aux_v_key(p + 1) for p in range(m)] + [aux_h_key(q + 1) for q in range(n)]
    names.extend(gvars.names)
    keys.extend(gvars.keys)
    combined = VariableSet(names, keys)
    aux_count = m + n
    order = block_order(
        len(combined),
        [
            ("degrevlex", range(aux_count)),
            ("degrevlex", range(aux_count, len(combined))),
        ],
    )
    return combined, aux_count, order


def toric_ideal_elimination(poly, grid_order=None, budgets=DEFAULT_BUDGETS):
    """Kernel of the edge-ring parametrization, computed by block elimination.

    Builds <x_a - v_p h_q> in the combined ring with auxiliary variables
    ranked above all grid variables, eliminates, and returns the reduced
    basis re-expressed under the requested grid-variable order. A monomial
    parametrization needs no saturation step.
    """
    gvars = grid_variables(poly)
    graph = build_interval_graph(poly)
    tmap = toric_map(poly, graph, gvars)
    combined, aux_count, elim_order = _combined_ring(poly, graph, gvars)
    total = len(combined)
    gens = []
    for idx in range(len(gvars)):
        p, q = tmap.images[idx]
        plus = mono_from_indices(total, (p, tmap.m + q))
        minus = mono_from_indices(total, (aux_count + idx,))
        gens.append(Binomial(plus, minus))
    gb = buchberger(gens, elim_order, budgets=budgets)
    eliminated = []
    for b in gb.elements:
        if any(b.plus[:aux_count]) or any(b.minus[:aux_count]):
            continue
        eliminated.append(Binomial(b.plus[aux_count:], b.minus[aux_count:]))
    base_order = default_grid_order(gvars)
    if grid_order is None or grid_order == base_order:
        # the eliminated slice of the reduced block basis is already the
        # reduced basis under the grid block's own degrevlex
        kern = _kernel.get_kernel()
        ko = kernel_order(base_order)
        elements = sorted(
            eliminated, key=functools.cmp_to_key(lambda a, b: kern.compare(ko, a.plus, b.plus)))
        return GroebnerBasis(base_order, tuple(elements), reduced=True)
    return buchberger(eliminated, grid_order, budgets=budgets)


def toric_ideal_cycles(poly, max_len=None, budget=10 ** 6, variables=None):
    """Cycle binomials f_C for all chordless cycles of the interval graph."""
    variables = variables if variables is not None else grid_variables(poly)
    graph = build_interval_graph(poly)
    out = []
    for gc in chordless_cycles(graph, min_len=4, max_len=max_len, budget=budget):
        out.append(cycle_binomial(graph_cycle_to_polyo_cycle(graph, gc), variables))
    return out


# ---------------------------------------------------------------------------
# quadratic-order search

_RANKING_KEYS = {
    "row-major": lambda x, y: (y, x),
    "column-major": lambda x, y: (x, y),
    "diagonal": lambda x, y: (x + y, y, x),
}


@dataclass(frozen=True)
class OrderSearchConfig:
    rankings: tuple = ("row-major", "column-major", "diagonal")
    kinds: tuple = ("degrevlex", "deglex", "lex")
    budgets: EngineBudgets = field(default=DEFAULT_BUDGETS)


def named_ranking(name, variables):
    key = _RANKING_KEYS[name]
    idx = sorted(
        range(len(variables)),
        key=lambda i: key(*variables.keys[i][1]),
        reverse=True,
    )
    return tuple(idx)


def find_quadratic_order(gens, variables, config=OrderSearchConfig()):
    """First order in the strategy family whose reduced basis is quadratic and squarefree."""
    nvars = len(variables)
    candidates = []
    for name in config.rankings:
        ranking = named_ranking(name, variables)
        for kind in config.kinds:
            candidates.append(MonomialOrder(kind, nvars, ranking))
    for order in candidates:
        gb = buchberger(gens, order, budgets=config.budgets)
        if all(b.is_quadratic() and b.is_squarefree() for b in gb.elements):
            return order
    return None


# ---------------------------------------------------------------------------
# gap witness

def _witness_key(binomial, variables):
    verts = [variables.keys[i][1] for i in binomial.support()]
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
        return tuple(sorted((variables.keys[i][1], e) for i, e in enumerate(mono) if e))

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


def witness_gap(poly, budgets=DEFAULT_BUDGETS):
    """A binomial in the toric ideal but not the inner-minor ideal, or None if equal."""
    gvars = grid_variables(poly)
    order = default_grid_order(gvars)
    gens = inner_minors(poly, gvars)
    gb_inner = buchberger(gens, order, budgets=budgets)
    gb_toric = toric_ideal_elimination(poly, order, budgets=budgets)
    if ideal_equal(gb_inner, gb_toric, order, budgets=budgets):
        return None
    witness = witness_from_bases(gb_inner, gb_toric, gvars, budgets=budgets)
    if witness is None:
        raise InternalInconsistencyError(
            "ideals differ but every toric basis element lies in the inner-minor ideal")
    return witness


def gb_to_json(gb, variables):
    return {
        "order": gb.order.to_json(variables),
        "reduced": gb.reduced,
        "elements": [render_binomial(b, variables) for b in gb.elements],
    }
