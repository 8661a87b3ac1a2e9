"""Value types for exact binomial algebra.

Monomials are dense exponent tuples over a VariableSet. All polynomial
arithmetic in this package stays inside pure-difference binomials
(monomial minus monomial, coefficients fixed at +1/-1); a cancelled
binomial is the explicit ZERO sentinel, never an invalid Binomial.

Monomial orders are stored as (kind, ranking) and compiled to an integer
weight matrix: comparing two monomials means comparing their images under
the rows lexicographically. That one representation covers lex, deglex,
degrevlex and block elimination orders, and is what the kernels consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from polyprime import kernel as _kernel

LESS, EQUAL, GREATER = -1, 0, 1


class VariableSet:
    """The variables x(i,j), one per grid vertex, in a fixed order.

    ``points[k]`` is the vertex of variable ``k`` and ``names[k]`` its name.
    """

    __slots__ = ("points", "names", "_by_point")

    def __init__(self, points):
        self.points = tuple(points)
        self._by_point = {p: k for k, p in enumerate(self.points)}
        if len(self._by_point) != len(self.points):
            raise ValueError("duplicate variable points")
        self.names = tuple(f"x({x},{y})" for x, y in self.points)

    def __len__(self):
        return len(self.points)

    def __eq__(self, other):
        return isinstance(other, VariableSet) and self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return f"VariableSet({len(self.names)} vars: {', '.join(self.names[:4])}{'...' if len(self.names) > 4 else ''})"

    def index(self, point):
        try:
            return self._by_point[point]
        except KeyError:
            raise KeyError(f"no variable at vertex {point!r}") from None


# ---------------------------------------------------------------------------
# monomial helpers: dense exponent tuples

def mono_from_indices(nvars, indices):
    e = [0] * nvars
    for i in indices:
        e[i] += 1
    return tuple(e)


def mono_degree(a):
    return sum(a)


def mono_is_squarefree(a):
    return all(x <= 1 for x in a)


# ---------------------------------------------------------------------------
# binomials

class _Zero:
    """Sentinel for a cancelled (zero) binomial."""

    __slots__ = ()

    def __repr__(self):
        return "ZERO"

    def __bool__(self):
        return False


ZERO = _Zero()


@dataclass(frozen=True)
class Binomial:
    """Pure-difference binomial ``plus - minus`` over an implicit VariableSet."""

    plus: tuple
    minus: tuple

    def __post_init__(self):
        if len(self.plus) != len(self.minus):
            raise ValueError("term length mismatch")
        if self.plus == self.minus:
            raise ValueError("zero binomial; use ZERO")

    @property
    def degree(self):
        return max(mono_degree(self.plus), mono_degree(self.minus))

    def is_quadratic(self):
        return mono_degree(self.plus) == 2 and mono_degree(self.minus) == 2

    def is_squarefree(self):
        return mono_is_squarefree(self.plus) and mono_is_squarefree(self.minus)

    def flipped(self):
        return Binomial(self.minus, self.plus)

    def support(self):
        """Indices of variables appearing in either term."""
        return tuple(i for i, (p, m) in enumerate(zip(self.plus, self.minus)) if p or m)


def render_monomial(mono, variables):
    factors = []
    order = sorted(range(len(mono)), key=lambda i: variables.points[i])
    for i in order:
        e = mono[i]
        if e == 1:
            factors.append(variables.names[i])
        elif e > 1:
            factors.append(f"{variables.names[i]}^{e}")
    return "*".join(factors) if factors else "1"


def render_binomial(b, variables):
    return f"{render_monomial(b.plus, variables)} - {render_monomial(b.minus, variables)}"


# ---------------------------------------------------------------------------
# monomial orders

_KINDS = ("lex", "deglex", "degrevlex")


@dataclass(frozen=True)
class MonomialOrder:
    """Total multiplicative well-order on monomials of a fixed width.

    ``ranking`` lists variable indices from highest to lowest. For
    ``kind="block"`` the order compares block by block (first block is the
    elimination block) and ``blocks`` holds one ``(kind, ranking)`` pair per
    block, whose ranking lists global variable indices.
    """

    kind: str
    nvars: int
    ranking: tuple = ()
    blocks: tuple = ()

    def __post_init__(self):
        for kind, _ in self.parts:
            if kind not in _KINDS:
                raise ValueError(f"unknown order kind {kind!r}")
        if sorted(i for _, ranking in self.parts for i in ranking) != list(range(self.nvars)):
            raise ValueError("the rankings must partition the variables")

    @property
    def parts(self):
        """The ``(kind, ranking)`` pair of each block; a plain order is one block."""
        return self.blocks if self.kind == "block" else ((self.kind, self.ranking),)

    def weight_rows(self):
        return tuple(row for kind, ranking in self.parts for row in _rows_for(kind, ranking, self.nvars))

    def to_json(self, variables=None):
        def names(ranking):
            if variables is None:
                return list(ranking)
            return [variables.names[i] for i in ranking]

        if self.kind == "block":
            return {
                "kind": "block",
                "blocks": [{"kind": kind, "ranking": names(ranking)} for kind, ranking in self.blocks],
            }
        return {"kind": self.kind, "ranking": names(self.ranking)}


def _rows_for(kind, ranking, nvars):
    def unit(i, sign=1):
        row = [0] * nvars
        row[i] = sign
        return tuple(row)

    ones = tuple(1 if i in set(ranking) else 0 for i in range(nvars))
    if kind == "lex":
        return [unit(i) for i in ranking]
    if kind == "deglex":
        return [ones] + [unit(i) for i in ranking[:-1]]
    if kind == "degrevlex":
        return [ones] + [unit(i, -1) for i in reversed(ranking[1:])]
    raise ValueError(kind)


def lex_order(nvars, ranking=None):
    return MonomialOrder("lex", nvars, _default_ranking(nvars, ranking))


def deglex_order(nvars, ranking=None):
    return MonomialOrder("deglex", nvars, _default_ranking(nvars, ranking))


def degrevlex_order(nvars, ranking=None):
    return MonomialOrder("degrevlex", nvars, _default_ranking(nvars, ranking))


def block_order(nvars, blocks):
    """Block order from (kind, ranking) pairs, first block eliminated first."""
    return MonomialOrder("block", nvars, (), tuple((kind, tuple(ranking)) for kind, ranking in blocks))


def _default_ranking(nvars, ranking):
    return tuple(range(nvars)) if ranking is None else tuple(ranking)


def order_from_json(spec, variables):
    name_to_idx = {n: i for i, n in enumerate(variables.names)}

    def ranking_of(lst):
        return tuple(name_to_idx[n] if isinstance(n, str) else int(n) for n in lst)

    if spec["kind"] == "block":
        return block_order(len(variables), [(b["kind"], ranking_of(b["ranking"])) for b in spec["blocks"]])
    return MonomialOrder(spec["kind"], len(variables), ranking_of(spec["ranking"]))


@lru_cache(maxsize=None)
def kernel_order(order):
    return _kernel.get_kernel().Order(order.weight_rows())


def compare(order, a, b):
    """Three-way comparison: LESS, EQUAL or GREATER; ValueError on a wrong width."""
    return _kernel.get_kernel().compare(kernel_order(order), tuple(a), tuple(b))
