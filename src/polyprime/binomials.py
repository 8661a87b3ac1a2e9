"""Value types for exact binomial algebra.

Monomials are dense exponent tuples over a VariableSet. All polynomial
arithmetic in this package stays inside pure-difference binomials
(monomial minus monomial, coefficients fixed at +1/-1); a cancelled
binomial is the explicit ZERO sentinel, never an invalid Binomial.

Monomial orders are stored as (kind, ranking), and each MonomialOrder
computes its integer weight rows once: comparing two monomials means
comparing their images under the rows lexicographically (Robbiano, "Term
orderings on the polynomial ring", EUROCAL 1985). That one representation
covers lex, deglex, degrevlex and block elimination orders. Each row is
sparse, ``((index, weight), ...)`` over its nonzero weights, so
``compare`` never touches a zero weight; no dense matrix is built. Every
row of lex, and every row after the first of deglex and degrevlex, has a
single entry. ``order_key`` packs the same rows into a sort key. This
module is the one place that names, parses, builds and compares orders.
"""

from __future__ import annotations

import struct
import sys
from array import array
from dataclasses import dataclass
from operator import itemgetter

LESS, EQUAL, GREATER = -1, 0, 1

_BYTEORDER = sys.byteorder


class VariableSet:
    """The variables x(i,j), one per grid vertex, in a fixed order.

    ``points[k]`` is the vertex of variable ``k`` and ``names[k]`` its name;
    ``vertex_order`` lists the variable indices by vertex, the order in
    which a monomial is rendered.
    """

    __slots__ = ("points", "names", "vertex_order", "_by_point")

    def __init__(self, points):
        self.points = tuple(points)
        self._by_point = {p: k for k, p in enumerate(self.points)}
        if len(self._by_point) != len(self.points):
            raise ValueError("duplicate variable points")
        self.names = tuple(f"x({x},{y})" for x, y in self.points)
        self.vertex_order = tuple(sorted(range(len(self.points)), key=self.points.__getitem__))

    def __len__(self):
        return len(self.points)

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
        return max(sum(self.plus), sum(self.minus))

    def is_quadratic(self):
        return sum(self.plus) == 2 and sum(self.minus) == 2

    def is_squarefree(self):
        return all(e <= 1 for e in self.plus + self.minus)

    def flipped(self):
        return Binomial(self.minus, self.plus)

    def support(self):
        """Indices of variables appearing in either term."""
        return tuple(i for i, (p, m) in enumerate(zip(self.plus, self.minus)) if p or m)


def render_monomial(mono, variables):
    factors = []
    for i in variables.vertex_order:
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

# each named ranking sorts the variables by a key of their vertex (x, y), highest first
_RANKING_KEYS = {
    "row-major": lambda x, y: (y, x),
    "column-major": lambda x, y: (x, y),
    "diagonal": lambda x, y: (x + y, y, x),
}


@dataclass(frozen=True)
class MonomialOrder:
    """Total multiplicative well-order on monomials of a fixed width.

    ``ranking`` lists variable indices from highest to lowest. For
    ``kind="block"`` the order compares block by block (first block is the
    elimination block) and ``blocks`` holds one ``(kind, ranking)`` pair per
    block, whose ranking lists global variable indices. ``rows`` holds the
    order's sparse weight rows, each ``((index, weight), ...)``; it is not
    a field, so it takes no part in equality or hashing.
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
        object.__setattr__(self, "rows", tuple(
            row for kind, ranking in self.parts for row in _rows_for(kind, ranking)))

    @property
    def parts(self):
        """The ``(kind, ranking)`` pair of each block; a plain order is one block."""
        return self.blocks if self.kind == "block" else ((self.kind, self.ranking),)

    def to_json(self, variables):
        def names(ranking):
            return [variables.names[i] for i in ranking]

        if self.kind == "block":
            return {
                "kind": "block",
                "blocks": [{"kind": kind, "ranking": names(ranking)} for kind, ranking in self.blocks],
            }
        return {"kind": self.kind, "ranking": names(self.ranking)}


def _rows_for(kind, ranking):
    """The sparse weight rows of one block: a degree row over its variables, then one unit row each."""
    if kind == "lex":
        return [((i, 1),) for i in ranking]
    degree = tuple((i, 1) for i in ranking)
    if kind == "deglex":
        return [degree] + [((i, 1),) for i in ranking[:-1]]
    return [degree] + [((i, -1),) for i in reversed(ranking[1:])]


def compare(order, a, b):
    """Three-way compare of exponent tuples under ``order``: 1, 0 or -1."""
    n = order.nvars
    if len(a) != n or len(b) != n:
        raise ValueError("exponent tuple has wrong length")
    if a == b:
        return 0
    for row in order.rows:
        s = 0
        for i, w in row:
            s += w * (a[i] - b[i])
        if s > 0:
            return 1
        if s < 0:
            return -1
    return 0


def degrevlex_order(nvars):
    """degrevlex with variable 0 highest."""
    return MonomialOrder("degrevlex", nvars, tuple(range(nvars)))


def default_grid_order(variables):
    """degrevlex over the construction ranking (row-major descending on (y, x))."""
    return degrevlex_order(len(variables))


def block_order(nvars, blocks):
    """Block order from (kind, ranking) pairs, first block eliminated first."""
    return MonomialOrder("block", nvars, (), tuple((kind, tuple(ranking)) for kind, ranking in blocks))


def named_ranking(name, variables):
    """The indices of ``variables`` ranked by the family ``name``, highest first."""
    if name not in _RANKING_KEYS:
        raise ValueError(f"unknown ranking {name!r}; expected one of {', '.join(_RANKING_KEYS)}")
    key = _RANKING_KEYS[name]
    return tuple(sorted(range(len(variables)), key=lambda i: key(*variables.points[i]), reverse=True))


def order_from_json(spec, variables):
    """The order over ``variables`` that the parsed JSON ``spec`` names.

    A spec is ``{"kind": k, "ranking": r}`` with ``k`` one of lex, deglex
    and degrevlex, or ``{"kind": "block", "blocks": [spec, ...]}`` over
    such plain specs. Each ranking is a family name of ``named_ranking``
    or a list of variable indices and names, highest first. Anything else,
    a key beyond those named included, raises ValueError.
    """
    by_name = {name: i for i, name in enumerate(variables.names)}

    def field(obj, key):
        if not isinstance(obj, dict):
            raise ValueError(f"an order spec must be a JSON object, got {obj!r}")
        if key not in obj:
            raise ValueError(f"order spec {obj!r} has no {key!r}")
        return obj[key]

    def only(obj, *keys):
        extra = set(obj) - set(keys)
        if extra:
            raise ValueError(f"order spec {obj!r} has unknown keys {sorted(extra, key=str)}")

    def index(entry):
        if isinstance(entry, str):
            if entry not in by_name:
                raise ValueError(f"unknown variable {entry!r}")
            return by_name[entry]
        if type(entry) is not int:
            raise ValueError(f"ranking entry {entry!r} is neither a variable index nor a variable name")
        return entry

    def part(obj):
        kind = field(obj, "kind")
        if kind not in _KINDS:
            raise ValueError(f"unknown order kind {kind!r}")
        only(obj, "kind", "ranking")
        ranking = field(obj, "ranking")
        if isinstance(ranking, str):
            return kind, named_ranking(ranking, variables)
        if not isinstance(ranking, list):
            raise ValueError(f"a ranking must be a family name or a list, got {ranking!r}")
        return kind, tuple(index(entry) for entry in ranking)

    if field(spec, "kind") == "block":
        only(spec, "kind", "blocks")
        blocks = field(spec, "blocks")
        if not isinstance(blocks, list):
            raise ValueError(f"'blocks' must be a list of order specs, got {blocks!r}")
        return block_order(len(variables), [part(b) for b in blocks])
    kind, ranking = part(spec)
    return MonomialOrder(kind, len(variables), ranking)


def order_key(order):
    """Sort key for ``order``: ``a`` precedes ``b`` exactly when its key is smaller.

    The key packs a monomial's images under the weight rows of each block
    into one int: the degree row, if the block has one, above one 16-bit
    field per further row, the earlier row more significant. A plain order
    gives that int, a block order the tuple of its blocks' ints. Ints
    compare as the rows do, so sorting by the key needs no call to
    ``compare``, and it allocates one small int per monomial, not
    one tuple per row. A packed exponent must lie in 0..65535, which holds
    the kernels' limit; any other raises OverflowError. Only the variable
    that a deglex or degrevlex block reads through its degree row alone
    is not packed; it takes any int.
    """
    keys = [_part_key(kind, ranking, order.nvars) for kind, ranking in order.parts]
    if len(keys) == 1:
        return keys[0]
    return lambda mono: tuple(key(mono) for key in keys)


def _fields(indices):
    """mono -> its exponents at ``indices`` as 16-bit fields of one int, the first most significant."""
    if not indices:
        return lambda mono: 0
    # struct packs its first item least significant; an itemgetter of one index returns a bare item
    get = itemgetter(*indices[::-1]) if len(indices) > 1 else lambda mono: (mono[indices[0]],)
    pack = struct.Struct(f"={len(indices)}H").pack

    def fields(mono):
        items = get(mono)
        try:
            return int.from_bytes(pack(*items), _BYTEORDER)
        except struct.error:  # array raises the documented OverflowError, or TypeError for a non-int
            return int.from_bytes(array("H", items).tobytes(), _BYTEORDER)

    return fields


def _part_key(kind, ranking, nvars):
    """The rows ``_rows_for(kind, ranking)`` packed into one int, as ``order_key`` says."""
    if kind == "lex":
        return _fields(ranking)
    degree = sum if len(ranking) == nvars else lambda mono: sum(mono[i] for i in ranking)
    shift = 16 * max(len(ranking) - 1, 0)
    if kind == "deglex":
        rest = _fields(ranking[:-1])
        return lambda mono: (degree(mono) << shift) + rest(mono)
    # degrevlex: rows -e[r_last], ..., -e[r_1]; 0xFFFF - e in every field negates each without a borrow
    rest = _fields(ranking[:0:-1])
    top = (1 << shift) - 1
    return lambda mono: (degree(mono) << shift) + top - rest(mono)
