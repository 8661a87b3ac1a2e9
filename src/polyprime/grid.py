"""Integer-grid model of polyominoes.

Cells are unit squares identified by their lower-left corner ``(x, y)``.
A polyomino is a nonempty, edge-connected cell set, stored canonically
translated so that ``min x = min y = 0``. ASCII grids use mathematical
orientation: the top text row is the highest y row.
"""

from __future__ import annotations

import os

from polyprime.binomials import Binomial, VariableSet, mono_from_indices
from polyprime.errors import (
    BadCharError,
    CapExceededError,
    DisconnectedError,
    EmptyInputError,
)

DEFAULT_ENUM_CAP = 8

_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def cell_vertices(cell):
    x, y = cell
    return ((x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1))


def is_connected(cells):
    """True iff the cells form one component under shared-edge adjacency.

    The empty set counts as connected by convention.
    """
    cells = set(cells)
    if not cells:
        return True
    start = min(cells)
    seen = {start}
    stack = [start]
    while stack:
        x, y = stack.pop()
        for dx, dy in _STEPS:
            nb = (x + dx, y + dy)
            if nb in cells and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(cells)


def normalize_cells(cells):
    """Translate a cell set so min x = min y = 0; returns a sorted tuple."""
    cells = list(cells)
    dx = min(x for x, _ in cells)
    dy = min(y for _, y in cells)
    return tuple(sorted((x - dx, y - dy) for x, y in cells))


class Polyomino:
    """Immutable, canonically translated polyomino."""

    __slots__ = ("cells", "cells_sorted", "_vertices")

    def __init__(self, cells):
        try:
            cells = set(map(tuple, cells))
            pairs = all(len(c) == 2 and type(c[0]) is int and type(c[1]) is int for c in cells)
        except TypeError:  # a cell that is not a sequence, such as 5 or None, or holds an unhashable item
            pairs = False
        if not pairs:
            raise BadCharError("each cell must be an (x, y) pair of integers")
        if not cells:
            raise EmptyInputError("a polyomino needs at least one cell")
        if not is_connected(cells):
            raise DisconnectedError("cells are not edge-connected")
        self._set_cells(normalize_cells(cells))

    @classmethod
    def _trusted(cls, cells_sorted):
        """Wrap an already canonical, connected, sorted cell tuple without checks."""
        poly = object.__new__(cls)
        poly._set_cells(cells_sorted)
        return poly

    def _set_cells(self, cells_sorted):
        self.cells_sorted = cells_sorted
        self.cells = frozenset(cells_sorted)
        self._vertices = None

    def __len__(self):
        return len(self.cells)

    def __eq__(self, other):
        return isinstance(other, Polyomino) and self.cells == other.cells

    def __hash__(self):
        return hash(self.cells)

    def __repr__(self):
        return f"Polyomino({list(self.cells_sorted)})"

    @property
    def width(self):
        return 1 + max(x for x, _ in self.cells_sorted)

    @property
    def height(self):
        return 1 + max(y for _, y in self.cells_sorted)

    @property
    def vertices(self):
        if self._vertices is None:
            vs = set()
            for c in self.cells_sorted:
                vs.update(cell_vertices(c))
            self._vertices = frozenset(vs)
        return self._vertices


def parse_grid(text):
    """Parse an ASCII grid ('#' = cell, '.' = empty; top row = highest y)."""
    lines = [line.rstrip("\r") for line in text.split("\n")]
    while lines and lines[-1] == "":
        lines.pop()
    cells = []
    height = len(lines)
    for r, line in enumerate(lines):
        for c, ch in enumerate(line):
            if ch == "#":
                cells.append((c, height - 1 - r))
            elif ch != ".":
                raise BadCharError(f"unexpected character {ch!r} at row {r}, column {c}")
    if not cells:
        raise EmptyInputError("grid contains no '#' cells")
    return Polyomino(cells)


def to_text(poly):
    """Minimal-bounding-box ASCII form; inverse of parse_grid."""
    w, h = poly.width, poly.height
    rows = []
    for y in range(h - 1, -1, -1):
        rows.append("".join("#" if (x, y) in poly.cells else "." for x in range(w)))
    return "\n".join(rows)


def to_json_dict(poly):
    return {"cells": [[x, y] for x, y in poly.cells_sorted]}


def from_json_dict(data):
    """The polyomino of ``{"cells": [[x, y], ...]}``; any other value raises GridInputError."""
    cells = data.get("cells") if isinstance(data, dict) else None
    if not isinstance(cells, list) or not all(
            isinstance(c, list) and len(c) == 2 and all(type(v) is int for v in c) for c in cells):
        raise BadCharError("expected an object whose 'cells' is a list of [x, y] integer pairs")
    if not cells:
        raise EmptyInputError("'cells' list is empty")
    return Polyomino(cells)


def is_simple(poly):
    """True iff the polyomino has no holes.

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


def inner_intervals(poly):
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


def grid_variables(poly):
    """Variables x(i,j) for the vertices of the polyomino.

    Ranking (and hence default variable order) is row-major descending on
    (y, x): the top-right vertex is the highest variable.
    """
    return VariableSet(sorted(poly.vertices, key=lambda p: (p[1], p[0]), reverse=True))


def inner_minors(poly, variables):
    """The inner 2-minors over ``variables``: diagonal minus anti-diagonal product per inner interval."""
    n = len(variables)
    index = variables.index
    out = []
    for (x1, y1), (x2, y2) in inner_intervals(poly):
        plus = mono_from_indices(n, (index((x1, y1)), index((x2, y2))))
        minus = mono_from_indices(n, (index((x1, y2)), index((x2, y1))))
        out.append(Binomial(plus, minus))
    return out


# ---------------------------------------------------------------------------
# enumeration

def enumeration_cap():
    raw = os.environ.get("POLYPRIME_CAP")
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"POLYPRIME_CAP must be a positive integer, got {raw!r}")
    return cap


def _grow(shapes, n):
    """Every fixed n-cell polyomino, grown by one cell from ``shapes``, the (n - 1)-cell ones.

    Returns a sorted tuple of sorted cell tuples. The growth runs on int bitmasks: cell (x, y) is bit ``x * n + y``. No
    n-cell shape is taller than n, so a column of n bits never spills into
    the next. A cell added below row 0 or left of column 0 shifts the shape
    instead, which keeps every mask canonical.
    """
    bottom = 0                            # bit y = 0 of every column
    for x in range(n):
        bottom |= 1 << (x * n)
    grown = set()
    for shape in shapes:
        mask = 0
        for x, y in shape:
            mask |= 1 << (x * n + y)
        free = (mask << 1 | (mask & ~bottom) >> 1 | mask << n | mask >> n) & ~mask
        while free:
            bit = free & -free
            grown.add(mask | bit)
            free ^= bit
        for x, y in shape:
            if y == 0:
                grown.add(mask << 1 | 1 << (x * n))
            if x == 0:
                grown.add(mask << n | 1 << y)
    cell_at = [(i // n, i % n) for i in range(n * n)]
    out = []
    for mask in grown:
        cells = []
        while mask:
            bit = mask & -mask
            cells.append(cell_at[bit.bit_length() - 1])
            mask ^= bit
        out.append(tuple(cells))
    out.sort()
    return tuple(out)


def check_cell_count(n):
    """Raise unless shapes of n cells may be enumerated: 1 <= n <= the cap."""
    cap = enumeration_cap()
    if n < 1:
        raise ValueError("cell count must be positive")
    if n > cap:
        raise CapExceededError(f"n={n} exceeds the enumeration cap {cap}")


def enumerate_polyominoes(n):
    """Yield every fixed polyomino with n cells once, in sorted canonical order.

    Grows one size at a time from the monomino and keeps only the size
    being grown, so nothing outlives the call.
    """
    check_cell_count(n)
    shapes = (((0, 0),),)
    for k in range(2, n + 1):
        shapes = _grow(shapes, k)
    for shape in shapes:
        yield Polyomino._trusted(shape)


def random_polyomino(n, rng):
    """Seeded random growth: uniformly pick an adjacent empty cell n-1 times."""
    if n < 1:
        raise ValueError("cell count must be positive")
    cells = {(0, 0)}
    while len(cells) < n:
        frontier = sorted(
            {
                (x + dx, y + dy)
                for x, y in cells
                for dx, dy in _STEPS
                if (x + dx, y + dy) not in cells
            }
        )
        cells.add(frontier[rng.randrange(len(frontier))])
    return Polyomino(cells)
