"""Integer-grid model of polyominoes.

Cells are unit squares identified by their lower-left corner ``(x, y)``.
A polyomino is a nonempty, edge-connected cell set, stored canonically
translated so that ``min x = min y = 0``. ASCII grids use mathematical
orientation: the top text row is the highest y row.
"""

from __future__ import annotations

import os
from bisect import bisect_left

from polyprime.binomials import Binomial, VariableSet, mono_from_indices
from polyprime.errors import (
    BadCharError,
    CapExceededError,
    DisconnectedError,
    EmptyInputError,
)

DEFAULT_ENUM_CAP = 8

_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


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

    __slots__ = ("cells", "cells_sorted")

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
        self.cells_sorted = normalize_cells(cells)
        self.cells = frozenset(self.cells_sorted)

    @classmethod
    def _trusted(cls, cells_sorted):
        """Wrap an already canonical, connected, sorted cell tuple without checks."""
        poly = object.__new__(cls)
        poly.cells_sorted = cells_sorted
        poly.cells = frozenset(cells_sorted)
        return poly

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
    extra = set(data) - {"cells"}
    if extra:
        raise BadCharError(f"grid object has unknown keys {sorted(extra, key=str)}")
    if not cells:
        raise EmptyInputError("'cells' list is empty")
    return Polyomino(cells)


def is_simple(poly):
    """True iff the polyomino has no holes.

    A hole is a set of empty cells, connected through shared edges, that
    reaches no cell outside the bounding box. The closed cells have Euler
    characteristic V - E + F = (components) - (bounded components of the
    complement), and a polyomino is one component. Two empty cells that
    touch only at a corner are kept apart by a vertex of the polyomino, or
    else joined by the two empty cells beside them, so the bounded
    components are exactly the holes: simple iff V - E + F == 1.

    The cells are one int, column by column with stride height + 1, and
    bit x * stride + y also stands for the lower-left vertex, bottom edge
    and left edge of cell (x, y). The spare bit above each column holds its
    top row of vertices and edges, so no shift spills into the next column.
    """
    stride = poly.height + 1
    cells = 0
    for x, y in poly.cells_sorted:
        cells |= 1 << (x * stride + y)
    vertices = (cells | cells << 1 | cells << stride | cells << (stride + 1)).bit_count()
    edges = (cells | cells << 1).bit_count() + (cells | cells << stride).bit_count()
    return vertices - edges + len(poly.cells_sorted) == 1


def inner_intervals(poly):
    """All intervals [lo, hi] (lo < hi componentwise) whose cells all lie in the polyomino, sorted by (lo, hi).

    A staircase scan from each cell (x1, y1) as the lower-left cell: widen one column at a time while the
    bottom cell is present, and keep ``top``, the lowest row at which a column so far stops its run of
    cells upward from y1. Each y1 < y <= top then closes one full rectangle, listed once and in order.
    """
    cells = poly.cells
    out = []
    for x1, y1 in poly.cells_sorted:
        x, top = x1, poly.height
        while (x, y1) in cells:
            y = y1 + 1
            while y < top and (x, y) in cells:
                y += 1
            top = y
            x += 1
            out.extend(((x1, y1), (x, y2)) for y2 in range(y1 + 1, top + 1))
    return out


def grid_variables(poly):
    """Variables x(i,j) for the vertices of the polyomino.

    Ranking (and hence default variable order) is row-major descending on
    (y, x): the top-right vertex is the highest variable.
    """
    corners = {(x + dx, y + dy) for x, y in poly.cells_sorted for dx in (0, 1) for dy in (0, 1)}
    return VariableSet(sorted(corners, key=lambda p: (p[1], p[0]), reverse=True))


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


def _grow(masks, n):
    """Every fixed polyomino one cell larger than one of ``masks``, as a set of masks.

    A mask is an int with bit ``x * n + y`` set for cell (x, y), where n is
    the final size. A shape with fewer than n cells is lower than n, so
    growing it by one never spills a column into the next. A cell added
    below row 0 or left of column 0 shifts the shape instead, which keeps
    every mask canonical.
    """
    column = (1 << n) - 1                 # the n bits of column 0
    bottom = 0                            # bit y = 0 of every column
    for x in range(n):
        bottom |= 1 << (x * n)
    grown = set()
    for mask in masks:
        free = (mask << 1 | (mask & ~bottom) >> 1 | mask << n | mask >> n) & ~mask
        # a free cell as it is, or one below a cell of row 0 or left of a cell of column 0
        for shifted, new in ((mask, free), (mask << 1, mask & bottom), (mask << n, mask & column)):
            while new:
                bit = new & -new
                grown.add(shifted | bit)
                new ^= bit
    return grown


def check_cell_count(n):
    """Raise unless shapes of n cells may be enumerated: 1 <= n <= the cap."""
    cap = enumeration_cap()
    if n < 1:
        raise ValueError("cell count must be positive")
    if n > cap:
        raise CapExceededError(f"n={n} exceeds the enumeration cap {cap}")


def enumerate_polyominoes(n):
    """Yield every fixed polyomino with n cells once, in sorted canonical order.

    Grows one size at a time from the monomino, as masks in the layout of
    the last size, and keeps only the size being grown, so nothing
    outlives the call. Only the last size is decoded to cell tuples.
    """
    check_cell_count(n)
    masks = {1}
    for _ in range(n - 1):
        masks = _grow(masks, n)
    cell_at = [(i // n, i % n) for i in range(n * n)]
    shapes = []
    for mask in masks:
        cells = []
        while mask:
            bit = mask & -mask
            cells.append(cell_at[bit.bit_length() - 1])
            mask ^= bit
        shapes.append(tuple(cells))
    shapes.sort()
    for shape in shapes:
        yield Polyomino._trusted(shape)


def random_polyomino(n, rng):
    """Seeded random growth: n-1 times, add the cell at a uniform index into the sorted frontier."""
    if n < 1:
        raise ValueError("cell count must be positive")
    cells = {(0, 0)}
    frontier = sorted(_STEPS)
    while len(cells) < n:
        x, y = frontier.pop(rng.randrange(len(frontier)))
        cells.add((x, y))
        for dx, dy in _STEPS:
            nb = (x + dx, y + dy)
            i = bisect_left(frontier, nb)
            if nb not in cells and frontier[i:i + 1] != [nb]:
                frontier.insert(i, nb)
    return Polyomino(cells)
