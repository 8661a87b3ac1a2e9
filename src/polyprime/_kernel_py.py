"""Pure-Python kernel for the binomial Groebner engine.

Same contract as the compiled kernel in ``_speedups``: monomials are
tuples of non-negative ints (dense exponent vectors), an Order is built
from the weight-matrix rows of a monomial order, and a Basis holds oriented
rewrite rules lead -> tail with lead > tail. ``normal_form`` rewrites a
monomial with the first divisible lead in append order, restarting the
scan after every hit, until no lead divides. Both kernels must produce
bit-identical results; the engine picks whichever is available.

An Order keeps each row sparse, as ``((index, weight), ...)`` over its
nonzero weights only, so ``compare`` never touches a zero weight. Every
row of lex, and every row after the first of deglex and degrevlex, has a
single entry.

A Basis stores each monomial packed into one Python int, after Monagan
and Pearce's packed exponent vectors: variable ``i`` owns the 16-bit
field at bit ``16 * i``, 15 bits of exponent under a guard bit. With
``G`` the mask of all guard bits and ``m`` free of them, ``lead``
divides ``m`` exactly when ``((m | G) - lead) & G == G`` (no field
borrows its guard), and a rewrite is ``m - lead + tail``. An exponent
above ``MAX_EXPONENT`` (32767), whether given or produced by a rewrite
(which sets a guard bit), raises LimitExceededError; nothing wraps.
"""

import sys
from array import array

from polyprime.errors import LimitExceededError

BACKEND = "python"

MAX_EXPONENT = 0x7FFF  # 15 exponent bits under the guard bit of a 16-bit field

_BYTEORDER = sys.byteorder


class Order:
    __slots__ = ("rows", "nvars")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        self.nvars = len(rows[0]) if rows else 0
        self.rows = tuple(tuple((i, w) for i, w in enumerate(r) if w) for r in rows)


def compare(order, a, b):
    """Three-way compare of exponent tuples under the weight-matrix order."""
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


class Basis:
    __slots__ = ("nvars", "rules", "guard", "nbytes")

    def __init__(self, nvars):
        self.nvars = nvars
        self.rules = []
        self.nbytes = 2 * nvars
        self.guard = int.from_bytes(array("H", [MAX_EXPONENT + 1] * nvars).tobytes(), _BYTEORDER)

    def __len__(self):
        return len(self.rules)

    def _pack(self, mono):
        if len(mono) != self.nvars:
            raise ValueError("exponent tuple has wrong length")
        try:
            packed = int.from_bytes(array("H", mono).tobytes(), _BYTEORDER)
        except OverflowError:  # an exponent outside 0..65535
            packed = self.guard
        if packed & self.guard:
            raise LimitExceededError(
                f"exponent of {tuple(mono)} outside the kernel limit 0..{MAX_EXPONENT}")
        return packed

    def append(self, lead, tail):
        self.rules.append((self._pack(lead), self._pack(tail)))

    def normal_form(self, mono, budget):
        """Fully rewrite ``mono``; returns None if ``budget`` steps were not enough."""
        rules = self.rules
        g = self.guard
        m = self._pack(mono)
        steps = 0
        while True:
            mg = m | g
            for lead, tail in rules:
                if (mg - lead) & g == g:
                    break
            else:
                return tuple(memoryview(m.to_bytes(self.nbytes, _BYTEORDER)).cast("H"))
            if steps >= budget:
                return None
            steps += 1
            m = m - lead + tail
            if m & g:
                raise LimitExceededError(
                    f"rewriting {tuple(mono)} pushed an exponent past the kernel limit {MAX_EXPONENT}")
