"""Pure-Python rewrite kernel for the binomial Groebner engine.

Monomials are tuples of non-negative ints (dense exponent vectors). A
Basis holds oriented rewrite rules lead -> tail with lead > tail, with
the same contract and the same surface (``BACKEND``, ``MAX_EXPONENT``,
``MAX_NVARS``, and ``Basis`` with the three methods ``append``,
``normal_form`` and ``s_pair``) as the compiled kernel in ``_speedups``;
the caller orients each rule with ``binomials.compare``. A rewrite step
uses the first divisible lead in append order. ``normal_form`` rewrites a
monomial until no lead divides it. ``s_pair(i, j, budget)`` forms the two
cofactors of the S-pair of rules ``i`` and ``j``, by append index, and
rewrites them one step at a time in lockstep, that of ``j`` first in each
round. It returns ``()`` as soon as either chain reaches the other's
start or the monomial the other chain is at: rewriting is deterministic,
so both then end at one normal form. Otherwise it runs both chains to
their ends and returns ``()`` if the normal forms are equal, else both of
them. It holds four monomials, each chain's start and current one, and
no set of visited ones. Each side may take ``budget`` steps; the first
side, in lockstep order, that needs one more makes the result None. The
budget goes through ``operator.index`` before any other work (in
``s_pair``, right after the two indices), as in the compiled kernel.
With budget 0, ``normal_form`` returns None exactly when some lead
divides the monomial. Both kernels must produce bit-identical results;
the engine picks whichever is available.

A Basis stores each monomial packed into one Python int, after Monagan
and Pearce's packed exponent vectors: variable ``i`` owns the 16-bit
field at bit ``16 * i``, 15 bits of exponent under a guard bit. With
``G`` the mask of all guard bits and ``m`` free of them, ``lead``
divides ``m`` exactly when ``((m | G) - lead) & G == G`` (no field
borrows its guard), and a rewrite is ``m - lead + tail``. An exponent
outside 0..``MAX_EXPONENT`` (32767), whether given or produced by a
rewrite (which sets a guard bit), raises LimitExceededError; nothing
wraps. The compiled kernel raises the same errors with the same messages.
A monomial crosses between tuple and packed int through one precompiled
``struct.Struct`` of ``nvars`` unsigned shorts: ``pack`` gives the bytes
of the int, ``unpack`` the tuple of a normal form. Where ``struct``
rejects an exponent, the packing falls back to ``array``, so that a bad
exponent raises just what it raised before. ``G`` takes two bytes per
variable, so the first call that packs a monomial builds it and the
``Struct``, not the constructor.

A lead divides ``m`` only if ``m`` uses every variable of the lead, so a
Basis files each rule, with its append index, in a bucket keyed by the
lowest variable of its lead. ``((m | G) - ONES) & K``, with ``ONES`` a 1
in every field and ``K`` the guard bits of the keyed variables, gives the
buckets a rewrite step must scan. Each bucket is in append order, so its
scan stops at its first divisor or past the best index found so far; the
smallest index found is the first divisible lead in append order, as
before. The first rule whose lead is 1 divides everything; every step
starts from it.

``s_pair`` keeps every monomial in the packed form. The lcm of the two
leads ``a`` and ``b`` takes three operations on the packed ints: ``ge =
((a | G) - b) & G`` marks the fields where ``a >= b``, ``full = (ge - (ge
>> 15)) | ge`` widens each mark to its whole field, and ``lcm = (a &
full) | (b & ~full)``. A cofactor ``tail + lcm - lead`` cannot carry out
of a field, whose value is at most 0x7FFF + 0x7FFF; past
``MAX_EXPONENT`` it sets the guard bit. Both cofactors are formed and
checked, that of ``i`` first, before the first step; errors name the
cofactor tuple. One loop, ``_meet``, makes every rewrite:
``normal_form`` is a meet with no second chain.
"""

import struct
import sys
from array import array
from operator import index

from polyprime.errors import LimitExceededError

BACKEND = "python"

MAX_EXPONENT = 0x7FFF  # 15 exponent bits under the guard bit of a 16-bit field
MAX_NVARS = 2 ** 28 - 1  # the compiled kernel's bound

_BYTEORDER = sys.byteorder


class Basis:
    __slots__ = ("_nvars", "_size", "_rules", "_buckets", "_keys", "_unit", "_guard", "_ones", "_nbytes", "_fields")

    def __init__(self, nvars):
        if not 0 <= nvars <= MAX_NVARS:
            raise ValueError(f"nvars must be in 0..{MAX_NVARS}")
        self._nvars = nvars
        self._size = 0
        self._rules = []  # (append index, lead, tail) by append index
        self._buckets = {}  # key -> [(append index, lead, tail), ...] in append order
        self._keys = 0  # the guard bits of the keys that have a bucket
        self._unit = None  # (append index, lead, tail) of the first rule whose lead is 1
        self._nbytes = 2 * nvars
        self._guard = self._ones = self._fields = None  # built by the first _pack

    def _pack(self, mono):
        if len(mono) != self._nvars:
            raise ValueError("exponent tuple has wrong length")
        g = self._guard
        if g is None:
            g = self._guard = int.from_bytes(
                array("H", [MAX_EXPONENT + 1]).tobytes() * self._nvars, _BYTEORDER)
            self._ones = g >> 15
            self._fields = struct.Struct(f"={self._nvars}H")
        try:
            packed = int.from_bytes(self._fields.pack(*mono), _BYTEORDER)
        except struct.error:
            # array raises the TypeError of a non-int that the compiled kernel raises too
            try:
                packed = int.from_bytes(array("H", mono).tobytes(), _BYTEORDER)
            except OverflowError:  # an exponent outside 0..65535
                packed = g
        if packed & g:
            raise LimitExceededError(
                f"exponent of {tuple(mono)} outside the kernel limit 0..{MAX_EXPONENT}")
        return packed

    def _unpack(self, m):
        return self._fields.unpack(m.to_bytes(self._nbytes, _BYTEORDER))

    def append(self, lead, tail):
        rule = (self._size, self._pack(lead), self._pack(tail))
        g = self._guard
        support = ((rule[1] | g) - self._ones) & g  # the guard bits of the lead's nonzero fields
        if support:
            low = support & -support  # the guard bit of the lead's lowest variable
            self._keys |= low
            self._buckets.setdefault(low.bit_length(), []).append(rule)
        elif self._unit is None:
            self._unit = rule
        self._rules.append(rule)
        self._size += 1

    def normal_form(self, mono, budget):
        """Fully rewrite ``mono``; returns None if ``budget`` steps were not enough."""
        budget = index(budget)  # the TypeError of a non-int that the compiled kernel raises too
        out = self._meet(self._pack(mono), -1, budget, mono)  # no packed monomial is -1
        return None if out is None else self._unpack(out[0])

    def s_pair(self, i, j, budget):
        """The S-pair of rules ``i`` and ``j`` reduced: ``()`` for zero, else
        the normal forms of its two cofactors; None past the budget."""
        i, j = index(i), index(j)
        if not (0 <= i < self._size and 0 <= j < self._size):
            raise IndexError("rule index out of range")
        budget = index(budget)
        _, a, tail_a = self._rules[i]
        _, b, tail_b = self._rules[j]
        g = self._guard
        ge = ((a | g) - b) & g  # the guard bits of the fields where a >= b
        full = (ge - (ge >> 15)) | ge
        lcm = (a & full) | (b & ~full)
        m, n = tail_a + lcm - a, tail_b + lcm - b
        if (m | n) & g:  # name the first cofactor with an exponent past the limit
            raise LimitExceededError(
                f"exponent of {self._unpack(m if m & g else n)} outside the kernel limit 0..{MAX_EXPONENT}")
        out = self._meet(m, n, budget, None)
        return out and (self._unpack(out[0]), self._unpack(out[1]))

    def _meet(self, m, n, budget, name):
        """Rewrite packed ``m`` and ``n`` one step at a time, ``n`` first in
        each round: ``()`` once either chain reaches the other's start or
        current monomial, else the normal forms ``(m, n)``; None once a side
        needs step ``budget + 1``. ``n`` is -1 to rewrite ``m`` alone, and
        ``name`` names ``m`` in an error, or None for its tuple."""
        if m == n:
            return ()
        buckets = self._buckets
        g = self._guard
        ones = self._ones
        keys = self._keys
        first = self._unit or (self._size, None, None)  # no index reaches self._size
        # x is the side to step next, started at x0 and stepped xs times; y is
        # the other side, live until its chain ends
        if n < 0:
            x, x0, xs, y, y0, ys, live = m, m, 0, n, n, 0, False
        else:
            x, x0, xs, y, y0, ys, live = n, n, 0, m, m, 0, True
        while True:
            mg = x | g
            best, lead, tail = first
            nz = (mg - ones) & keys  # the keys of x's nonzero fields
            while nz:
                key = nz.bit_length()
                nz ^= 1 << (key - 1)
                for i, bl, bt in buckets[key]:
                    if i >= best:
                        break
                    if (mg - bl) & g == g:
                        best, lead, tail = i, bl, bt
                        break
            if lead is None:
                if not live:
                    return (x, y) if x0 == m else (y, x)
                live = False
            else:
                if xs >= budget:
                    return None
                xs += 1
                x = x - lead + tail
                if x & g:
                    named = tuple(name) if name is not None else self._unpack(x0)
                    raise LimitExceededError(
                        f"rewriting {named} pushed an exponent past the kernel limit {MAX_EXPONENT}")
                if x == y or x == y0:
                    return ()
                if not live:
                    continue
            x, x0, xs, y, y0, ys = y, y0, ys, x, x0, xs
