"""Pure-Python rewrite kernel for the binomial Groebner engine.

Monomials are tuples of non-negative ints (dense exponent vectors). A
Basis holds oriented rewrite rules lead -> tail with lead > tail, with
the same contract and the same surface (``BACKEND``, ``MAX_EXPONENT``,
``MAX_NVARS``, ``Basis``) as the compiled kernel in ``_speedups``; the
caller orients each rule with ``binomials.compare``. ``normal_form``
rewrites a monomial with the first divisible lead in append order,
restarting the scan after every hit, until no lead divides.
``normal_form_until`` rewrites the same chain but returns a given target
as soon as the chain reaches it, so a caller holding an irreducible
monomial learns whether another one reduces to it without the final scan
that proves irreducibility. With budget 0, ``normal_form`` returns None
exactly when some lead divides the monomial. Both kernels must produce
bit-identical results; the engine picks whichever is available.

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

``s_pair(i, j, budget)`` reduces the S-pair of rules ``i`` and ``j``, by
append index, without a monomial leaving the packed form. The lcm of the
two leads takes three operations on the packed ints: ``ge = ((a | G) -
b) & G`` marks the fields where ``a >= b``, ``full = (ge - (ge >> 15)) |
ge`` widens each mark to its whole field, and ``lcm = (a & full) | (b &
~full)``. A cofactor ``tail + lcm - lead`` cannot carry out of a field,
whose value is at most 0x7FFF + 0x7FFF; past ``MAX_EXPONENT`` it sets
the guard bit. The first cofactor is rewritten to its normal form ``A``
and the second until its chain reaches ``A``, each under ``budget``, as
``normal_form`` and then ``normal_form_until`` would; errors name the
cofactor tuple and come in the same order. The result is ``()`` when the
pair reduces to zero, the two normal forms as tuples otherwise, and None
past the budget.
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
    __slots__ = ("nvars", "size", "rules", "buckets", "keys", "unit", "guard", "ones", "nbytes", "fields")

    def __init__(self, nvars):
        if not 0 <= nvars <= MAX_NVARS:
            raise ValueError(f"nvars must be in 0..{MAX_NVARS}")
        self.nvars = nvars
        self.size = 0
        self.rules = []  # (append index, lead, tail) by append index
        self.buckets = {}  # key -> [(append index, lead, tail), ...] in append order
        self.keys = 0  # the guard bits of the keys that have a bucket
        self.unit = None  # (append index, lead, tail) of the first rule whose lead is 1
        self.nbytes = 2 * nvars
        self.guard = self.ones = self.fields = None  # built by the first _pack

    def __len__(self):
        return self.size

    def _pack(self, mono):
        if len(mono) != self.nvars:
            raise ValueError("exponent tuple has wrong length")
        g = self.guard
        if g is None:
            g = self.guard = int.from_bytes(
                array("H", [MAX_EXPONENT + 1]).tobytes() * self.nvars, _BYTEORDER)
            self.ones = g >> 15
            self.fields = struct.Struct(f"={self.nvars}H")
        try:
            packed = int.from_bytes(self.fields.pack(*mono), _BYTEORDER)
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
        return self.fields.unpack(m.to_bytes(self.nbytes, _BYTEORDER))

    def append(self, lead, tail):
        rule = (self.size, self._pack(lead), self._pack(tail))
        g = self.guard
        support = ((rule[1] | g) - self.ones) & g  # the guard bits of the lead's nonzero fields
        if support:
            low = support & -support  # the guard bit of the lead's lowest variable
            self.keys |= low
            self.buckets.setdefault(low.bit_length(), []).append(rule)
        elif self.unit is None:
            self.unit = rule
        self.rules.append(rule)
        self.size += 1

    def normal_form(self, mono, budget):
        """Fully rewrite ``mono``; returns None if ``budget`` steps were not enough."""
        m = self._rewrite(self._pack(mono), budget, -1, mono)  # no packed monomial is -1
        return None if m is None else self._unpack(m)

    def normal_form_until(self, mono, budget, target):
        """``normal_form(mono, budget)``, but returns ``target`` once the chain reaches it."""
        m, t = self._pack(mono), self._pack(target)  # the monomial is checked first
        m = self._rewrite(m, budget, t, mono)
        if m is None:
            return None
        return target if m == t else self._unpack(m)

    def s_pair(self, i, j, budget):
        """The S-pair of rules ``i`` and ``j`` reduced: ``()`` for zero, else
        the normal forms of its two cofactors; None past the budget."""
        i, j = index(i), index(j)  # the TypeError of a non-int that the compiled kernel raises too
        if not (0 <= i < self.size and 0 <= j < self.size):
            raise IndexError("rule index out of range")
        _, a, tail_a = self.rules[i]
        _, b, tail_b = self.rules[j]
        g = self.guard
        ge = ((a | g) - b) & g  # the guard bits of the fields where a >= b
        full = (ge - (ge >> 15)) | ge
        lcm = (a & full) | (b & ~full)
        m = self._rewrite(self._cofactor(tail_a + lcm - a), budget, -1, None)
        if m is None:
            return None
        n = self._rewrite(self._cofactor(tail_b + lcm - b), budget, m, None)
        if n is None:
            return None
        return () if n == m else (self._unpack(m), self._unpack(n))

    def _cofactor(self, m):
        if m & self.guard:
            raise LimitExceededError(
                f"exponent of {self._unpack(m)} outside the kernel limit 0..{MAX_EXPONENT}")
        return m

    def _rewrite(self, m, budget, t, mono):
        """Rewrite packed ``m`` until no lead divides it or it equals ``t``;
        None past the budget. ``mono`` names the start in the error, or None
        for the tuple of ``m``."""
        buckets = self.buckets
        g = self.guard
        ones = self.ones
        keys = self.keys
        first = self.unit or (self.size, None, None)  # no index reaches self.size
        start = m
        steps = 0
        while m != t:
            mg = m | g
            best, lead, tail = first
            nz = (mg - ones) & keys  # the keys of m's nonzero fields
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
                return m
            if steps >= budget:
                return None
            steps += 1
            m = m - lead + tail
            if m & g:
                named = tuple(mono) if mono is not None else self._unpack(start)
                raise LimitExceededError(
                    f"rewriting {named} pushed an exponent past the kernel limit {MAX_EXPONENT}")
        return m
