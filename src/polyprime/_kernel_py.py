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
``G`` takes two bytes per variable, so the first call that packs a
monomial builds it, not the constructor.

A lead divides ``m`` only if ``m`` uses every variable of the lead, so a
Basis files each rule, with its append index, in a bucket keyed by the
lowest variable of its lead. ``((m | G) - ONES) & K``, with ``ONES`` a 1
in every field and ``K`` the guard bits of the keyed variables, gives the
buckets a rewrite step must scan. Each bucket is in append order, so its
scan stops at its first divisor or past the best index found so far; the
smallest index found is the first divisible lead in append order, as
before. The first rule whose lead is 1 divides everything; every step
starts from it.
"""

import sys
from array import array

from polyprime.errors import LimitExceededError

BACKEND = "python"

MAX_EXPONENT = 0x7FFF  # 15 exponent bits under the guard bit of a 16-bit field
MAX_NVARS = 2 ** 28 - 1  # the compiled kernel's bound

_BYTEORDER = sys.byteorder


class Basis:
    __slots__ = ("nvars", "size", "buckets", "keys", "unit", "guard", "ones", "nbytes")

    def __init__(self, nvars):
        if not 0 <= nvars <= MAX_NVARS:
            raise ValueError(f"nvars must be in 0..{MAX_NVARS}")
        self.nvars = nvars
        self.size = 0
        self.buckets = {}  # key -> [(append index, lead, tail), ...] in append order
        self.keys = 0  # the guard bits of the keys that have a bucket
        self.unit = None  # (append index, lead, tail) of the first rule whose lead is 1
        self.nbytes = 2 * nvars
        self.guard = self.ones = None  # built by the first _pack

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
        try:
            packed = int.from_bytes(array("H", mono).tobytes(), _BYTEORDER)
        except OverflowError:  # an exponent outside 0..65535
            packed = g
        if packed & g:
            raise LimitExceededError(
                f"exponent of {tuple(mono)} outside the kernel limit 0..{MAX_EXPONENT}")
        return packed

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
        self.size += 1

    def normal_form(self, mono, budget):
        """Fully rewrite ``mono``; returns None if ``budget`` steps were not enough."""
        return self._rewrite(self._pack(mono), budget, -1, mono, None)  # no packed monomial is -1

    def normal_form_until(self, mono, budget, target):
        """``normal_form(mono, budget)``, but returns ``target`` once the chain reaches it."""
        return self._rewrite(self._pack(mono), budget, self._pack(target), mono, target)

    def _rewrite(self, m, budget, t, mono, target):
        buckets = self.buckets
        g = self.guard
        ones = self.ones
        keys = self.keys
        first = self.unit or (self.size, None, None)  # no index reaches self.size
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
                return tuple(memoryview(m.to_bytes(self.nbytes, _BYTEORDER)).cast("H"))
            if steps >= budget:
                return None
            steps += 1
            m = m - lead + tail
            if m & g:
                raise LimitExceededError(
                    f"rewriting {tuple(mono)} pushed an exponent past the kernel limit {MAX_EXPONENT}")
        return target
