"""Layer spans recorded from outside the package.

The package carries no instrumentation. ``install`` replaces the public
functions of each layer with wrappers that open a span around the call,
in every ``polyprime`` module that holds a reference to them, and
``uninstall`` puts the originals back. Kernel methods that are called
millions of times get counters (and, for ``normal_form``, a span) only.

Spans are aggregated as they close: per name, the number of calls, the
total duration and the self time, which is the duration minus the time
covered by child spans. Keeping every span would cost more memory than
the workloads themselves once kernel calls are traced.
"""

import functools
import sys
import time

ELIMINATION = "algebra.toric_ideal_elimination"
BUCHBERGER = "algebra.buchberger"
BUCHBERGER_IN_ELIMINATION = "algebra.buchberger.in_elimination"
ORDER_SEARCH = "algebra.find_quadratic_order"
APPENDS = "kernel.basis.append.calls"
COMPARES = "kernel.compare.calls"
CYCLES = "graph.chordless_cycles.count"
NORMAL_FORM = "kernel.normal_form"

# (module, attribute, span name) for plain functions
SPANNED = (
    ("grid", "is_simple", "grid.is_simple"),
    ("grid", "inner_minors", "grid.inner_minors"),
    ("intervals", "build_interval_graph", "intervals.build_interval_graph"),
    ("graph", "is_weakly_chordal", "graph.is_weakly_chordal"),
    ("algebra", "ideal_equal_paths", "algebra.ideal_equal_paths"),
    ("algebra", "witness_from_bases", "algebra.witness_from_bases"),
    ("algebra", "toric_ideal_cycles", "algebra.toric_ideal_cycles"),
    ("algebra", "find_quadratic_order", ORDER_SEARCH),
    ("verify", "verify_polyomino", "verify.verify_polyomino"),
    ("verify", "sweep", "verify.sweep"),
)
# generators: one span per item produced
GENERATORS = (
    ("grid", "enumerate_polyominoes", "grid.enumerate_polyominoes", None),
    ("graph", "chordless_cycles", "graph.chordless_cycles", CYCLES),
)


class Tracer:
    """Span stack with per-name aggregates; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = {}
        self.counts = {}
        self._stack = []
        self.top_level_s = 0.0

    def reset(self):
        # cleared in place: the kernel wrappers hold these objects
        self.spans.clear()    # name -> [calls, total_s, self_s]
        self.counts.clear()   # name -> int
        self._stack.clear()   # [name, start, covered_by_children]
        self.top_level_s = 0.0

    def enter(self, name):
        self._stack.append([name, self.clock(), 0.0])

    def exit(self):
        name, start, covered = self._stack.pop()
        duration = self.clock() - start
        agg = self.spans.get(name)
        if agg is None:
            agg = self.spans[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.top_level_s += duration
        return duration

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def is_open(self, name):
        return any(frame[0] == name for frame in self._stack)

    def snapshot(self):
        return {"spans": {k: list(v) for k, v in self.spans.items()}, "counts": dict(self.counts)}

    def merge(self, snap):
        """Add another process's aggregates; they are not children of any open span."""
        for name, (calls, total, self_s) in snap["spans"].items():
            agg = self.spans.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        for name, n in snap["counts"].items():
            self.count(name, n)


def _span(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()
    return wrapper


def _generator(tracer, name, counter, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            tracer.enter(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.exit()
            if counter:
                tracer.count(counter)
            yield item
    return wrapper


def _basis_span(tracer, name, fn):
    """Span around a function returning a GroebnerBasis, with element and append counts."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = name
        if name == BUCHBERGER:
            if tracer.is_open(ELIMINATION):
                span = BUCHBERGER_IN_ELIMINATION
            elif tracer.is_open(ORDER_SEARCH):
                tracer.count(ORDER_SEARCH + ".orders_tried")
        appends = tracer.counts.get(APPENDS, 0)
        normal_forms = tracer.spans.get(NORMAL_FORM, (0,))[0]
        tracer.enter(span)
        try:
            gb = fn(*args, **kwargs)
        finally:
            tracer.exit()
        tracer.count(span + ".elements", len(gb.elements))
        tracer.count(span + ".appends", tracer.counts.get(APPENDS, 0) - appends)
        tracer.count(span + ".normal_forms", tracer.spans.get(NORMAL_FORM, (0,))[0] - normal_forms)
        return gb
    return wrapper


def _shard(tracer, fn):
    """Pool task wrapper: ship the worker's aggregates back on the report."""
    @functools.wraps(fn)
    def wrapper(args):
        tracer.reset()
        report = fn(args)
        report.layer_trace = tracer.snapshot()
        return report
    return wrapper


class Installation:
    """Record of every attribute replaced, so that it can be undone."""

    def __init__(self):
        self.replaced = []    # (owner, attribute, original)
        self.kernel_wrapped = False

    def set(self, owner, attr, value):
        original = getattr(owner, attr)
        setattr(owner, attr, value)
        self.replaced.append((owner, attr, original))

    def replace_everywhere(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname == "polyprime" or modname.startswith("polyprime."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self.set(mod, attr, wrapper)


def install(tracer):
    """Wrap every layer's public functions; returns the Installation to undo."""
    from polyprime import algebra, graph, grid, intervals, kernel, verify

    mods = {"grid": grid, "intervals": intervals, "graph": graph, "algebra": algebra,
            "verify": verify}
    inst = Installation()
    for mod, attr, name in SPANNED:
        fn = getattr(mods[mod], attr)
        inst.replace_everywhere(fn, _span(tracer, name, fn))
    for mod, attr, name, counter in GENERATORS:
        fn = getattr(mods[mod], attr)
        inst.replace_everywhere(fn, _generator(tracer, name, counter, fn))
    for attr, name in (("buchberger", BUCHBERGER), ("toric_ideal_elimination", ELIMINATION)):
        fn = getattr(algebra, attr)
        inst.replace_everywhere(fn, _basis_span(tracer, name, fn))
    inst.replace_everywhere(verify._verify_shard, _shard(tracer, verify._verify_shard))
    _install_kernel(tracer, kernel.get_kernel(), inst)
    return inst


def _install_kernel(tracer, kern, inst):
    compare = kern.compare
    enter, exit_, counts = tracer.enter, tracer.exit, tracer.counts

    def counted_compare(order, a, b):
        counts[COMPARES] = counts.get(COMPARES, 0) + 1
        return compare(order, a, b)

    inst.set(kern, "compare", counted_compare)
    append = kern.Basis.append
    normal_form = kern.Basis.normal_form

    def counted_append(self, lead, tail):
        counts[APPENDS] = counts.get(APPENDS, 0) + 1
        return append(self, lead, tail)

    def spanned_normal_form(self, mono, budget):
        enter(NORMAL_FORM)
        try:
            return normal_form(self, mono, budget)
        finally:
            exit_()

    try:
        inst.set(kern.Basis, "append", counted_append)
        inst.set(kern.Basis, "normal_form", spanned_normal_form)
    except (TypeError, AttributeError):
        # a compiled extension type: its methods cannot be replaced, so
        # their counts are reported as absent
        return
    inst.kernel_wrapped = True


def uninstall(inst):
    for owner, attr, original in reversed(inst.replaced):
        setattr(owner, attr, original)
    inst.replaced.clear()


_SPAN_METRICS = (
    ("grid.enumerate_polyominoes", ("s",)),
    ("grid.is_simple", ("s",)),
    ("grid.inner_minors", ("s",)),
    ("intervals.build_interval_graph", ("s",)),
    ("graph.chordless_cycles", ("s",)),
    ("graph.is_weakly_chordal", ("s", "self_s")),
    (ELIMINATION, ("s", "self_s", "calls", "elements")),
    (BUCHBERGER, ("s", "self_s", "calls", "elements", "kept_ratio", "normal_forms")),
    (BUCHBERGER_IN_ELIMINATION, ("s", "self_s", "calls", "elements", "kept_ratio", "normal_forms")),
    (ORDER_SEARCH, ("s", "self_s", "orders_tried")),
    ("algebra.ideal_equal_paths", ("s", "self_s")),
    ("algebra.witness_from_bases", ("s", "self_s")),
    ("algebra.toric_ideal_cycles", ("s", "self_s")),
    ("kernel.normal_form", ("s", "calls")),
    ("verify.verify_polyomino", ("s", "self_s", "calls")),
    ("verify.sweep", ("s", "self_s")),
)
_UNITS = {"s": "s", "self_s": "s", "kept_ratio": "ratio"}
# metrics that need the kernel's methods wrapped
KERNEL_METHODS = ("kernel.normal_form.s", "kernel.normal_form.calls", APPENDS) + tuple(
    f"{span}.{field}" for span in (BUCHBERGER, BUCHBERGER_IN_ELIMINATION)
    for field in ("kept_ratio", "normal_forms"))

# every per-layer metric: (name, unit); the last five are filled in by run.py
PER_LAYER = tuple(
    (f"{span}.{field}", _UNITS.get(field, "count"))
    for span, fields in _SPAN_METRICS for field in fields
) + (
    (CYCLES, "count"),
    (APPENDS, "count"),
    (COMPARES, "count"),
    ("kernel.normal_form.steps", "count"),
    ("kernel.normal_form.steps_per_s", "1/s"),
    ("verify.sweep.pool_overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.uncovered_s", "s"),
)


def layer_metrics(tracer, kernel_wrapped):
    """Per-layer values from a tracer's aggregates; kernel methods only if wrapped."""
    spans, counts = tracer.spans, tracer.counts
    out = {}
    for span, fields in _SPAN_METRICS:
        calls, total, self_s = spans.get(span, (0, 0.0, 0.0))
        values = {"s": total, "self_s": self_s, "calls": calls}
        for field in fields:
            if field == "kept_ratio":
                appends = counts.get(span + ".appends", 0)
                value = counts.get(span + ".elements", 0) / appends if appends else 0.0
            else:
                value = values[field] if field in values else counts.get(f"{span}.{field}", 0)
            out[f"{span}.{field}"] = value
    out[CYCLES] = counts.get(CYCLES, 0)
    out[APPENDS] = counts.get(APPENDS, 0)
    out[COMPARES] = counts.get(COMPARES, 0)
    if not kernel_wrapped:
        for name in KERNEL_METHODS:
            del out[name]
    return out
