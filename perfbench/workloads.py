"""Workload inputs, one timed pass per workload, and the output digests.

Every call into ``polyprime`` goes through a module attribute
(``verify.sweep``, ``algebra.buchberger``, ...) so that the layer spans
installed by ``tracing`` see it.

A speed probe (``probe.probe``) runs before every timed item, in the
process that runs the item, and ``worker.py`` scales each pass's times by
the probes of that pass. Probe time is left out of the workload's times.

Seeded inputs are drawn from fixed shape pools stored in
``reference.json`` together with the digest of each shape's outputs at the
commit that recorded them, so that every seed's outputs can be checked.
Within each cell count the pool is sorted by a recorded cost, and a seed
picks one shape of each of a few evenly spaced pairs of neighbours in that
order. Different seeds therefore get different shapes of a like total
cost.
"""

import functools
import hashlib
import json
import random
import time
from pathlib import Path

import probe

REFERENCE = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("sweep_pool", "verify", "orders")
SWEEP_N = 6
SWEEP_WORKERS = 2
SWEEP_COUNTS = (1, 2, 6, 19, 63, 216)
NON_SIMPLE_OCTOMINOES = 41
VERIFY_SIZES = (8, 9)
VERIFY_PICKS = 4           # simple shapes per size in one input set
ORDERS_SIZES = (12, 13, 14)
ORDERS_PICKS = 8           # shapes per size in one input set


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj):
    return hashlib.sha256(canonical(obj).encode()).hexdigest()


def cells_key(cells):
    return canonical([list(c) for c in cells])


def load_reference(path=REFERENCE):
    with open(path) as fh:
        return json.load(fh)


def paired_pick(pool, sizes, picks, rng):
    """Per size, one of each of ``picks`` evenly spaced pairs of neighbours by cost."""
    out = []
    for n in sizes:
        entries = sorted((e for e in pool if e["n"] == n), key=lambda e: (e["cost"], e["cells"]))
        if len(entries) < 2 * picks:
            raise ValueError(f"pool holds {len(entries)} shapes of {n} cells, need {2 * picks}")
        for i in range(picks):
            start = i * (len(entries) - 2) // max(picks - 1, 1)
            out.append(rng.choice(entries[start:start + 2])["cells"])
    return out


class Inputs:
    """A workload's generated inputs: shapes, or the sweep size and pool width."""

    def __init__(self, workload, shapes, n_max=None, workers=1):
        self.workload = workload
        self.shapes = shapes
        self.n_max = n_max
        self.workers = workers

    def describe(self):
        """Canonical description of the inputs, for the input digest."""
        return {"workload": self.workload, "n_max": self.n_max,
                "shapes": [[list(c) for c in p.cells_sorted] for p in self.shapes]}


def make_inputs(workload, seed, reference):
    """Generate the inputs; this is the work ``setup_s`` times, after the import."""
    from polyprime import grid

    rng = random.Random(seed)
    if workload == "sweep_pool":
        counts = tuple(sum(1 for _ in grid.enumerate_polyominoes(n)) for n in range(1, SWEEP_N + 1))
        if counts != SWEEP_COUNTS:
            raise AssertionError(f"fixed polyomino counts {counts}, expected {SWEEP_COUNTS}")
        return Inputs(workload, [], n_max=SWEEP_N, workers=SWEEP_WORKERS)
    if workload == "verify":
        holed = [p for p in grid.enumerate_polyominoes(8) if not grid.is_simple(p)]
        if len(holed) != NON_SIMPLE_OCTOMINOES:
            raise AssertionError(f"{len(holed)} non-simple octominoes, expected {NON_SIMPLE_OCTOMINOES}")
        picked = paired_pick(reference["verify"]["pool"], VERIFY_SIZES, VERIFY_PICKS, rng)
        shapes = holed + [grid.Polyomino([tuple(c) for c in cells]) for cells in picked]
    elif workload == "orders":
        picked = paired_pick(reference["orders"]["pool"], ORDERS_SIZES, ORDERS_PICKS, rng)
        shapes = [grid.Polyomino([tuple(c) for c in cells]) for cells in picked]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(shapes)
    return Inputs(workload, shapes)


def report_output(report):
    from polyprime import verify

    out = verify.report_to_json(report)
    del out["timings"]
    return out


class PassResult:
    """Outcome of one pass: item count, failures, times and output digests."""

    def __init__(self):
        self.items = 0
        self.failed = 0
        self.elapsed_s = 0.0     # wall time of the pass, probes included
        self.wall_s = 0.0        # the same without the probes
        self.cpu_s = 0.0
        self.latencies_s = []
        self.probes_s = []       # probes run during the pass, in any process
        self.probe_wall_s = 0.0  # wall time the probes added to the pass
        self.local_probe_s = 0.0 # probe time in this process, outside any layer span
        self.outputs = {}        # output key -> digest
        self.errors = []         # known-fact violations
        self.stage_s = 0.0       # sweep only: sum of per-shape stage times
        self.workers = 1
        self.reports = []        # sweep only, for the traced run

    @property
    def scale(self):
        return probe.scale(self.probes_s)


def _cpu():
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(inputs):
    """Run the workload once over its inputs and collect outputs and times."""
    res = PassResult()
    cpu0 = _cpu()
    t0 = time.perf_counter()
    if inputs.workload == "sweep_pool":
        _sweep_pass(inputs, res)
    elif inputs.workload == "verify":
        _verify_pass(inputs, res)
    else:
        _orders_pass(inputs, res)
    res.elapsed_s = time.perf_counter() - t0
    res.wall_s = res.elapsed_s - res.probe_wall_s
    res.cpu_s = _cpu() - cpu0 - sum(res.probes_s)
    return res


def _probed(res):
    """Run a probe before the next item of a loop in this process."""
    spent = probe.probe()
    res.probes_s.append(spent)
    res.probe_wall_s += spent
    res.local_probe_s += spent


def _probing(fn):
    """``verify_polyomino`` with a probe before each call, shipped back on the report."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        spent = probe.probe()
        report = fn(*args, **kwargs)
        report.probe_s = spent
        return report
    return wrapper


def _sweep_pass(inputs, res):
    from polyprime import errors, verify

    res.workers = inputs.workers
    res.items = sum(SWEEP_COUNTS[:inputs.n_max])
    # the pool's workers are forked, so they inherit the probing wrapper
    original = verify.verify_polyomino
    verify.verify_polyomino = _probing(original)
    try:
        summary = verify.sweep(inputs.n_max, verify.VerifyConfig(workers=res.workers))
    except (errors.BudgetExceededError, errors.LimitExceededError) as exc:
        # sweep stops at the first budget error, so no shape has a result
        res.failed = res.items
        res.errors.append(f"sweep aborted: {exc}")
        # no report came back with its probe, so probe here for the pass's scale
        for _ in range(25):
            _probed(res)
        return
    finally:
        verify.verify_polyomino = original
    res.probes_s = [r.probe_s for r in summary.reports]
    # the workers probe side by side, so each adds its own probes to the wall
    res.probe_wall_s = sum(res.probes_s) / res.workers
    res.reports = summary.reports
    # each shape's stage times, measured inside the worker that verified it
    res.latencies_s = [sum(r.timings.values()) for r in summary.reports]
    res.stage_s = sum(res.latencies_s)
    res.outputs["sweep"] = digest({
        "summary": verify.sweep_to_json(summary, with_timings=False),
        "reports": [report_output(r) for r in summary.reports],
    })
    for entry in summary.non_simple:
        if not entry["witness"]:
            res.errors.append(f"non-simple shape {entry['cells']} without a witness")


def _verify_pass(inputs, res):
    from polyprime import errors, verify

    config = verify.VerifyConfig(search_quadratic=True)
    for poly in inputs.shapes:
        res.items += 1
        _probed(res)
        t0 = time.perf_counter()
        try:
            report = verify.verify_polyomino(poly, config)
        except (errors.BudgetExceededError, errors.LimitExceededError):
            res.failed += 1
            continue
        res.latencies_s.append(time.perf_counter() - t0)
        res.outputs[cells_key(poly.cells_sorted)] = digest(report_output(report))
        if not report.simple and not report.gap_witness_text:
            res.errors.append(f"non-simple shape {list(poly.cells_sorted)} without a witness")


def order_family(variables):
    """The nine named orders: three rankings by degrevlex, deglex and lex."""
    from polyprime import algebra, binomials

    config = algebra.OrderSearchConfig()
    return [binomials.MonomialOrder(kind, len(variables), algebra.named_ranking(name, variables))
            for name in config.rankings for kind in config.kinds]


def _orders_pass(inputs, res):
    from polyprime import algebra, binomials, errors, grid

    for poly in inputs.shapes:
        gvars = grid.grid_variables(poly)
        gens = grid.inner_minors(poly, gvars)
        bases = []
        for order in order_family(gvars):
            res.items += 1
            _probed(res)
            t0 = time.perf_counter()
            try:
                gb = algebra.buchberger(gens, order)
            except errors.BudgetExceededError:
                res.failed += 1
                continue
            res.latencies_s.append(time.perf_counter() - t0)
            bases.append(algebra.gb_to_json(gb, gvars))
        try:
            cycles = [binomials.render_binomial(b, gvars) for b in algebra.toric_ideal_cycles(poly)]
        except errors.LimitExceededError:
            res.failed += 1
            continue
        res.outputs[cells_key(poly.cells_sorted)] = digest({"bases": bases, "cycles": cycles})


def check_outputs(inputs, passes, reference):
    """Mismatches of every pass's outputs against the reference digests."""
    if inputs.workload == "sweep_pool":
        expected = {"sweep": reference["sweep"]["digest"]}
    elif inputs.workload == "verify":
        expected = dict(reference["verify"]["non_simple"])
        expected.update((cells_key(e["cells"]), e["digest"]) for e in reference["verify"]["pool"])
    else:
        expected = {cells_key(e["cells"]): e["digest"] for e in reference["orders"]["pool"]}
    keys = ["sweep"] if inputs.n_max else [cells_key(p.cells_sorted) for p in inputs.shapes]
    problems = []
    for i, res in enumerate(passes):
        problems.extend(f"pass {i}: {e}" for e in res.errors)
        for key in keys:
            got = res.outputs.get(key)
            if got is None or got != expected.get(key):
                problems.append(f"pass {i}: output for {key} is {got}, reference {expected.get(key)}")
    return problems


def normal_form_steps(kern, rewrites=10_000):
    """Chained normal forms on a 24-variable chain; returns (steps, seconds)."""
    from polyprime.binomials import mono_from_indices

    n = 24
    basis = kern.Basis(n)
    for i in range(n - 1):
        basis.append(mono_from_indices(n, (i, i)), mono_from_indices(n, (i + 1,)))
    start = mono_from_indices(n, (0,) * 8)
    lo, hi = 0, 10 ** 6          # smallest step budget that completes one rewrite
    while lo < hi:
        mid = (lo + hi) // 2
        if basis.normal_form(start, mid) is None:
            lo = mid + 1
        else:
            hi = mid
    t0 = time.perf_counter()
    for _ in range(rewrites):
        basis.normal_form(start, 10 ** 6)
    return rewrites * lo, time.perf_counter() - t0
