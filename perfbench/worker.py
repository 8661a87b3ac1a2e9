#!/usr/bin/env python3
"""One workload in a fresh interpreter; prints one JSON object on its last line.

Started by ``run.py``, one process per measurement, so that caches warmed
by one workload (``grid._level``, ``kernel_order``) and the memory it
retains never reach another. Modes:

* ``setup``: import ``polyprime`` and generate the inputs, then report
  the time that took, scaled by speed probes run right after it;
* ``measure``: set up, then run whole passes: at least one, and another
  while it is expected to end within ``--seconds``;
* ``trace``: set up and run one pass with layer spans installed.
"""

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 25


def import_polyprime():
    sys.path.insert(0, str(SRC))
    import polyprime

    if Path(polyprime.__file__).resolve().parent != SRC / "polyprime":
        raise SystemExit(f"imported polyprime from {polyprime.__file__}, not from {SRC}")
    return polyprime


def quantile_ms(values, q):
    """The q-th decile in milliseconds (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return values[0] * 1e3
    return statistics.quantiles(values, n=10)[q - 1] * 1e3


def summarize(passes, inputs):
    """Run figures; each pass's times are scaled to reference seconds by its probes."""
    latencies = [x * p.scale for p in passes for x in p.latencies_s]
    first = passes[0]
    return {
        "passes": len(passes),
        "items": sum(p.items for p in passes),
        "failed": sum(p.failed for p in passes),
        "wall_s": statistics.median(p.wall_s * p.scale for p in passes),
        "cpu_s": statistics.median(p.cpu_s * p.scale for p in passes),
        "items_per_s": statistics.median(p.items / (p.wall_s * p.scale) for p in passes),
        "latency_p50_ms": quantile_ms(latencies, 5) if latencies else None,
        "latency_p90_ms": quantile_ms(latencies, 9) if latencies else None,
        "latency_samples": len(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "host_scale": statistics.median(p.scale for p in passes),
        "raw_wall_s": statistics.median(p.wall_s for p in passes),
        "probes": sum(len(p.probes_s) for p in passes),
        "pool_overhead_s": first.workers * first.wall_s - first.stage_s if inputs.n_max else 0.0,
        "input_digest": workloads.digest(inputs.describe()),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--steps", action="store_true",
                        help="also time the chained normal-form loop after the pass")
    args = parser.parse_args()

    reference = workloads.load_reference()
    t0 = time.perf_counter()
    polyprime = import_polyprime()
    tracer = inst = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        inst = tracing.install(tracer)
    inputs = workloads.make_inputs(args.workload, args.seed, reference)
    setup_s = time.perf_counter() - t0
    out = {"setup_s": setup_s}
    if args.mode == "setup":
        out["setup_s"] *= probe.scale([probe.probe() for _ in range(SETUP_PROBES)])
    else:
        covered = tracer.top_level_s if tracer else 0.0
        started = time.perf_counter()
        passes = [workloads.run_pass(inputs)]
        while not tracer and (time.perf_counter() - started) * (len(passes) + 1) / len(passes) <= args.seconds:
            passes.append(workloads.run_pass(inputs))
        out.update(summarize(passes, inputs))
        out["problems"] = workloads.check_outputs(inputs, passes, reference)
        out["backend"] = polyprime.backend_name()
        out["python"] = platform.python_version()
        if tracer:
            tracing.uninstall(inst)
            for report in passes[0].reports:
                snap = getattr(report, "layer_trace", None)
                if snap:
                    tracer.merge(snap)
            out["layers"] = tracing.layer_metrics(tracer, inst.kernel_wrapped)
            first = passes[0]
            out["uncovered_s"] = first.elapsed_s - first.local_probe_s - (tracer.top_level_s - covered)
        if args.steps:
            from polyprime import kernel

            steps, seconds = workloads.normal_form_steps(kernel.get_kernel())
            out["normal_form_steps"] = steps
            out["normal_form_steps_per_s"] = steps / seconds
    print(json.dumps(out))


if __name__ == "__main__":
    main()
