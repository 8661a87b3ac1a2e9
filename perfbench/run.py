#!/usr/bin/env python3
"""Benchmark of polyprime: sweep throughput, verify latency, engine layers.

Run from the repository root:

    python3 perfbench/run.py                      # all three workloads
    python3 perfbench/run.py --workload verify --seed 3 --seconds 35
    python3 perfbench/run.py --workload orders --trace 1

Each measurement runs in a fresh interpreter (see ``worker.py``) on the
package under ``src/``. With ``--trace 0`` it prints the end-to-end
metrics, with every time scaled to reference seconds by speed probes run
beside the workload (see ``probe.py``); with ``--trace 1`` it runs the
workload once untraced and once with layer spans and prints the
per-layer metrics. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 1 when any
output differs from ``reference.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 7
WORKER_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("items_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class WorkerError(Exception):
    pass


def worker(mode, workload, seed, seconds=0.0, steps=False):
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    if steps:
        cmd.append("--steps")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise WorkerError(f"{mode} {workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds):
    setups = [worker("setup", workload, seed)["setup_s"] for _ in range(SETUP_PROBES)]
    res = worker("measure", workload, seed, seconds)
    values = {"setup_s": statistics.median(setups)}
    values.update((name, res[name]) for name, _ in END_TO_END if name != "setup_s")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return res, [res], metrics


def trace(workload, seed):
    base = worker("measure", workload, seed, steps=True)
    traced = worker("trace", workload, seed)
    values = dict(traced["layers"])
    values["kernel.normal_form.steps"] = base["normal_form_steps"]
    values["kernel.normal_form.steps_per_s"] = base["normal_form_steps_per_s"]
    values["verify.sweep.pool_overhead_s"] = base["pool_overhead_s"]
    values["trace.overhead_frac"] = traced["wall_s"] / base["wall_s"] - 1
    values["trace.uncovered_s"] = traced["uncovered_s"]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in tracing.PER_LAYER if name in values}
    return traced, [base, traced], metrics


def run_workload(workload, seed, seconds, traced):
    res, results, metrics = trace(workload, seed) if traced else measure(workload, seed, seconds)
    problems = [p for r in results for p in r["problems"]]
    print(f"# workload={workload} seed={seed} kernel={res['backend']} cpus={os.cpu_count()} "
          f"python={res['python']} passes={res['passes']} "
          f"latency_samples={res['latency_samples']} input_digest={res['input_digest'][:16]}")
    print(f"# probes={res['probes']} host_scale={res['host_scale']:.4f} "
          f"raw_wall_s={res['raw_wall_s']:.4f} (the metrics are in reference seconds)")
    for name, m in metrics.items():
        print(f"{workload:<11} {name:<48} {m['value']:>16.6g} {m['unit']}")
    for p in problems[:20]:
        print(f"MISMATCH {workload}: {p}")
    return {"correct": not problems, "attempted": res["items"], "failed": res["failed"],
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "polyprime" / "__init__.py").is_file():
        print(f"no polyprime source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
