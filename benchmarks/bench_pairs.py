#!/usr/bin/env python3
"""Alternating parent/change runs of perfbench, summarised into BENCH_<label>.json.

The parent commit is exported with ``git archive`` into a directory beside
the working tree (``--workdir``; a fresh temporary directory by default),
so no worktree entry is left in ``.git``. For each workload and each seed,
``perfbench/run.py --trace 0 --workload W --seed S --seconds T`` then runs
once in the parent tree and once in the working tree, for every workload
in BENCHMARK.json and with its ``run_seconds`` as T. The side that runs
first alternates from pair to pair, so that a slow spell on the host does
not always fall on the same side. Both sides must report the same kernel.

The record holds, per workload and end-to-end metric, each side's median
and quartiles, the number of pairs the change won, the relative change
of the medians and whether that change exceeds the parent's interquartile
range; and, for every run, whether its outputs matched the reference,
how many items failed and its value of each end-to-end metric.

Usage, from the repository root:

    python3 benchmarks/bench_pairs.py --parent HEAD --label sparse_engine \\
        --change "what the change does" --seeds 301-310
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_TIMEOUT_S = 900


def parse_seeds(text):
    """'301-310' or '1,5,9' -> list of ints."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def export_parent(commit, workdir):
    sha = subprocess.run(["git", "rev-parse", "--short", commit], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    tree = Path(workdir) / f"parent-{sha}"
    if not (tree / "perfbench" / "run.py").is_file():
        tree.mkdir(parents=True, exist_ok=True)
        archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return sha, tree


def run_once(tree, workload, seed, seconds):
    """One perfbench run; its result line, plus the kernel named in its header."""
    cmd = [sys.executable, "perfbench/run.py", "--trace", "0", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        return {"correct": False, "attempted": 0, "failed": None, "metrics": {},
                "error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("# workload="):
            result["kernel"] = dict(f.split("=", 1) for f in line[2:].split() if "=" in f)["kernel"]
    return result


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summarise(pairs, metrics_spec):
    """Per metric: both sides' quartiles, change wins per pair, relative change."""
    out = {}
    for name, spec in metrics_spec.items():
        both = [(p["parent"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"])
                for p in pairs if name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
        if not both:
            continue
        parent = quartiles([a for a, _ in both])
        change = quartiles([b for _, b in both])
        lower = spec["better"] == "lower"
        wins = sum(1 for a, b in both if (b < a if lower else b > a))
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent": parent,
            "change": change,
            "pairs": len(both),
            "change_better_pairs": wins,
            "relative_change": round(change["median"] / parent["median"] - 1, 4),
            "beyond_parent_iqr": abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"],
        }
    return out


def machine():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit to compare the working tree against")
    parser.add_argument("--label", required=True, help="writes benchmarks/BENCH_<label>.json")
    parser.add_argument("--change", required=True, help="one line saying what the change does")
    parser.add_argument("--seeds", default="101-110", help="one pair per seed, e.g. 301-310")
    parser.add_argument("--workdir", default=None, help="where to export the parent tree")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics_spec = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("quartiles need at least two seeds")
    workdir = args.workdir or tempfile.mkdtemp(prefix="bench_pairs_")
    sha, parent_tree = export_parent(args.parent, workdir)
    trees = {"parent": parent_tree, "change": ROOT}

    runs, end_to_end, kernels = [], {}, set()
    for workload in workloads:
        pairs = []
        for k, seed in enumerate(seeds):
            sides = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {}
            for position, side in enumerate(sides):
                result = run_once(trees[side], workload, seed, seconds)
                pair[side] = result
                kernels.add(result.get("kernel"))
                run = {"workload": workload, "seed": seed, "side": side, "first": position == 0,
                       "correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"],
                       "metrics": {name: result["metrics"][name]["value"]
                                   for name in metrics_spec if name in result["metrics"]}}
                if "error" in result:
                    run["error"] = result["error"]
                runs.append(run)
                wall = result["metrics"].get("wall_s", {}).get("value")
                print(f"{workload} seed={seed} {side}: correct={result['correct']} "
                      f"failed={result['failed']} wall_s={wall}", file=sys.stderr, flush=True)
            kernels.discard(None)
            if len(kernels) > 1:
                sys.exit(f"runs used different kernels ({', '.join(sorted(kernels))}); "
                         "no record written")
            pairs.append(pair)
        end_to_end[workload] = summarise(pairs, metrics_spec)

    record = {
        "label": args.label,
        "change": args.change,
        "parent_commit": sha,
        "machine": machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "kernel": "".join(kernels),
        "command": f"python3 perfbench/run.py --trace 0 --workload W --seed SEED --seconds {seconds:g}",
        "seeds": seeds,
        "pairs": "one pair per seed; parent and change alternate which runs first, parent first on the first seed",
        "time_unit": "reference seconds: scaled by the speed probes of perfbench/probe.py",
        "all_runs_correct": all(r["correct"] for r in runs),
        "failed": {side: sum(r["failed"] or 0 for r in runs if r["side"] == side)
                   for side in ("parent", "change")},
        "end_to_end": end_to_end,
        "runs": runs,
    }
    out = ROOT / "benchmarks" / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0 if record["all_runs_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
