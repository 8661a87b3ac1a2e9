#!/usr/bin/env python3
"""Record the shape pools and reference output digests in reference.json.

Run from the repository root:

    python3 perfbench/make_reference.py [--commit HASH]

Regenerate only when a change to the outputs is intended; the benchmark
fails any run whose outputs differ from this file. Each pool shape comes
from ``grid.random_polyomino(n, random.Random(n * 1_000_000 + k))`` for
k = 0, 1, ...; duplicates (and, for the verify pool, shapes with holes)
are skipped. A shape's ``cost`` is the best of five wall times of its
work in milliseconds, used only to order the pool for the seeded picks.
Operation counts predict these times poorly: the time per kernel normal
form differs by a factor of three between shapes.
"""

import argparse
import json
import os
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# costs are times of the Python kernel; outputs are the same on every kernel
os.environ["POLYPRIME_PURE"] = "1"
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

VERIFY_POOL = 20   # simple shapes per cell count
ORDERS_POOL = 16   # shapes per cell count


def pool_shapes(n, size, simple_only):
    from polyprime import grid

    seen, out, k = set(), [], 0
    while len(out) < size:
        poly = grid.random_polyomino(n, random.Random(n * 1_000_000 + k))
        k += 1
        if poly.cells_sorted in seen or (simple_only and not grid.is_simple(poly)):
            continue
        seen.add(poly.cells_sorted)
        out.append(poly)
    return out


def measured(workload, shapes, repeats=5):
    """Per-shape (digest, cost) from ``repeats`` passes per shape."""
    out = []
    for poly in shapes:
        runs = [workloads.run_pass(workloads.Inputs(workload, [poly])) for _ in range(repeats)]
        for res in runs:
            if res.failed or res.errors:
                raise SystemExit(f"{workload}: {list(poly.cells_sorted)} failed: {res.errors}")
        key = workloads.cells_key(poly.cells_sorted)
        if len({res.outputs[key] for res in runs}) != 1:
            raise SystemExit(f"{workload}: {list(poly.cells_sorted)} gave differing outputs")
        out.append((runs[0].outputs[key], round(min(res.wall_s for res in runs) * 1e3, 1)))
    return out


def pool_entries(workload, sizes, size, simple_only):
    entries = []
    for n in sizes:
        shapes = pool_shapes(n, size, simple_only)
        for poly, (dig, cost) in zip(shapes, measured(workload, shapes)):
            entries.append({"n": n, "cells": [list(c) for c in poly.cells_sorted],
                            "cost": cost, "digest": dig})
        print(f"{workload}: {size} shapes of {n} cells", file=sys.stderr)
    return entries


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", default="", help="commit the digests are recorded from")
    parser.add_argument("--out", default=str(workloads.REFERENCE))
    args = parser.parse_args()

    import polyprime
    from polyprime import grid

    pool = workloads.run_pass(workloads.make_inputs("sweep_pool", 0, None))
    sweep = workloads.run_pass(workloads.Inputs("sweep_pool", [], n_max=workloads.SWEEP_N))
    if sweep.outputs != pool.outputs or sweep.errors or pool.errors:
        raise SystemExit("sweep with 1 and 2 workers disagree")
    print("sweep recorded", file=sys.stderr)

    holed = [p for p in grid.enumerate_polyominoes(8) if not grid.is_simple(p)]
    non_simple = {}
    for poly, (dig, _) in zip(holed, measured("verify", holed, repeats=1)):
        non_simple[workloads.cells_key(poly.cells_sorted)] = dig
    reference = {
        "commit": args.commit,
        "backend": polyprime.backend_name(),
        "sweep": {"n_max": workloads.SWEEP_N, "digest": sweep.outputs["sweep"]},
        "verify": {
            "non_simple": non_simple,
            "pool": pool_entries("verify", workloads.VERIFY_SIZES, VERIFY_POOL, True),
        },
        "orders": {"pool": pool_entries("orders", workloads.ORDERS_SIZES, ORDERS_POOL, False)},
    }
    with open(args.out, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
