#!/usr/bin/env python3
"""Benchmark the compiled kernel against the pure-Python fallback.

polyprime chooses its kernel once, at import, so every row is timed in a
fresh interpreter per backend that runs this script: the pure-Python one
blocks ``polyprime._speedups`` first. Each row runs in both kernels back to
back, and the kernel that goes first alternates from row to row, so that a
drift in the host's speed falls on both sides of the speedup column. The
compiled column is left out when the extension does not load.

Three granularities:
  * micro: raw normal-form rewrites against a packed basis, in full, and
    as a zero S-pair whose two cofactors are the chain's start and its
    irreducible normal form, so one chain meets the other's end;
  * macro: Groebner bases of the inner-minor ideal and the elimination-order
    toric ideal, their equality and the gap witness; the quadratic-order
    search;
  * sweep: sequential ``verify.sweep``, the whole pipeline on every shape;
    the full run adds ``sweep(8)``.

Usage: python benchmarks/bench_kernel.py [--quick]
"""

import argparse
import json
import subprocess
import sys
import time

import polyprime
from polyprime import buchberger, build_interval_graph, enumerate_polyominoes, find_quadratic_order, grid_variables
from polyprime import inner_minors, is_simple, kernel, parse_grid, verify
from polyprime.algebra import ideal_equal_paths, toric_ideal_elimination, witness_from_bases
from polyprime.binomials import default_grid_order, mono_from_indices

BACKENDS = ("c", "python")

SHAPES = {
    "2x2 square": "##\n##",
    "one-hole annulus": "###\n#.#\n###",
    "7-cell line": "#######",
    "staircase hexomino": "#..\n##.\n.##\n..#",
}


def timed(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


CHAIN = 24  # variables of the chain


def chained_basis(nvars=CHAIN):
    """(basis, start): x_i^2 -> x_{i+1} rules on the first CHAIN variables,
    so rewriting x_0^8 walks down the chain; no rule uses the others."""
    basis = kernel.get_kernel().Basis(nvars)
    for i in range(CHAIN - 1):
        lead = mono_from_indices(nvars, (i, i))
        tail = mono_from_indices(nvars, (i + 1,))
        basis.append(lead, tail)
    return basis, mono_from_indices(nvars, (0,) * 8)


def micro(rewrites):
    basis, start = chained_basis()

    def run():
        for _ in range(rewrites):
            basis.normal_form(start, 10 ** 6)

    return run


def micro_pair(rewrites):
    # a zero pair: with t a variable past the chain, the rules t -> x_0^8
    # and t -> its normal form have the lcm t and those two cofactors, so
    # one chain starts at the other's normal form
    basis, start = chained_basis(CHAIN + 1)
    t = mono_from_indices(CHAIN + 1, (CHAIN,))
    basis.append(t, start)
    basis.append(t, basis.normal_form(start, 10 ** 6))
    first = CHAIN - 1  # the index of t -> x_0^8

    def run():
        for _ in range(rewrites):
            basis.s_pair(first, first + 1, 10 ** 6)

    return run


def macro(texts):
    polys = [parse_grid(t) for t in texts]

    def run():
        for poly in polys:
            gvars = grid_variables(poly)
            order = default_grid_order(gvars)
            inner = buchberger(inner_minors(poly, gvars), order)
            toric = toric_ideal_elimination(build_interval_graph(poly), gvars, order)
            gaps, _ = ideal_equal_paths(inner, toric)
            witness_from_bases(gaps, gvars)

    return run


def inner_bases(n_max):
    def run():
        for n in range(1, n_max + 1):
            for poly in enumerate_polyominoes(n):
                gvars = grid_variables(poly)
                order = default_grid_order(gvars)
                buchberger(inner_minors(poly, gvars), order)

    return run


def order_search(n_cells):
    """find_quadratic_order on every n-cell shape with a hole."""
    polys = [p for p in enumerate_polyominoes(n_cells) if not is_simple(p)]

    def run():
        for poly in polys:
            gvars = grid_variables(poly)
            find_quadratic_order(inner_minors(poly, gvars), gvars)

    return run


def sweep(n_max):
    def run():
        verify.sweep(n_max)

    return run


def workloads(quick):
    """(name, make, argument, repeat) per row."""
    repeat = 2 if quick else 3
    rewrites = 2000 if quick else 10000
    bases_n = 4 if quick else 5
    sweep_n = 5 if quick else 6
    rows = [
        (f"micro: {rewrites} chained normal forms", micro, rewrites, repeat),
        (f"micro: {rewrites} zero S-pairs, a chain and its end", micro_pair, rewrites, repeat),
        ("macro: ideal equality and witness on 4 shapes", macro, list(SHAPES.values()), repeat),
        (f"macro: inner-minor bases, all shapes <= {bases_n}", inner_bases, bases_n, repeat),
        ("macro: quadratic-order search, 41 holed octominoes", order_search, 8, repeat),
        (f"sweep({sweep_n}), sequential", sweep, sweep_n, 1),
    ]
    if not quick:
        # the row that decides whether the compiled kernel stays (ROADMAP item 9)
        rows.append(("sweep(8), sequential", sweep, 8, 1))
    return rows


def child(backend, quick, row):
    """Time one row on one backend; print its seconds as JSON."""
    if polyprime.backend_name() != backend:
        sys.exit(f"asked for the {backend} kernel, loaded {polyprime.backend_name()}")
    _, make, arg, repeat = workloads(quick)[row]
    print(json.dumps(timed(make(arg), repeat)))


def run_row(backend, row, quick):
    block = "import sys; sys.modules['polyprime._speedups'] = None; " if backend == "python" else ""
    code = f"{block}import runpy; runpy.run_path({__file__!r}, run_name='__main__')"
    cmd = [sys.executable, "-c", code, "--child", backend, "--row", str(row)] + (["--quick"] if quick else [])
    return json.loads(subprocess.run(cmd, capture_output=True, text=True, check=True).stdout)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true", help="smaller workloads")
    parser.add_argument("--child", choices=BACKENDS, help=argparse.SUPPRESS)
    parser.add_argument("--row", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args.child, args.quick, args.row)
        return

    backends = BACKENDS if polyprime.backend_name() == "c" else ("python",)
    if len(backends) == 1:
        print("compiled kernel not built; showing pure-Python numbers only")
    rows = workloads(args.quick)
    width = max(len(name) for name, _, _, _ in rows) + 2
    header = f"{'workload':<{width}}" + "".join(f"{b:>12}" for b in backends)
    if len(backends) == 2:
        header += f"{'speedup':>10}"
    print(header, flush=True)
    for i, (name, _, _, _) in enumerate(rows):
        seconds = {}
        for backend in backends if i % 2 == 0 else backends[::-1]:
            seconds[backend] = run_row(backend, i, args.quick)
        line = f"{name:<{width}}" + "".join(f"{seconds[b]:>11.3f}s" for b in backends)
        if len(backends) == 2:
            line += f"{seconds['python'] / seconds['c']:>9.1f}x"
        print(line, flush=True)


if __name__ == "__main__":
    main()
