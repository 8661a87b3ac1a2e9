"""polyprime: exact verification toolkit for polyomino ideals.

Builds the inner 2-minor ideal of a polyomino and the toric ideal of its
interval bipartite graph, decides their equality with an exact binomial
Groebner engine, and sweeps all small polyominoes checking that simple
shapes give weakly chordal graphs and coinciding ideals.
"""

from polyprime.binomials import (
    Binomial,
    MonomialOrder,
    VariableSet,
    ZERO,
    degrevlex_order,
    render_binomial,
)
from polyprime.grid import (
    Polyomino,
    enumerate_polyominoes,
    inner_intervals,
    inner_minors,
    grid_variables,
    is_connected,
    is_simple,
    parse_grid,
    to_text,
)
from polyprime.intervals import IntervalGraph, build_interval_graph, maximal_edge_intervals
from polyprime.graph import (
    GraphCycle,
    chordless_cycles,
    cycle_binomial,
    is_weakly_chordal,
)
from polyprime.algebra import (
    EngineBudgets,
    GroebnerBasis,
    buchberger,
    find_quadratic_order,
    toric_ideal_cycles,
    toric_ideal_elimination,
    toric_map,
)
from polyprime.kernel import backend_name

__version__ = "0.1.0"

__all__ = [
    "Binomial",
    "EngineBudgets",
    "GraphCycle",
    "GroebnerBasis",
    "IntervalGraph",
    "MonomialOrder",
    "Polyomino",
    "VariableSet",
    "ZERO",
    "backend_name",
    "buchberger",
    "build_interval_graph",
    "chordless_cycles",
    "cycle_binomial",
    "degrevlex_order",
    "enumerate_polyominoes",
    "find_quadratic_order",
    "grid_variables",
    "inner_intervals",
    "inner_minors",
    "is_connected",
    "is_simple",
    "is_weakly_chordal",
    "maximal_edge_intervals",
    "parse_grid",
    "render_binomial",
    "to_text",
    "toric_ideal_cycles",
    "toric_ideal_elimination",
    "toric_map",
]
