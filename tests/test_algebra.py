import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import mono_mul, mono_one, same_up_to_sign
from polyprime import (
    Binomial,
    ZERO,
    buchberger,
    compare,
    deglex_order,
    degrevlex_order,
    enumerate_polyominoes,
    find_quadratic_order,
    grid_variables,
    ideal_member,
    inner_minors,
    lex_order,
    render_binomial,
    toric_ideal_cycles,
    toric_ideal_elimination,
    toric_map,
)
from polyprime.algebra import (
    EngineBudgets,
    Reducer,
    default_grid_order,
    gb_to_json,
    ideal_equal_paths,
    named_ranking,
)
from polyprime.binomials import (
    EQUAL,
    GREATER,
    LESS,
    MonomialOrder,
    VariableSet,
    block_order,
    mono_from_indices,
    order_from_json,
)
from polyprime.errors import BudgetExceededError
from polyprime.grid import Polyomino, random_polyomino
from polyprime.verify import verify_polyomino


def mono(nvars, *indices):
    return mono_from_indices(nvars, indices)


class TestCompare:
    def test_lex_first_ranked_wins(self):
        order = lex_order(2)
        assert compare(order, mono(2, 0), mono(2, 1)) == GREATER

    def test_degrevlex_definitional(self):
        # degree tie: the variable ranked last decides, reversed
        order = degrevlex_order(3)
        x1x3 = mono(3, 0, 2)
        x2sq = mono(3, 1, 1)
        assert compare(order, x1x3, x2sq) == LESS

    def test_equal(self):
        order = deglex_order(3)
        m = mono(3, 0, 1)
        assert compare(order, m, m) == EQUAL

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            compare(lex_order(2), (1, 0, 0), (0, 1))

    def test_block_order_eliminates_first_block(self):
        order = block_order(2, [("degrevlex", [0]), ("degrevlex", [1])])
        u = (1, 0)
        x5 = (0, 5)
        assert compare(order, u, x5) == GREATER


vectors = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(
        st.permutations(range(n)),
        st.lists(st.tuples(*[st.integers(0, 4)] * n), min_size=2, max_size=2),
    )
)


class TestCompareAgainstTextbook:
    @settings(max_examples=200, deadline=None)
    @given(vectors)
    def test_all_kinds_match_direct_definitions(self, data):
        ranking, (a, b) = data
        n = len(ranking)
        ranking = tuple(ranking)
        for kind, direct in (
            ("lex", oracles.direct_lex),
            ("deglex", oracles.direct_deglex),
            ("degrevlex", oracles.direct_degrevlex),
        ):
            order = MonomialOrder(kind, n, ranking)
            assert compare(order, a, b) == direct(a, b, ranking), (kind, ranking, a, b)

    @settings(max_examples=200, deadline=None)
    @given(vectors, st.data())
    def test_block_orders_match_direct_definition(self, vec, data):
        ranking, (a, b) = vec
        n = len(ranking)
        cut = data.draw(st.integers(min_value=0, max_value=n))
        kinds = data.draw(st.tuples(*[st.sampled_from(("lex", "deglex", "degrevlex"))] * 2))
        blocks = [(k, tuple(r)) for k, r in zip(kinds, (ranking[:cut], ranking[cut:])) if r]
        order = block_order(n, blocks)
        assert compare(order, a, b) == oracles.direct_block(a, b, blocks), (blocks, a, b)

    @settings(max_examples=120, deadline=None)
    @given(vectors, st.tuples(*[st.integers(0, 3)] * 5))
    def test_multiplicative(self, data, raw_m):
        ranking, (a, b) = data
        n = len(ranking)
        m = raw_m[:n]
        for kind in ("lex", "deglex", "degrevlex"):
            order = MonomialOrder(kind, n, tuple(ranking))
            assert compare(order, a, b) == compare(order, mono_mul(a, m), mono_mul(b, m))

    @settings(max_examples=120, deadline=None)
    @given(vectors)
    def test_one_is_minimal_and_antisymmetric(self, data):
        ranking, (a, b) = data
        n = len(ranking)
        one = mono_one(n)
        for kind in ("lex", "deglex", "degrevlex"):
            order = MonomialOrder(kind, n, tuple(ranking))
            if a != one:
                assert compare(order, one, a) == LESS
            assert compare(order, a, b) == -compare(order, b, a)
            assert (compare(order, a, b) == EQUAL) == (a == b)


class TestReduce:
    def test_self_reduces_to_zero(self):
        g = Binomial(mono(3, 0, 1), mono(3, 2, 2))
        order = degrevlex_order(3)
        assert compare(order, g.plus, g.minus) == GREATER
        assert Reducer([g], order).binomial(g) is ZERO
        assert ideal_member(g, buchberger([g], order))

    def test_empty_basis_identity(self, cell):
        gvars = grid_variables(cell)
        (minor,) = inner_minors(cell, gvars)
        assert Reducer((), default_grid_order(gvars)).binomial(minor) == minor

    def test_hole_minor_not_reducible_by_inner_ideal(self, annulus):
        gvars = grid_variables(annulus)
        order = default_grid_order(gvars)
        gb = buchberger(inner_minors(annulus, gvars), order)
        hole = Binomial(
            mono_from_indices(len(gvars), (gvars.index((1, 1)), gvars.index((2, 2)))),
            mono_from_indices(len(gvars), (gvars.index((1, 2)), gvars.index((2, 1)))),
        )
        assert Reducer(gb.elements, order).binomial(hole) is not ZERO
        assert not ideal_member(hole, gb)


class TestBuchberger:
    def test_single_generator_is_its_own_basis(self, cell):
        gvars = grid_variables(cell)
        (minor,) = inner_minors(cell, gvars)
        gb = buchberger([minor], default_grid_order(gvars))
        assert len(gb.elements) == 1
        assert same_up_to_sign(gb.elements[0], minor)

    def test_linear_chain_under_lex(self):
        # x - y, y - z  ->  {x - z, y - z}
        order = lex_order(3)
        f = Binomial(mono(3, 0), mono(3, 1))
        g = Binomial(mono(3, 1), mono(3, 2))
        gb = buchberger([f, g], order)
        assert set(gb.elements) == {
            Binomial(mono(3, 0), mono(3, 2)),
            Binomial(mono(3, 1), mono(3, 2)),
        }

    def test_square2_reduced_basis_is_quadratic(self, square2):
        gvars = grid_variables(square2)
        gens = inner_minors(square2, gvars)
        gb = buchberger(gens, default_grid_order(gvars))
        assert len(gb.elements) == 9
        assert all(b.is_quadratic() and b.is_squarefree() for b in gb.elements)
        assert {frozenset((b.plus, b.minus)) for b in gb.elements} == {
            frozenset((b.plus, b.minus)) for b in gens}

    def test_deterministic_under_generator_permutation(self, square2):
        gvars = grid_variables(square2)
        order = default_grid_order(gvars)
        gens = inner_minors(square2, gvars)
        reference = buchberger(gens, order).elements
        rng = random.Random(5)
        for _ in range(5):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert buchberger(shuffled, order).elements == reference

    def test_flipped_generators_same_basis(self, square2):
        gvars = grid_variables(square2)
        order = default_grid_order(gvars)
        gens = inner_minors(square2, gvars)
        flipped = [b.flipped() for b in gens]
        assert buchberger(flipped, order).elements == buchberger(gens, order).elements

    def test_pair_budget_exhaustion(self, square2):
        gvars = grid_variables(square2)
        with pytest.raises(BudgetExceededError):
            buchberger(
                inner_minors(square2, gvars),
                default_grid_order(gvars),
                budgets=EngineBudgets(pairs=3),
            )

    def test_element_budget_exhaustion(self, square2):
        gvars = grid_variables(square2)
        with pytest.raises(BudgetExceededError):
            buchberger(
                inner_minors(square2, gvars),
                default_grid_order(gvars),
                budgets=EngineBudgets(elements=2),
            )

    def test_zero_generator_rejected(self):
        with pytest.raises(ValueError):
            buchberger([ZERO], lex_order(2))


def random_homog_binomial(rng, nvars, deg):
    while True:
        a = tuple(rng.choice(range(nvars)) for _ in range(deg))
        b = tuple(rng.choice(range(nvars)) for _ in range(deg))
        pa, pb = mono_from_indices(nvars, a), mono_from_indices(nvars, b)
        if pa != pb:
            return Binomial(pa, pb)


class TestMembershipAgainstDenseOracle:
    """Engine membership must match exact linear algebra.

    For homogeneous ideals, degree-d membership is a finite-dimensional
    linear question over the monomial multiples of degree d, and degrevlex
    division never increases degree, so the two decisions must coincide.
    """

    @pytest.mark.parametrize("seed", range(12))
    def test_random_quadratic_ideals(self, seed):
        rng = random.Random(seed)
        nvars = rng.choice((3, 4))
        gens = [random_homog_binomial(rng, nvars, 2) for _ in range(rng.choice((2, 3, 4)))]
        order = degrevlex_order(nvars)
        gb = buchberger(gens, order)
        gen_pairs = [(g.plus, g.minus) for g in gens]
        probes = [random_homog_binomial(rng, nvars, rng.choice((2, 3, 4))) for _ in range(12)]
        # guaranteed members: monomial multiples of generators up to degree 6
        for g in rng.sample(gens, min(2, len(gens))):
            m = mono_from_indices(nvars, tuple(rng.choice(range(nvars)) for _ in range(rng.choice((1, 2, 3, 4)))))
            probes.append(Binomial(mono_mul(m, g.plus), mono_mul(m, g.minus)))
        for f in probes:
            engine = ideal_member(f, gb)
            dense = oracles.dense_member(f.plus, f.minus, gen_pairs, nvars)
            assert engine == dense, (gens, f)

    def test_inner_minor_ideal_membership_degree_six(self, domino):
        gvars = grid_variables(domino)
        order = default_grid_order(gvars)
        gens = inner_minors(domino, gvars)
        gb = buchberger(gens, order)
        gen_pairs = [(g.plus, g.minus) for g in gens]
        rng = random.Random(99)
        for _ in range(6):
            f = random_homog_binomial(rng, len(gvars), 3)
            assert ideal_member(f, gb) == oracles.dense_member(f.plus, f.minus, gen_pairs, len(gvars))


class TestIdealEqual:
    """Both decision paths of ``ideal_equal_paths`` give the expected verdict."""

    def test_same_generators(self, cell):
        gvars = grid_variables(cell)
        gens = inner_minors(cell, gvars)
        assert ideal_equal_paths(gens, gens, default_grid_order(gvars)) == (True, True)

    def test_domino_inner_equals_toric(self, domino):
        gvars = grid_variables(domino)
        order = default_grid_order(gvars)
        assert ideal_equal_paths(
            inner_minors(domino, gvars), toric_ideal_elimination(domino, order), order) == (True, True)

    def test_annulus_ideals_differ(self, annulus):
        gvars = grid_variables(annulus)
        order = default_grid_order(gvars)
        assert ideal_equal_paths(
            inner_minors(annulus, gvars), toric_ideal_elimination(annulus, order), order) == (False, False)

    def test_both_paths_agree(self, tromino_l, annulus):
        for poly in (tromino_l, annulus):
            gvars = grid_variables(poly)
            order = default_grid_order(gvars)
            mutual, identity = ideal_equal_paths(
                inner_minors(poly, gvars), toric_ideal_elimination(poly, order), order)
            assert mutual == identity


class TestToricIdeal:
    def test_single_cell_segre_kernel(self, cell):
        gvars = grid_variables(cell)
        gb = toric_ideal_elimination(cell)
        (minor,) = inner_minors(cell, gvars)
        assert len(gb.elements) == 1
        assert same_up_to_sign(gb.elements[0], minor)

    def test_square2_is_k33_minor_ideal(self, square2):
        gvars = grid_variables(square2)
        order = default_grid_order(gvars)
        gb = toric_ideal_elimination(square2, order)
        assert ideal_equal_paths(inner_minors(square2, gvars), gb, order) == (True, True)

    def test_no_auxiliary_variables_leak(self, square2):
        gvars = grid_variables(square2)
        gb = toric_ideal_elimination(square2)
        assert all(len(b.plus) == len(gvars) for b in gb.elements)

    def test_elimination_basis_elements_are_balanced(self, annulus):
        tmap = toric_map(annulus)
        gb = toric_ideal_elimination(annulus)
        assert all(tmap.balanced(b) for b in gb.elements)

    def test_explicit_reduction_matches_fast_path(self, tromino_l):
        gvars = grid_variables(tromino_l)
        order = default_grid_order(gvars)
        fast = toric_ideal_elimination(tromino_l, None)
        slow = buchberger(list(fast.elements), order)
        assert fast.elements == slow.elements

    def test_inner_minors_are_balanced(self, square2):
        tmap = toric_map(square2)
        for minor in inner_minors(square2):
            assert tmap.balanced(minor)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_shapes_inner_minors_in_toric_ideal(self, seed):
        poly = random_polyomino(seed % 7 + 2, random.Random(seed * 31 + 1))
        gvars = grid_variables(poly)
        order = default_grid_order(gvars)
        tmap = toric_map(poly)
        gb = toric_ideal_elimination(poly, order)
        for minor in inner_minors(poly, gvars):
            assert tmap.balanced(minor)
            assert ideal_member(minor, gb)


class TestToricCycles:
    def test_single_cell(self, cell):
        (b,) = toric_ideal_cycles(cell)
        assert b.is_quadratic()

    def test_square2_nine_quadrics(self, square2):
        gens = toric_ideal_cycles(square2, max_len=4)
        assert len(gens) == 9
        assert all(b.is_quadratic() for b in gens)

    def test_annulus_includes_hole_minor(self, annulus):
        gvars = grid_variables(annulus)
        hole_plus = mono_from_indices(len(gvars), (gvars.index((1, 1)), gvars.index((2, 2))))
        hole_minus = mono_from_indices(len(gvars), (gvars.index((1, 2)), gvars.index((2, 1))))
        hole = Binomial(hole_plus, hole_minus)
        gens = toric_ideal_cycles(annulus, max_len=4, variables=gvars)
        assert any(same_up_to_sign(b, hole) for b in gens)

    def test_cycle_generators_equal_elimination_ideal_small(self):
        for n in range(1, 5):
            for poly in enumerate_polyominoes(n):
                gvars = grid_variables(poly)
                order = default_grid_order(gvars)
                cyc = toric_ideal_cycles(poly, variables=gvars)
                assert ideal_equal_paths(
                    cyc, toric_ideal_elimination(poly, order), order) == (True, True)


class TestQuadraticOrderSearch:
    def test_single_cell_any_order(self, cell):
        gvars = grid_variables(cell)
        order = find_quadratic_order(inner_minors(cell, gvars), gvars)
        assert order is not None

    def test_square2_row_major_degrevlex_qualifies(self, square2):
        gvars = grid_variables(square2)
        gens = inner_minors(square2, gvars)
        found = find_quadratic_order(gens, gvars)
        # the very first candidate (degrevlex over the row-major ranking) wins
        assert found == MonomialOrder("degrevlex", len(gvars), named_ranking("row-major", gvars))
        gb = buchberger(gens, found)
        assert all(b.is_quadratic() and b.is_squarefree() for b in gb.elements)

    def test_l_tromino_and_domino_succeed(self, tromino_l, domino):
        for poly in (tromino_l, domino):
            gvars = grid_variables(poly)
            gens = inner_minors(poly, gvars)
            found = find_quadratic_order(gens, gvars)
            assert found is not None
            gb = buchberger(gens, found)
            assert all(b.is_quadratic() and b.is_squarefree() for b in gb.elements)

    def test_budgets_reach_every_candidate_order(self):
        # a simple hexomino with no quadratic order among the nine: the
        # default order finishes in 30 S-pairs, diagonal degrevlex needs 31
        poly = Polyomino([(0, 0), (0, 2), (1, 0), (1, 1), (1, 2), (2, 1)])
        gvars = grid_variables(poly)
        gens = inner_minors(poly, gvars)
        buchberger(gens, default_grid_order(gvars), budgets=EngineBudgets(pairs=30))
        with pytest.raises(BudgetExceededError):
            find_quadratic_order(gens, gvars, budgets=EngineBudgets(pairs=30))
        assert find_quadratic_order(gens, gvars, budgets=EngineBudgets(pairs=31)) is None


class TestWitnessGap:
    def test_annulus_hole_minor(self, annulus):
        gvars = grid_variables(annulus)
        w = verify_polyomino(annulus).gap_witness
        assert render_binomial(w, gvars) == "x(1,1)*x(2,2) - x(1,2)*x(2,1)"
        # confirmed by basis membership on both sides
        order = default_grid_order(gvars)
        gb_inner = buchberger(inner_minors(annulus, gvars), order)
        gb_toric = toric_ideal_elimination(annulus, order)
        assert ideal_member(w, gb_toric)
        assert not ideal_member(w, gb_inner)

    def test_rectangle_none(self, rect23):
        assert verify_polyomino(rect23).gap_witness is None

    def test_simple_shapes_none(self, tromino_l, square2):
        assert verify_polyomino(tromino_l).gap_witness is None
        assert verify_polyomino(square2).gap_witness is None


class TestValueTypes:
    def test_zero_binomial_rejected(self):
        with pytest.raises(ValueError):
            Binomial((1, 0), (1, 0))

    def test_term_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Binomial((1, 0), (0, 1, 0))

    def test_bad_order_kind_rejected(self):
        with pytest.raises(ValueError):
            MonomialOrder("alphabetical", 2, (0, 1))

    def test_partial_ranking_rejected(self):
        with pytest.raises(ValueError):
            MonomialOrder("lex", 3, (0, 1))

    def test_block_ranking_must_partition(self):
        with pytest.raises(ValueError):
            block_order(3, [("degrevlex", [0]), ("degrevlex", [0, 1, 2])])

    def test_variable_set_rejects_duplicates(self):
        with pytest.raises(ValueError):
            VariableSet([(0, 0), (1, 0), (0, 0)])


class TestGridVariables:
    def test_points_run_in_descending_row_major_order(self, annulus):
        gvars = grid_variables(annulus)
        assert len(gvars) == 16
        assert list(gvars.points) == sorted(annulus.vertices, key=lambda p: (p[1], p[0]), reverse=True)
        assert gvars.points[0] == (3, 3) and gvars.points[-1] == (0, 0)
        assert all(gvars.names[k] == f"x({x},{y})" for k, (x, y) in enumerate(gvars.points))

    def test_index_round_trips_every_vertex(self, annulus):
        gvars = grid_variables(annulus)
        for point in annulus.vertices:
            assert gvars.points[gvars.index(point)] == point
        assert [gvars.index(p) for p in gvars.points] == list(range(len(gvars)))

    def test_missing_vertex_raises_key_error(self, annulus):
        # the centre of the hole is no vertex of the annulus
        gvars = grid_variables(annulus)
        with pytest.raises(KeyError):
            gvars.index((1.5, 1.5))
        with pytest.raises(KeyError):
            gvars.index((4, 0))


class TestSerialization:
    def test_gb_json_embeds_order(self, cell):
        gvars = grid_variables(cell)
        gb = buchberger(inner_minors(cell, gvars), default_grid_order(gvars))
        data = gb_to_json(gb, gvars)
        assert data["order"] == {
            "kind": "degrevlex",
            "ranking": ["x(1,1)", "x(0,1)", "x(1,0)", "x(0,0)"],
        }
        assert data["elements"] == ["x(0,1)*x(1,0) - x(0,0)*x(1,1)"]
        assert data["reduced"] is True

    def test_two_block_order_rows_and_json(self, domino):
        # pinned so that the stored block representation can change without moving them
        gvars = grid_variables(domino)
        order = block_order(6, [("lex", (4, 1, 5)), ("degrevlex", (3, 0, 2))])
        assert order.weight_rows() == (
            (0, 0, 0, 0, 1, 0), (0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1),
            (1, 0, 1, 1, 0, 0), (0, 0, -1, 0, 0, 0), (-1, 0, 0, 0, 0, 0))
        assert order.to_json(gvars) == {"kind": "block", "blocks": [
            {"kind": "lex", "ranking": ["x(1,0)", "x(1,1)", "x(0,0)"]},
            {"kind": "degrevlex", "ranking": ["x(2,0)", "x(2,1)", "x(0,1)"]}]}
        assert order.to_json() == {"kind": "block", "blocks": [
            {"kind": "lex", "ranking": [4, 1, 5]}, {"kind": "degrevlex", "ranking": [3, 0, 2]}]}
        assert order_from_json(order.to_json(gvars), gvars) == order

    def test_order_round_trip(self, square2):
        gvars = grid_variables(square2)
        order = MonomialOrder("deglex", len(gvars), named_ranking("diagonal", gvars))
        spec = order.to_json(gvars)
        assert order_from_json(json.loads(json.dumps(spec)), gvars) == order
