import gc
import json
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import mono_mul, mono_one, same_up_to_sign
from polyprime import (
    Binomial,
    ZERO,
    buchberger,
    build_interval_graph,
    degrevlex_order,
    enumerate_polyominoes,
    find_quadratic_order,
    grid_variables,
    inner_minors,
    is_simple,
    render_binomial,
    toric_ideal_cycles,
    toric_ideal_elimination,
)
from polyprime import algebra
from polyprime.algebra import (
    EngineBudgets,
    OrderSearchConfig,
    Reducer,
    gb_to_json,
    ideal_equal_paths,
)
from polyprime.binomials import (
    EQUAL,
    GREATER,
    LESS,
    MonomialOrder,
    VariableSet,
    block_order,
    compare,
    default_grid_order,
    mono_from_indices,
    named_ranking,
    order_from_json,
)
from polyprime.errors import BudgetExceededError, DegreeExceededError, LimitExceededError
from polyprime.grid import Polyomino, random_polyomino
from polyprime.verify import verify_polyomino


def mono(nvars, *indices):
    return mono_from_indices(nvars, indices)


def member(f, gb):
    """True iff ``f`` reduces to zero modulo the reduced basis ``gb``."""
    return Reducer(gb.elements, gb.order).binomial(f) is ZERO


class TestCompare:
    def test_lex_first_ranked_wins(self):
        order = MonomialOrder("lex", 2, (0, 1))
        assert compare(order, mono(2, 0), mono(2, 1)) == GREATER

    def test_degrevlex_definitional(self):
        # degree tie: the variable ranked last decides, reversed
        order = degrevlex_order(3)
        x1x3 = mono(3, 0, 2)
        x2sq = mono(3, 1, 1)
        assert compare(order, x1x3, x2sq) == LESS

    def test_equal(self):
        order = MonomialOrder("deglex", 3, (0, 1, 2))
        m = mono(3, 0, 1)
        assert compare(order, m, m) == EQUAL

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            compare(MonomialOrder("lex", 2, (0, 1)), (1, 0, 0), (0, 1))

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
        assert member(g, buchberger([g], order))

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
        assert not member(hole, gb)


class TestBuchberger:
    def test_single_generator_is_its_own_basis(self, cell):
        gvars = grid_variables(cell)
        (minor,) = inner_minors(cell, gvars)
        gb = buchberger([minor], default_grid_order(gvars))
        assert len(gb.elements) == 1
        assert same_up_to_sign(gb.elements[0], minor)

    def test_linear_chain_under_lex(self):
        # x - y, y - z  ->  {x - z, y - z}
        order = MonomialOrder("lex", 3, (0, 1, 2))
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

    @pytest.mark.parametrize("kind", ["degrevlex", "lex"])
    def test_repeated_generators_same_basis(self, annulus, kind):
        # the engine keeps no set of seen generators: a repeat's S-pair with
        # its first copy reduces to zero, and one of the equal leads is kept
        gvars = grid_variables(annulus)
        order = MonomialOrder(kind, len(gvars), named_ranking("row-major", gvars))
        gens = inner_minors(annulus, gvars)
        noisy = gens + [b.flipped() for b in gens] + gens[::2]
        random.Random(7).shuffle(noisy)
        assert buchberger(noisy, order).elements == buchberger(gens, order).elements

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
            buchberger([ZERO], MonomialOrder("lex", 2, (0, 1)))

    @pytest.mark.parametrize("bad", [-1, 40000, 70000])
    def test_exponent_outside_kernel_limit(self, bad):
        # raised by the kernel the engine appends to, never wrapped
        order = MonomialOrder("degrevlex", 2, (0, 1))
        message = re.escape(f"exponent of ({bad}, 0) outside the kernel limit 0..32767")
        for g in (Binomial((bad, 0), (0, 1)), Binomial((0, 1), (bad, 0))):
            with pytest.raises(LimitExceededError, match=message):
                buchberger([g, Binomial((1, 0), (0, 1))], order)


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
            engine = member(f, gb)
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
            assert member(f, gb) == oracles.dense_member(f.plus, f.minus, gen_pairs, len(gvars))

    def test_polyomino_gaps_are_the_dense_non_members(self, three_six_cycles):
        # the gaps of the holed heptominoes, the holed octominoes and a
        # 19-cell shape are exactly the toric-basis elements outside the
        # inner-minor ideal, as linear algebra decides membership
        shapes = [p for n in (7, 8) for p in enumerate_polyominoes(n) if not is_simple(p)]
        shapes.append(three_six_cycles)
        assert len(shapes) == 46
        degrees = set()
        for poly in shapes:
            gvars = grid_variables(poly)
            order = default_grid_order(gvars)
            minors = inner_minors(poly, gvars)
            gb_toric = toric_ideal_elimination(build_interval_graph(poly), gvars, order)
            gaps, _ = ideal_equal_paths(buchberger(minors, order), gb_toric)
            gen_pairs = [(g.plus, g.minus) for g in minors]
            assert gaps == [g for g in gb_toric.elements
                            if not oracles.dense_member(g.plus, g.minus, gen_pairs, len(gvars))], poly
            degrees.update(g.degree for g in gaps)
        assert max(degrees) == 3


def h_polynomial(poly):
    """The h-polynomial of K[P], read off the leads of the reduced inner basis."""
    gvars = grid_variables(poly)
    gb = buchberger(inner_minors(poly, gvars), default_grid_order(gvars))
    numerator = oracles.hilbert_numerator([b.plus for b in gb.elements])
    return oracles.divide_by_one_minus_t(numerator, len(poly))


def is_thin(poly):
    return not any({(x + 1, y), (x, y + 1), (x + 1, y + 1)} <= poly.cells for x, y in poly.cells)


class TestHilbertSeriesAgainstRookPolynomial:
    """The inner basis has the Hilbert series that combinatorics predicts.

    For a simple thin polyomino P (no 2x2 block of cells), the h-polynomial
    of K[P] is the rook polynomial of P (Rinaldo and Romeo, "Hilbert series
    of simple thin polyominoes", J. Algebraic Combin. 2021). For a simple
    P it is conjectured to be the switching rook polynomial, proved for
    parallelogram polyominoes (Qureshi, Rinaldo and Romeo, Res. Math. Sci.
    2022). The Hilbert series of K[P] is that of its initial ideal,
    generated by the leads of the reduced basis, and K[P] has dimension
    |V(P)| - |P|.
    """

    def test_oracles_on_small_inputs(self):
        assert oracles.hilbert_numerator([]) == [1]
        assert oracles.hilbert_numerator([(1, 1)]) == [1, 0, -1]
        assert oracles.hilbert_numerator([(1, 1, 0), (0, 1, 1)]) == [1, 0, -2, 1]
        assert oracles.hilbert_numerator([(2, 0), (1, 1), (0, 2)]) == [1, 0, -3, 2]
        assert oracles.divide_by_one_minus_t([1, 0, -2, 1], 1) == [1, 1, -1]
        with pytest.raises(ValueError):
            oracles.divide_by_one_minus_t([1, 0, 1], 1)
        assert oracles.rook_polynomial({(0, 0)}) == [1, 1]
        assert oracles.rook_polynomial({(0, 0), (1, 0), (2, 0)}) == [1, 3]
        assert oracles.rook_polynomial({(0, 0), (1, 0), (0, 1)}) == [1, 3, 1]
        # a gap splits a row into two segments
        assert oracles.rook_polynomial({(0, 0), (0, 1), (1, 1), (2, 1), (2, 0)}) == [1, 5, 5, 1]
        # the two diagonal placements of the 2x2 square are one switch apart
        square = {(0, 0), (1, 0), (0, 1), (1, 1)}
        assert oracles.rook_polynomial(square) == [1, 4, 2]
        assert oracles.switching_rook_polynomial(square) == [1, 4, 1]
        # a thin shape has no rectangle to switch in
        arch = {(0, 0), (0, 1), (1, 1), (2, 1), (2, 0)}
        assert oracles.switching_rook_polynomial(arch) == oracles.rook_polynomial(arch)

    def test_every_thin_simple_shape_up_to_six_cells(self):
        shapes = [poly for n in range(1, 7) for poly in enumerate_polyominoes(n)
                  if is_simple(poly) and is_thin(poly)]
        assert len(shapes) == 256
        for poly in shapes:
            assert h_polynomial(poly) == oracles.rook_polynomial(poly.cells), poly

    def test_every_simple_shape_up_to_six_cells_switching(self):
        shapes = [poly for n in range(1, 7) for poly in enumerate_polyominoes(n) if is_simple(poly)]
        assert len(shapes) == 307
        for poly in shapes:
            assert h_polynomial(poly) == oracles.switching_rook_polynomial(poly.cells), poly

    def test_every_thin_simple_heptomino(self):
        shapes = [poly for poly in enumerate_polyominoes(7) if is_simple(poly) and is_thin(poly)]
        assert len(shapes) == 566
        for poly in shapes:
            assert h_polynomial(poly) == oracles.rook_polynomial(poly.cells), poly


class TestIdealEqual:
    """Both decision paths of ``ideal_equal_paths`` give the expected verdict."""

    def test_same_generators(self, cell):
        gvars = grid_variables(cell)
        gb = buchberger(inner_minors(cell, gvars), default_grid_order(gvars))
        assert ideal_equal_paths(gb, gb) == ([], True)

    def test_domino_inner_equals_toric(self, domino):
        gvars = grid_variables(domino)
        order = default_grid_order(gvars)
        toric = toric_ideal_elimination(build_interval_graph(domino), gvars, order)
        assert ideal_equal_paths(buchberger(inner_minors(domino, gvars), order), toric) == ([], True)

    def test_annulus_ideals_differ(self, annulus):
        gvars = grid_variables(annulus)
        order = default_grid_order(gvars)
        toric = toric_ideal_elimination(build_interval_graph(annulus), gvars, order)
        gaps, identity = ideal_equal_paths(buchberger(inner_minors(annulus, gvars), order), toric)
        assert gaps and identity is False

    def test_both_paths_agree(self, tromino_l, annulus):
        for poly in (tromino_l, annulus):
            gvars = grid_variables(poly)
            order = default_grid_order(gvars)
            toric = toric_ideal_elimination(build_interval_graph(poly), gvars, order)
            gaps, identity = ideal_equal_paths(buchberger(inner_minors(poly, gvars), order), toric)
            assert (not gaps) == identity

    def test_bases_under_different_orders_rejected(self, square2):
        gvars = grid_variables(square2)
        gens = inner_minors(square2, gvars)
        gb_a = buchberger(gens, default_grid_order(gvars))
        gb_b = buchberger(gens, MonomialOrder("lex", len(gvars), tuple(range(len(gvars)))))
        with pytest.raises(ValueError, match="different orders"):
            ideal_equal_paths(gb_a, gb_b)


GRID_ORDER_SPECS = [(kind, name) for name in OrderSearchConfig().rankings
                    for kind in OrderSearchConfig().kinds] + ["two-block"]


def grid_order(spec, gvars):
    """A named order ``(kind, ranking name)``, or "two-block": the first half
    of the row-major ranking under lex, then the rest under degrevlex."""
    if spec == "two-block":
        ranking = named_ranking("row-major", gvars)
        half = len(ranking) // 2
        return block_order(len(gvars), [("lex", ranking[:half]), ("degrevlex", ranking[half:])])
    kind, name = spec
    return MonomialOrder(kind, len(gvars), named_ranking(name, gvars))


class TestToricIdeal:
    def test_single_cell_segre_kernel(self, cell):
        gvars = grid_variables(cell)
        gb = toric_ideal_elimination(build_interval_graph(cell), gvars, default_grid_order(gvars))
        (minor,) = inner_minors(cell, gvars)
        assert len(gb.elements) == 1
        assert same_up_to_sign(gb.elements[0], minor)

    def test_square2_is_k33_minor_ideal(self, square2):
        gvars = grid_variables(square2)
        order = default_grid_order(gvars)
        gb = toric_ideal_elimination(build_interval_graph(square2), gvars, order)
        assert ideal_equal_paths(buchberger(inner_minors(square2, gvars), order), gb) == ([], True)

    def test_no_auxiliary_variables_leak(self, square2):
        gvars = grid_variables(square2)
        gb = toric_ideal_elimination(build_interval_graph(square2), gvars, default_grid_order(gvars))
        assert all(len(b.plus) == len(gvars) for b in gb.elements)

    def test_elimination_basis_elements_are_balanced(self, annulus):
        graph, gvars = build_interval_graph(annulus), grid_variables(annulus)
        gb = toric_ideal_elimination(graph, gvars, default_grid_order(gvars))
        assert all(oracles.balanced(graph, gvars, b) for b in gb.elements)

    @pytest.mark.parametrize("shape", ["tromino_l", "annulus"])
    @pytest.mark.parametrize("spec", GRID_ORDER_SPECS,
                             ids=lambda spec: spec if isinstance(spec, str) else "-".join(spec))
    def test_explicit_reduction_matches_fast_path(self, request, shape, spec):
        # one elimination under any grid order gives the reduced basis that
        # Buchberger finds from the default order's basis
        poly = request.getfixturevalue(shape)
        graph, gvars = build_interval_graph(poly), grid_variables(poly)
        order = grid_order(spec, gvars)
        default_basis = toric_ideal_elimination(graph, gvars, default_grid_order(gvars))
        gb = toric_ideal_elimination(graph, gvars, order)
        assert gb.order == order
        assert gb.elements == buchberger(list(default_basis.elements), order).elements

    @pytest.mark.parametrize("spec", ["default", ("lex", "column-major"), ("deglex", "diagonal"), "two-block"],
                             ids=lambda spec: spec if isinstance(spec, str) else "-".join(spec))
    def test_slice_first_matches_reduced_then_sliced(self, spec):
        # by the elimination theorem the slice of the unreduced basis is a
        # Groebner basis of the toric ideal, so reducing only it gives the
        # same unique reduced basis, in the same order
        shapes = [p for n in range(1, 6) for p in enumerate_polyominoes(n)]
        shapes += [p for p in enumerate_polyominoes(8) if not is_simple(p)]
        assert len(shapes) == 91 + 41
        for poly in shapes:
            graph, gvars = build_interval_graph(poly), grid_variables(poly)
            order = default_grid_order(gvars) if spec == "default" else grid_order(spec, gvars)
            assert toric_ideal_elimination(graph, gvars, order) == \
                oracles.reduced_then_sliced_elimination(graph, gvars, order)

    @pytest.mark.parametrize("spec", ["default", ("lex", "column-major"), ("deglex", "diagonal"), "two-block"],
                             ids=lambda spec: spec if isinstance(spec, str) else "-".join(spec))
    def test_gauged_elimination_equals_full_elimination(self, spec):
        # every image of x^a has v-degree |a|, so setting v_0 to 1 keeps the
        # kernel, and the reduced basis, of the map with all m + n variables
        shapes = [p for n in range(1, 7) for p in enumerate_polyominoes(n)]
        shapes += [p for p in enumerate_polyominoes(8) if not is_simple(p)]
        assert len(shapes) == 307 + 41
        for poly in shapes:
            graph, gvars = build_interval_graph(poly), grid_variables(poly)
            order = default_grid_order(gvars) if spec == "default" else grid_order(spec, gvars)
            assert toric_ideal_elimination(graph, gvars, order) == \
                oracles.full_elimination(graph, gvars, order), (poly.cells_sorted, spec)

    def test_inner_minors_are_balanced(self, square2):
        gvars = grid_variables(square2)
        graph = build_interval_graph(square2)
        for minor in inner_minors(square2, gvars):
            assert oracles.balanced(graph, gvars, minor)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_shapes_inner_minors_in_toric_ideal(self, seed):
        poly = random_polyomino(seed % 7 + 2, random.Random(seed * 31 + 1))
        gvars = grid_variables(poly)
        order = default_grid_order(gvars)
        graph = build_interval_graph(poly)
        gb = toric_ideal_elimination(graph, gvars, order)
        for minor in inner_minors(poly, gvars):
            assert oracles.balanced(graph, gvars, minor)
            assert member(minor, gb)


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
        # the binomials of the chordless cycles generate the toric ideal:
        # their reduced basis is the elimination basis, element by element
        shapes = [p for n in range(1, 6) for p in enumerate_polyominoes(n)]
        shapes += [p for p in enumerate_polyominoes(8) if not is_simple(p)]
        assert len(shapes) == 91 + 41
        for poly in shapes:
            graph, gvars = build_interval_graph(poly), grid_variables(poly)
            gens = toric_ideal_cycles(poly, variables=gvars)
            for order in (default_grid_order(gvars), grid_order(("lex", "column-major"), gvars),
                          grid_order(("deglex", "diagonal"), gvars)):
                cyc = buchberger(gens, order)
                assert cyc.elements == toric_ideal_elimination(graph, gvars, order).elements, \
                    (poly.cells_sorted, order)


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

    def test_budgets_reach_every_candidate_order(self, monkeypatch):
        # a simple hexomino with no quadratic order among the nine: every
        # candidate stops at its first cubic, the last of them at S-pair 8
        poly = Polyomino([(0, 0), (0, 2), (1, 0), (1, 1), (1, 2), (2, 1)])
        gvars = grid_variables(poly)
        gens = inner_minors(poly, gvars)
        with pytest.raises(BudgetExceededError):
            find_quadratic_order(gens, gvars, budgets=EngineBudgets(pairs=7))
        budgets = EngineBudgets(pairs=8)
        calls = []
        engine = algebra.buchberger

        def spy(gens, order, **kwargs):
            calls.append((order, kwargs))
            return engine(gens, order, **kwargs)

        monkeypatch.setattr(algebra, "buchberger", spy)
        assert find_quadratic_order(gens, gvars, budgets=budgets) is None
        assert len({order for order, _ in calls}) == 9
        assert [kwargs for _, kwargs in calls] == [{"budgets": budgets, "max_degree": 2}] * 9

    def test_inhomogeneous_generator_rejected(self, domino):
        gvars = grid_variables(domino)
        cubic = Binomial(mono_from_indices(len(gvars), (0, 1, 2)), mono_from_indices(len(gvars), (3, 4)))
        with pytest.raises(ValueError, match="homogeneous"):
            find_quadratic_order(inner_minors(domino, gvars) + [cubic], gvars)

    def test_early_stop_matches_full_search(self):
        # every shape up to 6 cells, and the 41 holed octominoes
        shapes = [p for n in range(1, 7) for p in enumerate_polyominoes(n)]
        holed = [p for p in enumerate_polyominoes(8) if not is_simple(p)]
        assert len(holed) == 41
        for poly in shapes + holed:
            gvars = grid_variables(poly)
            gens = inner_minors(poly, gvars)
            assert find_quadratic_order(gens, gvars) == oracles.full_quadratic_order_search(gens, gvars), poly

    def test_reused_basis_gives_the_same_order(self, monkeypatch):
        # every shape up to 6 cells, and the 41 holed octominoes: the default
        # order's reduced basis stands in for the first candidate's run
        shapes = [p for n in range(1, 7) for p in enumerate_polyominoes(n)]
        holed = [p for p in enumerate_polyominoes(8) if not is_simple(p)]
        assert len(holed) == 41
        engine = algebra.buchberger
        calls = []

        def spy(gens, order, **kwargs):
            calls.append(order)
            return engine(gens, order, **kwargs)

        monkeypatch.setattr(algebra, "buchberger", spy)
        for poly in shapes + holed:
            gvars = grid_variables(poly)
            gens = inner_minors(poly, gvars)
            known = engine(gens, default_grid_order(gvars))
            without = find_quadratic_order(gens, gvars)
            calls.clear()
            assert find_quadratic_order(gens, gvars, basis=known) == without, poly
            assert known.order not in calls, poly

    def test_max_degree_raises_exactly_on_a_cubic_basis(self):
        # on every shape up to 5 cells, under each of the nine orders
        family = OrderSearchConfig()
        for n in range(1, 6):
            for poly in enumerate_polyominoes(n):
                gvars = grid_variables(poly)
                gens = inner_minors(poly, gvars)
                for name in family.rankings:
                    for kind in family.kinds:
                        order = MonomialOrder(kind, len(gvars), named_ranking(name, gvars))
                        full = buchberger(gens, order)
                        cubic = any(b.degree > 2 for b in full.elements)
                        try:
                            assert buchberger(gens, order, max_degree=2) == full
                            raised = False
                        except DegreeExceededError:
                            raised = True
                        assert raised == cubic, (poly, order)

    def test_retains_nothing_per_order(self):
        # each order's rows and sort key are built with it, not memoised:
        # after a first round has warmed every lasting structure, rounds over
        # new shapes, and so over new orders, must leave the retained size flat
        def shapes(round_):
            for k in range(10):
                rng = random.Random(1000 * round_ + k)
                yield random_polyomino(rng.randint(6, 9), rng)

        tracemalloc.start()
        try:
            retained = []
            for round_ in range(3):
                for poly in shapes(round_):
                    gvars = grid_variables(poly)
                    find_quadratic_order(inner_minors(poly, gvars), gvars)
                gc.collect()
                retained.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        # a cache that kept every order seen would add about 34 KB a round
        assert retained[2] - retained[0] < 8 * 1024, retained


class TestWitnessGap:
    def test_annulus_hole_minor(self, annulus):
        gvars = grid_variables(annulus)
        w = verify_polyomino(annulus).gap_witness
        assert render_binomial(w, gvars) == "x(1,1)*x(2,2) - x(1,2)*x(2,1)"
        # confirmed by basis membership on both sides
        order = default_grid_order(gvars)
        gb_inner = buchberger(inner_minors(annulus, gvars), order)
        gb_toric = toric_ideal_elimination(build_interval_graph(annulus), gvars, order)
        assert member(w, gb_toric)
        assert not member(w, gb_inner)

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

    @pytest.mark.parametrize("field", ["pairs", "elements", "reduction_steps"])
    @pytest.mark.parametrize("value", [float("nan"), True, 2.5, "3", None],
                             ids=["nan", "bool", "float", "str", "none"])
    def test_budget_must_be_an_int(self, field, value):
        # every comparison with NaN is False, so a NaN budget would never run out
        with pytest.raises(ValueError, match=f"^{field} budget must be an int >= 0, got "):
            EngineBudgets(**{field: value})

    def test_variable_set_rejects_duplicates(self):
        with pytest.raises(ValueError):
            VariableSet([(0, 0), (1, 0), (0, 0)])


class TestGridVariables:
    def test_points_run_in_descending_row_major_order(self, annulus):
        gvars = grid_variables(annulus)
        assert len(gvars) == 16
        assert list(gvars.points) == sorted(oracles.polyomino_vertices(annulus.cells), key=lambda p: (p[1], p[0]), reverse=True)
        assert gvars.points[0] == (3, 3) and gvars.points[-1] == (0, 0)
        assert all(gvars.names[k] == f"x({x},{y})" for k, (x, y) in enumerate(gvars.points))

    def test_index_round_trips_every_vertex(self, annulus):
        gvars = grid_variables(annulus)
        for point in oracles.polyomino_vertices(annulus.cells):
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
        assert order.rows == (
            ((4, 1),), ((1, 1),), ((5, 1),),
            ((3, 1), (0, 1), (2, 1)), ((2, -1),), ((0, -1),))
        assert oracles.dense_rows(order) == (
            (0, 0, 0, 0, 1, 0), (0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1),
            (1, 0, 1, 1, 0, 0), (0, 0, -1, 0, 0, 0), (-1, 0, 0, 0, 0, 0))
        assert order.to_json(gvars) == {"kind": "block", "blocks": [
            {"kind": "lex", "ranking": ["x(1,0)", "x(1,1)", "x(0,0)"]},
            {"kind": "degrevlex", "ranking": ["x(2,0)", "x(2,1)", "x(0,1)"]}]}
        assert order_from_json(order.to_json(gvars), gvars) == order

    def test_order_round_trip(self, square2):
        gvars = grid_variables(square2)
        order = MonomialOrder("deglex", len(gvars), named_ranking("diagonal", gvars))
        spec = order.to_json(gvars)
        assert order_from_json(json.loads(json.dumps(spec)), gvars) == order

    def test_ranking_may_be_a_name_anywhere(self, cell):
        gvars = grid_variables(cell)
        plain = order_from_json({"kind": "lex", "ranking": "row-major"}, gvars)
        assert plain == MonomialOrder("lex", 4, named_ranking("row-major", gvars))
        block = order_from_json({"kind": "block", "blocks": [{"kind": "lex", "ranking": "row-major"}]}, gvars)
        assert block == block_order(4, [("lex", named_ranking("row-major", gvars))])
        assert block.rows == plain.rows
        mixed = order_from_json({"kind": "deglex", "ranking": [0, "x(0,1)", 2, "x(0,0)"]}, gvars)
        assert mixed == MonomialOrder("deglex", 4, (0, 1, 2, 3))

    # tests/test_cli.py runs the malformed specs a user is likeliest to type
    @pytest.mark.parametrize("spec, message", [
        ({"kind": "lex"}, "has no 'ranking'"),
        ({"kind": "lex", "ranking": [True, 0, 2, 3]}, "ranking entry True is neither"),
        ({"kind": "lex", "ranking": 3}, "a ranking must be a family name or a list, got 3"),
        ({"kind": "block"}, "has no 'blocks'"),
        ({"kind": "block", "blocks": "row-major"}, "'blocks' must be a list of order specs"),
        ({"kind": "block", "blocks": [{"kind": "block", "blocks": []}]}, "unknown order kind 'block'"),
    ], ids=["no-ranking", "bool-index", "int-ranking", "no-blocks", "string-blocks", "nested-block"])
    def test_malformed_spec_raises_value_error(self, cell, spec, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            order_from_json(spec, grid_variables(cell))
