import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import symmetry_images
from polyprime import (
    Polyomino,
    enumerate_polyominoes,
    inner_intervals,
    inner_minors,
    grid_variables,
    is_connected,
    is_simple,
    parse_grid,
    render_binomial,
    to_text,
)
from polyprime.errors import BadCharError, CapExceededError, DisconnectedError, EmptyInputError
from polyprime.grid import from_json_dict, random_polyomino, to_json_dict


def shapes_upto(n):
    for k in range(1, n + 1):
        yield from enumerate_polyominoes(k)


random_polys = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.integers(min_value=0, max_value=10 ** 9).map(
        lambda seed: random_polyomino(n, random.Random(seed))))


class TestParse:
    def test_single_cell(self):
        poly = parse_grid("#")
        assert poly.cells == {(0, 0)}

    def test_domino(self):
        poly = parse_grid("##")
        assert poly.cells == {(0, 0), (1, 0)}

    def test_diagonal_cells_disconnected(self):
        with pytest.raises(DisconnectedError):
            parse_grid("#.\n.#")

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            parse_grid("...\n...")

    def test_bad_char(self):
        with pytest.raises(BadCharError):
            parse_grid("#x")

    def test_top_row_is_highest_y(self):
        poly = parse_grid("#.\n##")
        assert poly.cells == {(0, 0), (1, 0), (0, 1)}

    def test_ragged_lines_padded(self):
        assert parse_grid("##\n#") == parse_grid("##\n#.")

    def test_canonical_translation(self):
        assert parse_grid("...\n..#") == parse_grid("#")

    def test_round_trip_examples(self):
        for text in ("#", "##", "#.\n##", "###\n#.#\n###"):
            assert to_text(parse_grid(text)) == text

    @settings(max_examples=60, deadline=None)
    @given(random_polys)
    def test_round_trip_random(self, poly):
        assert parse_grid(to_text(poly)) == poly

    @settings(max_examples=60, deadline=None)
    @given(random_polys)
    def test_json_round_trip(self, poly):
        assert from_json_dict(to_json_dict(poly)) == poly


class TestConnectivity:
    def test_domino_connected(self):
        assert is_connected({(0, 0), (1, 0)})

    def test_diagonal_not_connected(self):
        assert not is_connected({(0, 0), (1, 1)})

    def test_full_square_connected(self):
        assert is_connected({(x, y) for x in range(3) for y in range(3)})

    def test_empty_set_connected_by_convention(self):
        assert is_connected(set())


class TestSimple:
    def test_rectangle_simple(self, rect23):
        assert is_simple(rect23)

    def test_annulus_not_simple(self, annulus):
        assert not is_simple(annulus)

    def test_l_tromino_simple(self, tromino_l):
        assert is_simple(tromino_l)

    def test_all_small_shapes_simple(self):
        # the smallest hole needs 7 cells, so everything up to 6 is simple
        for poly in shapes_upto(6):
            assert is_simple(poly), poly

    def test_non_simple_heptominoes(self):
        """The only holed heptominoes are the 3x3 ring minus one corner.

        Cross-checked against the Euler characteristic: 4 fixed shapes (the
        free shape has a diagonal symmetry, so its dihedral orbit has size 4).
        """
        non_simple = [p for p in enumerate_polyominoes(7) if not is_simple(p)]
        by_euler = [p for p in enumerate_polyominoes(7) if not oracles.euler_is_simple(p.cells)]
        assert non_simple == by_euler
        assert len(non_simple) == 4
        ring = {(x, y) for x in range(3) for y in range(3)} - {(1, 1)}
        expected = {Polyomino(ring - {corner}) for corner in ((0, 0), (2, 0), (0, 2), (2, 2))}
        assert set(non_simple) == expected

    @settings(max_examples=40, deadline=None)
    @given(random_polys)
    def test_simple_agrees_with_euler_characteristic(self, poly):
        assert is_simple(poly) == oracles.euler_is_simple(poly.cells)

    @settings(max_examples=30, deadline=None)
    @given(random_polys)
    def test_simple_invariant_under_symmetries(self, poly):
        verdicts = {is_simple(img) for img in symmetry_images(poly)}
        assert len(verdicts) == 1

    def test_octominoes_agree_with_euler_characteristic(self):
        octominoes = list(enumerate_polyominoes(8))
        verdicts = [is_simple(p) for p in octominoes]
        assert verdicts == [oracles.euler_is_simple(p.cells) for p in octominoes]
        assert (len(octominoes), verdicts.count(False)) == (2725, 41)


class TestInnerIntervals:
    def test_single_cell(self, cell):
        assert inner_intervals(cell) == [((0, 0), (1, 1))]

    def test_domino_has_three(self, domino):
        assert inner_intervals(domino) == [
            ((0, 0), (1, 1)),
            ((0, 0), (2, 1)),
            ((1, 0), (2, 1)),
        ]

    def test_square2_has_nine(self, square2):
        assert len(inner_intervals(square2)) == 9

    def test_rectangle_count_formula(self):
        for m, n in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3)):
            poly = Polyomino({(x, y) for x in range(m) for y in range(n)})
            expected = math.comb(m + 1, 2) * math.comb(n + 1, 2)
            assert len(inner_intervals(poly)) == expected

    @settings(max_examples=40, deadline=None)
    @given(random_polys)
    def test_corners_are_vertices(self, poly):
        for (x1, y1), (x2, y2) in inner_intervals(poly):
            for corner in ((x1, y1), (x2, y2), (x1, y2), (x2, y1)):
                assert corner in poly.vertices

    @settings(max_examples=40, deadline=None)
    @given(random_polys)
    def test_interval_cells_inside(self, poly):
        for (x1, y1), (x2, y2) in inner_intervals(poly):
            assert all(
                (cx, cy) in poly.cells for cx in range(x1, x2) for cy in range(y1, y2))


class TestInnerMinors:
    def test_single_cell_minor(self, cell):
        gvars = grid_variables(cell)
        (minor,) = inner_minors(cell, gvars)
        assert render_binomial(minor, gvars) == "x(0,0)*x(1,1) - x(0,1)*x(1,0)"

    def test_domino_three_minors(self, domino):
        gvars = grid_variables(domino)
        rendered = [render_binomial(b, gvars) for b in inner_minors(domino, gvars)]
        assert rendered == [
            "x(0,0)*x(1,1) - x(0,1)*x(1,0)",
            "x(0,0)*x(2,1) - x(0,1)*x(2,0)",
            "x(1,0)*x(2,1) - x(1,1)*x(2,0)",
        ]

    def test_square2_nine_minors_of_vertex_grid(self, square2):
        gvars = grid_variables(square2)
        minors = inner_minors(square2, gvars)
        assert len(minors) == 9
        assert all(b.is_quadratic() and b.is_squarefree() for b in minors)


class TestEnumeration:
    def test_counts(self):
        expected = {1: 1, 2: 2, 3: 6, 4: 19, 5: 63, 6: 216, 7: 760}
        for n, count in expected.items():
            assert sum(1 for _ in enumerate_polyominoes(n)) == count

    def test_matches_naive_subset_filter(self):
        for n in range(1, 6):
            ours = [p.cells_sorted for p in enumerate_polyominoes(n)]
            assert ours == oracles.naive_fixed_polyominoes(n)

    def test_matches_tuple_growth(self):
        for n in range(1, 9):
            ours = [p.cells_sorted for p in enumerate_polyominoes(n)]
            assert ours == oracles.grown_fixed_polyominoes(n), n

    def test_deterministic_order(self):
        assert [p.cells_sorted for p in enumerate_polyominoes(4)] == [
            p.cells_sorted for p in enumerate_polyominoes(4)]

    def test_canonical_translation(self):
        for poly in enumerate_polyominoes(4):
            assert min(x for x, _ in poly.cells_sorted) == 0
            assert min(y for _, y in poly.cells_sorted) == 0

    def test_cap(self, monkeypatch):
        with pytest.raises(CapExceededError):
            next(enumerate_polyominoes(9))
        monkeypatch.setenv("POLYPRIME_CAP", "3")
        assert sum(1 for _ in enumerate_polyominoes(3)) == 6

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("POLYPRIME_CAP", "2")
        with pytest.raises(CapExceededError):
            next(enumerate_polyominoes(3))
        monkeypatch.setenv("POLYPRIME_CAP", "9")
        assert next(enumerate_polyominoes(3)) is not None

    def test_enumerated_equal_validated(self):
        # enumeration skips validation; the public constructor must agree with it
        for poly in shapes_upto(8):
            checked = Polyomino(poly.cells_sorted)
            assert poly == checked and hash(poly) == hash(checked)
            assert poly.cells_sorted == checked.cells_sorted

    def test_straight_strips_at_cap(self):
        # a strip as tall as the level fills a whole bitmask column
        shapes = set(enumerate_polyominoes(8))
        assert Polyomino({(x, 0) for x in range(8)}) in shapes
        assert Polyomino({(0, y) for y in range(8)}) in shapes

    def test_random_polyomino_deterministic(self):
        a = random_polyomino(6, random.Random(7))
        b = random_polyomino(6, random.Random(7))
        assert a == b and len(a) == 6
