import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from polyprime import kernel
from polyprime.binomials import degrevlex_order, mono_from_indices
from polyprime import (
    buchberger,
    grid_variables,
    inner_minors,
    parse_grid,
    toric_ideal_elimination,
)
from polyprime.algebra import default_grid_order
from polyprime.errors import LimitExceededError

HAVE_C = "c" in kernel.available_backends()
needs_c = pytest.mark.skipif(not HAVE_C, reason="compiled kernel not built")


def test_python_backend_always_available():
    assert "python" in kernel.available_backends()
    assert kernel.get_kernel("python").BACKEND == "python"


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        kernel.get_kernel("fortran")


def test_env_var_forces_pure(monkeypatch):
    monkeypatch.setenv("POLYPRIME_PURE", "1")
    assert kernel.get_kernel().BACKEND == "python"
    monkeypatch.delenv("POLYPRIME_PURE")


@needs_c
def test_default_prefers_compiled(monkeypatch):
    monkeypatch.delenv("POLYPRIME_PURE", raising=False)
    assert kernel.get_kernel().BACKEND == "c"


@st.composite
def rewrite_systems(draw):
    """(rules, mono): up to 8 variables, exponents 0-5, leads oriented by degrevlex."""
    n = draw(st.integers(min_value=1, max_value=8))
    monos = st.tuples(*[st.integers(0, 5)] * n)
    rules = []
    for a, b in draw(st.lists(st.tuples(monos, monos), max_size=8)):
        if a != b:
            c = oracles.direct_degrevlex(a, b, range(n))
            rules.append((a, b) if c > 0 else (b, a))
    return rules, draw(monos)


@settings(max_examples=300, deadline=None)
@given(rewrite_systems())
def test_python_normal_form_matches_tuple_oracle(system):
    rules, mono = system
    pure = kernel.get_kernel("python")
    basis = pure.Basis(len(mono))
    for lead, tail in rules:
        basis.append(lead, tail)
    assert len(basis) == len(rules)
    # every budget from 0 up, through the first one that completes
    budget = 0
    while True:
        got = basis.normal_form(mono, budget)
        assert got == oracles.tuple_normal_form(rules, mono, budget)
        if got is not None:
            break
        budget += 1


def test_python_normal_form_exponent_limit():
    pure = kernel.get_kernel("python")
    limit = pure.MAX_EXPONENT
    assert limit == 32767
    basis = pure.Basis(2)
    basis.append((1, 0), (0, 2))  # x -> y^2
    assert basis.normal_form((0, limit), 10) == (0, limit)
    assert basis.normal_form((1, limit - 2), 10) == (0, limit)
    for bad in ((limit + 1, 0), (0, 2 ** 16), (-1, 0)):
        with pytest.raises(LimitExceededError, match=str(limit)):
            basis.normal_form(bad, 10)
        with pytest.raises(LimitExceededError, match=str(limit)):
            pure.Basis(2).append(bad, (0, 0))
    # the rewrite sets the guard bit of y's field: raise, never wrap
    with pytest.raises(LimitExceededError, match=str(limit)):
        basis.normal_form((1, limit - 1), 10)
    with pytest.raises(ValueError):
        basis.normal_form((1, 0, 0), 10)


def _make_order(kern, nvars, rows):
    return kern.Order(rows)


@needs_c
@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(
            st.permutations(range(n)),
            st.lists(st.tuples(*[st.integers(0, 5)] * n), min_size=2, max_size=2),
        )
    )
)
def test_compare_identical_across_kernels(data):
    ranking, (a, b) = data
    n = len(ranking)
    rows = degrevlex_order(n, tuple(ranking)).weight_rows()
    pure = kernel.get_kernel("python")
    fast = kernel.get_kernel("c")
    assert pure.compare(pure.Order(rows), a, b) == fast.compare(fast.Order(rows), a, b)


@needs_c
@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_normal_form_identical_across_kernels(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    order = degrevlex_order(n)
    rows = order.weight_rows()
    pure = kernel.get_kernel("python")
    fast = kernel.get_kernel("c")
    po, fo = pure.Order(rows), fast.Order(rows)
    pb, fb = pure.Basis(n), fast.Basis(n)
    for _ in range(rng.randint(1, 6)):
        a = mono_from_indices(n, [rng.randrange(n) for _ in range(rng.randint(1, 3))])
        b = mono_from_indices(n, [rng.randrange(n) for _ in range(rng.randint(1, 3))])
        if a == b:
            continue
        c = pure.compare(po, a, b)
        assert c == fast.compare(fo, a, b)
        lead, tail = (a, b) if c > 0 else (b, a)
        pb.append(lead, tail)
        fb.append(lead, tail)
    mono = mono_from_indices(n, [rng.randrange(n) for _ in range(rng.randint(0, 6))])
    assert pb.normal_form(mono, 10 ** 6) == fb.normal_form(mono, 10 ** 6)


@needs_c
def test_normal_form_budget_sentinel():
    pure = kernel.get_kernel("python")
    fast = kernel.get_kernel("c")
    for kern in (pure, fast):
        basis = kern.Basis(2)
        basis.append((1, 0), (0, 1))  # x -> y
        assert basis.normal_form((3, 0), 0) is None
        assert basis.normal_form((3, 0), 10) == (0, 3)


@needs_c
@pytest.mark.parametrize("text", ["#", "##", "#.\n##", "##\n##", "###\n#.#\n###", "####\n#..#\n####"])
def test_full_pipeline_identical_across_kernels(text):
    poly = parse_grid(text)
    gvars = grid_variables(poly)
    order = default_grid_order(gvars)
    gens = inner_minors(poly, gvars)
    pure = kernel.get_kernel("python")
    fast = kernel.get_kernel("c")
    assert buchberger(gens, order, kern=pure).elements == buchberger(gens, order, kern=fast).elements
    assert (
        toric_ideal_elimination(poly, order, kern=pure).elements
        == toric_ideal_elimination(poly, order, kern=fast).elements
    )
