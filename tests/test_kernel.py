import json
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import polyprime
from polyprime import _kernel_py as pure, buchberger, grid_variables, inner_minors, kernel
from polyprime.algebra import EngineBudgets, default_grid_order, named_ranking
from polyprime.binomials import Binomial, MonomialOrder, block_order, degrevlex_order, mono_from_indices
from polyprime.errors import BudgetExceededError, LimitExceededError

# the directory holding the polyprime package these tests import
PACKAGE_ROOT = str(Path(polyprime.__file__).resolve().parents[1])


def run_child(code, *args, pure_kernel=False):
    """Run ``code`` in a fresh interpreter that imports the same polyprime; return stdout.

    With ``pure_kernel`` the child blocks ``polyprime._speedups`` before
    importing polyprime, so the import-time choice falls to ``_kernel_py``.
    """
    prelude = f"import sys\nsys.path.insert(0, {PACKAGE_ROOT!r})\n"
    if pure_kernel:
        prelude += "sys.modules['polyprime._speedups'] = None\n"
    done = subprocess.run([sys.executable, "-c", prelude + code, *args],
                          capture_output=True, text=True, check=True, timeout=300)
    return done.stdout


@pytest.fixture(scope="module")
def fast():
    return pytest.importorskip("polyprime._speedups")


def test_python_backend_always_available():
    assert pure.BACKEND == "python"
    out = run_child("import polyprime\nprint(polyprime.backend_name())", pure_kernel=True)
    assert out == "python\n"


def test_default_prefers_compiled():
    try:
        from polyprime import _speedups as expected
    except ImportError:
        expected = pure
    assert kernel.get_kernel() is expected
    assert kernel.backend_name() == expected.BACKEND


def test_engine_calls_kernel_through_module_attributes(monkeypatch, annulus):
    # perfbench's tracer counts kernel calls by replacing these attributes;
    # an engine that bound them at import would bypass its wrappers
    kern = kernel.get_kernel()
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(kern, "compare", counted("compare", kern.compare))
    if kern is pure:
        # a compiled extension type's methods cannot be replaced
        monkeypatch.setattr(kern.Basis, "normal_form", counted("normal_form", kern.Basis.normal_form))
    gvars = grid_variables(annulus)
    buchberger(inner_minors(annulus, gvars), default_grid_order(gvars))
    assert counts["compare"] > 0
    if kern is pure:
        assert counts["normal_form"] > 0


KINDS = ("lex", "deglex", "degrevlex")


@st.composite
def monomial_orders(draw, nvars):
    """lex, deglex or degrevlex on a random ranking, or a two-block order."""
    ranking = tuple(draw(st.permutations(range(nvars))))
    if nvars > 1 and draw(st.booleans()):
        cut = draw(st.integers(min_value=1, max_value=nvars - 1))
        return block_order(nvars, [(draw(st.sampled_from(KINDS)), ranking[:cut]),
                                   (draw(st.sampled_from(KINDS)), ranking[cut:])])
    return MonomialOrder(draw(st.sampled_from(KINDS)), nvars, ranking)


@st.composite
def binomial_ideals(draw):
    """(generators, order): up to 4 pure-difference binomials in up to 8 variables, exponents 0-3."""
    n = draw(st.integers(min_value=1, max_value=8))
    monos = st.tuples(*[st.integers(0, 3)] * n)
    terms = draw(st.lists(st.tuples(monos, monos).filter(lambda t: t[0] != t[1]),
                          min_size=1, max_size=4))
    return [Binomial(a, b) for a, b in terms], draw(monomial_orders(n))


def traced_engine(engine, gens, order, budgets):
    """(reduced basis or budget error text, log of kernel calls) of one engine run.

    Wraps the kernel attributes the way perfbench's tracer does; the
    compiled kernel's Basis methods cannot be replaced, so there only
    ``compare`` is logged.
    """
    kern = kernel.get_kernel()
    calls = []

    def logged(name, fn):
        def wrapper(*args):
            calls.append((name,) + args[1:])
            return fn(*args)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kern, "compare", logged("compare", kern.compare))
        if kern is pure:
            mp.setattr(kern.Basis, "append", logged("append", kern.Basis.append))
            mp.setattr(kern.Basis, "normal_form", logged("normal_form", kern.Basis.normal_form))
        try:
            out = engine(gens, order, budgets=budgets).elements
        except BudgetExceededError as exc:
            out = str(exc)
    return out, calls


def assert_same_engine_run(gens, order, budgets):
    got, got_calls = traced_engine(buchberger, gens, order, budgets)
    want, want_calls = traced_engine(oracles.dense_buchberger, gens, order, budgets)
    assert got == want
    # the same calls with the same arguments in the same order, so the same counts
    assert got_calls == want_calls


@settings(max_examples=200, deadline=None)
@given(binomial_ideals())
def test_engine_matches_dense_reference(ideal):
    # small budgets keep the random ideals cheap; a run that exhausts one
    # must raise the same error after the same calls
    gens, order = ideal
    assert_same_engine_run(gens, order, EngineBudgets(pairs=300, elements=80, reduction_steps=100_000))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("ranking", ("row-major", "column-major", "diagonal"))
def test_engine_matches_dense_reference_on_annulus(annulus, kind, ranking):
    gvars = grid_variables(annulus)
    order = MonomialOrder(kind, len(gvars), named_ranking(ranking, gvars))
    assert_same_engine_run(inner_minors(annulus, gvars), order, EngineBudgets())


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


def test_python_compare_rejects_wrong_width():
    order = pure.Order(degrevlex_order(2).weight_rows())
    assert pure.compare(order, (1, 0), (0, 1)) == 1
    for a, b in (((1, 0, 7), (0, 1, 0)), ((1,), (0, 1)), ((1, 0), (0, 1, 0)), ((1, 0, 0), (1, 0, 0))):
        with pytest.raises(ValueError, match="exponent tuple has wrong length"):
            pure.compare(order, a, b)


def compare_or_error(kern, rows, a, b):
    try:
        return kern.compare(kern.Order(rows), a, b)
    except ValueError as exc:
        return str(exc)


def exponent_tuples(n):
    """Mostly n entries, sometimes n - 1 or n + 1."""
    return st.sampled_from((n,) * 5 + (n - 1, n + 1)).flatmap(
        lambda width: st.tuples(*[st.integers(0, 5)] * width))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(monomial_orders(n), st.tuples(exponent_tuples(n), exponent_tuples(n)))))
def test_compare_identical_across_kernels(fast, data):
    # a wrong width must raise the same error in both kernels
    order, (a, b) = data
    rows = order.weight_rows()
    assert compare_or_error(pure, rows, a, b) == compare_or_error(fast, rows, a, b)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_normal_form_identical_across_kernels(fast, seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    order = degrevlex_order(n)
    rows = order.weight_rows()
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


def test_normal_form_budget_sentinel(fast):
    for kern in (pure, fast):
        basis = kern.Basis(2)
        basis.append((1, 0), (0, 1))  # x -> y
        assert basis.normal_form((3, 0), 0) is None
        assert basis.normal_form((3, 0), 10) == (0, 3)


PIPELINE_SHAPES = ["#", "##", "#.\n##", "##\n##", "###\n#.#\n###", "####\n#..#\n####"]

PIPELINE_DIGESTS = """
import hashlib, json
from polyprime import backend_name, buchberger, grid_variables, inner_minors, parse_grid
from polyprime import toric_ideal_elimination
from polyprime.algebra import default_grid_order
out = {"backend": backend_name()}
for text in json.loads(sys.argv[1]):
    poly = parse_grid(text)
    gvars = grid_variables(poly)
    order = default_grid_order(gvars)
    bases = (buchberger(inner_minors(poly, gvars), order).elements,
             toric_ideal_elimination(poly, order).elements)
    out[text] = hashlib.sha256(repr(bases).encode()).hexdigest()
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def pipeline_digests(fast):
    shapes = json.dumps(PIPELINE_SHAPES)
    compiled = json.loads(run_child(PIPELINE_DIGESTS, shapes))
    python = json.loads(run_child(PIPELINE_DIGESTS, shapes, pure_kernel=True))
    assert (compiled["backend"], python["backend"]) == ("c", "python")
    return compiled, python


@pytest.mark.parametrize("text", PIPELINE_SHAPES)
def test_full_pipeline_identical_across_kernels(pipeline_digests, text):
    compiled, python = pipeline_digests
    assert compiled[text] == python[text]
