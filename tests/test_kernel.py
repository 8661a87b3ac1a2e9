import importlib.util
import json
import operator
import random
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import polyprime
from polyprime import _kernel_py as pure, buchberger, build_interval_graph, grid_variables, inner_minors, kernel
from polyprime import parse_grid
from polyprime.algebra import EngineBudgets, ideal_equal_paths, named_ranking, toric_ideal_elimination
from polyprime.binomials import (
    Binomial, MonomialOrder, block_order, compare, default_grid_order, degrevlex_order, mono_from_indices,
    order_key)
from polyprime.errors import BudgetExceededError, LimitExceededError

# the directory holding the polyprime package these tests import
PACKAGE_ROOT = str(Path(polyprime.__file__).resolve().parents[1])


def run_child(code, *args, root=PACKAGE_ROOT, pure_kernel=False):
    """Run ``code`` in a fresh interpreter that imports polyprime from ``root``; return stdout.

    With ``pure_kernel`` the child blocks ``polyprime._speedups`` before
    importing polyprime, so the import-time choice falls to ``_kernel_py``.
    """
    prelude = f"import sys\nsys.path.insert(0, {str(root)!r})\n"
    if pure_kernel:
        prelude += "sys.modules['polyprime._speedups'] = None\n"
    done = subprocess.run([sys.executable, "-c", prelude + code, *args],
                          capture_output=True, text=True, check=True, timeout=300)
    return done.stdout


def build_kernel(source, target):
    """Compile ``source`` into the extension ``target`` with the compiler sysconfig names.

    Skips when there is no compiler or no C source; a compiler that fails
    on the source, or warns about it, fails the test.
    """
    ldshared = shlex.split(sysconfig.get_config_var("LDSHARED") or "")
    include = sysconfig.get_paths()["include"]
    if not ldshared or shutil.which(ldshared[0]) is None or not Path(include, "Python.h").exists():
        pytest.skip("no C compiler or Python headers named by sysconfig")
    if not source.exists():
        pytest.skip(f"no {source.name} next to the package")
    cflags = shlex.split(sysconfig.get_config_var("CCSHARED") or "") + [
        "-O3", "-Wall", "-Werror", "-I" + include]
    done = subprocess.run([*ldshared, *cflags, str(source), "-o", str(target)],
                          capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        pytest.fail(f"compiling {source.name} failed:\n{done.stderr}")


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    """(compiled kernel module, root of a polyprime package that imports it).

    Without a built ``polyprime._speedups``, ``_speedups.c`` is compiled into
    a temporary copy of the package and loaded from there, leaving the
    source tree, ``sys.modules`` and this process's kernel choice as they
    are.
    """
    try:
        from polyprime import _speedups
        return _speedups, PACKAGE_ROOT
    except ImportError:
        pass
    root = tmp_path_factory.mktemp("compiled")
    package = root / "polyprime"
    shutil.copytree(Path(PACKAGE_ROOT) / "polyprime", package,
                    ignore=shutil.ignore_patterns("__pycache__", "_speedups.*"))
    target = package / ("_speedups" + sysconfig.get_config_var("EXT_SUFFIX"))
    build_kernel(Path(PACKAGE_ROOT) / "polyprime" / "_speedups.c", target)
    spec = importlib.util.spec_from_file_location("polyprime._speedups", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module, root


@pytest.fixture(scope="module")
def fast(compiled):
    return compiled[0]


@pytest.fixture(params=["pure", "fast"])
def kern(request):
    return pure if request.param == "pure" else request.getfixturevalue("fast")


def outcome(fn, *args):
    """fn(*args), or the type and message of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def rule_count(basis):
    """The number of rules in ``basis``: the S-pair of a rule with itself is
    zero, and ``s_pair`` raises IndexError from the first index past the
    last rule."""
    k = 0
    while outcome(basis.s_pair, k, k, 0) == ():
        k += 1
    assert outcome(basis.s_pair, k, k, 0) == (IndexError, "rule index out of range")
    return k


# outside the kernel limit 0..32767, except 32767 itself, which a rewrite can push past it
EDGE_EXPONENTS = (-1, 32767, 32768, 2 ** 16, 2 ** 70)


def test_python_backend_always_available():
    assert pure.BACKEND == "python"
    out = run_child("import polyprime\nprint(polyprime.backend_name())", pure_kernel=True)
    assert out == "python\n"


def test_default_prefers_compiled():
    try:
        from polyprime import _speedups as expected
    except ImportError:
        expected = pure
    kern = kernel.get_kernel()
    assert kern.Basis is expected.Basis
    assert kernel.backend_name() == kern.BACKEND == expected.BACKEND
    # monomial comparison has one implementation, whichever kernel rewrites
    assert kern.compare is compare
    assert not hasattr(pure, "compare") and not hasattr(pure, "Order")


def test_basis_has_three_methods(kern):
    # append, normal_form and s_pair are the whole Basis contract, which
    # both kernels must keep call by call: the engine and perfbench call
    # nothing else
    basis = kern.Basis(2)
    basis.append((1, 0), (0, 1))
    for owner in (kern.Basis, basis):
        assert {name for name in dir(owner) if not name.startswith("_")} == {"append", "normal_form", "s_pair"}
    assert outcome(len, basis)[0] is TypeError


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
    methods = ("append", "s_pair", "normal_form")
    if kern.Basis is pure.Basis:
        # a compiled extension type's methods cannot be replaced
        for name in methods:
            monkeypatch.setattr(kern.Basis, name, counted(name, getattr(kern.Basis, name)))
    gvars = grid_variables(annulus)
    gb = buchberger(inner_minors(annulus, gvars), default_grid_order(gvars))
    # membership reduces both sides of each binomial with normal_form
    ideal_equal_paths(gb, gb)
    assert counts["compare"] > 0
    if kern.Basis is pure.Basis:
        assert all(counts[name] > 0 for name in methods)


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
    ``compare`` is logged. A Basis call is logged with the number of its
    basis, in order of first use, its arguments and its result. The dense
    engine reduces each pair with ``oracles.tuple_s_pair``, logged with the
    Basis calls as an ``s_pair`` call on its one basis.
    """
    kern = kernel.get_kernel()
    calls, bases = [], []
    compare_ = kern.compare
    tuple_s_pair = oracles.tuple_s_pair

    def logged_compare(order, a, b):
        calls.append(("compare", a, b))
        return compare_(order, a, b)

    def logged(name, fn):
        def wrapper(self, *args):
            number = next((k for k, b in enumerate(bases) if b is self), len(bases))
            if number == len(bases):
                bases.append(self)
            out = fn(self, *args)
            calls.append((name, number) + args + (out,))
            return out
        return wrapper

    def logged_pair(rules, i, j, budget):
        out = tuple_s_pair(rules, i, j, budget)
        calls.append(("s_pair", 0, i, j, budget, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kern, "compare", logged_compare)
        if kern.Basis is pure.Basis:
            mp.setattr(oracles, "tuple_s_pair", logged_pair)
            for name in ("append", "s_pair", "normal_form"):
                mp.setattr(kern.Basis, name, logged(name, getattr(kern.Basis, name)))
        try:
            out = engine(gens, order, budgets=budgets).elements
        except BudgetExceededError as exc:
            out = str(exc)
    return out, calls


def assert_same_engine_run(gens, order, budgets):
    got, got_calls = traced_engine(buchberger, gens, order, budgets)
    want, want_calls = traced_engine(oracles.dense_buchberger, gens, order, budgets)
    assert got == want
    # every pair's s_pair result is the one the dense engine reads off the
    # two tuple chains, and append, compare and the tail reductions match
    # one for one, all on one basis
    assert got_calls == want_calls
    # the engine hands the kernel its per-normal-form budget on every pair
    assert all(call[4] == budgets.reduction_steps for call in got_calls if call[0] == "s_pair")


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


def appended_leads(gens, order):
    """The leads the engine appends to its kernel basis, in append order."""
    leads = []
    real = kernel.get_kernel().Basis

    class Logging:
        def __init__(self, nvars):
            self.basis = real(nvars)

        def append(self, lead, tail):
            leads.append(lead)
            self.basis.append(lead, tail)

        def __getattr__(self, name):
            return getattr(self.basis, name)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel.get_kernel(), "Basis", Logging)
        buchberger(gens, order)
    return leads


@pytest.mark.parametrize("kind", KINDS)
def test_later_lead_divides_an_earlier_one(kind):
    # x y - x^2 y^2 and x - x y^2 in (x, y): under each order an S-pair
    # leaves a lead that divides an earlier element's lead, which the
    # reduced basis drops
    gens = [Binomial((1, 1), (2, 2)), Binomial((1, 0), (1, 2))]
    order = MonomialOrder(kind, 2, (0, 1))
    leads = appended_leads(gens, order)
    assert any(oracles.mono_divides(leads[k], leads[i]) and leads[k] != leads[i]
               for k in range(len(gens), len(leads)) for i in range(k))
    want = {(1, 2): (1, 0), (2, 0): (1, 1)}
    assert {b.plus: b.minus for b in buchberger(gens, order).elements} == want
    assert_same_engine_run(gens, order, EngineBudgets())


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("first", [0, 1])
def test_generator_lead_divides_another_generator(kind, first):
    # x - y and x y - y^2 = y (x - y): the lead x divides x y whichever
    # generator comes first, and the reduced basis is x - y alone
    gens = [Binomial((1, 0), (0, 1)), Binomial((1, 1), (0, 2))]
    gens = gens[first:] + gens[:first]
    order = MonomialOrder(kind, 2, (0, 1))
    assert buchberger(gens, order).elements == (Binomial((1, 0), (0, 1)),)
    assert_same_engine_run(gens, order, EngineBudgets())


def test_one_kernel_basis_per_run(annulus):
    # the engine reduces the kept tails in the basis its pair loop built, so
    # a run constructs one kernel Basis, looked up on the kernel module
    kern = kernel.get_kernel()
    real = kern.Basis
    built_widths = []

    def counting(nvars):
        built_widths.append(nvars)
        return real(nvars)

    gvars = grid_variables(annulus)
    order = default_grid_order(gvars)
    graph = build_interval_graph(annulus)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kern, "Basis", counting)
        buchberger(inner_minors(annulus, gvars), order)
        assert built_widths == [len(gvars)]
        toric_ideal_elimination(graph, gvars, order)
        assert built_widths == [len(gvars), graph.m + graph.n - 1 + len(gvars)]


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
    assert rule_count(basis) == len(rules)
    # every budget from 0 up, through the first one that completes
    budget = 0
    while True:
        got = basis.normal_form(mono, budget)
        assert got == oracles.tuple_normal_form(rules, mono, budget)
        if got is not None:
            break
        budget += 1


def test_normal_form_exponent_limit(kern):
    limit = kern.MAX_EXPONENT
    assert limit == 32767
    basis = kern.Basis(2)
    basis.append((1, 0), (0, 2))  # x -> y^2
    assert basis.normal_form((0, limit), 10) == (0, limit)
    assert basis.normal_form((1, limit - 2), 10) == (0, limit)
    for bad in ((limit + 1, 0), (0, 2 ** 16), (-1, 0), (2 ** 70, 0)):
        message = re.escape(f"exponent of {bad} outside the kernel limit 0..{limit}")
        with pytest.raises(LimitExceededError, match=message):
            basis.normal_form(bad, 10)
        with pytest.raises(LimitExceededError, match=message):
            kern.Basis(2).append(bad, (0, 0))
        with pytest.raises(LimitExceededError, match=message):
            kern.Basis(2).append((0, 0), bad)
    # the rewrite takes y past the limit (in the packed kernel, into the
    # guard bit of y's field): raise, never wrap
    with pytest.raises(LimitExceededError, match=re.escape(
            f"rewriting (1, {limit - 1}) pushed an exponent past the kernel limit {limit}")):
        basis.normal_form((1, limit - 1), 10)
    for wrong in ((1, 0, 0), (1,)):
        with pytest.raises(ValueError, match="exponent tuple has wrong length"):
            basis.normal_form(wrong, 10)
        with pytest.raises(ValueError, match="exponent tuple has wrong length"):
            basis.append(wrong, (0, 0))
    assert rule_count(basis) == 1


@pytest.mark.parametrize("bad", [(1.5, 0), ("a", 0), (None, 0)], ids=["float", "str", "none"])
def test_non_int_exponent_raises_type_error(kern, bad):
    # the TypeError of CPython's own int conversion, never LimitExceededError
    basis = kern.Basis(2)
    basis.append((1, 0), (0, 1))
    calls = (lambda k, b: b.normal_form(bad, 10),
             lambda k, b: b.s_pair(bad[0], 0, 10),
             lambda k, b: b.s_pair(0, bad[0], 10),
             lambda k, b: k.Basis(2).append(bad, (0, 0)),
             lambda k, b: k.Basis(2).append((0, 0), bad))
    reference = pure.Basis(2)
    reference.append((1, 0), (0, 1))
    expected = outcome(operator.index, bad[0])
    assert expected[0] is TypeError
    for call in calls:
        assert outcome(call, kern, basis) == outcome(call, pure, reference) == expected
    assert rule_count(basis) == 1


def test_bool_and_list_exponents_accepted_alike(fast):
    results = []
    for kern in (pure, fast):
        basis = kern.Basis(3)
        basis.append([True, 0, 0], (0, 1, 0))  # x -> y, the lead a list holding a bool
        # t -> x y, t -> x and t -> y^2, with a list and bools: the S-pairs
        # of the t rules have the cofactors x y and x, then x y and y^2
        basis.append((0, 0, 1), [True, 1, False])
        basis.append((0, 0, True), (True, False, 0))
        basis.append((0, 0, 1), (0, 2, 0))
        results.append((basis.normal_form((True, 0, 0), 10), basis.normal_form([2, 0, 0], 10),
                        *basis.s_pair(1, 2, 10), basis.s_pair(1, 3, 10), rule_count(basis)))
    assert results[0] == results[1] == ((0, 1, 0), (0, 2, 0), (0, 2, 0), (0, 1, 0), (), 4)
    assert all(type(e) is int for mono in results[0][:4] for e in mono)


@pytest.mark.parametrize("bad", [2 ** 16, -1])
@pytest.mark.parametrize("kind", ["lex", "deglex", "degrevlex"])
def test_order_key_rejects_a_packed_exponent_out_of_range(kind, bad):
    # the middle variable has a 16-bit field under every kind, which holds 65535
    key = order_key(MonomialOrder(kind, 3, (0, 1, 2)))
    assert key((0, 2 ** 16 - 1, 0)) != key((0, 0, 0))
    with pytest.raises(OverflowError):
        key((0, bad, 0))


@pytest.mark.parametrize("nvars", [-1, 2 ** 28, 2 ** 40], ids=["-1", "2**28", "2**40"])
def test_basis_nvars_out_of_range(kern, nvars):
    assert kern.MAX_NVARS == 2 ** 28 - 1
    assert outcome(kern.Basis, nvars) == (ValueError, "nvars must be in 0..268435455")


@pytest.mark.parametrize("call, expected", [
    (lambda k: rule_count(k.Basis(nvars=3)), 0),
    (lambda k: k.Basis(3, foo=1), TypeError),
    (lambda k: k.Basis(3, nvars=3), TypeError),
], ids=["basis-nvars", "basis-stray", "basis-twice"])
def test_constructors_take_the_same_keywords(kern, call, expected):
    # both kernels name the parameter nvars and reject any other keyword;
    # the error messages differ, the error types do not
    def result_or_error_type(k):
        try:
            return call(k)
        except Exception as exc:
            return type(exc)

    assert result_or_error_type(kern) == result_or_error_type(pure) == expected


def test_basis_allocates_nothing_up_front(kern):
    # the pure kernel's guard int takes two bytes per variable, 512 MB at
    # the top of the range, so only the first packed monomial builds it
    tracemalloc.start()
    try:
        basis = kern.Basis(kern.MAX_NVARS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert rule_count(basis) == 0


def test_first_append_allocates_one_rule(kern):
    # room grows from one rule by doubling: one rule at this width takes
    # 8 MB in the compiled kernel and about as much in the pure one, while
    # room for 16 rules would take 128 MB
    n = 10 ** 6
    basis = kern.Basis(n)
    lead, tail = mono_from_indices(n, (0,)), mono_from_indices(n, (1,))
    tracemalloc.start()
    try:
        basis.append(lead, tail)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 24
    assert rule_count(basis) == 1


def test_wrong_width_raises_before_allocating(kern):
    # a wide basis must not allocate for a monomial it is about to reject
    basis = kern.Basis(10 ** 6)
    calls = (lambda: basis.normal_form((0,), 1),
             lambda: basis.append((0,), (0,)))
    tracemalloc.start()
    try:
        for call in calls:
            assert outcome(call) == (ValueError, "exponent tuple has wrong length")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert rule_count(basis) == 0


def test_compare_rejects_wrong_width():
    order = degrevlex_order(2)
    assert compare(order, (1, 0), (0, 1)) == 1
    for a, b in (((1, 0, 7), (0, 1, 0)), ((1,), (0, 1)), ((1, 0), (0, 1, 0)), ((1, 0, 0), (1, 0, 0))):
        with pytest.raises(ValueError, match="exponent tuple has wrong length"):
            compare(order, a, b)


# exponents 0-5, and now and then the kernel limit, the widest value a key field must hold
KEY_EXPONENTS = st.sampled_from(tuple(range(6)) * 4 + (32767,))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=9).flatmap(
    lambda n: st.tuples(monomial_orders(n), st.tuples(*[KEY_EXPONENTS] * n), st.tuples(*[KEY_EXPONENTS] * n))))
def test_order_key_sorts_as_each_kernel_compares(data):
    # the engine sorts bases by the key and orients pairs by compare, so the
    # two must agree, with equal keys exactly where compare says equal, and
    # both must order as the dense weight matrix of the textbook definition
    order, a, b = data
    key = order_key(order)
    by_key = (key(a) > key(b)) - (key(a) < key(b))
    assert kernel.get_kernel().compare(order, a, b) == by_key
    assert oracles.weight_row_compare(oracles.dense_rows(order), a, b) == by_key


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=9).flatmap(monomial_orders))
def test_sparse_rows_are_the_dense_reference_rows(order):
    # compare reads only the nonzero weights; spread back over every
    # variable they must be the textbook matrix, zero entries included
    dense = tuple(tuple(dict(row).get(i, 0) for i in range(order.nvars)) for row in order.rows)
    assert dense == oracles.dense_rows(order)
    assert all(w for row in order.rows for _, w in row)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_normal_form_identical_across_kernels(fast, seed):
    # an exponent outside 0..32767, given or made by a rewrite, must raise
    # the same error in both kernels
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    order = degrevlex_order(n)
    pb, fb = pure.Basis(n), fast.Basis(n)

    def monomial(low, high):
        mono = list(mono_from_indices(n, [rng.randrange(n) for _ in range(rng.randint(low, high))]))
        if rng.random() < 0.1:
            mono[rng.randrange(n)] = rng.choice(EDGE_EXPONENTS)
        return tuple(mono)

    for _ in range(rng.randint(1, 6)):
        a, b = monomial(1, 3), monomial(1, 3)
        if a == b:
            continue
        c = outcome(compare, order, a, b)
        lead, tail = (a, b) if c == 1 else (b, a)
        assert outcome(pb.append, lead, tail) == outcome(fb.append, lead, tail)
    assert rule_count(pb) == rule_count(fb)
    mono = monomial(0, 6)
    assert outcome(pb.normal_form, mono, 10 ** 5) == outcome(fb.normal_form, mono, 10 ** 5)


def test_normal_form_budget_sentinel(fast):
    for kern in (pure, fast):
        basis = kern.Basis(2)
        basis.append((1, 0), (0, 1))  # x -> y
        assert basis.normal_form((3, 0), 0) is None
        assert basis.normal_form((3, 0), 10) == (0, 3)


def built(kern, rules, nvars):
    basis = kern.Basis(nvars)
    for lead, tail in rules:
        basis.append(lead, tail)
    return basis


def lifted(mono):
    """``mono`` with a last exponent 0, that of ``Meets``'s variable t."""
    return tuple(mono) + (0,)


class Meets:
    """``meet(m, n, budget)`` in ``kern``: the S-pair of the rules t -> m
    and t -> n, over ``rules`` in ``nvars`` variables and one more, t,
    which none of them uses.

    The lcm of the two leads is t, so the cofactors are m and n, lifted;
    a lead that divides a monomial free of t is free of t, so the S-pair
    rewrites m and n in lockstep as ``rules`` would, and an error names the
    lifted start. The kernel meets two chains only inside ``s_pair``: this
    gives it any two starts. The rule t -> mono is appended the first time
    ``mono`` is a start.
    """

    def __init__(self, kern, rules, nvars):
        self.basis = built(kern, [(lifted(a), lifted(b)) for a, b in rules], nvars + 1)
        self.t = (0,) * nvars + (1,)
        self.first = len(rules)
        self.index = {}

    def __call__(self, m, n, budget):
        for mono in (m, n):
            if mono not in self.index:
                self.basis.append(self.t, lifted(mono))
                self.index[mono] = self.first + len(self.index)
        return self.basis.s_pair(self.index[m], self.index[n], budget)


def oracle_meet(rules, m, n, budget, limit=None):
    """What ``Meets`` must return: ``oracles.tuple_meet`` of m and n, lifted,
    in the lifted ``rules``, where no rule t -> mono divides a chain's
    monomial."""
    return oracles.tuple_meet([(lifted(a), lifted(b)) for a, b in rules], lifted(m), lifted(n), budget, limit)


@settings(max_examples=200, deadline=None)
@given(rewrite_systems())
def test_budget_zero_tests_lead_divisibility(fast, system):
    # budget 0 returns None exactly when some appended lead divides the
    # monomial, and the monomial otherwise
    rules, mono = system
    for m in [mono] + [lead for lead, _ in rules]:
        divisible = any(oracles.mono_divides(lead, m) for lead, _ in rules)
        assert (oracles.tuple_normal_form(rules, m, 0) is None) == divisible
        for kern in (pure, fast):
            assert built(kern, rules, len(mono)).normal_form(m, 0) == (None if divisible else m)


@settings(max_examples=200, deadline=None)
@given(rewrite_systems(), st.data())
def test_meet_identical_across_kernels(fast, system, data):
    rules, mono = system
    n = len(mono)
    limit = pure.MAX_EXPONENT
    pb = built(pure, rules, n)
    pm, fm = Meets(pure, rules, n), Meets(fast, rules, n)
    chain = oracles.tuple_rewrite_chain(rules, mono)
    steps, nf = len(chain) - 1, chain[-1]
    for k, target in enumerate(chain):
        # the chain of mono reaches chain[k], the other chain's start, at
        # its step k and no sooner, where the full normal form needs all
        assert pm(mono, target, k) == ()
        if k:
            assert pm(mono, target, k - 1) is None
        if k < steps:
            assert pb.normal_form(mono, k) is None
    unrelated = data.draw(st.tuples(*[st.integers(0, 5)] * n))
    for target in (nf, unrelated):
        # once both chains fit in the budget: () exactly when the normal
        # forms are equal, else the two normal forms, mono's first
        other = oracles.tuple_rewrite_chain(rules, target)
        fits = max(steps, len(other) - 1)
        for budget in range(fits + 2):
            got = pm(mono, target, budget)
            assert got == oracle_meet(rules, mono, target, budget)
            if budget >= fits:
                assert got == (() if other[-1] == nf else (lifted(nf), lifted(other[-1])))
    # a start of the wrong width or with an exponent out of range fails
    # alike in both kernels
    bad_exponent = data.draw(st.sampled_from(EDGE_EXPONENTS))
    targets = chain + [unrelated, nf + (0,), nf[:-1], nf[:-1] + (bad_exponent,)]
    for target in targets:
        for budget in range(steps + 1):
            for args in ((mono, target, budget), (target, mono, budget)):
                got = outcome(pm, *args)
                assert got == outcome(fm, *args)
                if len(target) == n and all(0 <= e <= limit for e in target):
                    assert got == outcome(oracle_meet, rules, *args, limit)


@st.composite
def s_pair_systems(draw, exponents=st.integers(0, 5)):
    """(rules, i, j): at least one rule in up to 6 variables, oriented by degrevlex, and two rule indices."""
    n = draw(st.integers(min_value=1, max_value=6))
    monos = st.tuples(*[exponents] * n)
    rules = []
    for a, b in draw(st.lists(st.tuples(monos, monos).filter(lambda t: t[0] != t[1]), min_size=1, max_size=6)):
        rules.append((a, b) if oracles.direct_degrevlex(a, b, range(n)) > 0 else (b, a))
    index = st.integers(0, len(rules) - 1)
    return rules, draw(index), draw(index)


@settings(max_examples=300, deadline=None)
@given(s_pair_systems())
def test_python_s_pair_matches_tuple_oracle(system):
    rules, i, j = system
    basis = built(pure, rules, len(rules[0][0]))
    # every budget from 0 up, through the first one that completes both sides
    budget = 0
    while True:
        got = basis.s_pair(i, j, budget)
        assert got == oracles.tuple_s_pair(rules, i, j, budget)
        if got is not None:
            break
        budget += 1
    if got:
        # the normal forms of the two cofactors, which differ
        first, second = oracles.tuple_cofactors(rules, i, j)
        assert got == (basis.normal_form(first, budget), basis.normal_form(second, budget))
        assert got[0] != got[1]


@settings(max_examples=200, deadline=None)
@given(s_pair_systems(exponents=st.sampled_from((0, 1, 2, 3) * 3 + (32766, 32767))), st.data())
def test_s_pair_identical_across_kernels(fast, system, data):
    # exponents at the kernel limit make cofactors and rewrites overflow;
    # indices outside the basis raise; both kernels must agree on all of it
    rules, i, j = system
    n = len(rules[0][0])
    pb, fb = built(pure, rules, n), built(fast, rules, n)
    index = st.integers(-2, len(rules) + 1)
    pairs = [(i, j), (j, i), (data.draw(index), data.draw(index))]
    for a, b in pairs:
        for budget in (0, 1, 2, 3, 5, 8, 100):
            got = outcome(pb.s_pair, a, b, budget)
            assert got == outcome(fb.s_pair, a, b, budget)
    assert rule_count(pb) == rule_count(fb) == len(rules)


def test_s_pair_edges(kern):
    # x^2 -> y, x y -> z, y^2 -> z^2 in (x, y, z): S(0, 1) has the cofactors
    # y^2, one step from z^2, and x z, already reduced
    rules = [((2, 0, 0), (0, 1, 0)), ((1, 1, 0), (0, 0, 1)), ((0, 2, 0), (0, 0, 2))]
    basis = built(kern, rules, 3)
    cases = [
        (0, 1, 0, None),  # the first side runs out of budget
        (0, 1, 1, ((0, 0, 2), (1, 0, 1))),
        (1, 0, 0, None),  # x z is reduced; the second side runs out of budget
        (1, 0, 1, ((1, 0, 1), (0, 0, 2))),
        (2, 2, 0, ()),    # a rule with itself: one irreducible cofactor, zero
        (1, 2, 5, ((0, 1, 1), (1, 0, 2))),  # z y and z^2 x, both reduced
    ]
    for i, j, budget, want in cases:
        assert basis.s_pair(i, j, budget) == oracles.tuple_s_pair(rules, i, j, budget) == want
    # a rule repeated: its S-pair with the first copy is zero
    twice = built(kern, rules[:1] * 2, 3)
    assert twice.s_pair(0, 1, 0) == twice.s_pair(1, 0, 10) == ()
    for i, j in ((3, 0), (0, 3), (-1, 0), (0, -1), (2 ** 70, 0)):
        assert outcome(basis.s_pair, i, j, 10) == (IndexError, "rule index out of range")
    assert outcome(kern.Basis(3).s_pair, 0, 0, 10) == (IndexError, "rule index out of range")
    # an index that is not an int raises the TypeError of Python's own index conversion
    for bad in (1.0, "0", None):
        expected = outcome(operator.index, bad)
        assert outcome(basis.s_pair, bad, 0, 10) == outcome(basis.s_pair, 0, bad, 10) == expected
    assert basis.s_pair(True, False, 1) == basis.s_pair(1, 0, 1)


def test_s_pair_unit_lead(kern):
    # a lead of 1 divides every monomial, so no chain ends: only a meeting
    # or the budget stops the rewrite. The cofactors y and x^2 y of S(0, 1)
    # meet at x y^2, one step each; S(1, 1) has one cofactor twice
    rules = [((1, 0), (0, 1)), ((0, 0), (1, 1))]
    basis = built(kern, rules, 2)
    for i, j in ((0, 1), (1, 0), (1, 1)):
        for budget in range(6):
            want = () if budget or i == j else None
            assert basis.s_pair(i, j, budget) == oracles.tuple_s_pair(rules, i, j, budget) == want
    # x -> y and 1 -> x^2 keep the parity of the degree, so the chains of y
    # and y^2 never meet
    rules = [((1, 0), (0, 1)), ((0, 0), (2, 0))]
    meet = Meets(kern, rules, 2)
    for budget in range(6):
        assert meet((0, 1), (0, 2), budget) is None
        assert oracle_meet(rules, (0, 1), (0, 2), budget) is None


def test_s_pair_exponent_limit(kern):
    limit = kern.MAX_EXPONENT
    # x -> y^32767 and y z -> 1: the cofactor y^32767 * y z of rule 0 is past
    # the limit, the cofactor x of rule 1 rewrites to y^32767 in one step
    basis = built(kern, [((1, 0, 0), (0, limit, 0)), ((0, 1, 1), (0, 0, 0))], 3)
    message = (LimitExceededError, f"exponent of (0, {limit + 1}, 1) outside the kernel limit 0..{limit}")
    # both cofactors are checked before any step, whichever comes first
    for i, j, budget in ((0, 1, 0), (1, 0, 0), (1, 0, 1)):
        assert outcome(basis.s_pair, i, j, budget) == message
    # x -> z^32767 and x y -> x z: the cofactor x z of rule 1 rewrites past
    # the limit, while y z^32767, the cofactor of rule 0, is reduced
    rules = [((1, 0, 0), (0, 0, limit)), ((1, 1, 0), (1, 0, 1))]
    basis = built(kern, rules, 3)
    message = (LimitExceededError, f"rewriting (1, 0, 1) pushed an exponent past the kernel limit {limit}")
    assert basis.s_pair(0, 1, 0) is None  # the second side needs a step
    assert outcome(basis.s_pair, 0, 1, 1) == message
    assert outcome(basis.s_pair, 1, 0, 1) == message
    for i, j, budget in ((0, 1, 0), (0, 1, 1), (1, 0, 1)):
        assert outcome(basis.s_pair, i, j, budget) == outcome(oracles.tuple_s_pair, rules, i, j, budget, limit)
    # an error names the start of the chain that overflows, whichever side it is
    meet = Meets(kern, rules, 3)
    message = (LimitExceededError, f"rewriting (1, 0, 1, 0) pushed an exponent past the kernel limit {limit}")
    for args in (((1, 0, 1), (0, 1, 0)), ((0, 1, 0), (1, 0, 1))):
        assert outcome(meet, *args, 1) == message
        assert outcome(oracle_meet, rules, *args, 1, limit) == message


@pytest.mark.parametrize("budget", ["x", 1.5, None, True], ids=["str", "float", "none", "bool"])
def test_budget_checked_up_front(kern, budget):
    # the budget goes through operator.index before any work, so a call
    # that needs no step, or whose monomial is out of range, still rejects
    # it with the TypeError of the compiled kernel; a bool is an int
    meet = Meets(kern, [((1, 0), (0, 1))], 2)  # x -> y
    basis = meet.basis
    calls = {
        "irreducible": (lambda: basis.normal_form((0, 3, 0), budget), (0, 3, 0)),
        "bad monomial": (lambda: basis.normal_form((0, 2 ** 16, 0), budget),
                         (LimitExceededError, "exponent of (0, 65536, 0) outside the kernel limit 0..32767")),
        "equal starts": (lambda: meet((0, 3), (0, 3), budget), ()),
        "one step": (lambda: meet((1, 0), (0, 1), budget), ()),
        "zero pair": (lambda: basis.s_pair(0, 0, budget), ()),
    }
    expected = outcome(operator.index, budget)
    assert budget is True or expected[0] is TypeError
    for name, (call, when_int) in calls.items():
        assert outcome(call) == (when_int if budget is True else expected), name


@pytest.fixture(scope="module")
def kernels(request):
    """The pure kernel, and the compiled one where it builds."""
    try:
        return pure, request.getfixturevalue("fast")
    except pytest.skip.Exception:
        return (pure,)


@st.composite
def meet_systems(draw):
    """(rules, m, n): up to 5 rules in up to 4 variables and two monomials.

    Half the systems orient their rules by degrevlex, so every chain ends;
    the others do not, so a chain may cycle, and have tails at the kernel
    limit and sometimes a unit lead. n is m, a monomial on m's chain or any
    other, and the two trade places half the time.
    """
    nvars = draw(st.integers(min_value=1, max_value=4))
    small = st.tuples(*[st.integers(0, 3)] * nvars)
    tails = st.tuples(*[st.sampled_from((0, 1, 2, 3) * 2 + (32766, 32767))] * nvars)
    oriented = draw(st.booleans())
    rules = draw(st.lists(st.tuples(small, small if oriented else tails).filter(lambda r: r[0] != r[1]),
                          min_size=1, max_size=5))
    if oriented:
        rules = [(a, b) if oracles.direct_degrevlex(a, b, range(nvars)) > 0 else (b, a) for a, b in rules]
    elif draw(st.booleans()):
        rules.insert(draw(st.integers(0, len(rules))), ((0,) * nvars, draw(small)))
    m = draw(small)
    kind = draw(st.sampled_from(("equal", "on the chain", "other", "other")))
    n = draw(small) if kind == "other" else m
    if kind == "on the chain":
        n = draw(st.sampled_from(oracles.tuple_rewrite_chain(rules, m, 6)))
        if max(n) > pure.MAX_EXPONENT:
            n = m
    return (rules, n, m) if draw(st.booleans()) else (rules, m, n)


@settings(max_examples=300, deadline=None)
@given(meet_systems())
def test_meet_matches_tuple_oracle(kernels, system):
    # equal starts, a unit lead, cycles, the budget binding on either side,
    # overflow on either side and a chain through the other's start
    rules, m, n = system
    for kern in kernels:
        meet = Meets(kern, rules, len(m))
        for budget in range(8):
            want = outcome(oracle_meet, rules, m, n, budget, kern.MAX_EXPONENT)
            assert outcome(meet, m, n, budget) == want, (kern.BACKEND, budget)


@settings(max_examples=300, deadline=None)
@given(s_pair_systems(exponents=st.sampled_from((0, 1, 2, 3) * 3 + (32766, 32767))), st.data())
def test_s_pair_matches_tuple_oracle_at_the_limit(kernels, system, data):
    # cofactors and rewrites past the limit, budgets on either side and
    # indices outside the basis, in both kernels against the tuple oracle
    rules, i, j = system
    index = st.integers(-2, len(rules) + 1)
    pairs = [(i, j), (j, i), (data.draw(index), data.draw(index))]
    for kern in kernels:
        basis = built(kern, rules, len(rules[0][0]))
        for a, b in pairs:
            for budget in range(6):
                if 0 <= a < len(rules) and 0 <= b < len(rules):
                    want = outcome(oracles.tuple_s_pair, rules, a, b, budget, kern.MAX_EXPONENT)
                else:
                    want = (IndexError, "rule index out of range")
                assert outcome(basis.s_pair, a, b, budget) == want, (kern.BACKEND, a, b, budget)


def test_earliest_divisor_wins_across_buckets(kern):
    # the pure kernel files a rule under its lead's lowest variable and
    # scans x2's bucket before x0's: rules 0 and 1 share x0's bucket, rule 2
    # alone is in x2's, and both 1 and 2 divide m, so rule 1 must rewrite;
    # only its step takes m to the other chain's start within the budget
    rules = [((3, 0, 0), (0, 0, 0)), ((1, 0, 0), (0, 0, 2)), ((0, 0, 1), (0, 0, 0))]
    mono = (1, 1, 1)
    basis = built(kern, rules, 3)
    meet = Meets(kern, rules, 3)
    assert meet(mono, (0, 1, 3), 1) == ()
    assert meet(mono, (1, 1, 0), 1) is None
    chain = oracles.tuple_rewrite_chain(rules, mono)
    assert chain == [(1, 1, 1), (0, 1, 3), (0, 1, 2), (0, 1, 1), (0, 1, 0)]
    for budget in range(len(chain) + 1):
        assert basis.normal_form(mono, budget) == oracles.tuple_normal_form(rules, mono, budget)


def test_unit_lead_divides_everything(kern):
    # a lead of all zeros divides every monomial, so only the budget ends
    # the rewrite; of two such leads the first rewrites, and an earlier
    # rule that divides still comes first
    rules = [((1, 0), (0, 1)), ((0, 0), (2, 0)), ((0, 0), (0, 2))]
    basis = built(kern, rules, 2)
    meet = Meets(kern, rules, 2)
    for mono in ((0, 0), (1, 0), (0, 3)):
        for budget in range(6):
            assert oracles.tuple_normal_form(rules, mono, budget) is None
            assert basis.normal_form(mono, budget) is None
        for target in ((0, 1), (2, 0), (0, 2), (1, 1)):
            for budget in range(4):
                assert meet(mono, target, budget) == oracle_meet(rules, mono, target, budget)
    # x -> y, then 1 -> x^2 reaches the other chain's start, which has
    # stepped twice by then
    assert meet((1, 0), (2, 1), 2) == ()
    assert meet((1, 0), (2, 1), 1) is None


def test_basis_without_variables(kern):
    basis = kern.Basis(0)
    assert basis.normal_form((), 5) == ()
    assert rule_count(basis) == 0
    basis.append((), ())
    assert rule_count(basis) == 1
    for budget in (0, 1, 7):
        assert basis.normal_form((), budget) is None
        assert oracles.tuple_normal_form([((), ())], (), budget) is None
    # the unit lead divides everything, but the two cofactors start equal
    assert basis.s_pair(0, 0, 0) == ()


# shapes whose elimination rings, with v_0 set to 1, have 31 variables and
# 93 to 130 rules
WIDE_SHAPES = ["#..\n##.\n.##\n..##\n...#\n...#", "##.\n.##\n..#\n.##\n##.", "####\n#..#\n#.##"]


@pytest.fixture(scope="module")
def wide_cases():
    """Per shape: (nvars, rules, cases) for the largest rule system that
    ``toric_ideal_elimination`` appends, in append order.

    Each case is (method, args, expected), expected from
    ``oracles.tuple_normal_form`` and ``oracle_meet``, over a sample of the
    monomials the engine rewrote with that system and products of two of
    its leads, whose supports span several variables and so several of the
    pure kernel's lead buckets at once; and from ``oracles.tuple_s_pair``,
    over a sample of the pairs the engine reduced. The methods are those of
    a ``Meets`` over the system and of its basis, so normal forms and
    S-pairs are lifted.
    """
    kern = kernel.get_kernel()
    real = kern.Basis
    out = {}

    class Recording:
        def __init__(self, nvars):
            self.basis = real(nvars)
            self.rules, self.monos, self.pairs = [], [], []
            systems.append((nvars, self.rules, self.monos, self.pairs))

        def append(self, lead, tail):
            self.rules.append((lead, tail))
            self.basis.append(lead, tail)

        def normal_form(self, mono, budget):
            self.monos.append(mono)
            return self.basis.normal_form(mono, budget)

        def s_pair(self, i, j, budget):
            # the two cofactors the kernel forms for the pair
            self.monos.extend(oracles.tuple_cofactors(self.rules, i, j))
            self.pairs.append((i, j))
            return self.basis.s_pair(i, j, budget)

    for text in WIDE_SHAPES:
        systems = []
        poly = parse_grid(text)
        gvars = grid_variables(poly)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kern, "Basis", Recording)
            toric_ideal_elimination(build_interval_graph(poly), gvars, default_grid_order(gvars))
        nvars, rules, monos, pairs = max(systems, key=lambda s: len(s[1]))
        rng = random.Random(text)
        distinct = sorted(set(monos))
        sample = rng.sample(distinct, min(25, len(distinct)))
        leads = [lead for lead, _ in rules]
        lifted_rules = [(lifted(a), lifted(b)) for a, b in rules]
        sample += [tuple(x + y for x, y in zip(*rng.sample(leads, 2))) for _ in range(15)]
        cases = []
        for mono in sample:
            chain = oracles.tuple_rewrite_chain(rules, mono)
            steps = len(chain) - 1
            for budget in sorted({0, 1, steps, 10 ** 6}):
                cases.append(("normal_form", (lifted(mono), budget),
                              oracles.tuple_normal_form(lifted_rules, lifted(mono), budget)))
            unrelated = rng.choice(sample)
            for k, target in enumerate(chain + [unrelated]):
                for budget in sorted({max(k - 1, 0), k, steps}):
                    cases.append(("meet", (mono, target, budget), oracle_meet(rules, mono, target, budget)))
        for i, j in rng.sample(pairs, 15):
            for budget in (0, 1, 10 ** 6):
                cases.append(("s_pair", (i, j, budget), oracles.tuple_s_pair(lifted_rules, i, j, budget)))
        out[text] = nvars, rules, cases
    return out


@pytest.mark.parametrize("text", WIDE_SHAPES)
def test_wide_ring_normal_form_matches_tuple_oracle(kern, wide_cases, text):
    nvars, rules, cases = wide_cases[text]
    assert 29 <= nvars and len(rules) >= 90
    meet = Meets(kern, rules, nvars)
    calls = {"normal_form": meet.basis.normal_form, "meet": meet, "s_pair": meet.basis.s_pair}
    for method, args, want in cases:
        assert calls[method](*args) == want, (method, args)


PIPELINE_SHAPES = ["#", "##", "#.\n##", "##\n##", "###\n#.#\n###", "####\n#..#\n####"]

PIPELINE_DIGESTS = """
import hashlib, json
from polyprime import backend_name, buchberger, build_interval_graph, grid_variables, inner_minors
from polyprime import parse_grid, toric_ideal_elimination
from polyprime.algebra import ideal_equal_paths, witness_from_bases
from polyprime.binomials import default_grid_order, render_binomial
out = {"backend": backend_name()}
for text in json.loads(sys.argv[1]):
    poly = parse_grid(text)
    gvars = grid_variables(poly)
    order = default_grid_order(gvars)
    inner = buchberger(inner_minors(poly, gvars), order)
    toric = toric_ideal_elimination(build_interval_graph(poly), gvars, order)
    gaps, identity = ideal_equal_paths(inner, toric)
    witness = witness_from_bases(gaps, gvars)
    results = (inner.elements, toric.elements, gaps, identity,
               witness and render_binomial(witness, gvars))
    out[text] = hashlib.sha256(repr(results).encode()).hexdigest()
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def pipeline_digests(compiled):
    shapes = json.dumps(PIPELINE_SHAPES)
    _, root = compiled
    c_digests = json.loads(run_child(PIPELINE_DIGESTS, shapes, root=root))
    python = json.loads(run_child(PIPELINE_DIGESTS, shapes, pure_kernel=True))
    assert (c_digests["backend"], python["backend"]) == ("c", "python")
    return c_digests, python


@pytest.mark.parametrize("text", PIPELINE_SHAPES)
def test_full_pipeline_identical_across_kernels(pipeline_digests, text):
    compiled, python = pipeline_digests
    assert compiled[text] == python[text]
