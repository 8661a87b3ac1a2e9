import importlib.util
import json
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
from polyprime.algebra import EngineBudgets, default_grid_order, named_ranking, toric_ideal_elimination
from polyprime.binomials import Binomial, MonomialOrder, block_order, degrevlex_order, mono_from_indices
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
    methods = ("normal_form", "normal_form_until")
    if kern is pure:
        # a compiled extension type's methods cannot be replaced
        for name in methods:
            monkeypatch.setattr(kern.Basis, name, counted(name, getattr(kern.Basis, name)))
    gvars = grid_variables(annulus)
    buchberger(inner_minors(annulus, gvars), default_grid_order(gvars))
    assert counts["compare"] > 0
    if kern is pure:
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
            for name in ("append", "normal_form", "normal_form_until"):
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
    assert len(basis) == 1


@pytest.mark.parametrize("nvars", [-1, 2 ** 28, 2 ** 40], ids=["-1", "2**28", "2**40"])
def test_basis_nvars_out_of_range(kern, nvars):
    assert kern.MAX_NVARS == 2 ** 28 - 1
    assert outcome(kern.Basis, nvars) == (ValueError, "nvars must be in 0..268435455")


@pytest.mark.parametrize("call, expected", [
    (lambda k: len(k.Basis(nvars=3)), 0),
    (lambda k: k.Basis(3, foo=1), TypeError),
    (lambda k: k.Basis(3, nvars=3), TypeError),
    (lambda k: k.compare(k.Order(rows=((1, 0), (0, 1))), (1, 0), (0, 1)), 1),
    (lambda k: k.Order(((1, 0), (0, 1)), x=2), TypeError),
], ids=["basis-nvars", "basis-stray", "basis-twice", "order-rows", "order-stray"])
def test_constructors_take_the_same_keywords(kern, call, expected):
    # both kernels name their parameters nvars and rows and reject any
    # other keyword; the error messages differ, the error types do not
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
    assert len(basis) == 0


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
    assert len(basis) == 1


def test_wrong_width_raises_before_allocating(kern):
    # a wide basis must not allocate for a monomial it is about to reject
    basis = kern.Basis(10 ** 6)
    calls = (lambda: basis.normal_form((0,), 1),
             lambda: basis.normal_form_until((0,), 1, (0,)),
             lambda: basis.append((0,), (0,)))
    tracemalloc.start()
    try:
        for call in calls:
            assert outcome(call) == (ValueError, "exponent tuple has wrong length")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert len(basis) == 0


def test_python_compare_rejects_wrong_width():
    order = pure.Order(degrevlex_order(2).weight_rows())
    assert pure.compare(order, (1, 0), (0, 1)) == 1
    for a, b in (((1, 0, 7), (0, 1, 0)), ((1,), (0, 1)), ((1, 0), (0, 1, 0)), ((1, 0, 0), (1, 0, 0))):
        with pytest.raises(ValueError, match="exponent tuple has wrong length"):
            pure.compare(order, a, b)


def compare_or_error(kern, rows, a, b):
    return outcome(lambda: kern.compare(kern.Order(rows), a, b))


def exponent_tuples(n):
    """Mostly n entries, sometimes n - 1 or n + 1; exponents mostly 0-5, sometimes at the edges."""
    exponents = st.sampled_from(tuple(range(6)) * 4 + EDGE_EXPONENTS)
    return st.sampled_from((n,) * 5 + (n - 1, n + 1)).flatmap(
        lambda width: st.tuples(*[exponents] * width))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(monomial_orders(n), st.tuples(exponent_tuples(n), exponent_tuples(n)))))
def test_compare_identical_across_kernels(fast, data):
    # the same result for every exponent, and the same error for a wrong width
    order, (a, b) = data
    rows = order.weight_rows()
    assert compare_or_error(pure, rows, a, b) == compare_or_error(fast, rows, a, b)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_normal_form_identical_across_kernels(fast, seed):
    # an exponent outside 0..32767, given or made by a rewrite, must raise
    # the same error in both kernels
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    order = degrevlex_order(n)
    rows = order.weight_rows()
    po, fo = pure.Order(rows), fast.Order(rows)
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
        c = outcome(pure.compare, po, a, b)
        assert c == outcome(fast.compare, fo, a, b)
        lead, tail = (a, b) if c == 1 else (b, a)
        assert outcome(pb.append, lead, tail) == outcome(fb.append, lead, tail)
    assert len(pb) == len(fb)
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


@settings(max_examples=200, deadline=None)
@given(rewrite_systems())
def test_budget_zero_tests_lead_divisibility(fast, system):
    # inter-reduction relies on this: budget 0 returns None exactly when
    # some appended lead divides the monomial, and the monomial otherwise
    rules, mono = system
    for m in [mono] + [lead for lead, _ in rules]:
        divisible = any(oracles.mono_divides(lead, m) for lead, _ in rules)
        assert (oracles.tuple_normal_form(rules, m, 0) is None) == divisible
        for kern in (pure, fast):
            assert built(kern, rules, len(mono)).normal_form(m, 0) == (None if divisible else m)


@settings(max_examples=200, deadline=None)
@given(rewrite_systems(), st.data())
def test_normal_form_until_identical_across_kernels(fast, system, data):
    rules, mono = system
    n = len(mono)
    pb, fb = built(pure, rules, n), built(fast, rules, n)
    chain = oracles.tuple_rewrite_chain(rules, mono)
    steps, nf = len(chain) - 1, chain[-1]
    for k, target in enumerate(chain):
        # early return: k steps reach chain[k], where the full normal form
        # needs all of them
        assert pb.normal_form_until(mono, k, target) == target
        if k < steps:
            assert pb.normal_form(mono, k) is None
    unrelated = data.draw(st.tuples(*[st.integers(0, 5)] * n))
    for target in (nf, unrelated):
        # at the end of the chain or off it: exactly normal_form, budget errors included
        if target not in chain[:-1]:
            for budget in range(steps + 1):
                assert pb.normal_form_until(mono, budget, target) == pb.normal_form(mono, budget)
    bad_exponent = data.draw(st.sampled_from(EDGE_EXPONENTS))
    targets = chain + [unrelated, nf + (0,), nf[:-1], nf[:-1] + (bad_exponent,)]
    for target in targets:
        for budget in range(steps + 1):
            got = outcome(pb.normal_form_until, mono, budget, target)
            assert got == outcome(fb.normal_form_until, mono, budget, target)
            if len(target) == n and all(0 <= e <= pure.MAX_EXPONENT for e in target):
                assert got == oracles.tuple_normal_form(rules, mono, budget, target)
    # the monomial is checked before the target
    bad_mono = mono[:-1] + (bad_exponent,)
    for target in (nf, nf[:-1]):
        got = outcome(pb.normal_form_until, bad_mono, steps, target)
        assert got == outcome(fb.normal_form_until, bad_mono, steps, target)


def test_earliest_divisor_wins_across_buckets(kern):
    # the pure kernel files a rule under its lead's lowest variable and
    # scans x2's bucket before x0's: rules 0 and 1 share x0's bucket, rule 2
    # alone is in x2's, and both 1 and 2 divide m, so rule 1 must rewrite
    rules = [((3, 0, 0), (0, 0, 0)), ((1, 0, 0), (0, 0, 2)), ((0, 0, 1), (0, 0, 0))]
    mono = (1, 1, 1)
    basis = built(kern, rules, 3)
    assert basis.normal_form_until(mono, 1, (0, 1, 3)) == (0, 1, 3)
    assert basis.normal_form_until(mono, 1, (1, 1, 0)) is None
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
    for mono in ((0, 0), (1, 0), (0, 3)):
        for budget in range(6):
            assert oracles.tuple_normal_form(rules, mono, budget) is None
            assert basis.normal_form(mono, budget) is None
        for target in ((0, 1), (2, 0), (0, 2), (1, 1)):
            for budget in range(4):
                assert (basis.normal_form_until(mono, budget, target)
                        == oracles.tuple_normal_form(rules, mono, budget, target))
    assert basis.normal_form_until((1, 0), 2, (2, 1)) == (2, 1)  # x -> y, then 1 -> x^2


def test_basis_without_variables(kern):
    basis = kern.Basis(0)
    assert basis.normal_form((), 5) == ()
    assert basis.normal_form_until((), 0, ()) == ()
    basis.append((), ())
    assert len(basis) == 1
    for budget in (0, 1, 7):
        assert basis.normal_form((), budget) is None
        assert oracles.tuple_normal_form([((), ())], (), budget) is None
    assert basis.normal_form_until((), 0, ()) == ()


# shapes whose elimination rings have 29 to 32 variables and 96 to 135 rules
WIDE_SHAPES = ["#..\n##.\n.##\n..##\n...#", "##.\n.##\n..#\n.##\n##.", "####\n#..#\n#.##"]


@pytest.fixture(scope="module")
def wide_cases():
    """Per shape: (nvars, rules, cases) for the largest rule system that
    ``toric_ideal_elimination`` appends, in append order.

    Each case is (method, args, expected), expected from
    ``oracles.tuple_normal_form``, over a sample of the monomials the engine
    rewrote with that system and products of two of its leads, whose
    supports span several variables and so several of the pure kernel's
    lead buckets at once.
    """
    kern = kernel.get_kernel()
    real = kern.Basis
    out = {}

    class Recording:
        def __init__(self, nvars):
            self.basis = real(nvars)
            self.rules, self.monos = [], []
            systems.append((nvars, self.rules, self.monos))

        def append(self, lead, tail):
            self.rules.append((lead, tail))
            self.basis.append(lead, tail)

        def normal_form(self, mono, budget):
            self.monos.append(mono)
            return self.basis.normal_form(mono, budget)

        def normal_form_until(self, mono, budget, target):
            self.monos.append(mono)
            return self.basis.normal_form_until(mono, budget, target)

    for text in WIDE_SHAPES:
        systems = []
        poly = parse_grid(text)
        gvars = grid_variables(poly)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kern, "Basis", Recording)
            toric_ideal_elimination(build_interval_graph(poly), gvars, default_grid_order(gvars))
        nvars, rules, monos = max(systems, key=lambda s: len(s[1]))
        rng = random.Random(text)
        distinct = sorted(set(monos))
        sample = rng.sample(distinct, min(25, len(distinct)))
        leads = [lead for lead, _ in rules]
        sample += [tuple(x + y for x, y in zip(*rng.sample(leads, 2))) for _ in range(15)]
        cases = []
        for mono in sample:
            chain = oracles.tuple_rewrite_chain(rules, mono)
            steps = len(chain) - 1
            for budget in sorted({0, 1, steps, 10 ** 6}):
                cases.append(("normal_form", (mono, budget),
                              oracles.tuple_normal_form(rules, mono, budget)))
            unrelated = rng.choice(sample)
            for k, target in enumerate(chain + [unrelated]):
                for budget in sorted({max(k - 1, 0), k, steps}):
                    cases.append(("normal_form_until", (mono, budget, target),
                                  oracles.tuple_normal_form(rules, mono, budget, target)))
        out[text] = nvars, rules, cases
    return out


@pytest.mark.parametrize("text", WIDE_SHAPES)
def test_wide_ring_normal_form_matches_tuple_oracle(kern, wide_cases, text):
    nvars, rules, cases = wide_cases[text]
    assert 29 <= nvars and len(rules) >= 90
    basis = built(kern, rules, nvars)
    for method, args, want in cases:
        assert getattr(basis, method)(*args) == want, (method, args)


PIPELINE_SHAPES = ["#", "##", "#.\n##", "##\n##", "###\n#.#\n###", "####\n#..#\n####"]

PIPELINE_DIGESTS = """
import hashlib, json
from polyprime import backend_name, buchberger, build_interval_graph, grid_variables, inner_minors
from polyprime import parse_grid, toric_ideal_elimination
from polyprime.algebra import default_grid_order, ideal_equal_paths, witness_from_bases
from polyprime.binomials import render_binomial
out = {"backend": backend_name()}
for text in json.loads(sys.argv[1]):
    poly = parse_grid(text)
    gvars = grid_variables(poly)
    order = default_grid_order(gvars)
    inner = buchberger(inner_minors(poly, gvars), order)
    toric = toric_ideal_elimination(build_interval_graph(poly), gvars, order)
    witness = witness_from_bases(inner, toric, gvars)
    results = (inner.elements, toric.elements, ideal_equal_paths(inner, toric),
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
