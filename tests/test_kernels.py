"""Property tests of the integer-numerator series kernels.

Products, n-th roots, composition solves and implicitization clear
denominators, work on integers and rebuild Fractions once; each is checked
here against the dict-convolution oracles of `conftest`, which add and
multiply Fractions one term at a time.  Inputs mix signs, large and coprime
denominators and sparse supports, at exact and truncated bounds.  The
evaluation of a polynomial on a branch, `substitute`, is checked the same
way against `eval_poly_on_series`, a change of parameter,
`reparametrize`, against a sum of dict powers, and the integer
Newton-Puiseux stage `_np_transform` against `np_transform_oracle`.
"""

from fractions import Fraction as F
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st  # noqa: E402

from planebranch.geometry import Parametrization, _np_transform, implicitize  # noqa: E402
from planebranch.series import (  # noqa: E402
    EXACT,
    BivarPoly,
    TSeries,
    nth_root_unit,
    reparametrize,
    solve_composition,
    substitute,
)
from conftest import (  # noqa: E402
    dict_mul,
    dict_pow,
    eval_poly_on_series,
    np_transform_oracle,
    resultant_implicitize,
)

KERNEL_SETTINGS = settings(max_examples=40, deadline=None)

denominators = st.one_of(
    st.sampled_from([1, 2, 3, 7, 12, 2**61 - 1, 10**9 + 7, 3**40, 6**25]),
    st.integers(1, 10**18),
)
coefficients = st.builds(
    F,
    st.one_of(st.integers(-9, 9), st.integers(-(10**30), 10**30)),
    denominators,
)


def supports(low, high, max_size=6):
    return st.dictionaries(st.integers(low, high), coefficients, max_size=max_size)


truncations = st.one_of(st.just(EXACT), st.integers(1, 30))


@st.composite
def series(draw, low=0, high=30, trunc=truncations):
    return TSeries("t", draw(supports(low, high)), draw(trunc))


def _eff_order(s):
    return min(s.terms) if s.terms else s.trunc


def _compose(y_terms: dict, w_terms: dict, bound) -> dict:
    """sum_k y_k * w**k below bound, by dict convolution."""
    out: dict = {}
    for k, c in y_terms.items():
        for e, v in dict_pow(w_terms, k, bound).items():
            out[e] = out.get(e, F(0)) + c * v
    return {e: c for e, c in out.items() if c}


def _below(terms: dict, bound) -> dict:
    return {e: c for e, c in terms.items() if e < bound}


@KERNEL_SETTINGS
@given(series(), series())
def test_product_matches_dict_convolution(a, b):
    product = a * b
    trunc = min(a.trunc + _eff_order(b), b.trunc + _eff_order(a))
    assert product.trunc == trunc
    assert product.terms == dict_mul(a.terms, b.terms, trunc)


@pytest.mark.parametrize(
    "a, b",
    [
        (TSeries.zero("t"), TSeries("t", {3: F(-5, 7)}, EXACT)),
        (TSeries("t", {0: F(1, 3)}, 1), TSeries("t", {0: F(-3, 2)}, 1)),
        (TSeries("t", {2: F(10**20, 3**40)}, EXACT), TSeries("t", {5: F(-(3**39), 7)}, 9)),
    ],
    ids=["zero", "trunc-1", "one-term"],
)
def test_product_edge_cases(a, b):
    trunc = min(a.trunc + _eff_order(b), b.trunc + _eff_order(a))
    assert (a * b).terms == dict_mul(a.terms, b.terms, trunc)


@KERNEL_SETTINGS
@given(supports(1, 20), st.integers(1, 20), st.integers(1, 6))
def test_nth_root_to_the_n_is_the_series(tail, trunc, n):
    s = TSeries("t", {**tail, 0: F(1)}, trunc)
    root = nth_root_unit(s, n)
    assert root.trunc == trunc
    assert root.coeff(0) == 1
    assert dict_pow(root.terms, n, trunc) == s.terms


@KERNEL_SETTINGS
@given(
    st.builds(F, st.integers(-(10**12), 10**12).filter(bool), denominators),
    supports(2, 18),
    st.integers(2, 18),
    st.lists(series(trunc=truncations), min_size=1, max_size=3),
)
def test_composition_solve_satisfies_its_equation(lead, tail, w_trunc, targets):
    w = TSeries("t", {**tail, 1: lead}, w_trunc)
    solved = solve_composition(targets, w)
    for target, y in zip(targets, solved):
        bound = min(target.trunc, w.trunc)
        assert y.trunc == bound
        assert _compose(y.terms, w.terms, bound) == _below(target.terms, bound)


@pytest.mark.parametrize(
    "target",
    [
        TSeries("t", {0: F(3, 5)}, 1),
        TSeries.zero("t"),
        TSeries("t", {4: F(-(10**20), 3**40)}, EXACT),
    ],
    ids=["trunc-1", "zero", "one-term"],
)
def test_composition_solve_edge_cases(target):
    w = TSeries("t", {1: F(-7, 2**61 - 1), 2: F(5, 6), 9: F(1, 11)}, 8)
    (y,) = solve_composition([target], w)
    bound = min(target.trunc, w.trunc)
    assert _compose(y.terms, w.terms, bound) == _below(target.terms, bound)


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 4), supports(1, 9, max_size=4).filter(lambda p: any(p.values())))
def test_implicitize_matches_the_resultant(n, p):
    phi = Parametrization(n, TSeries("t", p, EXACT))
    assert implicitize(phi) == resultant_implicitize(phi)


@pytest.mark.parametrize(
    "n, p",
    [(1, {1: F(5, 3)}), (3, {7: F(-(2**61 - 1), 10**9 + 7)}), (2, {1: F(1, 6), 3: F(-4, 35)})],
    ids=["multiplicity-1", "one-term", "coprime-denominators"],
)
def test_implicitize_edge_cases(n, p):
    phi = Parametrization(n, TSeries("t", p, EXACT))
    assert implicitize(phi) == resultant_implicitize(phi)


# gaps in the y-degree, a lowest y-degree above 0, x-only and zero
polynomials = st.one_of(
    st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 6)), coefficients, min_size=1, max_size=5
    ),
    st.dictionaries(st.tuples(st.integers(0, 8), st.just(0)), coefficients, max_size=4),
    st.just({}),
)


@seed(8)
@KERNEL_SETTINGS
@given(polynomials, st.integers(1, 6), series(high=12, trunc=truncations))
def test_substitute_matches_term_by_term_evaluation(terms, n, y):
    value = substitute(BivarPoly(terms), n, y)
    assert value.trunc >= y.trunc
    if y.exact:
        assert value.exact
    assert value.terms == eval_poly_on_series(terms, n, y.terms, value.trunc)


@st.composite
def parameters(draw):
    """A parameter change u -> rho(u) of order exactly 1."""
    terms = draw(supports(2, 8, max_size=3))
    terms[1] = draw(coefficients.filter(bool))
    return TSeries("u", terms, draw(st.one_of(st.just(EXACT), st.integers(2, 30))))


@seed(9)
@settings(max_examples=30, deadline=None)
@given(series(high=10), parameters())
def test_reparametrize_matches_a_sum_of_dict_powers(s, rho):
    out = reparametrize(s, rho)
    assert out.trunc <= s.trunc
    if s.exact and rho.exact:
        assert out.exact
    assert out.terms == _compose(s.terms, rho.terms, out.trunc)


@st.composite
def stages(draw):
    """A stage (nu, mu, root) of Newton-Puiseux: mu coprime to nu and a
    root +-p/q with q <= 5."""
    nu = draw(st.integers(1, 4))
    mu = draw(st.integers(1, 12).filter(lambda m: gcd(m, nu) == 1))
    root = F(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 5)))
    return nu, mu, root


@seed(10)
@KERNEL_SETTINGS
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 6), st.integers(0, 5)),
        st.one_of(st.integers(-9, 9), st.integers(-(10**30), 10**30)).filter(bool),
        min_size=1,
        max_size=6,
    ),
    stages(),
)
def test_np_transform_is_the_oracle_up_to_a_scalar(terms, stage):
    out = _np_transform(terms, *stage)
    expected = np_transform_oracle(terms, *stage)
    assert out.keys() == expected.keys()
    assert all(type(c) is int for c in out.values())
    assert gcd(*out.values()) == 1
    scale = {F(c) / expected[key] for key, c in out.items()}
    assert len(scale) == 1 and 0 not in scale
