"""Property tests of the integer-numerator series kernels.

Products, n-th roots, composition solves and implicitization clear
denominators, work on integers and rebuild Fractions once; each is checked
here against the dict-convolution oracles of `conftest`, which add and
multiply Fractions one term at a time.  Inputs mix signs, large and coprime
denominators and sparse supports, at exact and truncated bounds.  The
evaluation of a polynomial on a branch, `substitute`, is checked the same
way against `eval_poly_on_series`, a change of parameter,
`reparametrize`, against a sum of dict powers, and the integer
Newton-Puiseux stage `_np_transform` against `np_transform_oracle`, and its
row-wise edge `_np_edge` against the tuple-map `np_edge_reference`.  The
integer Horner pass of `substitute` must also give the terms and the
truncation of the ring operations (`substitute_reference`), the row-wise
division the quotient and remainder of `divmod_reference`, and the integer
slope of `_np_edge` the least ratio of the Newton polygon.  The one power
routine, `_powers`, must yield the dict powers of `conftest`, each known
exactly as far as its truncation says and in lowest terms.  Three fast
paths must give exactly what the bodies they replaced give: the exact
product `_convolve` the sorted, bound-tested loop, `implicitize` the rows
of the loop that forms every power in full, and `_np_transform` the rows of
the recentering on `_addmul`, on random rows and along real passes, whose
every stage cancels terms.  The one big-integer evaluation `_at_two_power`
must be `substitute`'s series, cleared of denominators, at t = 2**k: zero
exactly when that series is, and with its order in the lowest set bit,
also where the coefficient bound is attained; on an exact branch
`intersection_poly_param` must read what the same branch truncated far
past the order reads off the series.  Kernel outputs
skip the public constructor's checks; each must hold its integer form in
lowest terms, be what that constructor builds from its `.terms`, hash alike,
own its numerators and keep its view read-only.
"""

from fractions import Fraction as F
from math import comb, gcd, lcm

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st  # noqa: E402

from planebranch.errors import (  # noqa: E402
    BranchesEqual,
    NonRationalCoefficient,
    NotIrreducible,
    PrecisionExhausted,
)
from planebranch.geometry import (  # noqa: E402
    Parametrization,
    _np_edge,
    _np_transform,
    implicitize,
    intersection_poly_param,
)
from planebranch.series import (  # noqa: E402
    EXACT,
    BivarPoly,
    TSeries,
    _at_two_power,
    _convolve,
    _powers,
    nth_root_unit,
    reparametrize,
    solve_composition,
    substitute,
)
from conftest import (  # noqa: E402
    DEFORMED37_TERMS,
    SEXTIC_TERMS,
    convolve_sorted_reference,
    dict_mul,
    dict_pow,
    divmod_reference,
    eval_poly_on_series,
    from_rows,
    implicitize_full_powers,
    np_edge_reference,
    np_transform_addmul,
    np_transform_oracle,
    resultant_implicitize,
    substitute_reference,
    to_rows,
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


def test_composition_solve_divides_out_the_content_of_the_powers():
    # w's denominators multiply to 6 * 3**40 * (2**61 - 1), but below the
    # bound no power w**k keeps them all k times over, so the content
    # division in the solve divides
    w = TSeries("t", {1: F(1, 2**61 - 1), 2: F(5, 3**40), 3: F(-7, 6)}, 8)
    wden = lcm(*(c.denominator for c in w.terms.values()))
    assert lcm(*(c.denominator for c in dict_pow(w.terms, 3, 8).values())) < wden**3
    targets = [
        TSeries("t", {0: F(2, 9), 1: F(-1, 2**61 - 1), 4: F(3**40, 7), 7: F(1)}, 12),
        TSeries.monomial("t", 1, 1, 8),
    ]
    for target, y in zip(targets, solve_composition(targets, w)):
        assert y.trunc == 8
        assert _compose(y.terms, w.terms, 8) == _below(target.terms, 8)


@st.composite
def powered(draw):
    """(y, below): y exact, truncated or empty, with coefficients over
    unrelated or over one shared denominator, and `below` EXACT, at or under
    ord y, between ord y and y.trunc, or past y.trunc."""
    if draw(st.booleans()):
        den = draw(st.sampled_from([2, 4, 6, 12, 36, 3**40]))
        terms = draw(st.dictionaries(
            st.integers(0, 12), st.builds(F, st.integers(-40, 40).filter(bool), st.just(den)),
            max_size=5,
        ))
    else:
        terms = draw(supports(0, 12, max_size=5))
    y = TSeries("t", terms, draw(truncations))
    order = _eff_order(y)
    low = 1 if order == EXACT else max(order, 1)
    high = low + 12 if y.trunc == EXACT else y.trunc
    below = draw(st.one_of(
        st.just(EXACT),
        st.integers(1, low),
        st.integers(min(low + 1, high), high),
        st.integers(high, high + 12),
    ))
    return y, below


@seed(18)
@KERNEL_SETTINGS
@given(powered())
def test_powers_are_the_dict_powers_in_lowest_terms(case):
    y, below = case
    order = _eff_order(y)
    yden = lcm(*(c.denominator for c in y.terms.values()))
    for g, (num, den, trunc) in zip(range(7), _powers(y, below)):
        reach = EXACT if g == 0 else y.trunc if g == 1 else y.trunc + (g - 1) * order
        assert trunc == min(below, reach)
        assert all(isinstance(c, int) and c for c in num.values())
        assert {e: F(c, den) for e, c in num.items()} == _below(dict_pow(y.terms, g, trunc), trunc)
        assert gcd(den, *num.values()) == 1
        if trunc == EXACT:
            # Gauss's lemma: the integer recurrences of implicitize read
            # y**g over yden**g
            assert den == yden**g


def _trusted_outputs(a, b, unit, n, w, k, c):
    """(output, inputs) for every kernel whose output skips the checks of
    the public constructor."""
    return [
        (a * b, (a, b)),
        (a + b, (a, b)),
        (a - b, (a, b)),
        (-a, (a,)),
        (a.scale(c), (a,)),
        (a.shift(k), (a,)),
        (a.truncated(k + 1), (a,)),
        (a**2, (a,)),
        (nth_root_unit(unit, n), (unit,)),
        *((y, (a, w)) for y in solve_composition([a], w)),
        (reparametrize(a, w), (a, w)),
        (substitute(BivarPoly({(1, 1): c, (0, 2): 1, (k, 0): -1}), n, a), (a,)),
    ]


@seed(11)
@KERNEL_SETTINGS
@given(
    series(),
    series(),
    supports(1, 20),
    st.integers(1, 20),
    st.integers(1, 6),
    supports(2, 18),
    st.integers(0, 12),
    coefficients,
)
def test_kernel_outputs_are_what_the_public_constructor_builds(a, b, tail, trunc, n, wtail, k, c):
    unit = TSeries("t", {**tail, 0: F(1)}, trunc)
    w = TSeries("t", {**wtail, 1: F(-3, 7)}, trunc + 1)
    before = {id(s): (s.trunc, s.den, dict(s.num), dict(s.terms)) for s in (a, b, unit, w)}
    for out, inputs in _trusted_outputs(a, b, unit, n, w, k, c):
        # the form: den > 0, no zero numerator, content 1 with den, and
        # every exponent an int below trunc
        assert type(out.den) is int and out.den > 0
        assert all(type(e) is int and type(v) is int and v for e, v in out.num.items())
        assert gcd(out.den, *out.num.values()) == 1
        assert all(e < out.trunc for e in out.num)
        assert out.terms == {e: F(v, out.den) for e, v in out.num.items()}
        rebuilt = TSeries(out.var, dict(out.terms), out.trunc)
        assert out == rebuilt and hash(out) == hash(rebuilt)
        assert all(type(e) is int and type(v) is F for e, v in out.terms.items())
        # the view is read-only; a kernel may hand back an input unchanged,
        # and any other output owns its numerators
        with pytest.raises(TypeError):
            out.terms[10**6] = F(1)
        if all(out is not s for s in inputs):
            assert all(out.num is not s.num for s in inputs)
    for s in (a, b, unit, w):
        assert (s.trunc, s.den, s.num, s.terms) == before[id(s)]


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


# every n from 1 to 12, so that ceil(n/2) is odd for some and even for others
@pytest.mark.parametrize("n", range(1, 13))
@seed(22)
@settings(max_examples=5, deadline=None)
@given(supports(1, 24, max_size=4).filter(lambda p: any(p.values())))
def test_implicitize_is_the_full_power_loop(n, p):
    phi = Parametrization(n, TSeries("t", p, EXACT))
    f, expected = implicitize(phi), implicitize_full_powers(phi)
    assert (f.rows, f.den) == (expected.rows, expected.den)


integer_maps = st.dictionaries(
    st.integers(0, 30), st.one_of(st.integers(-9, 9), st.integers(-(10**30), 10**30)), max_size=8
)


@seed(23)
@KERNEL_SETTINGS
@given(integer_maps, integer_maps, integer_maps, truncations)
def test_convolve_is_the_sorted_bound_tested_loop(a, b, acc, bound):
    assert _convolve(a, b, bound) == convolve_sorted_reference(a, b, bound)
    out = _convolve(a, b, bound, dict(acc))
    assert out == convolve_sorted_reference(a, b, bound, dict(acc))


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
def cancelling(draw):
    """(terms, n, y) on which the Horner accumulator loses its lead: the
    polynomial is (y - c*x**a) * r + s and y = c*t**(n*a) + higher terms."""
    n, a = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    c = draw(coefficients.filter(bool))
    y = TSeries("t", {**draw(supports(n * a + 1, 16)), n * a: c}, draw(truncations))
    r = BivarPoly(draw(polynomials))
    s = BivarPoly(draw(polynomials))
    return dict((BivarPoly({(0, 1): 1, (a, 0): -c}) * r + s).terms), n, y


# exact and truncated branches, the exact zero branch and a branch with no
# known term
branches = st.one_of(
    series(high=12, trunc=truncations),
    st.just(TSeries.zero("t")),
    st.integers(1, 9).map(lambda trunc: TSeries.zero("t", trunc)),
)


@seed(14)
@KERNEL_SETTINGS
@given(
    st.one_of(
        st.tuples(polynomials, st.integers(0, 6), branches),
        cancelling(),
    )
)
def test_substitute_is_the_horner_pass_of_the_ring_operations(case):
    terms, n, y = case
    value = substitute(BivarPoly(terms), n, y)
    expected = substitute_reference(BivarPoly(terms), n, y)
    assert value.trunc == expected.trunc
    assert value.terms == expected.terms


@pytest.mark.parametrize(
    "terms, n, y",
    [
        ({(0, 2): 1, (3, 0): -1}, 2, TSeries.zero("t")),
        ({(0, 1): 1, (2, 0): F(-3, 7)}, 3, TSeries("t", {6: F(3, 7), 9: 2}, 12)),
        ({(0, 3): 1, (1, 1): -1}, 1, TSeries.zero("t", 5)),
        # at n = 0 the top row x*y**2 - y**2 sums to zero: poly(1, y) is 3
        ({(1, 2): 1, (0, 2): -1, (0, 0): 3}, 0, TSeries("t", {1: 1}, 4)),
    ],
    ids=["exact-zero-branch", "lead-cancels", "no-known-term", "n-0-row-cancels"],
)
def test_substitute_edge_cases(terms, n, y):
    value = substitute(BivarPoly(terms), n, y)
    expected = substitute_reference(BivarPoly(terms), n, y)
    assert (value.trunc, value.terms) == (expected.trunc, expected.terms)


def test_substitute_at_n_0_sums_each_row():
    # x**i is 1 at n = 0, so poly(1, y): 2*y + 1/3*y + 5 on y = t
    poly = BivarPoly({(1, 1): 2, (0, 1): F(1, 3), (2, 0): 5})
    value = substitute(poly, 0, TSeries.monomial("t", 1))
    assert value == TSeries("t", {0: 5, 1: F(7, 3)}, EXACT)


# exact branches: dense with a constant term, sparse with exponents in the
# thousands, and the zero branch
exact_branches = st.one_of(
    series(high=12, trunc=st.just(EXACT)),
    st.dictionaries(st.integers(0, 2500), coefficients, max_size=3).map(
        lambda terms: TSeries("t", terms, EXACT)
    ),
    st.just(TSeries.zero("t")),
)
# y-rows that may be missing in the middle, x-exponents in the hundreds
sparse_polynomials = st.dictionaries(
    st.tuples(st.integers(0, 400), st.sampled_from([0, 1, 3, 4])), coefficients, max_size=4
)


@st.composite
def vanishing(draw):
    """(terms, n, y): (y - q(x)) * r + s on the exact branch y = q(t**n),
    which vanishes there exactly when s does, and cancels terms otherwise."""
    n = draw(st.integers(0, 6))
    q = draw(supports(0, 6, max_size=3))
    y = TSeries("t", {n * i: c for i, c in q.items()} if n else {0: sum(q.values())}, EXACT)
    factor = BivarPoly({(0, 1): 1, **{(i, 0): -c for i, c in q.items()}})
    r = BivarPoly(draw(polynomials))
    s = BivarPoly(draw(st.one_of(st.just({}), polynomials)))
    return dict((factor * r + s).terms), n, y


def _read_order(v, k):
    return ((v & -v).bit_length() - 1) // k


@seed(25)
@KERNEL_SETTINGS
@given(
    st.one_of(
        st.tuples(st.one_of(polynomials, sparse_polynomials), st.integers(0, 6), exact_branches),
        vanishing(),
    )
)
def test_the_evaluation_at_a_power_of_two_is_the_substituted_series(case):
    """v is the series substitute builds, cleared of denominators, at 2**k:
    every coefficient below 2**(k - 1) in size, v = 0 exactly when the
    series is zero, and the lowest set bit of v gives its order."""
    terms, n, y = case
    poly = BivarPoly(terms)
    v, k = _at_two_power(poly, n, y)
    value = substitute(poly, n, y)
    assert value.exact
    scale = y.den ** max(poly.deg_y(), 0) * poly.den
    digits = {e: c * scale for e, c in value.terms.items()}
    assert all(c.denominator == 1 and abs(c) < 2 ** (k - 1) for c in digits.values())
    assert v == sum(int(c) << (k * e) for e, c in digits.items())
    assert (v == 0) == value.is_zero_below_trunc()
    if v:
        assert _read_order(v, k) == value.order()


# all terms positive, and beta = sum_j ||F_j||_1 * ||Num||_1**j * den**(d - j),
# the bound on the coefficients of G, attained at its lowest term: where
# beta is a power of two, a k of beta.bit_length() - 1 puts that term's
# digit one place up
@pytest.mark.parametrize(
    "terms, n, y, beta, order",
    [
        ({(1, 0): 1, (0, 1): 1}, 1, {1: 1}, 2, 1),
        ({(2, 0): 1, (1, 1): 2, (0, 2): 1}, 1, {1: 1}, 4, 2),
        ({(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1}, 1, {1: 1}, 8, 3),
        ({(1, 0): 1, (0, 2): 1}, 2, {1: 1}, 2, 2),
        # den**(d - j) attains it too: 3*x + 9*y**2 at y = t/3, x = t**2
        ({(1, 0): 3, (0, 2): 9}, 2, {1: F(1, 3)}, 36, 2),
        ({(0, 1): 1}, 3, {7: 8}, 8, 7),
    ],
    ids=["x+y", "(x+y)^2", "(x+y)^3", "x+y^2", "homogenized", "y-alone"],
)
def test_an_attained_bound_keeps_its_margin(terms, n, y, beta, order):
    poly, y = BivarPoly(terms), TSeries("t", y, EXACT)
    v, k = _at_two_power(poly, n, y)
    value = substitute(poly, n, y)
    assert max(abs(c) * y.den ** poly.deg_y() * poly.den for c in value.terms.values()) == beta
    assert k >= beta.bit_length() + 1
    assert _read_order(v, k) == value.order() == order
    assert intersection_poly_param(poly, Parametrization(n, y)) == order


@seed(26)
@KERNEL_SETTINGS
@given(
    st.one_of(
        st.tuples(polynomials, st.integers(1, 6), exact_branches),
        vanishing().filter(lambda case: case[1] > 0),
    )
)
def test_an_exact_intersection_is_the_truncated_one(case):
    """The exact branch's one evaluation and the same branch truncated far
    past the order, read off the series, give one intersection."""
    terms, n, y = case
    f, phi = BivarPoly(terms), Parametrization(n, y)
    try:
        order = intersection_poly_param(f, phi)
    except BranchesEqual:
        # only the zero polynomial is known to vanish on a truncated branch
        with pytest.raises(BranchesEqual if f.is_zero else PrecisionExhausted):
            intersection_poly_param(f, phi.with_trunc(200))
        assert substitute(f, n, y).is_zero_below_trunc()
        return
    assert intersection_poly_param(f, phi.with_trunc(2 * order + 40)) == order


@st.composite
def monic_divisors(draw):
    """A polynomial monic in y of y-degree 1 to 4."""
    d = draw(st.integers(1, 4))
    lower = draw(
        st.dictionaries(
            st.tuples(st.integers(0, 5), st.integers(0, d - 1)), coefficients, max_size=5
        )
    )
    return BivarPoly({**lower, (0, d): 1})


dividends = st.one_of(
    st.dictionaries(
        st.tuples(st.integers(0, 6), st.integers(0, 9)), coefficients, max_size=10
    ),
    st.just({}),
)


@seed(15)
@KERNEL_SETTINGS
@given(dividends, dividends, monic_divisors())
def test_row_division_is_the_euclidean_division(terms, multiple, h):
    # m * h + r: the rows of m * h cancel as the division takes them off
    f = BivarPoly(multiple) * h + BivarPoly(terms)
    quotient, rem = f.divmod_monic_y(h)
    assert (quotient, rem) == divmod_reference(f, h)
    assert quotient * h + rem == f
    assert rem.deg_y() < h.deg_y()


def _trusted_polynomials(p, q, h, c):
    """(output, inputs) for every BivarPoly operation whose output skips the
    checks of the public constructor."""
    return [
        (p + q, (p, q)),
        (p - q, (p, q)),
        (p - p, (p,)),
        (p + -p, (p,)),
        (-p, (p,)),
        (p * q, (p, q)),
        (p**2, (p,)),
        (p.scale(c), (p,)),
        (p.swap_xy(), (p,)),
        *((out, (p, h)) for out in p.divmod_monic_y(h)),
    ]


@seed(17)
@KERNEL_SETTINGS
@given(dividends, dividends, monic_divisors(), coefficients)
def test_polynomial_outputs_are_what_the_public_constructor_builds(pterms, qterms, h, c):
    # q is a multiple of h plus terms, so that the division cancels
    p = BivarPoly(pterms)
    q = BivarPoly(qterms) + p * h
    before = {id(s): (s.den, {j: dict(row) for j, row in s.rows.items()}, dict(s.terms))
              for s in (p, q, h)}
    for out, inputs in _trusted_polynomials(p, q, h, c):
        # the form: den > 0, no zero numerator or empty row, content 1 with den
        assert type(out.den) is int and out.den > 0
        assert all(row for row in out.rows.values())
        values = [v for row in out.rows.values() for v in row.values()]
        assert all(type(v) is int and v for v in values)
        assert gcd(out.den, *values) == 1
        assert out.terms == {
            (i, j): F(v, out.den) for j, row in out.rows.items() for i, v in row.items()
        }
        rebuilt = BivarPoly(dict(out.terms))
        assert out == rebuilt and hash(out) == hash(rebuilt)
        assert all(type(i) is int and type(j) is int for i, j in out.terms)
        assert all(type(v) is F and v for v in out.terms.values())
        # the view is read-only, and each output owns its rows
        with pytest.raises(TypeError):
            out.terms[(10**6, 0)] = F(1)
        assert all(row is not other for s in inputs
                   for row in out.rows.values() for other in s.rows.values())
    for s in (p, q, h):
        assert (s.den, s.rows, s.terms) == before[id(s)]


@st.composite
def polygons(draw):
    """(cur, slope): an integer polynomial whose Newton polygon has the one
    edge of slope mu/nu from (0, k*nu) to (k*mu, 0), with all k + 1 points
    of lead * (y**nu - c*x**mu)**k on it, c = (p/q)**nu, and points above it."""
    nu = draw(st.integers(1, 3))
    mu = draw(st.integers(1, 9).filter(lambda m: gcd(m, nu) == 1))
    k = draw(st.integers(1, 3))
    p, q = draw(st.integers(-4, 4).filter(bool)), draw(st.integers(1, 4))
    a, b = p**nu, q**nu
    # b**k * (z - a/b)**k in z = y**nu: the coefficient of z**l
    cur = {
        ((k - l) * mu, l * nu): b**l * comb(k, l) * (-a) ** (k - l) for l in range(k + 1)
    }
    above = draw(
        st.dictionaries(
            st.tuples(st.integers(0, 3 * k * mu), st.integers(0, k * nu + 2)),
            st.integers(-9, 9).filter(bool),
            max_size=6,
        )
    )
    for (i, j), c in above.items():
        if i * nu + j * mu > k * nu * mu:
            cur[(i, j)] = c
    return cur, F(mu, nu)


@seed(16)
@KERNEL_SETTINGS
@given(polygons())
def test_edge_slope_is_the_least_ratio_of_the_polygon(case):
    cur, slope = case
    jstar = min(j for i, j in cur if i == 0)
    nu, mu, _ = _np_edge(to_rows(cur))
    assert F(mu, nu) == min(F(i, jstar - j) for i, j in cur if j < jstar) == slope


@st.composite
def binomials(draw):
    """y**nu - c * x**mu with mu coprime to nu: an edge whose root c**(1/nu)
    is rational only when c is a nu-th power."""
    nu = draw(st.integers(2, 3))
    mu = draw(st.integers(1, 9).filter(lambda m: gcd(m, nu) == 1))
    return {(0, nu): 1, (mu, 0): -draw(st.integers(-9, 9).filter(bool))}


@st.composite
def disturbed_polygons(draw):
    """A map of `polygons` with a few terms added anywhere, on or below its
    edge too."""
    cur, _ = draw(polygons())
    extra = draw(
        st.dictionaries(
            st.tuples(st.integers(0, 12), st.integers(0, 9)), st.integers(-3, 3), max_size=2
        )
    )
    for key, c in extra.items():
        cur[key] = cur.get(key, 0) + c
    return {key: c for key, c in cur.items() if c}


def _edge_or_error(edge, cur):
    try:
        return edge(cur)
    except (NonRationalCoefficient, NotIrreducible) as exc:
        return type(exc), str(exc)


@seed(18)
@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        polygons().map(lambda case: case[0]),
        disturbed_polygons(),
        binomials(),
        st.dictionaries(
            st.tuples(st.integers(0, 8), st.integers(0, 6)),
            st.integers(-9, 9).filter(bool),
            max_size=8,
        ),
    )
)
def test_np_edge_is_the_reference_edge(cur):
    # the same (nu, mu, root), or the same exception type and message
    got = _edge_or_error(lambda terms: _np_edge(to_rows(terms)), cur)
    assert got == _edge_or_error(np_edge_reference, cur)


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
    out = from_rows(_np_transform(to_rows(terms), *stage))
    expected = np_transform_oracle(terms, *stage)
    assert out.keys() == expected.keys()
    assert all(type(c) is int for c in out.values())
    assert gcd(*out.values()) == 1
    scale = {F(c) / expected[key] for key, c in out.items()}
    assert len(scale) == 1 and 0 not in scale


integer_rows = st.dictionaries(
    st.integers(0, 5),
    st.dictionaries(
        st.integers(0, 6),
        st.one_of(st.integers(-9, 9), st.integers(-(10**30), 10**30)).filter(bool),
        min_size=1,
        max_size=4,
    ),
    min_size=1,
    max_size=4,
)


@seed(24)
@KERNEL_SETTINGS
@given(integer_rows, stages())
def test_np_transform_is_the_addmul_loop(rows, stage):
    assert _np_transform(rows, *stage) == np_transform_addmul(rows, *stage)


@pytest.mark.parametrize(
    "equation",
    [
        lambda: BivarPoly(dict(SEXTIC_TERMS)),
        lambda: BivarPoly(dict(DEFORMED37_TERMS)),
        lambda: implicitize(
            Parametrization.from_pairs(8, [(12, 1), (14, 1), (15, F(2, 3)), (17, F(-1, 2))])
        ),
    ],
    ids=["sextic", "deformed37", "K(8,12,14,15)"],
)
def test_np_transform_is_the_addmul_loop_along_a_pass(equation):
    # each stage recenters at the edge root, so terms cancel at every stage
    cur, stages_run = equation().rows, 0
    while (edge := _np_edge(cur)) is not None and stages_run < 12:
        out = _np_transform(cur, *edge)
        assert out == np_transform_addmul(cur, *edge)
        cur, stages_run = out, stages_run + 1
    assert stages_run >= 2
