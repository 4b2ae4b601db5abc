"""Property tests of the conjugate scan behind `geometry.intersection`
and `geometry.contact`.

One oracle is the implicitize-and-substitute route: the order of the first
branch's implicit equation along the second, `intersection_poly_param(
implicitize(a), b)`.  Another is `conftest.conjugate_orders_reference`, the
scan that compares every pending conjugate at every exponent; the contact
order is checked against the walk from the intersection multiplicity,
`contact_from_intersection`.  Pairs mix multiplicities 1 to 6 (smooth,
non-transversal and non-primitive branches included) and both signs; some
share a prefix with the first branch, or with its image under t -> -t (a
conjugate at even multiplicity, a branch with opposite odd terms at odd
multiplicity), so that the scan meets the cancellation at zeta**e = -1,
opposite coefficients where no twist is -1, and the case of equal branches.
"""
from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st  # noqa: E402

from conftest import conjugate_orders_reference  # noqa: E402
from planebranch.errors import BranchesEqual, PlaneBranchError, PrecisionExhausted  # noqa: E402
from planebranch.geometry import (  # noqa: E402
    ContactOrder,
    Parametrization,
    _conjugate_orders,
    contact,
    contact_from_intersection,
    implicitize,
    intersection,
    intersection_poly_param,
)
from planebranch.semigroup import char_sequence  # noqa: E402
from planebranch.series import EXACT  # noqa: E402

SCAN_SETTINGS = settings(max_examples=80, deadline=None)

coefficients = st.builds(F, st.integers(-3, 3).filter(bool), st.integers(1, 3))


def _terms(low, high, min_size=0):
    return st.dictionaries(st.integers(low, high), coefficients, min_size=min_size, max_size=5)


@st.composite
def pairs(draw):
    """Two exact parametrizations, the second often close to the first."""
    n1 = draw(st.integers(1, 6))
    y1 = draw(_terms(1, 18, min_size=1))
    if draw(st.booleans()):
        n2 = draw(st.integers(1, 6))
        y2 = draw(_terms(1, 18, min_size=1))
    else:
        # y1 or y1(-t) over t**d below a cut, then a free tail: the same
        # branch when the tail is empty and the sign is 1 or n1 is even
        d = draw(st.integers(1, 6 // n1))
        sign = draw(st.sampled_from([1, -1]))
        cut = draw(st.integers(1, 19))
        y2 = {e * d: c * sign**e for e, c in y1.items() if e < cut}
        y2.update(draw(_terms(d * cut, d * cut + 12)))
        n2 = n1 * d
    return Parametrization.from_pairs(n1, y1.items()), Parametrization.from_pairs(n2, y2.items())


def _oracle(a, b):
    try:
        return intersection_poly_param(implicitize(a), b)
    except BranchesEqual:
        return "equal"


def _scan(a, b):
    try:
        return intersection(a, b)
    except BranchesEqual:
        return "equal"
    except PrecisionExhausted:
        return "short"


def _truncated(phi, bound):
    return Parametrization(phi.n, phi.y.truncated(bound))


@seed(20240703)
@SCAN_SETTINGS
@given(pairs())
def test_exact_pairs_match_the_implicit_equation(pair):
    a, b = pair
    expected = _oracle(a, b)
    assert _scan(a, b) == _scan(b, a) == expected
    if expected == "equal":
        assert contact(a, b).is_infinite


@seed(20240704)
@SCAN_SETTINGS
@given(pairs(), st.one_of(st.just(EXACT), st.integers(1, 40)), st.integers(1, 80))
def test_truncated_pairs_are_certified_and_symmetric(pair, bound_a, bound_b):
    a, b = pair
    at, bt = _truncated(a, bound_a), _truncated(b, bound_b)
    got = _scan(at, bt)
    assert _scan(bt, at) == got
    # the second branch is always truncated, so equality is never certain
    assert got != "equal"
    assert got == "short" or got == _oracle(a, b)


TRUNCATIONS = st.one_of(st.just(EXACT), st.integers(1, 40))


def _outcome(call):
    try:
        return call()
    except PlaneBranchError as exc:
        return type(exc), str(exc)


def _contact_by_walk(a, b):
    """The contact order from the intersection multiplicity and the first
    branch's characteristic data; equal branches have infinite contact."""
    try:
        inter = intersection(a, b)
    except BranchesEqual:
        return ContactOrder.infinite()
    return contact_from_intersection(char_sequence(a), inter, b.n)


@seed(20240705)
@SCAN_SETTINGS
@given(pairs(), TRUNCATIONS, TRUNCATIONS)
def test_scan_matches_the_per_conjugate_reference(pair, bound_a, bound_b):
    a, b = pair
    at, bt = _truncated(a, bound_a), _truncated(b, bound_b)
    for x, y in ((a, b), (at, bt), (b, a), (bt, at)):
        # both list the orders by ascending exponent, so equal lists are
        # equal multisets
        assert _conjugate_orders(x, y) == conjugate_orders_reference(x, y)


@seed(20240706)
@SCAN_SETTINGS
@given(pairs(), TRUNCATIONS, TRUNCATIONS)
def test_contact_is_the_walk_from_the_intersection(pair, bound_a, bound_b):
    a, b = pair
    at, bt = _truncated(a, bound_a), _truncated(b, bound_b)
    for x, y in ((a, b), (at, bt), (b, a), (bt, at)):
        assert _outcome(lambda: contact(x, y)) == _outcome(lambda: _contact_by_walk(x, y))


def test_opposite_coefficients_cancel_only_where_the_twist_is_minus_one():
    # N = 3 is odd, so no conjugate turns t**4 into -t**4: every conjugate
    # of (t**3, t**4) differs from (t**3, -t**4) at u**4
    cube = Parametrization.from_pairs(3, [(4, 1)])
    assert _conjugate_orders(cube, Parametrization.from_pairs(3, [(4, -1)])) == (
        [4, 4, 4], 0, EXACT
    )
    # at N = 2, t -> -t is the conjugate that does
    cusp = Parametrization.from_pairs(2, [(3, 1)])
    assert _conjugate_orders(cusp, Parametrization.from_pairs(2, [(3, -1)])) == ([3], 1, EXACT)
