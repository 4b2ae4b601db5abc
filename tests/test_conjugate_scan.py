"""Property tests of the conjugate scan behind `geometry.intersection`.

The oracle is the implicitize-and-substitute route: the order of the first
branch's implicit equation along the second, `intersection_poly_param(
implicitize(a), b)`.  Pairs mix multiplicities 1 to 6 (smooth,
non-transversal and non-primitive branches included) and both signs; some
share a prefix with the first branch, or with its conjugate t -> -t at even
multiplicity, so that the scan meets the cancellation at zeta**e = -1 and
the case of equal branches.
"""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st  # noqa: E402

from planebranch.errors import BranchesEqual, PrecisionExhausted  # noqa: E402
from planebranch.geometry import (  # noqa: E402
    Parametrization,
    implicitize,
    intersection,
    intersection_poly_param,
)
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
        # y1 (or y1(-t), a conjugate when n1 is even) over t**d below a
        # cut, then a free tail: the same branch when the tail is empty
        d = draw(st.integers(1, 6 // n1))
        sign = draw(st.sampled_from([1, -1])) if n1 % 2 == 0 else 1
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
    if a.n == b.n:
        assert a.same_branch(b) == (expected == "equal")


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
