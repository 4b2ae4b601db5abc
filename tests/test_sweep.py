"""The integer sweep against its Fraction reference.

`genus1_reduce` carries y from move to move as integers over one reduced
denominator, and builds the normal form's Fractions once at the end.
`sweep_reference` in `conftest` runs the same sweep on Fraction series and
the uncut moves.  On dense branches of K(3,4) ... K(7,9), exact or
truncated at the working bound, both must give the same normal form and
truncation, leading scale, move log (each parameter change included) and
(lambda, c): this pins the denominators and their content across moves,
which a test of one move at a time cannot see.
"""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st  # noqa: E402

from planebranch.zariski import genus1_reduce  # noqa: E402
from conftest import sweep_reference  # noqa: E402
from test_golden import dense  # noqa: E402
from test_zariski import CLASSES  # noqa: E402

nonzero = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 9))


@st.composite
def branches(draw):
    """A dense branch of K(n, m) with terms up to the working bound
    mu + 2n, exact or truncated there."""
    n, m = draw(st.sampled_from(CLASSES))
    bound = (n - 1) * (m - 1) + 2 * n
    phi = dense(draw(st.integers(0, 10**6)), n, range(m + 1, bound), {m: draw(nonzero)})
    return phi if draw(st.booleans()) else phi.with_trunc(bound)


@seed(17)
@settings(max_examples=24, deadline=None)
@given(branches())
def test_the_sweep_matches_its_fraction_reference(phi):
    res = genus1_reduce(phi)
    normal, scale, moves, invariant = sweep_reference(phi)
    assert (res.normal_form, res.normal_form.trunc) == (normal, normal.trunc)
    assert res.leading_scale == scale
    assert res.moves == moves
    assert (res.exponent, res.coefficient) == invariant
