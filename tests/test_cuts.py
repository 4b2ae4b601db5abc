"""The cut moves and the cut route against their uncut references.

`apply_qmove`, `apply_pmove` and `_route` read each power of y from
`series._powers` only below what the truncation keeps, so that no power is
computed past it.  The references in `conftest` compute every power in full
and cut only at the end.  On dense branches of K(3,4) ... K(7,9), truncated at the working bound
and a few orders above it, every admissible move must give the same terms,
truncation and parameter change, and the route the same (lambda, c).
"""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st  # noqa: E402

from planebranch import zariski  # noqa: E402
from planebranch.geometry import Parametrization  # noqa: E402
from planebranch.semigroup import CharData  # noqa: E402
from planebranch.series import TSeries  # noqa: E402
from planebranch.zariski import apply_pmove, apply_qmove  # noqa: E402
from conftest import pmove_reference, qmove_reference, route_reference  # noqa: E402
from test_golden import dense  # noqa: E402
from test_zariski import CLASSES, planted  # noqa: E402

nonzero = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 9))


@st.composite
def branches(draw):
    """(n, m, phi): a dense branch of K(n, m) known below the working bound
    mu + 2n, or up to three orders above it."""
    n, m = draw(st.sampled_from(CLASSES))
    trunc = (n - 1) * (m - 1) + 2 * n + draw(st.integers(0, 3))
    phi = dense(draw(st.integers(0, 10**6)), n, range(m + 1, trunc), {m: draw(nonzero)})
    return n, m, phi.with_trunc(trunc)


def admissible(n, m, trunc):
    """Every (a, b) of a move whose target (a - 1)n + bm lies below trunc:
    q-moves with a >= 1, b >= 0, and p-moves (a = 0) with b >= 2."""
    return [
        (a, b)
        for b in range(trunc // m + 2)
        for a in range(0 if b >= 2 else 1, (trunc + n - b * m) // n + 1)
        if (a - 1) * n + b * m < trunc
    ]


@seed(13)
@settings(max_examples=12, deadline=None)
@given(branches(), nonzero)
def test_every_move_matches_its_uncut_reference(branch, c):
    n, m, phi = branch
    for a, b in admissible(n, m, phi.trunc):
        if a:
            assert apply_qmove(phi, a, b, c) == qmove_reference(phi, a, b, c)
        else:
            new, rho = apply_pmove(phi, b, c)
            ref, ref_rho = pmove_reference(phi, b, c)
            assert (new, rho) == (ref, ref_rho)
            assert (new.trunc, rho.trunc) == (ref.trunc, ref_rho.trunc)


@seed(14)
@settings(max_examples=30, deadline=None)
@given(branches(), st.data())
def test_the_route_matches_its_uncut_reference(branch, data):
    # a dense branch stops at its first slot; a member of B plus one term
    # runs the route up to that term
    n, m, phi = branch
    cd = CharData.from_char_exponents((n, m))
    member = planted(n, m)[None]
    k = data.draw(st.integers(m + 1, phi.trunc - 1))
    moved = Parametrization(n, member.y + TSeries.monomial("t", k, data.draw(nonzero)))
    for b in (phi, moved):
        assert zariski._route(b.y, cd) == route_reference(b, n, m)
