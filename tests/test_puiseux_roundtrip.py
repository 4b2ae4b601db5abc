"""Round trip between implicit equations and Puiseux parametrizations.

Branches of genus 1 to 3 and multiplicity at most 8 are drawn from their
characteristic exponents.  Every other exponent is one the characteristic
sequence allows (a multiple of the running gcd), so the drawn class is the
class of the branch, and terms at multiples of n below beta_1 make some
branches non-transversal.  The coefficients at the characteristic exponents
are positive, so every Newton-polygon edge has a rational root and
Newton-Puiseux finds the branch itself, or at even multiplicity possibly its
conjugate t -> -t.  The oracle for a perturbed equation is the plain-dict
substitution `eval_poly_on_series`.
"""

from fractions import Fraction as F
from itertools import product
from math import gcd, prod

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st  # noqa: E402

from planebranch.errors import PlaneBranchError  # noqa: E402
from planebranch.geometry import (  # noqa: E402
    Parametrization,
    implicitize,
    puiseux_parametrization,
)
from planebranch.semigroup import CharData  # noqa: E402
from planebranch.series import EXACT, BivarPoly  # noqa: E402
from conftest import eval_poly_on_series  # noqa: E402

ROUNDTRIP_SETTINGS = settings(max_examples=30, deadline=None)

coefficients = st.builds(F, st.integers(-3, 3).filter(bool), st.integers(1, 3))
positive = st.builds(F, st.integers(1, 3), st.integers(1, 3))

# the quotients e_(k-1) / e_k of the running gcds, with n = their product <= 8
QUOTIENTS = [
    qs
    for genus in (1, 2, 3)
    for qs in product(range(2, 9), repeat=genus)
    if prod(qs) <= 8
]


@st.composite
def branches(draw):
    """An exact branch and its characteristic exponents."""
    quotients = draw(st.sampled_from(QUOTIENTS))
    n = prod(quotients)
    gcds = [n]
    for q in quotients:
        gcds.append(gcds[-1] // q)
    beta = [n]
    for q, e in zip(quotients, gcds[1:]):
        low = beta[-1] // e + 1
        m = draw(st.integers(low, low + 2 * q).filter(lambda m: gcd(m, q) == 1))
        beta.append(m * e)
    terms = {b: draw(positive) for b in beta[1:]}
    # free exponents: multiples of the running gcd between two
    # characteristic exponents, and a short tail after the last one
    free = [
        x
        for lo, hi, e in zip(beta, beta[1:] + [beta[-1] + 6], gcds)
        for x in range(e, hi, e)
        if x >= lo or (e == n and x < beta[1])
    ]
    for x in draw(st.lists(st.sampled_from(free), max_size=4, unique=True)):
        if x not in terms:
            terms[x] = draw(coefficients)
    return Parametrization.from_pairs(n, terms.items()), beta


def _is_branch_or_conjugate(terms: dict, phi: Parametrization, below=EXACT) -> bool:
    own = {e: c for e, c in phi.y.terms.items() if e < below}
    conjugate = {e: c * (-1) ** e for e, c in own.items()}
    return terms == own or (phi.n % 2 == 0 and terms == conjugate)


@seed(20240703)
@ROUNDTRIP_SETTINGS
@given(branches())
def test_puiseux_inverts_implicitize(drawn):
    phi, beta = drawn
    f = implicitize(phi)
    top = max(phi.y.terms)
    psi = puiseux_parametrization(f, trunc=top + 1)
    assert psi.n == phi.n and psi.exact
    assert _is_branch_or_conjugate(psi.y.terms, phi)
    # the default truncation is the conductor plus 2n, unless the series
    # closes below it
    short = puiseux_parametrization(f)
    bound = CharData.from_char_exponents(beta).conductor + 2 * phi.n
    assert short.trunc == (EXACT if top < bound else bound)
    assert _is_branch_or_conjugate(short.y.terms, phi, short.trunc)


@seed(20240703)
@ROUNDTRIP_SETTINGS
@given(branches(), st.integers(1, 40), coefficients)
def test_perturbed_equation_is_solved_or_refused(drawn, i, c):
    phi, _ = drawn
    f = implicitize(phi) + BivarPoly.monomial(i, 0, c)
    # at the default truncation a perturbed K(8, 19) runs to t**142, seconds
    # per call; the default is checked on the unperturbed equations above
    try:
        psi = puiseux_parametrization(f, trunc=max(phi.y.terms) + 1)
    except PlaneBranchError:
        return
    assert psi.n == phi.n
    assert eval_poly_on_series(f.terms, psi.n, psi.y.terms, psi.trunc) == {}
