"""Shared fixtures and independent oracles.

The oracles deliberately avoid the library's own series engine: semigroup
membership by dynamic programming, substitution by plain dict convolution.
Expected values in the tests are frozen from these.
"""

from fractions import Fraction as F

import pytest

from planebranch.series import BivarPoly
from planebranch.geometry import Parametrization, bareiss_determinant


# -- independent oracles -------------------------------------------------------

def enumerate_semigroup(gens, bound):
    """All semigroup elements up to bound, by dynamic programming."""
    hit = [False] * (bound + 1)
    hit[0] = True
    for z in range(1, bound + 1):
        hit[z] = any(z >= g and hit[z - g] for g in gens)
    return {z for z in range(bound + 1) if hit[z]}


def dict_mul(a: dict, b: dict, bound) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            if e < bound:
                out[e] = out.get(e, F(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def dict_pow(a: dict, k: int, bound) -> dict:
    out = {0: F(1)}
    for _ in range(k):
        out = dict_mul(out, a, bound)
    return out


def eval_poly_on_series(poly_terms: dict, n: int, yterms: dict, bound) -> dict:
    """Plain-dict evaluation of sum c_ij x^i y^j at x = t^n, y = y(t)."""
    out: dict = {}
    ypows = {0: {0: F(1)}}
    for (i, j), c in poly_terms.items():
        if j not in ypows:
            ypows[j] = dict_pow(yterms, j, bound)
        for e, cy in ypows[j].items():
            e_total = e + n * i
            if e_total < bound:
                out[e_total] = out.get(e_total, F(0)) + c * cy
    return {e: c for e, c in out.items() if c}


def dict_order(d: dict):
    live = [e for e, c in d.items() if c]
    return min(live) if live else None


def _sylvester(acoeffs: dict, adeg: int, bcoeffs: dict, bdeg: int) -> list:
    """Sylvester matrix of two polynomials in t with BivarPoly coefficients."""
    size = adeg + bdeg
    zero = BivarPoly.zero()
    rows = []
    for r in range(bdeg):
        row = [zero] * size
        for k in range(adeg + 1):
            row[r + k] = acoeffs.get(adeg - k, zero)
        rows.append(row)
    for r in range(adeg):
        row = [zero] * size
        for k in range(bdeg + 1):
            row[r + k] = bcoeffs.get(bdeg - k, zero)
        rows.append(row)
    return rows


def resultant_implicitize(phi: Parametrization) -> BivarPoly:
    """Implicit equation of an exact branch as the resultant in t of
    (t**n - x) and (p(t) - y), by fraction-free Bareiss elimination of the
    Sylvester matrix, with its sign fixed so that it is monic in y."""
    p = phi.y.terms
    n = phi.n
    d = max(p)
    acoeffs = {n: BivarPoly.one(), 0: BivarPoly.monomial(1, 0, -1)}
    bcoeffs = {e: BivarPoly.monomial(0, 0, c) for e, c in p.items()}
    bcoeffs[0] = bcoeffs.get(0, BivarPoly.zero()) - BivarPoly.monomial(0, 1)
    det = bareiss_determinant(_sylvester(acoeffs, n, bcoeffs, d))
    top = det.coeff(0, n)
    assert top in (1, -1), f"resultant not monic in y (top coefficient {top})"
    return det if top == 1 else -det


def binomial_coefficient(alpha: F, k: int) -> F:
    """Generalized binomial coefficient C(alpha, k)."""
    acc = F(1)
    for i in range(k):
        acc *= (alpha - i) / (i + 1)
    return acc


# -- shared branch data ---------------------------------------------------------

SEXTIC_TERMS = {
    (0, 6): F(1),
    (5, 4): F(-6),
    (7, 3): F(-2),
    (8, 3): F(-8),
    (10, 2): F(9),
    (11, 2): F(-9),
    (12, 1): F(6),
    (13, 1): F(6),
    (14, 1): F(-6),
    (14, 0): F(1),
    (15, 0): F(-1),
    (16, 0): F(10),
    (17, 0): F(-1),
}

CUSP37_TERMS = {(0, 3): F(1), (7, 0): F(-1)}

DEFORMED37_TERMS = {
    (0, 3): F(1),
    (3, 2): F(-3),
    (6, 1): F(3),
    (7, 0): F(-1),
    (9, 0): F(-1),
}


@pytest.fixture
def sextic():
    """Degree-6 curve in K(6,14,17) used across the suite."""
    return BivarPoly(dict(SEXTIC_TERMS))


@pytest.fixture
def cusp37():
    return BivarPoly(dict(CUSP37_TERMS))


@pytest.fixture
def deformed37():
    return BivarPoly(dict(DEFORMED37_TERMS))


@pytest.fixture
def branch_c1():
    """(t^3, t^7 + t^8): invariant 8."""
    return Parametrization.from_pairs(3, [(7, 1), (8, 1)])


@pytest.fixture
def quartic_family():
    """b -> (t^4, t^7 + t^10 + t^12 + b t^13)."""

    def build(b):
        return Parametrization.from_pairs(4, [(7, 1), (10, 1), (12, 1), (13, b)])

    return build
