"""Independent exact arithmetic for building and checking benchmark inputs.

Plain dicts of `Fraction`s, written without the library's series engine,
in the style of the oracles in `tests/conftest.py`: truncated series are
{exponent: coefficient} maps, bivariate polynomials are {(i, j): coefficient}
maps.  Intersection multiplicities of exact parametrizations are counted
conjugate by conjugate from exponent arithmetic alone.
"""

from __future__ import annotations

from fractions import Fraction as F
from math import gcd


def clean(d: dict) -> dict:
    return {k: c for k, c in d.items() if c}


# -- truncated univariate series ----------------------------------------------

def smul(a: dict, b: dict, bound) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            if e < bound:
                out[e] = out.get(e, 0) + c1 * c2
    return clean(out)


def spow(a: dict, k: int, bound) -> dict:
    out = {0: F(1)}
    base = a
    while k:
        if k & 1:
            out = smul(out, base, bound)
        k >>= 1
        if k:
            base = smul(base, base, bound)
    return out


def sadd(*parts: dict) -> dict:
    out: dict = {}
    for part in parts:
        for e, c in part.items():
            out[e] = out.get(e, 0) + c
    return clean(out)


def sscale(a: dict, c) -> dict:
    return clean({e: c * v for e, v in a.items()})


def sshift(a: dict, k: int) -> dict:
    return {e + k: c for e, c in a.items()}


def unit_root(u: dict, n: int, bound) -> dict:
    """(1 + u)**(1/n) for ord(u) >= 1, by the binomial series."""
    out = {0: F(1)}
    term = {0: F(1)}
    binom = F(1)
    alpha = F(1, n)
    k = 0
    while True:
        k += 1
        term = smul(term, u, bound)
        if not term:
            return clean(out)
        binom = binom * (alpha - (k - 1)) / k
        for e, c in term.items():
            out[e] = out.get(e, 0) + binom * c


def solve_comp(target: dict, w: dict, bound) -> dict:
    """Y with Y(w(t)) = target(t) below bound, for ord(w) = 1."""
    residual = dict(target)
    out: dict = {}
    wpow = {0: F(1)}
    lead = w[1]
    for k in range(bound):
        ck = residual.get(k)
        if ck:
            yk = ck / lead ** k
            out[k] = yk
            for e, c in wpow.items():
                residual[e] = residual.get(e, 0) - yk * c
        wpow = smul(wpow, w, bound)
    return clean(out)


def eval_poly(poly: dict, n: int, y: dict, bound) -> dict:
    """sum c_ij x**i y**j at x = t**n, y = y(t), below bound."""
    out: dict = {}
    ypows: dict = {0: {0: F(1)}}
    for (i, j), c in poly.items():
        if j not in ypows:
            ypows[j] = spow(y, j, bound)
        for e, cy in ypows[j].items():
            total = e + n * i
            if total < bound:
                out[total] = out.get(total, 0) + c * cy
    return clean(out)


# -- bivariate polynomials -----------------------------------------------------

def pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + c1 * c2
    return clean(out)


def padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return clean(out)


# -- semigroups and intersections ------------------------------------------------

def semigroup(gens, bound) -> set:
    """Elements up to bound of the semigroup generated by gens (dynamic programming)."""
    hit = [False] * (bound + 1)
    hit[0] = True
    for z in range(1, bound + 1):
        hit[z] = any(z >= g and hit[z - g] for g in gens)
    return {z for z in range(bound + 1) if hit[z]}


def _conj_order(a: dict, b: dict, k: int, n: int):
    """ord_t(a(t) - b(zeta t)) with zeta = exp(2 pi i k / n); None if equal.

    Both series have rational coefficients, so the difference vanishes at
    an exponent e only when zeta**e = 1 and a_e = b_e, or zeta**e = -1 and
    a_e = -b_e, or both coefficients are zero.
    """
    for e in sorted(set(a) | set(b)):
        ae, be = a.get(e, 0), b.get(e, 0)
        r = (k * e) % n
        if r == 0:
            same = ae == be
        elif 2 * r == n:
            same = ae == -be
        else:
            same = not ae and not be
        if not same:
            return e
    return None


def intersection(n1: int, y1: dict, n2: int, y2: dict):
    """I((t^n1, y1), (t^n2, y2)) of two exact primitive parametrizations.

    Both branches are written over a common parameter u with t = u**(N/n_i);
    the product over the n2 conjugates of the second branch gives
    N/n1 * I, so the sum of conjugate orders is divided back.  None when
    the branches coincide.
    """
    big = n1 * n2 // gcd(n1, n2)
    r1, r2 = big // n1, big // n2
    a = {e * r1: c for e, c in y1.items()}
    b = {e * r2: c for e, c in y2.items()}
    total = 0
    for k in range(n2):
        # eta = exp(2 pi i k / n2) multiplies the u**(e * r2) term by eta**e
        o = _conj_order(a, b, k, big)
        if o is None:
            return None
        total += o
    if total % r1:
        raise ArithmeticError("conjugate orders do not divide evenly")
    return total // r1


def contact(n1: int, y1: dict, n2: int, y2: dict):
    """Contact order: the largest conjugate order over the common parameter."""
    big = n1 * n2 // gcd(n1, n2)
    r1, r2 = big // n1, big // n2
    a = {e * r1: c for e, c in y1.items()}
    b = {e * r2: c for e, c in y2.items()}
    best = 0
    for k in range(n2):
        o = _conj_order(a, b, k, big)
        if o is None:
            return None
        best = max(best, o)
    return F(best, big)
