"""Seeded inputs with planted answers.

Every branch starts from a form whose answer is known by construction and
is then disguised by analytic coordinate changes, computed here with the
dict arithmetic of `oracle`, never with the library.  The same seed always
yields the same inputs; the library only ever sees the results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F
from math import gcd

import oracle


def slots(n: int, m: int) -> list:
    """Exponents j in (m, mu - n) with j + n outside <n, m>: the survivors."""
    mu = (n - 1) * (m - 1)
    gamma = oracle.semigroup((n, m), mu + n)
    return [j for j in range(m + 1, mu - n) if j + n not in gamma]


def sign(rng: random.Random) -> int:
    return 1 if rng.random() < 0.5 else -1


def disguise(rng: random.Random, n: int, m: int, y: dict, bound: int) -> dict:
    """Image of (t^n, y) under seeded tangent-to-identity coordinate changes.

    y -> y + h(x, y) and x -> x + g(x, y), where h holds every monomial of
    t-order in (m, bound) and g every monomial of t-order in (n, bound), each
    with coefficient +-1, followed by the parameter change that restores
    x = t^n and a scaling of y by +-1 or +-2.  The result is cut below
    `bound`.  Only the signs are seeded, so branches of one class have the
    same support and comparable coefficient heights whatever the seed.
    """
    def generic(low: int) -> dict:
        return {
            (i, j): F(sign(rng))
            for i in range(bound // n + 1)
            for j in range(bound // m + 1)
            if low < n * i + m * j < bound
        }

    y1 = oracle.sadd(y, oracle.eval_poly(generic(m), n, y, bound))
    gx = oracle.eval_poly(generic(n), n, y, bound + n)
    # w = t * (1 + g / t^n)^(1/n) satisfies w^n = x + g along the branch
    w = oracle.sshift(oracle.unit_root(oracle.sshift(gx, -n), n, bound), 1)
    y2 = oracle.solve_comp(y1, w, bound)
    return oracle.sscale(y2, sign(rng) * rng.choice([1, 2]))


@dataclass(frozen=True)
class Genus1Item:
    """A disguised branch in K(n, m) with its planted invariant.

    `lam`/`coeff` are None for a disguised (t^n, t^m).
    """

    n: int
    m: int
    y: dict
    lam: int | None
    coeff: F | None


def genus1_item(
    rng: random.Random, n: int, m: int, lam: int | None, bound: int | None = None
) -> Genus1Item:
    """Normal form t^m + c t^lam + (every later survivor), then disguised.

    `lam` must be one of `slots(n, m)`, or None for the special branch.
    Below lam nothing survives, so no move at a removable exponent can
    reach lam, and (lam, c) is an analytic invariant of every disguise.
    The branch is cut below `bound` (default: the conductor), which keeps
    (lam, c) as long as the bound exceeds lam.
    """
    y = {m: F(1)}
    coeff = None
    if lam is not None:
        coeff = F(sign(rng) * rng.choice([1, 2, 3]), rng.choice([1, 2]))
        y[lam] = coeff
        for s in slots(n, m):
            if s > lam:
                y[s] = F(sign(rng))
    if bound is None:
        bound = (n - 1) * (m - 1)
    return Genus1Item(n, m, disguise(rng, n, m, y, bound), lam, coeff)


@dataclass(frozen=True)
class PairItem:
    """A branch of genus >= 2 with its planted answers and a partner.

    The e1-divisible part below beta_2 is a disguised genus-one branch of
    K(n1, m1) with planted survivor `red_lam`, so the invariant is
    e1 * red_lam when that lies below beta_2 and beta_2 otherwise.  The
    partner adds c t^(n+1) below the first characteristic exponent: every
    conjugate pair then parts at t^(n+1), so the contact is (n+1)/n and the
    intersection n(n+1), low enough for a truncated input to certify it.
    """

    beta: tuple
    y: dict
    lam: int
    coeff: F
    partner: dict
    red_lam: int | None

    @property
    def n(self) -> int:
        return self.beta[0]


def gcd_chain(beta) -> list:
    e = [beta[0]]
    for b in beta[1:]:
        e.append(gcd(e[-1], b))
    return e


def pair_item(rng: random.Random, beta: tuple, length: int, red_lam, signs=(1, 1)) -> PairItem:
    """Dense branch of class K(beta) with terms below `length`.

    `signs` fixes the signs of the coefficients at beta_1 and beta_2, which
    decide whether Newton-Puiseux meets an even root of a negative number;
    every other coefficient takes a seeded sign.
    """
    n = beta[0]
    e = gcd_chain(beta)
    n1, m1 = n // e[1], beta[1] // e[1]
    red = genus1_item(rng, n1, m1, red_lam, -(-beta[2] // e[1]))
    # y -> -y on the reduced part keeps its planted survivor and coefficient
    flip = signs[0] * (1 if red.y[m1] > 0 else -1)
    y = {x * e[1]: c * flip for x, c in red.y.items()}
    # from beta_i on, every exponent divisible by e_i appears, with
    # coefficient +-1 so that branches of one class cost alike
    for i, b in enumerate(beta[2:]):
        hi = beta[3 + i] if 3 + i < len(beta) else length
        for x in range(b, hi):
            if x == b or x % e[2 + i] == 0:
                y[x] = F(sign(rng))
    y[beta[2]] = abs(y[beta[2]]) * signs[1]
    if red_lam is not None and e[1] * red_lam < beta[2]:
        lam, coeff = e[1] * red_lam, red.coeff
    else:
        lam, coeff = beta[2], y[beta[2]] / y[beta[1]]
    partner = dict(y)
    partner[n + 1] = F(sign(rng) * rng.choice([1, 2]))
    return PairItem(beta, y, lam, coeff, partner, red_lam)
