"""Conversions between branch representations and pairwise invariants.

Implicitization builds the conjugate product prod (y - p(zeta*t)) over the
n-th roots of unity from the power sums of the conjugates by Newton's
identities, all in Q[x]; the inverse direction is a Newton-polygon
iteration on one primitive integer polynomial, held as rows y-degree ->
{x-exponent: int}, whose edge roots are rational.  The intersection
multiplicity of a polynomial with a parametrization is the order of a
substitution; that of two parametrizations is a sum of conjugate orders,
read off by comparing coefficients, with no equation built.  The contact
order is tied to it by the classical one-parameter correspondence on each
characteristic interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import comb, gcd, inf

from .errors import (
    BranchesEqual,
    CrossCheckFailed,
    NonPolynomialInput,
    NonRationalCoefficient,
    NotIrreducible,
    NotRealizable,
    NotWeierstrass,
    PrecisionExhausted,
    ThetaOutOfRange,
)
from .semigroup import CharData, char_sequence
from .series import (
    EXACT,
    BivarPoly,
    TSeries,
    _addmul,
    _check_positive,
    _common,
    _convolve,
    _form,
    _powers,
    _rows,
    exact_root,
    nth_root_unit,
    ratio,
    solve_composition,
    substitute,
)

PARAM_VAR = "t"


@dataclass(frozen=True)
class Parametrization:
    """A branch given as (t**n, y(t)).

    The y-series carries the truncation; an exact series (infinite trunc)
    means the parametrization is a polynomial one, known completely.
    """

    n: int
    y: TSeries

    def __post_init__(self):
        _check_positive(self.n, "multiplicity n")

    @classmethod
    def from_pairs(cls, n: int, pairs, trunc=EXACT) -> "Parametrization":
        return cls(n, TSeries.from_terms(PARAM_VAR, pairs, trunc))

    @property
    def trunc(self):
        return self.y.trunc

    @property
    def exact(self) -> bool:
        return self.y.exact

    def x_series(self) -> TSeries:
        return TSeries.monomial(self.y.var, self.n)

    def with_trunc(self, bound) -> "Parametrization":
        """View of the branch at a working truncation.

        Exact branches extend to any bound (the tail is known to vanish);
        inexact ones can only shrink.
        """
        if self.exact:
            if bound == EXACT:
                return self
            return Parametrization(self.n, TSeries(self.y.var, self.y.terms, bound))
        if bound > self.trunc:
            raise PrecisionExhausted(
                f"branch known only below {self.trunc}, need {bound}", needed=bound
            )
        return Parametrization(self.n, self.y.truncated(bound))

    def same_branch(self, other: "Parametrization") -> bool:
        """Exact test that two exact parametrizations describe one branch:
        the same n, and a conjugate of one that equals the other."""
        if not (self.exact and other.exact):
            raise NonPolynomialInput("same_branch needs exact parametrizations")
        return self.n == other.n and _conjugate_orders(self, other)[1] > 0

    def __str__(self) -> str:
        return f"(t^{self.n}, {self.y})"


@dataclass(frozen=True)
class ContactOrder:
    """Contact between two branches: a rational >= 1, or infinite."""

    theta: Fraction | None

    @classmethod
    def finite(cls, theta) -> "ContactOrder":
        return cls(ratio(theta))

    @classmethod
    def infinite(cls) -> "ContactOrder":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self.theta is None

    def __str__(self) -> str:
        return "infinite" if self.is_infinite else str(self.theta)


# -- fraction-free determinant -------------------------------------------------

def bareiss_determinant(matrix: list) -> BivarPoly:
    """Determinant of a square matrix of BivarPoly by Bareiss elimination.

    Every division is exact (by the previous pivot), so intermediate entries
    stay polynomial minors instead of blowing up.  Nothing in the package
    calls it: the tests build the Sylvester resultant on it as an
    independent oracle for `implicitize`, and the benchmark tracer wraps it
    by name.
    """
    m = [row[:] for row in matrix]
    size = len(m)
    sign = 1
    prev = BivarPoly.one()
    for k in range(size - 1):
        if m[k][k].is_zero:
            for r in range(k + 1, size):
                if not m[r][k].is_zero:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return BivarPoly.zero()
        pivot = m[k][k]
        for i in range(k + 1, size):
            row_i = m[i]
            head = row_i[k]
            for j in range(k + 1, size):
                row_i[j] = (pivot * row_i[j] - head * m[k][j]).divexact(prev)
            row_i[k] = BivarPoly.zero()
        prev = pivot
    det = m[size - 1][size - 1]
    return -det if sign < 0 else det


def implicitize(phi: Parametrization) -> BivarPoly:
    """Monic-in-y polynomial of y-degree n vanishing on the branch.

    The conjugate product f = prod over zeta**n = 1 of (y - p(zeta*t)) with
    x = t**n, for the polynomial y-series p.  Its y-coefficients are the
    signed elementary symmetric functions e_k of the conjugates, which
    Newton's identities k*e_k = sum_{i=1..k} (-1)**(i-1) * e_(k-i) * P_i give
    from the power sums P_r(x) = n * sum_{n | e} [t**e] p**r * x**(e/n); all
    of it stays in Q[x] (Casas-Alvero, Singularities of Plane Curves, 2000).
    With p = num / den over one common denominator, P_r and e_k are forms of
    degree r and k in the coefficients of p, e_k with integer coefficients,
    so both are integer polynomials over den**r and den**k: the loops run on
    integers, p**r exact from `_powers`, and each coefficient of f becomes a
    Fraction once.  The input must be exact: truncate an inexact branch
    deliberately first.
    """
    if not phi.exact:
        raise NonPolynomialInput(
            "implicitize needs a polynomial y-series; truncate deliberately first"
        )
    p = phi.y.terms
    if not p:
        raise NonPolynomialInput("cannot implicitize the zero branch")
    n = phi.n
    _, den = _common(p, EXACT)
    # sums[r] = (-1)**(r-1) * den**r * P_r as a map x-degree -> int
    sums = [None]
    for r, (power, _, _) in enumerate(islice(_powers(_form(phi.y)), 1, n + 1), 1):
        sign = n if r % 2 else -n
        sums.append({e // n: sign * c for e, c in power.items() if not e % n})
    elementary = [{0: 1}]  # elementary[k] = den**k * e_k
    for k in range(1, n + 1):
        acc: dict = {}
        for i in range(1, k + 1):
            _convolve(elementary[k - i], sums[i], EXACT, acc)
        elementary.append({d: c // k for d, c in acc.items() if c})
    poly = BivarPoly({
        (d, n - k): Fraction(-c if k % 2 else c, den**k)
        for k, ek in enumerate(elementary)
        for d, c in ek.items()
    })
    check = substitute(poly, phi.n, phi.y)
    if not check.is_zero_below_trunc():
        raise CrossCheckFailed("implicit equation does not vanish on the branch")
    return poly


# -- Newton-Puiseux ------------------------------------------------------------

def _weierstrass_degree(f: BivarPoly) -> int:
    n = f.deg_y()
    if n < 1:
        raise NotWeierstrass("polynomial has y-degree 0")
    for (i, j) in f.terms:
        if j == n and i > 0:
            raise NotWeierstrass("not monic in y")
        if i == 0 and j != n:
            raise NotWeierstrass("f(0, y) is not a pure power of y")
    if f.coeff(0, n) != 1:
        raise NotWeierstrass("leading y-coefficient is not 1")
    return n


def _np_transform(cur: dict, nu: int, mu: int, root: Fraction) -> dict:
    """q**d * cur(x**nu, x**mu * (p/q + y)), root = p/q, divided by its
    minimal x-power and its content: primitive integer rows again.

    q**d * (p/q + y)**j = q**(d - j) * (p + q*y)**j, d the y-degree of cur,
    so row j, each x-power i moved to nu*i + mu*j less the minimal one, is
    added into row l times C(j, l) * p**(j - l) * q**(d - j + l).
    """
    p, q = root.numerator, root.denominator
    d = max(cur)
    shift = min(nu * min(row) + mu * j for j, row in cur.items())
    acc: dict = {l: {} for l in range(d + 1)}
    for j, row in cur.items():
        moved = {nu * i + mu * j - shift: c for i, c in row.items()}
        for l in range(j + 1):
            _addmul(acc[l], moved, comb(j, l) * p ** (j - l) * q ** (d - j + l))
    acc = {l: row for l, row in acc.items() if row}
    g = gcd(*(c for row in acc.values() for c in row.values()))  # stops at 1
    return {l: {i: c // g for i, c in row.items()} for l, row in acc.items()} if g > 1 else acc


def _np_edge(cur: dict):
    """Edge data (nu, mu, root) of the unique branch edge of the integer
    rows cur, or None when y | cur."""
    if 0 not in cur:
        return None
    ycol = [j for j, row in cur.items() if 0 in row]
    if not ycol or min(ycol) == 0:
        raise NotIrreducible("no branch through the origin at this stage")
    jstar = min(ycol)
    # the least i / (jstar - j), each row at its lowest x-power, compared
    # by cross-multiplication
    mu, nu = inf, 1
    for j, row in cur.items():
        if j < jstar:
            i = min(row)
            if i * nu < mu * (jstar - j):
                mu, nu = i, jstar - j
    slope = Fraction(mu, nu)
    mu, nu = slope.numerator, slope.denominator
    # a point (i, j) on the edge has i * nu = mu * (jstar - j), so j <= jstar
    edge = {}
    for j, row in cur.items():
        i, r = divmod(mu * (jstar - j), nu)
        if j <= jstar and not r and i in row:
            edge[j] = row[i]
    if 0 not in edge:
        raise NotIrreducible("Newton polygon has more than one compact edge")
    # in z = root**nu the edge polynomial of a single branch is
    # lead * (z - c)**k, so its one root is c = -a_(k-1) / (k * lead);
    # each a_(j*nu) = lead * C(k, j) * (-c)**(k - j) is checked times b**(k - j)
    k = jstar // nu
    lead = edge[jstar]
    c = Fraction(-edge.get(jstar - nu, 0), k * lead)
    a, b = c.numerator, c.denominator
    for j in range(k + 1):
        if edge.get(j * nu, 0) * b ** (k - j) != lead * comb(k, j) * (-a) ** (k - j):
            raise NotIrreducible("edge polynomial has several distinct roots")
    root = exact_root(c, nu)
    if root is None:
        raise NonRationalCoefficient(f"required {nu}-th root of {c} is irrational")
    return nu, mu, root


def puiseux_parametrization(f: BivarPoly, trunc: int | None = None) -> Parametrization:
    """A rational Puiseux parametrization (t**n, y(t)) of an irreducible branch.

    Newton-polygon iteration in one pass: each stage takes the unique edge
    through the lowest point on the y-axis and the unique rational root of
    its edge polynomial, records the term and recenters,
    f <- f(x**nu, x**mu * (root + y)).  Every decision is homogeneous in f,
    so f is one primitive integer polynomial throughout, held as rows
    y-degree j -> {x-exponent: int}: its denominators are cleared once,
    each recentering is taken times q**deg_y f, root = p/q, row by row,
    and divided by its content; each edge is read off each row's lowest
    x-power and the rows up to the y-axis point.  With ram the product of
    the nu so far, the stage's term is root * x**e, e = e_prev + mu / ram,
    at t-exponent n * e; the stages with nu > 1 give the characteristic
    exponents.  Aborts with NonRationalCoefficient rather than extending
    the coefficient field.  Default truncation: conductor of the branch plus
    twice its multiplicity, the conductor summed as the stages come,
    sum (e_(i-1) - e_i) * (beta_i - 1) with e_i = n / ram, which needs
    neither a singular nor a transversal branch.  A trunc other than None
    or a positive int is refused with InvalidArgument.

    While ram < n, n / ram >= 2 roots of f, counted with multiplicity,
    share every term so far, so they agree beyond x**e.  Two distinct roots
    of a squarefree f differ at x-order at most ord_x(disc_y f) / 2, and the
    discriminant, a Sylvester determinant of size 2n - 1, has x-degree at
    most (2n - 1) * deg_x f: an e past half of that means a repeated factor
    (NotIrreducible).  Once ram = n every stage adds at least 1 to the
    t-exponent, so the loop reaches any target.
    """
    if trunc is not None:
        _check_positive(trunc, "trunc")
    n = _weierstrass_degree(f)
    separation = Fraction((2 * n - 1) * max(i for i, _ in f.terms), 2)
    terms: dict = {}  # x-exponent -> coefficient
    conductor = 0
    # primitive already: a prime power of the lcm divides some denominator fully
    cur, _ = _rows(f.terms)
    ram, xexp, target = 1, Fraction(0), trunc
    while True:
        edge = _np_edge(cur)
        if edge is None:
            if ram != n:
                raise NotIrreducible(
                    f"branch closed with ramification {ram}, but the y-degree is {n}"
                )
            bound = EXACT
            break
        nu, mu, root = edge
        # nu divides the edge's lowest y-power n / ram, so ram stays a
        # divisor of n and nu is 1 once ram = n
        ram *= nu
        xexp += Fraction(mu, ram)
        terms[xexp] = root
        if nu > 1:
            # (e_(i-1) - e_i) * (beta_i - 1), with e_i = n / ram
            conductor += (nu - 1) * (n // ram) * (int(n * xexp) - 1)
        if ram == n:
            if target is None:
                target = conductor + 2 * n
            if n * xexp >= target:
                bound = target
                break
        elif xexp > separation:
            raise NotIrreducible(
                f"roots still agree at x-order {xexp}, past the discriminant "
                f"bound {separation}: f has a repeated factor"
            )
        cur = _np_transform(cur, nu, mu, root)
    series = {int(n * e): c for e, c in terms.items() if n * e < bound}
    return Parametrization(n, TSeries(PARAM_VAR, series, bound))


# -- intersection multiplicity ---------------------------------------------------

def intersection_poly_param(f: BivarPoly, phi: Parametrization) -> int:
    """Intersection multiplicity as the t-order of f on the parametrization."""
    value = substitute(f, phi.n, phi.y)
    order = value.order()
    if order is not None:
        return order
    if value.exact:
        raise BranchesEqual("polynomial vanishes identically on the branch")
    raise PrecisionExhausted(
        f"substitution vanishes below {value.trunc}; raise the truncation "
        "or the branches coincide"
    )


def _conjugate_orders(phi1: Parametrization, phi2: Parametrization):
    """(orders, pending, bound): one scan over the exponents of both branches.

    Over a common parameter u with x = u**N, N = lcm(n1, n2), the k-th
    conjugate of the first branch multiplies its term at u**E by
    zeta**(k*E), zeta = exp(2 pi i / N).  With rational coefficients the
    term cancels against the second branch's only when zeta**(k*E) = 1 and
    the coefficients are equal, when it is -1 and they are opposite, or when
    both are zero.  `orders` holds the u-exponent of the first difference of
    each conjugate that shows one below `bound`, the lower of the two
    truncations in u; `pending` counts the conjugates that show none there.
    """
    big = phi1.n * phi2.n // gcd(phi1.n, phi2.n)
    r1, r2 = big // phi1.n, big // phi2.n
    a = {e * r1: c for e, c in phi1.y.terms.items()}
    b = {e * r2: c for e, c in phi2.y.terms.items()}
    bound = min(phi1.trunc * r1, phi2.trunc * r2)
    pending = set(range(phi1.n))
    orders = []
    for e in sorted(a.keys() | b.keys()):
        if e >= bound or not pending:
            break
        ae, be = a.get(e, 0), b.get(e, 0)
        for k in list(pending):
            twist = k * e % big
            if twist == 0:
                same = ae == be
            elif 2 * twist == big:
                same = ae == -be
            else:
                same = ae == be == 0
            if not same:
                orders.append(e)
                pending.discard(k)
    return orders, len(pending), bound


def intersection(phi1: Parametrization, phi2: Parametrization) -> int:
    """Intersection multiplicity of two distinct branches.

    Halphen-Zeuthen: over x = u**N, N = lcm(n1, n2), the sum over the n1
    conjugates of the first branch of the u-order of their difference with
    the second is N/n2 times I (Casas-Alvero, Singularities of Plane
    Curves, 2000).  No equation is built, and the value does not depend on
    the argument order.  Each order is certified below both truncations; a
    conjugate that shows no difference there means equal branches when both
    are exact, and too little precision otherwise.
    """
    orders, pending, bound = _conjugate_orders(phi1, phi2)
    if pending:
        if bound == EXACT:
            raise BranchesEqual("the branches coincide")
        raise PrecisionExhausted(
            f"the branches agree up to their truncations {phi1.trunc} and "
            f"{phi2.trunc}; raise them or the branches coincide"
        )
    scale = phi1.n // gcd(phi1.n, phi2.n)
    total = sum(orders)
    if total % scale:
        raise CrossCheckFailed(f"conjugate orders sum to {total}, not a multiple of {scale}")
    return total // scale


# -- contact order ----------------------------------------------------------------

def _interval(cd: CharData, q: int):
    """[beta_q / n, beta_{q+1} / n) as rationals, with beta_0 / n = 1."""
    n = cd.mult
    lo = Fraction(cd.char_exponents[q], n) if q else Fraction(1)
    hi = Fraction(cd.char_exponents[q + 1], n) if q + 1 <= cd.genus else inf
    return lo, hi


def _interval_ratio(cd: CharData, q: int, theta: Fraction) -> Fraction:
    """I / mult(other) on the q-th contact interval."""
    n = cd.mult
    if q == 0:
        return n * theta
    v = cd.generators
    beta = cd.char_exponents
    nq = cd.quotients[q - 1]
    prod = 1
    for i in range(q):
        prod *= cd.quotients[i]
    return (nq * v[q] + n * theta - beta[q]) / Fraction(prod)


def intersection_from_contact(cd: CharData, theta, mult_other: int) -> Fraction:
    """Intersection multiplicity from the contact order (exact rational)."""
    theta = ratio(theta)
    _check_positive(mult_other, "multiplicity")
    if theta < 1:
        raise ThetaOutOfRange(f"contact order {theta} is below 1")
    for q in range(cd.genus + 1):
        lo, hi = _interval(cd, q)
        if lo <= theta < hi:
            return _interval_ratio(cd, q, theta) * mult_other
    raise NotRealizable(f"no contact interval admits theta = {theta}")


def contact_from_intersection(cd: CharData, inter, mult_other: int) -> ContactOrder:
    """Contact order from the intersection multiplicity.

    Scans every characteristic interval and demands exactly one consistent
    solution; zero or several hits mean the pair is not realizable.
    """
    _check_positive(mult_other, "multiplicity")
    ratio_val = ratio(inter) / mult_other
    hits = []
    for q in range(cd.genus + 1):
        # the ratio is affine in theta on each interval
        base = _interval_ratio(cd, q, 0)
        theta = (ratio_val - base) / (_interval_ratio(cd, q, 1) - base)
        lo, hi = _interval(cd, q)
        if theta >= 1 and lo <= theta < hi:
            hits.append(theta)
    if len(hits) != 1:
        raise NotRealizable(
            f"intersection {inter} with multiplicity {mult_other} admits "
            f"{len(hits)} contact solutions"
        )
    return ContactOrder.finite(hits[0])


def contact(phi1: Parametrization, phi2: Parametrization) -> ContactOrder:
    """Contact order of two branches via their intersection multiplicity."""
    try:
        inter = intersection(phi1, phi2)
    except BranchesEqual:
        return ContactOrder.infinite()
    return contact_from_intersection(char_sequence(phi1), inter, phi2.n)


def swap_parametrization(phi: Parametrization, trunc: int | None = None) -> Parametrization:
    """Parametrization of the image branch under (x, y) -> (y, x).

    The y-component becomes the new s**m with s = w(t), w = y(t)**(1/m);
    the new y-series solves Y(w(t)) = t**n.  Needs the leading coefficient
    of y to have a rational m-th root.
    """
    if trunc is not None:
        _check_positive(trunc, "trunc")
    y = phi.y
    m = y.order()
    if m is None:
        raise PrecisionExhausted("cannot swap a branch with undetermined y-order")
    lead = y.terms[m]
    root = exact_root(lead, m)
    if root is None:
        raise NonRationalCoefficient(
            f"swap needs a rational {m}-th root of the leading coefficient {lead}"
        )
    if trunc is None:
        top = y.max_exponent()
        trunc = min(y.trunc, 2 * (phi.n + top) * max(1, phi.n))
    elif trunc > y.trunc:
        raise PrecisionExhausted(
            f"swap at precision {trunc} needs the branch below {trunc}", needed=trunc
        )
    unit = y.shift(-m).scale(1 / lead).truncated(trunc)
    w = nth_root_unit(unit, m).scale(root).shift(1)
    (ynew,) = solve_composition([TSeries.monomial(y.var, phi.n, 1, w.trunc)], w)
    return Parametrization(m, ynew)
