"""Conversions between branch representations and pairwise invariants.

Implicitization builds the conjugate product prod (y - p(zeta*t)) over the
n-th roots of unity from the power sums of the conjugates by Newton's
identities, all in Q[x]; the inverse direction is a Newton-polygon
iteration that stays inside Q.  Intersection multiplicities are orders of
substitutions, and the contact order is tied to them by the classical
one-parameter correspondence on each characteristic interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, gcd, inf

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
    exact_root,
    ratio,
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

    @classmethod
    def from_pairs(cls, n: int, pairs, trunc=EXACT) -> "Parametrization":
        return cls(int(n), TSeries.from_terms(PARAM_VAR, pairs, trunc))

    @property
    def trunc(self):
        return self.y.trunc

    @property
    def exact(self) -> bool:
        return self.y.exact

    def x_series(self, trunc=EXACT) -> TSeries:
        return TSeries.monomial(self.y.var, self.n, 1, trunc)

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

    def char_data(self) -> CharData:
        return char_sequence(self)

    def same_branch(self, other: "Parametrization") -> bool:
        """Exact test that two exact parametrizations describe one branch."""
        if not (self.exact and other.exact):
            raise NonPolynomialInput("same_branch needs exact parametrizations")
        if self.n != other.n:
            return False
        f = implicitize(self)
        return substitute(f, other.x_series(), other.y).is_zero_below_trunc()

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
    The input must be exact (truncate inexact branches deliberately before
    implicitizing, see `intersection`).
    """
    if not phi.exact:
        raise NonPolynomialInput(
            "implicitize needs a polynomial y-series; truncate deliberately first"
        )
    p = phi.y.terms
    if not p:
        raise NonPolynomialInput("cannot implicitize the zero branch")
    n = phi.n
    sums = [None]  # sums[r] = P_r as a map x-degree -> coefficient
    power = {0: Fraction(1)}
    for _ in range(n):
        nxt: dict = {}
        for e1, c1 in power.items():
            for e2, c2 in p.items():
                e = e1 + e2
                nxt[e] = nxt.get(e, 0) + c1 * c2
        power = nxt
        sums.append({e // n: n * c for e, c in power.items() if c and not e % n})
    elementary = [{0: Fraction(1)}]
    for k in range(1, n + 1):
        acc: dict = {}
        for i in range(1, k + 1):
            sign = 1 if i % 2 else -1
            for d1, c1 in elementary[k - i].items():
                for d2, c2 in sums[i].items():
                    acc[d1 + d2] = acc.get(d1 + d2, 0) + sign * c1 * c2
        elementary.append({d: c / k for d, c in acc.items() if c})
    poly = BivarPoly({
        (d, n - k): -c if k % 2 else c
        for k, ek in enumerate(elementary)
        for d, c in ek.items()
    })
    check = substitute(poly, phi.x_series(), phi.y)
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


def _poly_eval(coeffs: dict, x: Fraction) -> Fraction:
    acc = Fraction(0)
    prev = None
    for e in sorted(coeffs, reverse=True):
        if prev is not None:
            acc *= x ** (prev - e)
        acc += coeffs[e]
        prev = e
    if prev:
        acc *= x ** prev
    return acc


def _divisors(a: int) -> list:
    divs = []
    i = 1
    while i * i <= a:
        if a % i == 0:
            divs.append(i)
            if i != a // i:
                divs.append(a // i)
        i += 1
    return sorted(divs)


def _rational_roots(coeffs: dict) -> list:
    """All nonzero rational roots of a univariate polynomial over Q."""
    coeffs = {e: ratio(c) for e, c in coeffs.items() if c}
    if not coeffs:
        raise ValueError("zero polynomial")
    denlcm = 1
    for c in coeffs.values():
        denlcm = denlcm * c.denominator // gcd(denlcm, c.denominator)
    ints = {e: int(c * denlcm) for e, c in coeffs.items()}
    low = min(ints)
    if low:
        ints = {e - low: c for e, c in ints.items()}
    if len(ints) == 1:
        return []
    frac_ints = {e: Fraction(c) for e, c in ints.items()}
    a0 = abs(ints[0])
    alead = abs(ints[max(ints)])
    roots = []
    for p in _divisors(a0):
        for q in _divisors(alead):
            if gcd(p, q) != 1:
                continue
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand not in roots and _poly_eval(frac_ints, cand) == 0:
                    roots.append(cand)
    return roots


def _np_transform(f: BivarPoly, nu: int, mu: int, root: Fraction) -> BivarPoly:
    """f(x**nu, x**mu * (root + y)) divided by its minimal x-power."""
    acc: dict = {}
    shift = min(nu * i + mu * j for (i, j) in f.terms)
    for (i, j), c in f.terms.items():
        base = nu * i + mu * j - shift
        for l in range(j + 1):
            key = (base, l)
            acc[key] = acc.get(key, Fraction(0)) + c * comb(j, l) * root ** (j - l)
    return BivarPoly(acc)


def _np_edge(cur: BivarPoly):
    """Edge data (nu, mu, root) of the unique branch edge, or None when y | cur."""
    pts = list(cur.terms)
    if all(j >= 1 for _, j in pts):
        return None
    ycol = [j for i, j in pts if i == 0]
    if not ycol or min(ycol) == 0:
        raise NotIrreducible("no branch through the origin at this stage")
    jstar = min(ycol)
    slope = min(Fraction(i, jstar - j) for i, j in pts if j < jstar)
    mu, nu = slope.numerator, slope.denominator
    weight = mu * jstar
    edge = {j: c for (i, j), c in cur.terms.items() if i * nu + j * mu == weight}
    if 0 not in edge:
        raise NotIrreducible("Newton polygon has more than one compact edge")
    psi = {j // nu: c for j, c in edge.items()}
    roots = [r for r in _rational_roots(psi) if r != 0]
    if not roots:
        raise NonRationalCoefficient("edge polynomial has no nonzero rational root")
    if len(roots) > 1:
        raise NotIrreducible("edge polynomial has several distinct rational roots")
    root = exact_root(roots[0], nu)
    if root is None:
        raise NonRationalCoefficient(
            f"required {nu}-th root of {roots[0]} is irrational"
        )
    return nu, mu, root


def _stage_exponents(stages) -> list:
    """t-exponent contributed by each stage (final once ramification ends)."""
    exps = []
    total = 0
    scales = [1] * len(stages)
    for k in range(len(stages) - 2, -1, -1):
        scales[k] = scales[k + 1] * stages[k + 1][0]
    for (nu, mu, _), scale in zip(stages, scales):
        total += mu * scale
        exps.append(total)
    return exps


def _char_from_stages(stages, n: int) -> list:
    beta = [n]
    e = n
    for exp in _stage_exponents(stages):
        if e == 1:
            break
        if exp % e:
            beta.append(exp)
            e = gcd(e, exp)
    if e != 1:
        raise NotIrreducible("stages do not yield a primitive parametrization")
    return beta


def puiseux_parametrization(f: BivarPoly, trunc: int | None = None) -> Parametrization:
    """A rational Puiseux parametrization (t**n, y(t)) of an irreducible branch.

    Newton-polygon iteration: each stage picks the unique edge through the
    lowest point on the y-axis, solves the edge polynomial for its unique
    rational root and recenters.  Aborts with NonRationalCoefficient rather
    than extending the coefficient field.  Default truncation: conductor of
    the branch plus twice its multiplicity.
    """
    n = _weierstrass_degree(f)
    stages: list = []
    cur = f
    ram = 1
    exact = False
    target = trunc
    max_stages = 4 * n + 512
    while True:
        if len(stages) > max_stages:
            raise PrecisionExhausted("Newton-polygon iteration did not terminate")
        edge = _np_edge(cur)
        if edge is None:
            exact = True
            break
        nu, mu, root = edge
        if ram * nu > n:
            raise NotIrreducible("ramification exceeds the y-degree")
        if ram == n and nu != 1:
            raise NotIrreducible("extra ramification after the branch was complete")
        stages.append(edge)
        ram *= nu
        cur = _np_transform(cur, nu, mu, root)
        if ram == n:
            if target is None:
                cd = CharData.from_char_exponents(_char_from_stages(stages, n))
                target = cd.conductor + 2 * n
            if _stage_exponents(stages)[-1] >= target:
                break
    if exact and ram != n:
        raise NotIrreducible(
            f"branch closed with ramification {ram}, but the y-degree is {n}"
        )
    bound = EXACT if exact else target
    terms: dict = {}
    for e, (_, _, root) in zip(_stage_exponents(stages), stages):
        if e < bound:
            terms[e] = root
    return Parametrization(n, TSeries(PARAM_VAR, terms, bound))


# -- intersection multiplicity ---------------------------------------------------

def intersection_poly_param(f: BivarPoly, phi: Parametrization) -> int:
    """Intersection multiplicity as the t-order of f on the parametrization."""
    value = substitute(f, phi.x_series(), phi.y)
    o = value.order()
    if o.known:
        return o.value
    if o.is_zero_series:
        raise BranchesEqual("polynomial vanishes identically on the branch")
    raise PrecisionExhausted(
        f"substitution vanishes below {o.value}; raise the truncation "
        "or the branches coincide"
    )


def _implicitize_for_intersection(phi: Parametrization):
    """Implicit equation of phi plus the validity cut of the truncated input."""
    if phi.exact:
        return implicitize(phi), None
    cd = phi.char_data()
    cut = max(cd.conductor + phi.n, phi.y.max_exponent() + 1)
    if phi.trunc < cut:
        raise PrecisionExhausted(
            f"need the branch below {cut} to implicitize, have {phi.trunc}",
            needed=cut,
        )
    poly_phi = Parametrization(
        phi.n,
        TSeries(phi.y.var, {e: c for e, c in phi.y.terms.items() if e < cut}, EXACT),
    )
    return implicitize(poly_phi), cut


def intersection(phi1: Parametrization, phi2: Parametrization) -> int:
    """Intersection multiplicity of two distinct branches.

    Implicitizes the branch with smaller multiplicity (fewer power sums,
    a smaller equation) and takes the order of the substitution into the
    other one.
    """
    a, b = (phi1, phi2) if phi1.n <= phi2.n else (phi2, phi1)
    fa, cut = _implicitize_for_intersection(a)
    try:
        value = intersection_poly_param(fa, b)
    except BranchesEqual:
        if cut is not None:
            # equality was only observed below the cut; the true branches
            # may part ways beyond it
            raise PrecisionExhausted(
                f"branches agree below the implicitization cut {cut}; "
                "raise the truncation or the branches coincide",
                needed=cut + a.n,
            ) from None
        raise
    if cut is not None:
        cap = ceil(Fraction(cut * b.n, a.n))
        if value >= cap:
            raise PrecisionExhausted(
                f"intersection {value} reaches the implicitization validity cap {cap}",
                needed=cut + a.n,
            )
    return value


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
    ratio_val = Fraction(inter) / mult_other
    n = cd.mult
    hits = []
    for q in range(cd.genus + 1):
        if q == 0:
            theta = ratio_val / n
        else:
            v = cd.generators
            beta = cd.char_exponents
            nq = cd.quotients[q - 1]
            prod = 1
            for i in range(q):
                prod *= cd.quotients[i]
            theta = (ratio_val * prod - nq * v[q] + beta[q]) / Fraction(n)
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
    return contact_from_intersection(phi1.char_data(), inter, phi2.n)


def swap_parametrization(phi: Parametrization, trunc: int | None = None) -> Parametrization:
    """Parametrization of the image branch under (x, y) -> (y, x).

    The y-component becomes the new s**m with s = w(t), w = y(t)**(1/m);
    the new y-series solves Y(w(t)) = t**n.  Needs the leading coefficient
    of y to have a rational m-th root.
    """
    from .series import nth_root_unit, solve_composition

    y = phi.y
    o = y.order()
    if not o.known:
        raise PrecisionExhausted("cannot swap a branch with undetermined y-order")
    m = o.value
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
    target = TSeries.monomial(y.var, phi.n, 1, w.trunc)
    return Parametrization(m, solve_composition(target, w))
