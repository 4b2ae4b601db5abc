"""Conversions between branch representations and pairwise invariants.

Implicitization builds the conjugate product prod (y - p(zeta*t)) over the
n-th roots of unity from the power sums of the conjugates by Newton's
identities, all in Q[x]; the inverse direction is a Newton-polygon
iteration on one primitive integer polynomial, held as rows y-degree ->
{x-exponent: int}, whose edge roots are rational.  The intersection
multiplicity of a polynomial with a parametrization is the order of a
substitution, read on an exact branch off one big-integer evaluation;
that of two parametrizations is a sum of conjugate orders,
read off by comparing coefficients, and the largest gives their contact order.

Contact order theta >= 1 and intersection multiplicity I with a branch of
multiplicity n' correspond by a continuous, increasing, piecewise-linear
map theta -> I / n' with breakpoints beta_q / n (n_0 = 1, v_0 = beta_0 = n):

    theta            1    beta_1 / n    beta_q / n
    I / n'           n    v_1           v_q / (n_1 ... n_(q-1))
    slope after it   n    n / n_1       n / (n_1 ... n_q)

On piece q, I / n' = (n_q * v_q - beta_q + n * theta) / (n_1 ... n_q),
which at beta_(q+1) / n is v_(q+1) / (n_1 ... n_q), as
v_(q+1) = n_q * v_q + beta_(q+1) - beta_q: the pieces meet, so each
I / n' >= n has exactly one theta.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import comb, gcd, inf, lcm

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
from .semigroup import CharData, _char_exponents
from .series import (
    EXACT,
    BivarPoly,
    TSeries,
    _at_two_power,
    _check_instance,
    _check_positive,
    _convolve,
    _powers,
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
        _check_instance(self.y, TSeries, "y-series")

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
        # a bound that is not an int is refused before it is compared
        if bound != EXACT:
            _check_positive(bound, "trunc")
        if bound > self.trunc:
            raise PrecisionExhausted(
                f"branch known only below {self.trunc}, need {bound}", needed=bound
            )
        return Parametrization(self.n, self.y.truncated(bound))

    def same_branch(self, other: "Parametrization") -> bool:
        """Exact test that two exact parametrizations describe one branch:
        the same n, and a conjugate of one that equals the other."""
        _check_instance(other, Parametrization, "branch")
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
        """A finite contact order theta, read by `ratio`; one below 1 is
        refused with ThetaOutOfRange."""
        theta = ratio(theta)
        if theta < 1:
            raise ThetaOutOfRange(f"contact order {theta} is below 1")
        return cls(theta)

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
    With p = num / den, P_r and e_k are forms of degree r and k in the
    coefficients of p, e_k with integer coefficients, so both are integer
    polynomials over den**r and den**k: the loops run on integers, and f is
    put over den**n.  P_r reads p**r only at the exponents n divides.  So
    p**1 ... p**h, h = ceil(n/2), come in full from `_powers`, and for
    r > h only those coefficients of p**r are formed, as p**h * p**(r - h)
    with the second factor grouped by exponent mod n: 1/n of a full
    product.  The numerators stay over den**r: by Gauss's lemma the
    numerators of p**h and p**(r - h) are num**h and num**(r - h) over
    den**h and den**(r - h), and their product num**r shares no factor
    with den**r.  The input must be exact: truncate an inexact branch
    deliberately first.

    The result is checked on the branch by one big-integer evaluation,
    `_at_two_power`, which is zero exactly when f(t**n, p(t)) = 0; any
    other value raises CrossCheckFailed.  No series of f on the branch
    is built.  A phi that is not a Parametrization is refused with
    InvalidArgument.
    """
    _check_instance(phi, Parametrization, "branch")
    if not phi.exact:
        raise NonPolynomialInput(
            "implicitize needs a polynomial y-series; truncate deliberately first"
        )
    if not phi.y.num:
        raise NonPolynomialInput("cannot implicitize the zero branch")
    n = phi.n
    den = phi.y.den
    half = (n + 1) // 2
    powers = [num for num, _, _ in islice(_powers(phi.y), half + 1)]
    # sums[r] = (-1)**(r-1) * den**r * P_r as a map x-degree -> int
    sums = [None]
    for r in range(1, n + 1):
        sign = n if r % 2 else -n
        if r <= half:
            sums.append({e // n: sign * c for e, c in powers[r].items() if not e % n})
            continue
        # p**half * p**(r - half) at the exponents n divides only: the
        # second factor grouped by exponent mod n
        classes: dict = {}
        for e2, c2 in powers[r - half].items():
            classes.setdefault(e2 % n, []).append((e2, c2))
        power: dict = {}
        for e1, c1 in powers[half].items():
            for e2, c2 in classes.get(-e1 % n, ()):
                d = (e1 + e2) // n
                power[d] = power.get(d, 0) + c1 * c2
        sums.append({d: sign * c for d, c in power.items()})
    elementary = [{0: 1}]  # elementary[k] = den**k * e_k
    for k in range(1, n + 1):
        acc: dict = {}
        for i in range(1, k + 1):
            _convolve(elementary[k - i], sums[i], EXACT, acc)
        elementary.append({d: c // k for d, c in acc.items() if c})
    poly = BivarPoly._make({
        n - k: {d: (-c if k % 2 else c) * den ** (n - k) for d, c in ek.items()}
        for k, ek in enumerate(elementary)
    }, den**n)
    if _at_two_power(poly, n, phi.y)[0]:
        raise CrossCheckFailed("implicit equation does not vanish on the branch")
    return poly


# -- Newton-Puiseux ------------------------------------------------------------

def _weierstrass_degree(f: BivarPoly) -> int:
    n = f.deg_y()
    if n < 1:
        raise NotWeierstrass("polynomial has y-degree 0")
    if any(0 in row for j, row in f.rows.items() if j != n):
        raise NotWeierstrass("f(0, y) is not a pure power of y")
    if f.rows[n].keys() != {0}:
        raise NotWeierstrass("not monic in y")
    if f.rows[n][0] != f.den:
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
        moved = [(nu * i + mu * j - shift, c) for i, c in row.items()]
        for l in range(j + 1):
            factor = comb(j, l) * p ** (j - l) * q ** (d - j + l)
            out = acc[l]
            get = out.get
            for e, c in moved:
                out[e] = get(e, 0) + factor * c
    acc = {l: {i: c for i, c in row.items() if c} for l, row in acc.items()}
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
    g = gcd(mu, nu)
    mu, nu = mu // g, nu // g
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


def _np_tail(f: BivarPoly, n: int, cur: dict, terms: dict, texp: int, target: int) -> TSeries:
    """The y-series of f's branch once ram = n, from its terms up to t**texp
    and the recentered rows cur, by the solve of `puiseux_parametrization`:
    y1 below K = target - texp, one coefficient at a time, each row read
    below K, and `_at_two_power` once, when the terms end at t**D,
    D = deg_x f(x, 0), the only degree a polynomial root can have.  At
    K < 1 nothing is solved, and the terms past the target are cut."""
    K = target - texp
    # f = y, the one f without row 0 that gets here, has the root 0
    D = max(f.rows.get(0, ()), default=0)
    b0 = cur[1][0]
    d = max(cur)
    # each row below K by x-power; row 1 at x**0 meets N[k] while it is 0
    rows = {j: sorted((i, c) for i, c in row.items() if i < K) for j, row in cur.items() if j}
    # y1 = N / den below k, den the lcm of its denominators, and
    # Q[j][m] = [t**m] N**j, N = Q[1] nonzero only at the m in `support`
    den = 1
    Q = [None] + [[0] for _ in range(d)]
    support = []
    for k in range(K):
        if k:
            Q[1].append(0)
            for j in range(2, d + 1):
                Q[j].append(sum(Q[1][i] * Q[j - 1][k - i] for i in support))
            # the sum of cur_j[i] * Q[j][k - i] * den**(d - j), by Horner in den
            acc = cur.get(0, {}).get(k, 0)
            for j in range(1, d + 1):
                acc *= den
                q = Q[j]
                for i, c in rows.get(j, ()):
                    if i > k - j:
                        break
                    acc += c * q[k - i]
            if not acc:
                continue
            u = Fraction(-acc, b0 * den**d)
            r = u.denominator // gcd(den, u.denominator)
            if r > 1:
                den *= r
                scale = 1
                for j in range(1, d + 1):
                    scale *= r
                    Q[j][:] = [c * scale for c in Q[j]]
            Q[1][k] = u.numerator * (den // u.denominator)
            support.append(k)
            terms[texp + k] = u
        if texp + k == D:
            candidate = TSeries(PARAM_VAR, terms, EXACT)
            if not _at_two_power(f, n, candidate)[0]:
                return candidate
    return TSeries(PARAM_VAR, terms, target)


def puiseux_parametrization(f: BivarPoly, trunc: int | None = None) -> Parametrization:
    """A rational Puiseux parametrization (t**n, y(t)) of an irreducible branch.

    Newton-polygon iteration until the branch is fully ramified: each stage
    takes the unique edge through the lowest point on the y-axis and the
    unique rational root of its edge polynomial, records the term and
    recenters, f <- f(x**nu, x**mu * (root + y)).  Every decision is
    homogeneous in f, so f is one primitive integer polynomial throughout,
    held as rows
    y-degree j -> {x-exponent: int}: its denominators are cleared once,
    each recentering is taken times q**deg_y f, root = p/q, row by row,
    and divided by its content; each edge is read off each row's lowest
    x-power and the rows up to the y-axis point.  With ram the product of
    the nu so far, a divisor of n, the stage's term is root * t**k at the
    integer t-exponent k = k_prev + (n / ram) * mu; the stages with nu > 1
    give the characteristic exponents.  Aborts with NonRationalCoefficient
    rather than extending the coefficient field.  Default truncation:
    conductor of the branch plus twice its multiplicity, the conductor
    summed as the stages come, sum (e_(i-1) - e_i) * (beta_i - 1) with
    e_i = n / ram, which needs neither a singular nor a transversal
    branch.  An f that is not a BivarPoly, or a trunc other than None or a
    positive int, is refused with InvalidArgument.

    While ram < n, n / ram >= 2 roots of f, counted with multiplicity,
    share every term so far, so they agree beyond t**k.  Two distinct roots
    of a squarefree f differ at x-order at most ord_x(disc_y f) / 2, and the
    discriminant, a Sylvester determinant of size 2n - 1, has x-degree at
    most (2n - 1) * deg_x f: a k with 2k > n * (2n - 1) * deg_x f, past half
    of that bound in t-exponents, means a repeated factor (NotIrreducible).

    Once ram = n the rest is solved term by term (Kung-Traub, "All
    algebraic functions can be computed fast", JACM 1978), in `_np_tail`.
    The stage that reached ram = n left rows cur in x = t, as the nu
    multiply to n, with cur(t, y1(t)) = 0 for y = (terms so far) +
    t**k * y1(t), y1(0) = 0.  Each stage leaves its y-axis point at
    j* = n / ram, the multiplicity of its root: the edge polynomial is
    lead * (y**nu - c)**(j* / nu), and (root + y)**nu - c has a simple zero
    at y = 0.  So now j* = 1: row 0 has no constant and b0 = cur_y(0, 0)
    != 0, as the n conjugates of the root are distinct and only this one
    passes through the origin of cur.  Coefficient k >= 1 of cur(t, y1) is
    b0 * y1[k] plus a polynomial in y1[1] ... y1[k-1], so y1 is unique and
    y1[k] = -(1/b0) * sum over (j, i) != (1, 0) of cur_j[i] * [t**(k-i)] y1**j.
    By induction the denominator of y1[k] divides b0**(2k - 1), but the
    solve keeps the actual one, often far smaller: y1 = N / den below k,
    den the lcm of the denominators so far, and Q[j][m] = [t**m] N**j =
    sum_i N[i] * Q[j-1][m-i], all integers, so that y1[k] is the one
    Fraction -acc / (b0 * den**d), with acc the sum of
    cur_j[i] * Q[j][k-i] * den**(d - j); when den grows by a factor r, Q[j]
    is scaled by r**j.  A term below the target reads cur_j[i] only at
    i < K = target - k.

    The stages closed the branch exactly when y divided the recentered
    rows, that is when the polynomial P of the terms so far is a root of f.
    A root of f is a conjugate y(zeta*t), zeta**n = 1, and P agrees with
    the branch on every term that tells the conjugates apart, so then
    P = y; `_at_two_power(f, n, P)` reads zero exactly then.  A polynomial
    root has one possible degree: f = prod (y - y(zeta*t)) over the n
    distinct conjugates, so f(t**n, 0) = +-prod y(zeta*t), and if y has
    t-degree D with top coefficient c, each factor has t-degree D with top
    coefficient c * zeta**D != 0, so D = deg_x f(x, 0).  So the evaluation
    runs at most once, when the terms end at t**D < t**target: on entry
    when the stages ended there, or where the coefficient at D is solved
    nonzero.  Otherwise the root is no polynomial below the target, and the
    terms below it come back at trunc = target, as the stages did.
    """
    _check_instance(f, BivarPoly, "polynomial")
    if trunc is not None:
        _check_positive(trunc, "trunc")
    n = _weierstrass_degree(f)
    # twice the discriminant bound, in t-exponents
    separation = n * (2 * n - 1) * max(max(row) for row in f.rows.values())
    terms: dict = {}  # t-exponent -> coefficient
    conductor = 0
    # primitive already: f is monic, so the content of its numerators divides
    # den, to which it is coprime; no stage writes into the rows it reads
    cur = f.rows
    ram, texp = 1, 0
    while ram < n:
        edge = _np_edge(cur)
        if edge is None:
            raise NotIrreducible(
                f"branch closed with ramification {ram}, but the y-degree is {n}"
            )
        nu, mu, root = edge
        # nu divides the edge's lowest y-power n / ram, so ram stays a
        # divisor of n
        ram *= nu
        texp += n // ram * mu
        terms[texp] = root
        if nu > 1:
            # (e_(i-1) - e_i) * (beta_i - 1), with e_i = n / ram
            conductor += (nu - 1) * (n // ram) * (texp - 1)
        if ram < n and 2 * texp > separation:
            raise NotIrreducible(
                f"roots still agree at x-order {Fraction(texp, n)}, past the discriminant "
                f"bound {Fraction(separation, 2 * n)}: f has a repeated factor"
            )
        cur = _np_transform(cur, nu, mu, root)
    target = conductor + 2 * n if trunc is None else trunc
    return Parametrization(n, _np_tail(f, n, cur, terms, texp, target))


# -- intersection multiplicity ---------------------------------------------------

def intersection_poly_param(f: BivarPoly, phi: Parametrization) -> int:
    """Intersection multiplicity as the t-order of f on the parametrization
    (Casas-Alvero, Singularities of Plane Curves, 2000).  On an exact branch
    it is read off one big-integer evaluation, `_at_two_power`; on a
    truncated one off the series `substitute` builds, whose truncation,
    read after cancellation, certifies it.  When f vanishes on the branch
    up to its truncation, PrecisionExhausted carries no `needed`: that
    cannot be told from a factor of f.  An f that is not a BivarPoly, or a
    phi that is not a Parametrization, is refused with InvalidArgument."""
    _check_instance(f, BivarPoly, "polynomial")
    _check_instance(phi, Parametrization, "branch")
    if phi.exact:
        v, k = _at_two_power(f, phi.n, phi.y)
        if v:
            return ((v & -v).bit_length() - 1) // k
    else:
        value = substitute(f, phi.n, phi.y)
        order = value.order()
        if order is not None:
            return order
        if not value.exact:
            raise PrecisionExhausted(
                f"substitution vanishes below {value.trunc}; raise the truncation "
                "or the branches coincide"
            )
    raise BranchesEqual("polynomial vanishes identically on the branch")


def _conjugate_orders(phi1: Parametrization, phi2: Parametrization):
    """(orders, pending, bound): one scan over the exponents of both branches.

    Over a common parameter u with x = u**N, N = lcm(n1, n2), the k-th
    conjugate of the first branch multiplies its term at u**E by
    zeta**(k*E), zeta = exp(2 pi i / N).  With nonzero rational terms, it
    cancels the second branch's term only when zeta**(k*E) = 1 and they are
    equal, or -1 and they are opposite; every other pending conjugate ends
    there.  `orders` holds the u-exponent of the first difference of each
    conjugate that shows one below `bound`, the lower of the two
    truncations in u; `pending` counts the conjugates that show none there.
    """
    big = lcm(phi1.n, phi2.n)
    r1, r2 = big // phi1.n, big // phi2.n
    a = phi1.y.num if r1 == 1 else {e * r1: c for e, c in phi1.y.num.items()}
    b = phi2.y.num if r2 == 1 else {e * r2: c for e, c in phi2.y.num.items()}
    da, db = phi1.y.den, phi2.y.den
    bound = min(phi1.trunc * r1, phi2.trunc * r2)
    pending = range(phi1.n)
    orders = []
    for e in sorted(a.keys() | b.keys()):
        if e >= bound:
            break
        # the coefficients a[e] / da and b[e] / db, cross-multiplied
        ae, be = a.get(e, 0) * db, b.get(e, 0) * da
        if ae == be:
            kept = [k for k in pending if k * e % big == 0]
        elif ae == -be:
            kept = [k for k in pending if 2 * (k * e % big) == big]
        else:
            kept = []
        orders += [e] * (len(pending) - len(kept))
        pending = kept
        if not pending:
            break
    return orders, len(pending), bound


def _certified_orders(phi1: Parametrization, phi2: Parametrization):
    """(orders, I) of the scan, certified as `intersection` states."""
    _check_instance(phi1, Parametrization, "branch")
    _check_instance(phi2, Parametrization, "branch")
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
    return orders, total // scale


def intersection(phi1: Parametrization, phi2: Parametrization) -> int:
    """Intersection multiplicity of two distinct branches.

    Halphen-Zeuthen: over x = u**N, N = lcm(n1, n2), the sum over the n1
    conjugates of the first branch of the u-order of their difference with
    the second is N/n2 times I (Casas-Alvero, Singularities of Plane
    Curves, 2000), whatever the argument order; no equation is built.
    Each order is certified below both truncations.  A conjugate that shows
    no difference there means equal branches when both are exact, and
    otherwise too little precision, with no `needed`: they may coincide.
    A phi1 or phi2 that is not a Parametrization is refused with
    InvalidArgument.
    """
    return _certified_orders(phi1, phi2)[1]


# -- contact order ----------------------------------------------------------------

def intersection_from_contact(cd: CharData, theta, mult_other: int) -> Fraction:
    """Intersection multiplicity from the contact order (exact rational):
    climbs the breakpoints beta_q / n of the module docstring's table while
    n * theta >= beta_(q+1), on integers, and evaluates the piece it stops
    on, one Fraction; at a breakpoint both pieces give the same I."""
    # theta's spelling is refused before the multiplicity, its range after
    theta = ratio(theta)
    _check_positive(mult_other, "multiplicity")
    theta = ContactOrder.finite(theta).theta
    _check_instance(cd, CharData, "class")
    n, beta, v = cd.mult, cd.char_exponents, cd.generators
    a, b = theta.numerator, theta.denominator
    q, nq, prod = 0, 1, 1
    while q < cd.genus and n * a >= beta[q + 1] * b:
        nq = cd.quotients[q]
        prod *= nq
        q += 1
    return Fraction(mult_other * ((nq * v[q] - beta[q]) * b + n * a), prod * b)


def contact_from_intersection(cd: CharData, inter, mult_other: int) -> ContactOrder:
    """Contact order from the intersection multiplicity, by the inverse
    walk: from I / n' >= n, the value at theta = 1, it climbs while
    I / n' >= v_(q+1) / (n_1 ... n_q), the value at the next breakpoint,
    and solves the piece it stops on.  The map is increasing, so below n
    no theta exists (NotRealizable) and from n on exactly one."""
    _check_positive(mult_other, "multiplicity")
    value = ratio(inter)
    c, d = value.numerator, value.denominator * mult_other
    _check_instance(cd, CharData, "class")
    n, beta, v = cd.mult, cd.char_exponents, cd.generators
    if c < n * d:
        raise NotRealizable(
            f"intersection {inter} with multiplicity {mult_other} admits 0 contact solutions"
        )
    q, nq, prod = 0, 1, 1
    while q < cd.genus and c * prod >= v[q + 1] * d:
        nq = cd.quotients[q]
        prod *= nq
        q += 1
    return ContactOrder(Fraction(c * prod - (nq * v[q] - beta[q]) * d, n * d))


def contact(phi1: Parametrization, phi2: Parametrization) -> ContactOrder:
    """Contact order: the largest order of `intersection`'s certified scan,
    over N; infinite for equal branches, no `needed` when they agree up to both
    truncations.  Refusals as by `intersection`'s arguments, then `char_sequence`,
    then `contact_from_intersection`."""
    try:
        orders, inter = _certified_orders(phi1, phi2)
    except BranchesEqual:
        return ContactOrder.infinite()
    _char_exponents(phi1)
    if inter < phi1.n * phi2.n:
        raise NotRealizable(
            f"intersection {inter} with multiplicity {phi2.n} admits 0 contact solutions"
        )
    return ContactOrder(Fraction(max(orders), lcm(phi1.n, phi2.n)))


def swap_parametrization(phi: Parametrization, trunc: int | None = None) -> Parametrization:
    """Parametrization of the image branch under (x, y) -> (y, x).

    The y-component becomes the new s**m with s = w(t), w = y(t)**(1/m);
    the new y-series solves Y(w(t)) = t**n.  Needs the leading coefficient
    of y to have a rational m-th root.  A phi that is not a Parametrization
    is refused with InvalidArgument.
    """
    _check_instance(phi, Parametrization, "branch")
    if trunc is not None:
        _check_positive(trunc, "trunc")
    y = phi.y
    m = y.order()
    if m is None:
        raise PrecisionExhausted("cannot swap a branch with undetermined y-order")
    lead = y.coeff(m)
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
