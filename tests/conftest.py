"""Shared fixtures and independent oracles.

The oracles deliberately avoid the library's own series engine: semigroup
membership by dynamic programming, substitution by plain dict convolution.
Expected values in the tests are frozen from these.  The reference moves and
route run on Fraction series and compute every power of y in full, cutting
only at the end, where the kernels work on integers over one denominator and
read each power from `series._powers` only below what their truncation
keeps; they pin the kernels' truncation arguments.  The reference sweep runs
the elimination on those reference moves, where the kernel carries y as
integers from move to move; it pins the denominators across moves.  The
reference substitution and division run on the ring operations of `TSeries`
and `BivarPoly`, one whole series or polynomial per step, where the kernels
work on integer rows; they pin the kernels' terms and truncations.  The
reference Newton-Puiseux stage and edge run on maps (i, j) -> c, one term
at a time, where the library holds integer rows j -> {i: c}; `to_rows`
and `from_rows` convert between the two.  Three references keep a kernel's
earlier body, for the fast path that replaced it: the sorted, bound-tested
convolution, which exact products no longer run; implicitization with every
power of the branch formed in full; and the Newton-Puiseux recentering on
`_addmul`, zeros dropped term by term.  The reference contact and
intersection scan every characteristic interval with Fractions and count
the contact solutions, where the library walks up the breakpoints of one
increasing map on integers.  The reference conjugate scan tests every
pending conjugate against the coefficients at every exponent, where the
library classifies each exponent once and keeps the conjugates whose twist
allows the cancellation.  The reference lift keeps the body that gave lambda
at genus >= 2 before the route ran on the branch itself: the sweep on the
reduced branch and two cases.  The reference Newton-Puiseux keeps the stage
loop that ran to the end, one recentering per coefficient past full
ramification, where the library solves those coefficients one at a time.
"""

from fractions import Fraction as F
from math import comb, gcd, inf

import pytest

from planebranch import zariski
from planebranch.errors import (
    InvalidArgument,
    NonRationalCoefficient,
    NotIrreducible,
    NotRealizable,
    ThetaOutOfRange,
)
from planebranch.geometry import (
    PARAM_VAR,
    ContactOrder,
    Parametrization,
    _np_edge,
    _np_transform,
    _weierstrass_degree,
    bareiss_determinant,
)
from planebranch.semigroup import char_sequence, rep_nm
from planebranch.series import (
    EXACT,
    BivarPoly,
    TSeries,
    _addmul,
    _check_positive,
    exact_root,
    nth_root_unit,
    ratio,
    solve_composition,
)


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


def np_transform_oracle(terms: dict, nu: int, mu: int, root: F) -> dict:
    """f(x**nu, x**mu * (root + y)) divided by its minimal x-power, one
    Fraction product per term: the Newton-Puiseux stage the library runs on
    a primitive integer polynomial, over Q and without the scalar."""
    acc: dict = {}
    shift = min(nu * i + mu * j for (i, j) in terms)
    for (i, j), c in terms.items():
        base = nu * i + mu * j - shift
        for l in range(j + 1):
            key = (base, l)
            acc[key] = acc.get(key, F(0)) + c * comb(j, l) * root ** (j - l)
    return {key: c for key, c in acc.items() if c}


def convolve_sorted_reference(a: dict, b: dict, bound, acc: dict | None = None) -> dict:
    """Product of two exponent -> int maps below `bound`, added into `acc`,
    with the second factor sorted and every term tested against the bound:
    what `series._convolve` runs at a finite bound, and ran at EXACT too."""
    if acc is None:
        acc = {}
    b = sorted(b.items())
    for e1, c1 in a.items():
        for e2, c2 in b:
            if e2 >= bound - e1:
                break
            acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
    return acc


def implicitize_full_powers(phi: Parametrization) -> BivarPoly:
    """The conjugate product of `geometry.implicitize` with every power
    num**1 ... num**n of the branch's numerators formed in full, by sorted
    convolutions, and its power sums read off them; the library forms the
    powers past ceil(n/2) only at the exponents n divides.  No vanishing
    check."""
    n, num, den = phi.n, phi.y.num, phi.y.den
    sums = [None]
    power = {0: 1}
    for r in range(1, n + 1):
        power = convolve_sorted_reference(power, num, inf)
        sign = n if r % 2 else -n
        sums.append({e // n: sign * c for e, c in power.items() if c and not e % n})
    elementary = [{0: 1}]
    for k in range(1, n + 1):
        acc: dict = {}
        for i in range(1, k + 1):
            convolve_sorted_reference(elementary[k - i], sums[i], inf, acc)
        elementary.append({d: c // k for d, c in acc.items() if c})
    return BivarPoly._make({
        n - k: {d: (-c if k % 2 else c) * den ** (n - k) for d, c in ek.items()}
        for k, ek in enumerate(elementary)
    }, den**n)


def np_transform_addmul(cur: dict, nu: int, mu: int, root: F) -> dict:
    """`geometry._np_transform` with one `series._addmul` call per pair of
    rows, each dropping zeros term by term, where the library runs one loop
    per pair and drops the zeros once per output row."""
    p, q = root.numerator, root.denominator
    d = max(cur)
    shift = min(nu * min(row) + mu * j for j, row in cur.items())
    acc: dict = {l: {} for l in range(d + 1)}
    for j, row in cur.items():
        moved = {nu * i + mu * j - shift: c for i, c in row.items()}
        for l in range(j + 1):
            _addmul(acc[l], moved, comb(j, l) * p ** (j - l) * q ** (d - j + l))
    acc = {l: row for l, row in acc.items() if row}
    g = gcd(*(c for row in acc.values() for c in row.values()))
    return {l: {i: c // g for i, c in row.items()} for l, row in acc.items()} if g > 1 else acc


def np_edge_reference(cur: dict):
    """Edge data (nu, mu, root) of the unique branch edge of an integer map
    (i, j) -> c, or None when y divides it: the Newton-Puiseux edge read
    off every term of a tuple-keyed map, where the library reads it off
    integer rows, each at its lowest x-power and only up to the y-axis
    point."""
    pts = list(cur)
    if all(j >= 1 for _, j in pts):
        return None
    ycol = [j for i, j in pts if i == 0]
    if not ycol or min(ycol) == 0:
        raise NotIrreducible("no branch through the origin at this stage")
    jstar = min(ycol)
    slope = min(F(i, jstar - j) for i, j in pts if j < jstar)
    mu, nu = slope.numerator, slope.denominator
    weight = mu * jstar
    edge = {j: c for (i, j), c in cur.items() if i * nu + j * mu == weight}
    if 0 not in edge:
        raise NotIrreducible("Newton polygon has more than one compact edge")
    k = jstar // nu
    lead = edge[jstar]
    c = F(-edge.get(jstar - nu, 0), k * lead)
    a, b = c.numerator, c.denominator
    for j in range(k + 1):
        if edge.get(j * nu, 0) * b ** (k - j) != lead * comb(k, j) * (-a) ** (k - j):
            raise NotIrreducible("edge polynomial has several distinct roots")
    root = exact_root(c, nu)
    if root is None:
        raise NonRationalCoefficient(f"required {nu}-th root of {c} is irrational")
    return nu, mu, root


def to_rows(terms: dict) -> dict:
    """A map (i, j) -> c as rows j -> {i: c}, the layout of the library's
    Newton-Puiseux stage."""
    rows: dict = {}
    for (i, j), c in terms.items():
        rows.setdefault(j, {})[i] = c
    return rows


def from_rows(rows: dict) -> dict:
    """Rows j -> {i: c} as a map (i, j) -> c."""
    return {(i, j): c for j, row in rows.items() for i, c in row.items()}


def witness_by_all_slots(phi: Parametrization, m: int, below=None) -> Parametrization:
    """The genus-one witness of phi in K(n, m), built by sweeping every slot
    in turn (only the slots below `below`, when given), the smallest
    survivor included, and subtracting what survives there.  Each slot s is
    read after the moves below s, at truncation min(mu + 2n, s + 2n): only
    the b = 2 p-move loses precision, n - 1 orders once per sweep.  The
    kernel reads the slots off the differential route instead."""
    n = phi.n
    conductor = (n - 1) * (m - 1)
    bound = conductor + 2 * n
    wy = phi.y
    response = 1 / phi.y.coeff(m)
    for s in range(m + 1, conductor - n if below is None else below):
        if rep_nm(s + n, n, m)[0] >= 0:
            continue
        work = Parametrization(n, wy).with_trunc(min(bound, s + 2 * n))
        reduced = Parametrization(n, work.y.scale(response))
        for j in range(n + 1, s):
            if j != m and reduced.y.terms.get(j) and rep_nm(j + n, n, m)[0] >= 0:
                reduced, _ = zariski.eliminate_term(reduced, j)
        coeff = reduced.y.coeff(s)
        if coeff:
            wy = wy - TSeries.monomial(wy.var, s, coeff / response, wy.trunc)
    return Parametrization(n, wy)


def qmove_reference(phi: Parametrization, a: int, b: int, c) -> Parametrization:
    """y -> y + c * x**(a-1) * y**b with y**b computed in full."""
    add = (phi.y ** b).shift(phi.n * (a - 1)).scale(c)
    return Parametrization(phi.n, phi.y + add)


def pmove_reference(phi: Parametrization, b: int, c):
    """x -> x + c * y**(b-1) and its parameter change, y**(b-1) in full."""
    n = phi.n
    perturb = (phi.y ** (b - 1)).scale(c)
    unit = TSeries.constant(phi.y.var, 1) + perturb.shift(-n)
    w = nth_root_unit(unit.truncated(phi.trunc), n).shift(1)
    ident = TSeries.monomial(w.var, 1, 1, w.trunc)
    ynew, rho = solve_composition([phi.y, ident], w)
    return Parametrization(n, ynew), rho


def sweep_reference(phi: Parametrization):
    """The elimination sweep of a genus-one branch, on Fraction series and
    the uncut moves `qmove_reference` and `pmove_reference`: (normal form,
    leading scale, move log, (lambda, c)).  Each move size c is solved in
    closed form, as the kernel does."""
    n = phi.n
    m = min(e for e in phi.y.terms if e % n)
    bound = (n - 1) * (m - 1) + 2 * n
    work = phi.with_trunc(bound)
    scale = 1 / work.y.coeff(m)
    cur = Parametrization(n, work.y.scale(scale))
    moves = []
    for j in range(n + 1, bound):
        a, b = rep_nm(j + n, n, m)
        if j == m or not cur.y.terms.get(j) or a < 0:
            continue
        slope = cur.y.terms[m] ** b * (1 if a else F(-m, n))
        c = -cur.y.terms[j] / slope
        if a:
            cur, rho = qmove_reference(cur, a, b, c), None
        else:
            cur, rho = pmove_reference(cur, b, c)
        moves.append(zariski.MoveRecord("q" if a else "p", a, b, c, j, rho))
    survivors = {j: c for j, c in cur.y.terms.items() if j > m}
    return cur, scale, tuple(moves), min(survivors.items(), default=(None, None))


def lift_reference(phi: Parametrization):
    """(lambda, c) of a branch of genus >= 2, lifted from the sweep on its
    reduced branch: the smallest survivor k there gives lambda = e1*k when
    e1*k stays below beta_2, and lambda = beta_2 with c = a_beta2 / a_beta1
    otherwise."""
    cd = char_sequence(phi)
    result = zariski.genus1_reduce(zariski._reduced_branch(phi, cd))
    beta2 = cd.char_exponents[2]
    e1 = cd.gcd_sequence[1]
    if result.finite and e1 * result.exponent < beta2:
        return e1 * result.exponent, result.coefficient
    return beta2, phi.y.coeff(beta2) / phi.y.coeff(cd.char_exponents[1])


def puiseux_reference(f: BivarPoly, trunc: int | None = None) -> Parametrization:
    """`geometry.puiseux_parametrization` as one stage loop to the end: past
    ram = n each stage recenters the rows to learn one coefficient, and the
    branch closes exactly when y divides the recentered rows.  The library
    solves the coefficients past ram = n one at a time on integers and reads
    the closure off an evaluation of f; the terms, trunc and refusals must
    agree."""
    if not isinstance(f, BivarPoly):
        raise InvalidArgument(f"polynomial {f!r} is not a BivarPoly")
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
    ram, texp, target = 1, 0, trunc
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
        texp += n // ram * mu
        terms[texp] = root
        if nu > 1:
            # (e_(i-1) - e_i) * (beta_i - 1), with e_i = n / ram
            conductor += (nu - 1) * (n // ram) * (texp - 1)
        if ram == n:
            if target is None:
                target = conductor + 2 * n
            if texp >= target:
                bound = target
                break
        elif 2 * texp > separation:
            raise NotIrreducible(
                f"roots still agree at x-order {F(texp, n)}, past the discriminant "
                f"bound {F(separation, 2 * n)}: f has a repeated factor"
            )
        cur = _np_transform(cur, nu, mu, root)
    series = {e: c for e, c in terms.items() if e < bound}
    return Parametrization(n, TSeries(PARAM_VAR, series, bound))


def route_reference(phi: Parametrization, n: int, m: int):
    """The differential route with every power of y known below
    mu + (b-1)*ord(y) and omega rebuilt as a series at every step."""
    mu = (n - 1) * (m - 1)
    y = phi.with_trunc(mu + 2 * n).y.truncated(mu)
    omega = TSeries(y.var, {j + n - 1: (m - j) * c for j, c in y.terms.items()}, mu - 1)
    powers = [TSeries.constant(y.var, 1)]
    while omega.terms:
        e = min(omega.terms)
        a, b = rep_nm(e + 1, n, m)
        if a < 0:
            return e + 1 - n, omega.terms[e] / ((m + n - e - 1) * phi.y.coeff(m))
        while len(powers) <= b:
            powers.append(powers[-1] * y)
        if a:
            form = powers[b].shift(n * a - 1)
        else:
            form = TSeries(y.var, {k - 1: k * c for k, c in powers[b].terms.items()}, mu - 1)
        omega = omega - form.scale(omega.terms[e] / form.terms[e])
    return None, None


def substitute_reference(poly: BivarPoly, n: int, y: TSeries) -> TSeries:
    """poly(t**n, y(t)) by a Horner pass of series products and sums, the
    truncation propagated by the ring operations alone."""
    rows: dict = {}
    for (i, j), c in poly.terms.items():
        row = rows.setdefault(j, {})
        row[n * i] = row.get(n * i, F(0)) + c
    if not rows:
        return TSeries.zero(y.var)
    ydegs = sorted(rows, reverse=True)
    acc = TSeries(y.var, rows[ydegs[0]], EXACT)
    for prev, j in zip(ydegs, ydegs[1:]):
        acc = acc * (y ** (prev - j)) + TSeries(y.var, rows[j], EXACT)
    if ydegs[-1]:
        acc = acc * (y ** ydegs[-1])
    return acc


def divmod_reference(f: BivarPoly, h: BivarPoly):
    """Euclidean division in y by a monic h: one polynomial product and two
    new polynomials per row of f."""
    d = h.deg_y()
    quotient = BivarPoly()
    rem = f
    while not rem.is_zero and rem.deg_y() >= d:
        k = rem.deg_y()
        lead = BivarPoly({(i, k - d): c for (i, j), c in rem.terms.items() if j == k})
        quotient = quotient + lead
        rem = rem - lead * h
    return quotient, rem


def _contact_interval(cd, q: int):
    """[beta_q / n, beta_{q+1} / n) as rationals, with beta_0 / n = 1."""
    n = cd.mult
    lo = F(cd.char_exponents[q], n) if q else F(1)
    hi = F(cd.char_exponents[q + 1], n) if q + 1 <= cd.genus else inf
    return lo, hi


def _interval_ratio(cd, q: int, theta: F) -> F:
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
    return (nq * v[q] + n * theta - beta[q]) / F(prod)


def intersection_from_contact_reference(cd, theta, mult_other: int) -> F:
    """Intersection multiplicity from the contact order, by finding the
    characteristic interval that holds theta."""
    theta = ratio(theta)
    _check_positive(mult_other, "multiplicity")
    if theta < 1:
        raise ThetaOutOfRange(f"contact order {theta} is below 1")
    for q in range(cd.genus + 1):
        lo, hi = _contact_interval(cd, q)
        if lo <= theta < hi:
            return _interval_ratio(cd, q, theta) * mult_other
    raise NotRealizable(f"no contact interval admits theta = {theta}")


def contact_from_intersection_reference(cd, inter, mult_other: int) -> ContactOrder:
    """Contact order from the intersection multiplicity: solves the affine
    map of every characteristic interval and demands exactly one solution
    inside its own interval."""
    _check_positive(mult_other, "multiplicity")
    ratio_val = ratio(inter) / mult_other
    hits = []
    for q in range(cd.genus + 1):
        base = _interval_ratio(cd, q, 0)
        theta = (ratio_val - base) / (_interval_ratio(cd, q, 1) - base)
        lo, hi = _contact_interval(cd, q)
        if theta >= 1 and lo <= theta < hi:
            hits.append(theta)
    if len(hits) != 1:
        raise NotRealizable(
            f"intersection {inter} with multiplicity {mult_other} admits "
            f"{len(hits)} contact solutions"
        )
    return ContactOrder.finite(hits[0])


def conjugate_orders_reference(phi1: Parametrization, phi2: Parametrization):
    """(orders, pending, bound) of `geometry._conjugate_orders`, one
    comparison per pending conjugate and exponent: over x = u**N the k-th
    conjugate's term at u**e carries zeta**(k*e), and it cancels against the
    second branch's when the twist is 1 and the coefficients are equal, -1
    and they are opposite, or both coefficients are zero."""
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
