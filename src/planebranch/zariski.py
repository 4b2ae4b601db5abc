"""Elimination of parametrization terms and the Zariski invariant.

A term t**j of the y-series can be removed by an analytic coordinate change
whenever j + n lies in <n, m>: writing j + n = a*n + b*m, either y is shifted
by c*x**(a-1)*y**b (a >= 1) or x by c*y**(b-1) (a = 0), the latter followed
by the exact parameter change that restores x = t**n.  Sweeping the removable
exponents in increasing order is triangular, so the smallest surviving
exponent with its coefficient is the Zariski invariant.  It is also the
first value of m*y*dx - n*x*dy outside the semigroup, less n
(Hefez-Hernandes): that route gives lambda at every genus and builds a
witness of extremal contact, slot by slot.  The moves, the sweep and the
route compute on the integer numerators of y.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice
from math import gcd, lcm

from .errors import (
    AmbiguousEvidence,
    CrossCheckFailed,
    DegenerateMove,
    HypothesisNotMet,
    InvalidArgument,
    NeedsTruncation,
    NonIntegralResult,
    NotAnInvariant,
    NotPrimitive,
    NotRemovable,
    PrecisionExhausted,
    WrongEquisingularityClass,
)
from .geometry import Parametrization, intersection, intersection_from_contact
from .semigroup import CharData, char_sequence, contains, rep_nm
from .series import (
    EXACT,
    TSeries,
    _addmul,
    _check_instance,
    _check_positive,
    _cut,
    _is_int,
    _is_natural,
    _powers,
    _reduced,
    _root,
    _solve,
    # unused here since the sweep calls _root, but the benchmark's tracer
    # test reads zariski.nth_root_unit
    nth_root_unit,  # noqa: F401
    ratio,
    reparametrize,
)

@dataclass(frozen=True)
class MoveRecord:
    """One elimination step.

    kind 'q': y -> y + c * x**(a-1) * y**b (no parameter change);
    kind 'p': x -> x + c * y**(b-1), followed by the parameter change rho
    that restores x = t**n.  The recorded data replays to bit-identical
    results.
    """

    kind: str
    a: int
    b: int
    c: Fraction
    target_exponent: int
    reparametrization: TSeries | None

    def describe(self) -> str:
        if self.kind == "q":
            xpart = "" if self.a == 1 else ("*x" if self.a == 2 else f"*x^{self.a - 1}")
            ypart = "" if self.b == 0 else ("*y" if self.b == 1 else f"*y^{self.b}")
            return f"y -> y + ({self.c}){xpart}{ypart}  [kills t^{self.target_exponent}]"
        ypart = "y" if self.b == 2 else f"y^{self.b - 1}"
        return f"x -> x + ({self.c})*{ypart}  [kills t^{self.target_exponent}]"


@dataclass(frozen=True)
class ZariskiResult:
    """Outcome of the elimination: the invariant, a witness and the move log.

    exponent/coefficient are None for a branch equivalent to y**n = x**m
    (infinite invariant).  The witness is a branch of the associated
    genus-one class attaining the extremal contact; it is the branch itself
    when the invariant is infinite.
    """

    exponent: int | None
    coefficient: Fraction | None
    witness: Parametrization
    normal_form: Parametrization
    moves: tuple
    leading_scale: Fraction

    @property
    def finite(self) -> bool:
        return self.exponent is not None


def _working_bound(n: int, m: int) -> int:
    """Working truncation of a genus-one sweep, 2n above the conductor."""
    return (n - 1) * (m - 1) + 2 * n


def apply_qmove(phi: Parametrization, a: int, b: int, c) -> Parametrization:
    """Coordinate change y -> y + c * x**(a-1) * y**b along x = t**n.  The
    sum is known only below T, y's trunc, so y**b is read below T - n(a-1),
    and the sum keeps trunc T; it is put over the lcm of the two
    denominators, in lowest terms."""
    if not (_is_int(a) and _is_natural(b)):
        raise InvalidArgument(f"q-move needs integers a and b >= 0, got a = {a!r}, b = {b!r}")
    if a < 1:
        raise DegenerateMove("q-move needs a >= 1")
    _check_instance(phi, Parametrization, "branch")
    return Parametrization(phi.n, _qmove(phi.y, phi.n, a, b, ratio(c)))


def _qmove(y: TSeries, n: int, a: int, b: int, c: Fraction) -> TSeries:
    """The q-move on y, unchecked: the new y-series."""
    shift = n * (a - 1)
    *_, (pnum, pden, _) = islice(_powers(y, y.trunc - shift), b + 1)
    pden *= c.denominator
    common = lcm(y.den, pden)
    out = {e: v * (common // y.den) for e, v in y.num.items()}
    _addmul(out, pnum, c.numerator * (common // pden), shift)
    return TSeries._make(y.var, out, common, y.trunc)


def apply_pmove(phi: Parametrization, b: int, c):
    """Coordinate change x -> x + c * y**(b-1) and the parameter restoring it.

    Returns (new branch, rho), rho the parameter change with rho(w(t)) = t.
    """
    if not _is_int(b):
        raise InvalidArgument(f"p-move exponent b must be an integer, got {b!r}")
    if b < 2:
        raise DegenerateMove("p-move needs b >= 2 (x + c*y**(b-1) with b-1 >= 1)")
    _check_instance(phi, Parametrization, "branch")
    y, rho = _pmove(phi.y, phi.n, b, c)
    return Parametrization(phi.n, y), rho


def _pmove(y: TSeries, n: int, b: int, c):
    """The p-move on y, its exponent b unchecked: (Y, rho).  An exact y is
    refused with NeedsTruncation, since the unit's root would be infinite,
    and then c is read as a rational.

    With w(t) the parameter with w**n = x + c*y**(b-1) along the branch,
    one triangular solve over the powers of w gives both the new y-series
    Y, with Y(w(t)) = y(t), and the parameter change rho, with
    rho(w(t)) = t, each at its own truncation.  The unit
    1 + c*y**(b-1)/x is cut at T, y's trunc, so y**(b-1) is read below
    T + n.
    """
    if y.exact:
        raise NeedsTruncation("p-move needs a finite working truncation; re-truncate first")
    c = ratio(c)
    *_, (pnum, pden, ptrunc) = islice(_powers(y, y.trunc + n), b)
    if c and pnum and min(pnum) <= n:
        raise DegenerateMove("perturbation must have order above n")
    # y**(b-1) is known below ptrunc <= T + n, so the unit below ptrunc - n
    utrunc = ptrunc - n
    if utrunc < 1:
        raise InvalidArgument(f"trunc must be a positive integer, got {utrunc!r}")
    # the unit over c.denominator * pden
    unit = {e - n: c.numerator * v for e, v in pnum.items() if c}
    unit[0] = c.denominator * pden
    root = _root(TSeries._make(y.var, unit, unit[0], utrunc), n)
    w = TSeries._make(y.var, {e + 1: v for e, v in root.num.items()}, root.den, utrunc + 1)
    return _solve([y, TSeries._make(y.var, {1: 1}, 1, utrunc + 1)], w)


def eliminate_term(phi: Parametrization, j: int):
    """Remove the t**j term of the y-series; returns (new branch, MoveRecord)."""
    if not _is_int(j):
        raise InvalidArgument(f"target exponent j must be an integer, got {j!r}")
    _check_instance(phi, Parametrization, "branch")
    m = _first_offgrid_exponent(phi)
    if gcd(phi.n, m) != 1:
        raise WrongEquisingularityClass(
            f"exponent {m} shares a factor with {phi.n}: not genus one"
        )
    y, record = _eliminate(phi.y, phi.n, m, j)
    return Parametrization(phi.n, y), record


def _eliminate(y: TSeries, n: int, m: int, j: int):
    """The move that kills the t**j term of the y-series y of a branch of
    K(n, m), unchecked: (the new y-series, its MoveRecord).

    With L the coefficient at m, a move of size c changes the coefficient at
    j by c * L**b (q-move) or by -c * (m/n) * L**b (p-move): the first-order
    term of Y(w(t)) = y(t), whose c**2 terms land above j because
    (b-1)*m > n.  So c is solved in closed form and the move is applied
    once; a p-move's parameter change comes out of the same solve as the
    new branch and is always logged.  The result is verified to vanish at j
    with everything below j untouched.
    """
    a, b = rep_nm(j + n, n, m)
    if a < 0:
        raise NotRemovable(f"{j} + {n} is not in <{n}, {m}>")
    if a == 0 and b <= 1:
        raise DegenerateMove(f"no move exists for exponent {j}")
    num, den = y.num, y.den
    # c = -y[j] / L**b, times -n/m for a p-move
    c = Fraction(-num.get(j, 0) * den**b, num[m] ** b * den)
    if a:
        new, rho = _qmove(y, n, a, b, c), None
    else:
        c *= Fraction(-n, m)
        new, rho = _pmove(y, n, b, c)
    nnum, nden = new.num, new.den
    if j >= new.trunc:
        raise PrecisionExhausted(f"move at {j} leaves the series known only below {new.trunc}")
    if nnum.get(j):
        raise CrossCheckFailed(f"move failed to kill the coefficient at {j}")
    below = {e: v * nden for e, v in num.items() if e < j}
    if below != {e: v * den for e, v in nnum.items() if e < j}:
        raise CrossCheckFailed(f"move at {j} disturbed lower-order coefficients")
    return new, MoveRecord("q" if a else "p", a, b, c, j, rho)


def _first_offgrid_exponent(phi: Parametrization) -> int:
    """Smallest y-exponent not divisible by n (= the first characteristic one)."""
    n = phi.n
    m = min((e for e in phi.y.num if e % n), default=None)
    if m is None:
        if phi.exact:
            raise NotPrimitive("every exponent is divisible by the multiplicity")
        raise PrecisionExhausted(
            f"no exponent coprime to {n} below the truncation {phi.trunc}"
        )
    return m


def _route(y: TSeries, cd: CharData):
    """(s, c) from reducing omega = m*y*dx - n*x*dy along the branch
    (t**n, y) of class cd, n = beta_0, m = beta_1: s = v - n at the first
    value v of omega outside the semigroup, c what the sweep leaves at its
    smallest survivor s; (None, None) at genus one once v >= mu.

    The terms a_kn*t**(k*n) of y below m are dropped: the sweep's first
    moves y -> y - a_kn*x**k remove them and keep (lambda, c).  Then y**b
    leads at b*m, and per n*dt omega is sum (m - j)*a_j*t**(j+n-1), j > m.
    A lead of value v = a*n + b*m is cancelled by
    x**(a-1)*y**b*dx = t**(n*a-1)*y**b, or by d(y**b) when a = 0: the term
    k of y**b lands at k + n*a - 1 >= v - 1, times k when a = 0, so omega's
    leads rise.  v lies in <n, m> when e1 = gcd(n, m) divides it and
    v/e1 = a*n1 + b*m1 with a >= 0.  omega is read up to the value top:
    mu - 1 at genus one; beta_2 + n at genus >= 2, where the semigroup is
    <n, m> up to top since v_2 = (n1 - 1)*m + beta_2 > top.  e1 divides
    every exponent of y below beta_2, so a term of a form that e1 does not
    divide lands past beta_2 + n (only y*dx could reach it, and omega never
    has a lead at n + m): the route stops at omega's lead
    (m - beta_2)*a_beta_2 at beta_2 + n at the latest, with
    c = a_beta_2 / a_m.  Likewise a term of y at k > top - n lands past
    top, so only y below mu - n, or below beta_2 + 1 as char_sequence
    requires, is read.  omega is one map of integers over one denominator,
    and each y**b is read below top + 1 as bare numerators, whose
    denominator cancels in the multiple subtracted; a lead that does not
    rise is a CrossCheckFailed, not an endless loop.
    """
    n, m = cd.char_exponents[:2]
    e1 = cd.gcd_sequence[1]
    top = cd.conductor - 1 if cd.genus == 1 else cd.char_exponents[2] + n
    y = _cut(y, top + 1)
    y = TSeries._make(y.var, {j: c for j, c in y.num.items() if j % n or j > m}, y.den, y.trunc)
    ynum, yden = y.num, y.den
    omega = {j + n - 1: (m - j) * c for j, c in ynum.items() if j != m and j + n - 1 < top}
    oden = yden
    forms, powers = [], _powers(y, top + 1)
    e = 0
    while omega:
        e, last = min(omega), e
        if e <= last:
            raise CrossCheckFailed(f"omega's lead went back to t^{e} from t^{last}")
        a, b = rep_nm((e + 1) // e1, cd.reduced_mult, cd.reduced_first)
        if a < 0 or (e + 1) % e1:
            return e + 1 - n, Fraction(omega[e] * yden, oden * (m + n - e - 1) * ynum[m])
        while len(forms) <= b:
            forms.append(next(powers)[0])
        form = forms[b]
        # omega * lead - f * form over oden * lead, where f / lead is
        # omega's lead over the form's, in lowest terms
        lead = form[b * m] * (1 if a else b * m)
        g = gcd(omega[e], lead)
        f, lead = omega[e] // g, lead // g
        if lead != 1:
            omega = {k: c * lead for k, c in omega.items()}
            oden *= lead
        _addmul(omega, form if a else {k: k * c for k, c in form.items()}, -f, e - b * m, top)
        omega, oden = _reduced(omega, oden)
    if cd.genus > 1:
        raise CrossCheckFailed(f"the route found no value of omega up to beta_2 + n = {top}")
    return None, None


def genus1_reduce(phi: Parametrization) -> ZariskiResult:
    """Full elimination for a branch of a genus-one class K(n, m).

    Sweeps the removable exponents upward; surviving exponents j satisfy
    j + n outside <n, m> and live below conductor - n, so the smallest one
    (with its coefficient) is the Zariski invariant, and none surviving
    certifies equivalence to y**n = x**m.  The route must find the same
    (lambda, c); the witness takes c/scale * t**s off the branch at each
    slot s the route finds, until it finds none.
    """
    cd = char_sequence(phi)
    if cd.genus != 1:
        raise WrongEquisingularityClass(
            f"branch lies in K{cd.char_exponents}, not a genus-one class"
        )
    n, m = cd.char_exponents
    mu = cd.conductor
    bound = _working_bound(n, m)
    y = phi.with_trunc(bound).y
    # y / L over the numerator of L = y[m]
    scale = Fraction(y.den, y.num[m])
    cur = TSeries._make(y.var, y.num, y.num[m], y.trunc)
    moves = []
    for j in range(n + 1, bound):
        if j == m or not cur.num.get(j) or rep_nm(j + n, n, m)[0] < 0:
            continue
        cur, record = _eliminate(cur, n, m, j)
        moves.append(record)
    cur = Parametrization(n, cur)
    if cur.trunc <= mu - n - 1:
        raise CrossCheckFailed(
            f"working precision dropped to {cur.trunc}, below the survivor range"
        )
    survivors = [j for j in cur.y.num if j > m]
    if any(j > mu - n - 1 for j in survivors):
        raise CrossCheckFailed("a surviving exponent exceeds the certified range")
    lam = min(survivors, default=None)
    coeff = None if lam is None else Fraction(cur.y.num[lam], cur.y.den)
    if _route(y, cd) != (lam, coeff):
        raise CrossCheckFailed(f"the route disagrees with the sweep's invariant {lam}")
    wy, s, c = phi.y, lam, coeff
    while s is not None:
        wy = wy - TSeries.monomial(wy.var, s, c / scale, wy.trunc)
        done, (s, c) = s, _route(wy, cd)
        if s is not None and s <= done:
            raise CrossCheckFailed(f"the route returned slot {s} after clearing {done}")
    return ZariskiResult(lam, coeff, Parametrization(n, wy), cur, tuple(moves), scale)


def is_in_b(phi: Parametrization, n1: int, m1: int) -> bool:
    """Membership in the family of branches equivalent to y**n1 = x**m1."""
    cd = char_sequence(phi)
    if cd.char_exponents != (n1, m1):
        raise WrongEquisingularityClass(
            f"branch lies in K{cd.char_exponents}, not K({n1}, {m1})"
        )
    return _route(phi.with_trunc(_working_bound(n1, m1)).y, cd)[0] is None


def _reduced_branch(phi: Parametrization, cd: CharData) -> Parametrization:
    """The genus-one branch the sweep runs on: phi itself at genus one,
    else the exact branch (t**n1, sum c_e * t**(e/e1)) of K(n1, m1) over the
    exponents e < beta_2, all of which e1 divides."""
    if cd.genus == 1:
        return phi
    beta2 = cd.char_exponents[2]
    e1 = cd.gcd_sequence[1]
    n1, m1 = cd.reduced_mult, cd.reduced_first
    if not phi.exact:
        need = max(cd.char_exponents[-1] + 1, e1 * _working_bound(n1, m1))
        if phi.trunc < need:
            raise PrecisionExhausted(
                f"branch known below {phi.trunc}, need {need}", needed=need
            )
    y = _cut(phi.y, beta2)
    for e in y.num:
        if e % e1:
            raise CrossCheckFailed(
                f"exponent {e} below beta_2 = {beta2} is not divisible by {e1}"
            )
    divisible = {e // e1: c for e, c in y.num.items()}
    return Parametrization(n1, TSeries._make(y.var, divisible, y.den, EXACT))


def zariski_invariant(phi: Parametrization) -> ZariskiResult:
    """The Zariski invariant of a primitive transversal branch, with witness.

    The sweep on the genus-one reduced branch gives the witness, the
    normal form and the move log; at genus >= 2 lambda and its coefficient
    come from the route on the branch itself.  Every finite result is
    cross-checked by the witness's intersection with the branch, which the
    conjugate scan of `intersection` counts apart from sweep and route.
    """
    cd = char_sequence(phi)
    result = genus1_reduce(_reduced_branch(phi, cd))
    if cd.genus >= 2:
        lam, coeff = _route(phi.y, cd)
        result = replace(result, exponent=lam, coefficient=coeff)
    _verify_result(phi, cd, result)
    return result


def _verify_result(phi, cd: CharData, result: ZariskiResult):
    """Independent checks of a finite result.  The witness's membership in
    the family of y**n1 = x**m1 was decided by the route that built it;
    its intersection with the branch comes from comparing the conjugates'
    coefficients, certified below both truncations."""
    if not result.finite:
        return
    lam = result.exponent
    if result.coefficient == 0:
        raise CrossCheckFailed("finite invariant with zero leading coefficient")
    _refuse_non_invariant(lam, cd, CrossCheckFailed)
    # I at contact lam / n with multiplicity n1, on the first piece (v_2 at lam = beta_2)
    expected = (cd.reduced_mult - 1) * cd.char_exponents[1] + lam
    observed = intersection(result.witness, phi)
    if observed != expected:
        raise CrossCheckFailed(
            f"witness intersection {observed} differs from the predicted {expected}"
        )


def _refuse_non_invariant(lam: int, cd: CharData, error=NotAnInvariant) -> None:
    """Refuse with `error` a lam that cannot be the Zariski invariant of a
    branch of class cd: it must exceed beta_1, stay at or below beta_2 at
    genus >= 2, and lam + n must lie outside the semigroup of values."""
    beta = cd.char_exponents
    if not lam > beta[1]:
        defect = f"invariant {lam} does not exceed beta_1 = {beta[1]}"
    elif cd.genus >= 2 and lam > beta[2]:
        defect = f"invariant {lam} exceeds beta_2 = {beta[2]}"
    elif contains(lam + cd.mult, cd):
        defect = f"{lam} + {cd.mult} lies in the semigroup of values"
    else:
        return
    raise error(f"{defect}: not an invariant of K{beta}")


def replay_moves(phi: Parametrization, result: ZariskiResult) -> Parametrization:
    """Re-run a logged reduction on the branch it was recorded on, the
    reduced branch of phi, verifying each step.

    Applies the recorded scale and moves.  Each logged parameter change rho
    is checked against the definition of its move, without the composition
    solve that produced it: rho(u) = u + O(u**2), and x + c*y**(b-1) along
    the branch before the move, at t = rho(u), is exactly u**n.
    """
    cd = char_sequence(phi)
    _check_instance(result, ZariskiResult, "result")
    n = cd.reduced_mult
    work = _reduced_branch(phi, cd).with_trunc(_working_bound(n, cd.reduced_first))
    cur = Parametrization(n, work.y.scale(result.leading_scale))
    for record in result.moves:
        before = cur
        if record.kind == "q":
            cur = apply_qmove(cur, record.a, record.b, record.c)
            continue
        cur, _ = apply_pmove(cur, record.b, record.c)
        rho = record.reparametrization
        if rho is None:
            raise CrossCheckFailed(
                f"move at {record.target_exponent} carries no parameter change log"
            )
        moved_x = before.x_series() + (before.y ** (record.b - 1)).scale(record.c)
        if not (
            min(rho.terms, default=0) == 1
            and rho.terms[1] == 1
            and reparametrize(moved_x, rho).agrees_with(before.x_series())
        ):
            raise CrossCheckFailed(
                f"logged parameter change at {record.target_exponent} "
                f"does not restore x = t^{n}"
            )
    return cur


def infer_zariski(
    cd_f: CharData,
    lambda_f: int,
    other_mult: int,
    contact_order=None,
    intersection_value=None,
) -> int:
    """Invariant of a second branch from contact or intersection evidence.

    Needs contact > lambda/n, or intersection strictly above the one at
    contact lambda/n; then lambda' = n' * lambda / n.  A lambda that is
    not an int, a bool included, is refused with InvalidArgument, and one
    that no branch of the class cd_f can have with NotAnInvariant, before
    the evidence is read.
    """
    if (contact_order is None) == (intersection_value is None):
        raise AmbiguousEvidence("provide exactly one of contact_order/intersection_value")
    _check_positive(other_mult, "multiplicity")
    if not _is_int(lambda_f):
        raise InvalidArgument(f"lambda {lambda_f!r} is not a finite integer invariant")
    _check_instance(cd_f, CharData, "class")
    _refuse_non_invariant(lambda_f, cd_f)
    n = cd_f.mult
    if contact_order is not None:
        if not ratio(contact_order) > Fraction(lambda_f, n):
            raise HypothesisNotMet(
                f"contact {contact_order} does not exceed {Fraction(lambda_f, n)}"
            )
    else:
        threshold = intersection_from_contact(cd_f, Fraction(lambda_f, n), other_mult)
        if not ratio(intersection_value) > threshold:
            raise HypothesisNotMet(
                f"intersection {intersection_value} does not exceed {threshold} "
                "(the boundary itself is excluded)"
            )
    inferred = Fraction(other_mult * lambda_f, n)
    if inferred.denominator != 1:
        raise NonIntegralResult(
            f"{other_mult} * {lambda_f} / {n} = {inferred} is not an integer"
        )
    return int(inferred)
