"""Elimination of parametrization terms and the Zariski invariant.

A term t**j of the y-series can be removed by an analytic coordinate change
whenever j + n lies in <n, m>: writing j + n = a*n + b*m, either y is shifted
by c*x**(a-1)*y**b (a >= 1) or x by c*y**(b-1) (a = 0), the latter followed
by the exact parameter change that restores x = t**n.  Sweeping the removable
exponents in increasing order is triangular, so the smallest surviving
exponent with its coefficient is the Zariski invariant.  It is also the
first value of m*y*dx - n*x*dy outside <n, m>, less n (Hefez-Hernandes):
that route builds a witness branch of extremal contact, slot by slot.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import (
    AmbiguousEvidence,
    CrossCheckFailed,
    DegenerateMove,
    HypothesisNotMet,
    NeedsTruncation,
    NonIntegralResult,
    NotAnInvariant,
    NotPrimitive,
    NotRemovable,
    PrecisionExhausted,
    WrongEquisingularityClass,
)
from .geometry import Parametrization, intersection
from .semigroup import CharData, char_sequence, contains, rep_nm
from .series import EXACT, TSeries, nth_root_unit, reparametrize, solve_composition

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

    def apply(self, phi: Parametrization):
        """The move applied to phi: (new branch, rho), where rho is the
        parameter change of a p-move and None for a q-move."""
        if self.kind == "q":
            return apply_qmove(phi, self.a, self.b, self.c), None
        return apply_pmove(phi, self.b, self.c)


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


def _conductor(n: int, m: int) -> int:
    """Conductor (n - 1)(m - 1) of <n, m>; no exponent at or above
    conductor - n survives the sweep."""
    return (n - 1) * (m - 1)


def _working_bound(n: int, m: int) -> int:
    """Working truncation of a genus-one sweep, 2n above the conductor."""
    return _conductor(n, m) + 2 * n


def apply_qmove(phi: Parametrization, a: int, b: int, c) -> Parametrization:
    """Coordinate change y -> y + c * x**(a-1) * y**b along x = t**n."""
    if a < 1:
        raise DegenerateMove("q-move needs a >= 1")
    add = (phi.y ** b).shift(phi.n * (a - 1)).scale(c)
    return Parametrization(phi.n, phi.y + add)


def apply_pmove(phi: Parametrization, b: int, c):
    """Coordinate change x -> x + c * y**(b-1) and the parameter restoring it.

    Returns (new branch, rho).  With w(t) the parameter with
    w**n = x + c*y**(b-1) along the branch, one triangular solve over the
    powers of w gives both the new y-series Y, with Y(w(t)) = y(t), and the
    parameter change rho, with rho(w(t)) = t, each at its own truncation.
    """
    if b < 2:
        raise DegenerateMove("p-move needs b >= 2 (x + c*y**(b-1) with b-1 >= 1)")
    n = phi.n
    if phi.exact:
        raise NeedsTruncation("p-move needs a finite working truncation; re-truncate first")
    perturb = (phi.y ** (b - 1)).scale(c)
    if perturb.terms and min(perturb.terms) <= n:
        raise DegenerateMove("perturbation must have order above n")
    unit = TSeries.constant(phi.y.var, 1) + perturb.shift(-n)
    w = nth_root_unit(unit.truncated(phi.trunc), n).shift(1)
    ident = TSeries.monomial(w.var, 1, 1, w.trunc)
    ynew, rho = solve_composition([phi.y, ident], w)
    return Parametrization(n, ynew), rho


def eliminate_term(phi: Parametrization, j: int):
    """Remove the t**j term of the y-series; returns (new branch, MoveRecord).

    With L the coefficient at m, a move of size c changes the coefficient at
    j by c * L**b (q-move) or by -c * (m/n) * L**b (p-move): the first-order
    term of Y(w(t)) = y(t), whose c**2 terms land above j because
    (b-1)*m > n.  So c is solved in closed form and the move is applied
    once; a p-move's parameter change comes out of the same solve as the
    new branch and is always logged.  The result is verified to vanish at j
    with everything below j untouched.
    """
    n = phi.n
    y = phi.y
    m = _first_offgrid_exponent(phi)
    a, b = rep_nm(j + n, n, m)
    if a < 0:
        raise NotRemovable(f"{j} + {n} is not in <{n}, {m}>")
    if a == 0 and b <= 1:
        raise DegenerateMove(f"no move exists for exponent {j}")
    slope = y.terms[m] ** b
    if a == 0:
        slope *= Fraction(-m, n)
    c = -y.terms.get(j, Fraction(0)) / slope
    kind = "q" if a else "p"
    new, rho = MoveRecord(kind, a, b, c, j, None).apply(phi)
    if j >= new.trunc:
        raise PrecisionExhausted(
            f"move at {j} leaves the series known only below {new.trunc}"
        )
    if new.y.terms.get(j):
        raise CrossCheckFailed(f"move failed to kill the coefficient at {j}")
    if not new.y.agrees_with(y, below=j):
        raise CrossCheckFailed(f"move at {j} disturbed lower-order coefficients")
    return new, MoveRecord(kind, a, b, c, j, rho)


def _first_offgrid_exponent(phi: Parametrization) -> int:
    """Smallest y-exponent not divisible by n (= the first characteristic one)."""
    n = phi.n
    m = min((e for e in phi.y.terms if e % n), default=None)
    if m is None:
        if phi.exact:
            raise NotPrimitive("every exponent is divisible by the multiplicity")
        raise PrecisionExhausted(
            f"no exponent coprime to {n} below the truncation {phi.trunc}"
        )
    return m


def _route(phi: Parametrization, n: int, m: int):
    """(s, c) from reducing omega = m*y*dx - n*x*dy along a branch of K(n, m):
    s = v - n at the first value v of omega outside <n, m>, and c what the
    sweep leaves at its smallest survivor s; (None, None) once v >= mu, for
    a branch equivalent to y**n = x**m.

    Per n*dt, omega is sum (m - j)*a_j*t**(j+n-1), and a lead of value
    v = a*n + b*m is cancelled by x**(a-1)*y**b*dx = t**(n*a-1)*y**b, or by
    d(y**b) when a = 0.  Nothing below mu depends on y past t**mu.
    """
    mu = _conductor(n, m)
    y = phi.with_trunc(_working_bound(n, m)).y.truncated(mu)
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
    work = phi.with_trunc(bound)
    scale = 1 / work.y.coeff(m)
    cur = Parametrization(n, work.y.scale(scale))
    moves = []
    for j in range(n + 1, bound):
        if j == m or not cur.y.terms.get(j) or rep_nm(j + n, n, m)[0] < 0:
            continue
        cur, record = eliminate_term(cur, j)
        moves.append(record)
    if cur.trunc <= mu - n - 1:
        raise CrossCheckFailed(
            f"working precision dropped to {cur.trunc}, below the survivor range"
        )
    survivors = {j: c for j, c in cur.y.terms.items() if j > m}
    if any(j > mu - n - 1 for j in survivors):
        raise CrossCheckFailed("a surviving exponent exceeds the certified range")
    lam, coeff = min(survivors.items(), default=(None, None))
    if _route(phi, n, m) != (lam, coeff):
        raise CrossCheckFailed(f"the route disagrees with the sweep's invariant {lam}")
    wy, s, c = phi.y, lam, coeff
    while s is not None:
        wy = wy - TSeries.monomial(wy.var, s, c / scale, wy.trunc)
        done, (s, c) = s, _route(Parametrization(n, wy), n, m)
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
    return _route(phi, n1, m1)[0] is None


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
        need = max(cd.char_exponents[-1] + 1, _conductor(n1, m1) * e1 + 2 * cd.mult)
        if phi.trunc < need:
            raise PrecisionExhausted(
                f"branch known below {phi.trunc}, need {need}", needed=need
            )
    divisible = {}
    for e, c in phi.y.terms.items():
        if e < beta2:
            if e % e1:
                raise CrossCheckFailed(
                    f"exponent {e} below beta_2 = {beta2} is not divisible by {e1}"
                )
            divisible[e // e1] = c
    return Parametrization(n1, TSeries(phi.y.var, divisible, EXACT))


def zariski_invariant(phi: Parametrization) -> ZariskiResult:
    """The Zariski invariant of a primitive transversal branch, with witness.

    Reduce, then lift: the sweep runs on the genus-one reduced branch; at
    genus >= 2 its smallest surviving slot k gives lambda = e1*k when e1*k
    stays below beta_2, and lambda = beta_2 otherwise.  Every finite result
    is cross-checked by the witness's intersection with the branch, counted
    independently of the sweep by the conjugate scan of `intersection`.
    """
    cd = char_sequence(phi)
    result = genus1_reduce(_reduced_branch(phi, cd))
    if cd.genus >= 2:
        beta2 = cd.char_exponents[2]
        e1 = cd.gcd_sequence[1]
        if result.finite and e1 * result.exponent < beta2:
            lam, coeff = e1 * result.exponent, result.coefficient
        else:
            lam = beta2
            coeff = phi.y.coeff(beta2) / phi.y.coeff(cd.char_exponents[1])
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
    m = cd.char_exponents[1]
    if result.coefficient == 0:
        raise CrossCheckFailed("finite invariant with zero leading coefficient")
    defect = _invariant_defect(lam, cd)
    if defect:
        raise CrossCheckFailed(defect)
    if cd.genus >= 2 and lam == cd.char_exponents[2]:
        expected = cd.generators[2]
    else:
        expected = (cd.reduced_mult - 1) * m + lam
    observed = intersection(result.witness, phi)
    if observed != expected:
        raise CrossCheckFailed(
            f"witness intersection {observed} differs from the predicted {expected}"
        )


def _invariant_defect(lam: int, cd: CharData):
    """Why lam cannot be the Zariski invariant of a branch of class cd, or
    None: it must exceed beta_1, stay at or below beta_2 at genus >= 2, and
    lam + n must lie outside the semigroup of values."""
    beta = cd.char_exponents
    if not lam > beta[1]:
        return f"invariant {lam} does not exceed beta_1 = {beta[1]}"
    if cd.genus >= 2 and lam > beta[2]:
        return f"invariant {lam} exceeds beta_2 = {beta[2]}"
    if contains(lam + cd.mult, cd):
        return f"{lam} + {cd.mult} lies in the semigroup of values"
    return None


def replay_moves(phi: Parametrization, result: ZariskiResult) -> Parametrization:
    """Re-run a logged reduction on the branch it was recorded on, the
    reduced branch of phi, verifying each step.

    Applies the recorded scale and moves.  Each logged parameter change rho
    is checked against the definition of its move, without the composition
    solve that produced it: rho(u) = u + O(u**2), and x + c*y**(b-1) along
    the branch before the move, at t = rho(u), is exactly u**n.
    """
    cd = char_sequence(phi)
    n = cd.reduced_mult
    work = _reduced_branch(phi, cd).with_trunc(_working_bound(n, cd.reduced_first))
    cur = Parametrization(n, work.y.scale(result.leading_scale))
    for record in result.moves:
        before = cur
        cur, _ = record.apply(cur)
        if record.kind == "q":
            continue
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

    Needs contact > lambda/n, or intersection strictly above
    n' * ((n1 - 1) * m + lambda) / n1; then lambda' = n' * lambda / n.  A
    lambda that no branch of the class cd_f can have is refused first.
    """
    if (contact_order is None) == (intersection_value is None):
        raise AmbiguousEvidence("provide exactly one of contact_order/intersection_value")
    defect = _invariant_defect(lambda_f, cd_f)
    if defect:
        raise NotAnInvariant(f"{defect}: not an invariant of K{cd_f.char_exponents}")
    n = cd_f.mult
    m = cd_f.char_exponents[1]
    n1 = cd_f.reduced_mult
    if contact_order is not None:
        if not Fraction(contact_order) > Fraction(lambda_f, n):
            raise HypothesisNotMet(
                f"contact {contact_order} does not exceed {Fraction(lambda_f, n)}"
            )
    else:
        threshold = Fraction(other_mult * ((n1 - 1) * m + lambda_f), n1)
        if not Fraction(intersection_value) > threshold:
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
