"""Elimination of parametrization terms and the Zariski invariant.

A term t**j of the y-series can be removed by an analytic coordinate change
whenever j + n lies in <n, m>: writing j + n = a*n + b*m, either y is shifted
by c*x**(a-1)*y**b (a >= 1) or x by c*y**(b-1) (a = 0), the latter followed
by the exact parameter change that restores x = t**n.  Sweeping the removable
exponents in increasing order is triangular, so the smallest surviving
exponent with its coefficient is the Zariski invariant; a witness branch
attaining the extremal contact is built by matching coefficients at the
surviving slots.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd

from .errors import (
    CrossCheckFailed,
    DegenerateMove,
    HypothesisNotMet,
    NonIntegralResult,
    NotPrimitive,
    NotRemovable,
    NotTransversal,
    PrecisionExhausted,
    WrongEquisingularityClass,
)
from .geometry import Parametrization, implicitize, intersection_poly_param
from .semigroup import CharData, char_sequence, contains
from .series import (
    EXACT,
    TSeries,
    inverse_parameter,
    nth_root_unit,
    reparametrize,
    solve_composition,
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

    def apply(self, phi: Parametrization):
        """The move applied to phi: (new branch, w), where w is the parameter
        of a p-move (w**n = x + c*y**(b-1) along phi) and None for a q-move."""
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


def _rep_nm(z: int, n: int, m: int):
    """z = a*n + b*m with 0 <= b < n, or None when a < 0 (z outside <n, m>)."""
    b = (z * pow(m, -1, n)) % n
    a = (z - b * m) // n
    return (a, b) if a >= 0 else None


def normalize_leading(phi: Parametrization) -> Parametrization:
    """Scale y so its leading coefficient is exactly 1."""
    lead = phi.y.terms.get(phi.y.known_order())
    if lead == 1:
        return phi
    return Parametrization(phi.n, phi.y.scale(1 / lead))


def apply_qmove(phi: Parametrization, a: int, b: int, c) -> Parametrization:
    """Coordinate change y -> y + c * x**(a-1) * y**b along x = t**n."""
    if a < 1:
        raise DegenerateMove("q-move needs a >= 1")
    add = (phi.y ** b).shift(phi.n * (a - 1)).scale(c)
    return Parametrization(phi.n, phi.y + add)


def apply_pmove(phi: Parametrization, b: int, c):
    """Coordinate change x -> x + c * y**(b-1) and the parameter restoring it.

    Returns (new branch, w) where w(t) is the parameter with w**n = x + c*y**(b-1)
    along the branch; the new y-series Y solves Y(w(t)) = y(t).
    """
    if b < 2:
        raise DegenerateMove("p-move needs b >= 2 (x + c*y**(b-1) with b-1 >= 1)")
    n = phi.n
    if phi.exact:
        raise ValueError("p-move needs a finite working truncation; re-truncate first")
    perturb = (phi.y ** (b - 1)).scale(c)
    if perturb.terms and min(perturb.terms) <= n:
        raise DegenerateMove("perturbation must have order above n")
    unit = TSeries.constant(phi.y.var, 1) + perturb.shift(-n)
    w = nth_root_unit(unit.truncated(phi.trunc), n).shift(1)
    ynew = solve_composition(phi.y, w)
    return Parametrization(n, ynew), w


def eliminate_term(phi: Parametrization, j: int, log_reparam: bool = True):
    """Remove the t**j term of the y-series; returns (new branch, MoveRecord).

    With L the coefficient at m, a move of size c changes the coefficient at
    j by c * L**b (q-move) or by -c * (m/n) * L**b (p-move): the first-order
    term of Y(w(t)) = y(t), whose c**2 terms land above j because
    (b-1)*m > n.  So c is solved in closed form, and the result is verified
    to vanish at j with everything below j untouched.  Internal probe sweeps
    pass log_reparam=False to skip computing the logged parameter change.
    """
    n = phi.n
    y = phi.y
    m = min((e for e in y.terms if e % n), default=None)
    if m is None:
        raise NotPrimitive("series has no exponent coprime to the multiplicity")
    rep = _rep_nm(j + n, n, m)
    if rep is None:
        raise NotRemovable(f"{j} + {n} is not in <{n}, {m}>")
    a, b = rep
    if a == 0 and b <= 1:
        raise DegenerateMove(f"no move exists for exponent {j}")
    slope = y.terms[m] ** b
    if a == 0:
        slope *= Fraction(-m, n)
    c = -y.terms.get(j, Fraction(0)) / slope
    record = MoveRecord("q" if a else "p", a, b, c, j, None)
    new, w = record.apply(phi)
    if w is not None and log_reparam:
        record = replace(record, reparametrization=inverse_parameter(w))
    if new.y.terms.get(j):
        raise CrossCheckFailed(f"move failed to kill the coefficient at {j}")
    if not new.y.agrees_with(y, below=j):
        raise CrossCheckFailed(f"move at {j} disturbed lower-order coefficients")
    return new, record


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


def _sweep(phi: Parametrization, n: int, m: int, bound: int, log_reparam: bool = True):
    """Normalize at m, then eliminate every removable exponent below bound."""
    work = phi.with_trunc(bound)
    scale = 1 / work.y.coeff(m)
    cur = Parametrization(n, work.y.scale(scale))
    moves = []
    for j in range(n + 1, bound):
        if j == m or not cur.y.terms.get(j):
            continue
        if _rep_nm(j + n, n, m) is None:
            continue
        cur, record = eliminate_term(cur, j, log_reparam)
        moves.append(record)
    return cur, moves, scale


def genus1_reduce(phi: Parametrization) -> ZariskiResult:
    """Full elimination for a branch whose class is K(n, m) with gcd = 1.

    Sweeps the removable exponents upward; surviving exponents j satisfy
    j + n outside <n, m> and live below conductor - n, so the smallest one
    (with its coefficient) is the Zariski invariant, and none surviving
    certifies equivalence to y**n = x**m.
    """
    n = phi.n
    o = phi.y.order()
    if not o.known:
        if phi.exact:
            raise NotTransversal("y-component is identically zero")
        raise PrecisionExhausted(f"y-component vanishes below {phi.trunc}")
    if o.value <= n:
        raise NotTransversal(f"ord(y) = {o.value} must exceed n = {n}")
    m = _first_offgrid_exponent(phi)
    if gcd(n, m) != 1:
        raise WrongEquisingularityClass(
            f"gcd({n}, {m}) = {gcd(n, m)}: not a genus-one class"
        )
    mu = (n - 1) * (m - 1)
    bound = mu + 2 * n
    cur, moves, scale = _sweep(phi, n, m, bound)
    if cur.trunc <= mu - n - 1:
        raise CrossCheckFailed(
            f"working precision dropped to {cur.trunc}, below the survivor range"
        )
    survivors = {j: c for j, c in cur.y.terms.items() if j > m}
    if any(j > mu - n - 1 for j in survivors):
        raise CrossCheckFailed("a surviving exponent exceeds the certified range")
    if survivors:
        lam = min(survivors)
        witness = _force_into_b(phi, n, m, bound)
        return ZariskiResult(lam, survivors[lam], witness, cur, tuple(moves), scale)
    return ZariskiResult(None, None, phi, cur, tuple(moves), scale)


def _force_into_b(phi: Parametrization, n: int, m: int, bound: int) -> Parametrization:
    """Adjust the surviving slots of the branch until it reduces to (t^n, t^m).

    Each surviving slot responds affinely and triangularly to its own
    coefficient, with slope equal to the normalization scale; the final
    sweep verifies the construction outright.  The coefficient at slot s
    depends only on the moves below s, and only the b = 2 p-move loses
    precision (n - 1 orders, once per sweep), so a sweep to s + 2n still
    knows s.
    """
    mu = (n - 1) * (m - 1)
    slots = [
        j for j in range(m + 1, mu - n) if _rep_nm(j + n, n, m) is None
    ]
    wy = phi.y
    response = 1 / phi.y.coeff(m)
    for s in slots:
        depth = min(bound, s + 2 * n)
        reduced, _, _ = _sweep(Parametrization(n, wy), n, m, depth, log_reparam=False)
        coeff = reduced.y.coeff(s)
        if not coeff:
            continue
        wy = wy - TSeries.monomial(wy.var, s, coeff / response, wy.trunc)
    final, _, _ = _sweep(Parametrization(n, wy), n, m, bound, log_reparam=False)
    if any(j > m for j in final.y.terms):
        raise CrossCheckFailed("witness construction left a surviving exponent")
    return Parametrization(n, wy)


def is_in_b(phi: Parametrization, n1: int, m1: int) -> bool:
    """Membership in the family of branches equivalent to y**n1 = x**m1."""
    cd = char_sequence(phi)
    if cd.char_exponents != (n1, m1):
        raise WrongEquisingularityClass(
            f"branch lies in K{cd.char_exponents}, not K({n1}, {m1})"
        )
    bound = (n1 - 1) * (m1 - 1) + 2 * n1
    cur, _, _ = _sweep(phi, n1, m1, bound, log_reparam=False)
    return all(j <= m1 for j in cur.y.terms)


def zariski_invariant(phi: Parametrization) -> ZariskiResult:
    """The Zariski invariant of a primitive transversal branch, with witness.

    Genus one reduces directly.  For genus >= 2 the e1-divisible part of
    the series below the second characteristic exponent is a genus-one
    branch; its smallest surviving slot k gives lambda = e1*k when e1*k
    stays below beta_2, and lambda = beta_2 otherwise.  Every result is
    cross-checked through the independent implicitize-and-substitute route.
    """
    cd = char_sequence(phi)
    n = cd.mult
    m = cd.char_exponents[1]
    if cd.genus == 1:
        result = genus1_reduce(phi)
        n1 = n
    else:
        beta2 = cd.char_exponents[2]
        e1 = cd.gcd_sequence[1]
        n1, m1 = cd.reduced_mult, cd.reduced_first
        if not phi.exact:
            need = max(
                cd.char_exponents[-1] + 1,
                (n1 - 1) * (m1 - 1) * e1 + 2 * n,
            )
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
        reduced_branch = Parametrization(n1, TSeries(phi.y.var, divisible, EXACT))
        rr = genus1_reduce(reduced_branch)
        if rr.finite and e1 * rr.exponent < beta2:
            lam, coeff = e1 * rr.exponent, rr.coefficient
        else:
            lam = beta2
            coeff = phi.y.coeff(beta2) / phi.y.coeff(m)
        result = ZariskiResult(
            lam, coeff, rr.witness, rr.normal_form, rr.moves, rr.leading_scale
        )
    _verify_result(phi, cd, result, n1)
    return result


def _verify_result(phi, cd: CharData, result: ZariskiResult, n1: int):
    """Independent checks of a finite result.  The witness's membership in
    the family of y**n1 = x**m1 was certified by the sweep that built it."""
    if not result.finite:
        return
    lam = result.exponent
    n = cd.mult
    m = cd.char_exponents[1]
    if result.coefficient == 0:
        raise CrossCheckFailed("finite invariant with zero leading coefficient")
    if contains(lam + n, cd):
        raise CrossCheckFailed(f"{lam} + {n} lies in the semigroup of values")
    if not lam > m:
        raise CrossCheckFailed(f"invariant {lam} does not exceed {m}")
    if cd.genus >= 2 and lam > cd.char_exponents[2]:
        raise CrossCheckFailed(f"invariant {lam} exceeds beta_2")
    if cd.genus >= 2 and lam == cd.char_exponents[2]:
        expected = cd.generators[2]
    else:
        expected = (n1 - 1) * m + lam
    wit = result.witness
    if not wit.exact:
        # the contact with the branch is decided at the invariant's exponent,
        # so the stored terms up to there implicitize to an equivalent check
        keep = {e: c for e, c in wit.y.terms.items() if e <= lam}
        wit = Parametrization(wit.n, TSeries(wit.y.var, keep, EXACT))
    observed = intersection_poly_param(implicitize(wit), phi)
    if observed != expected:
        raise CrossCheckFailed(
            f"witness intersection {observed} differs from the predicted {expected}"
        )


def replay_moves(phi: Parametrization, result: ZariskiResult) -> Parametrization:
    """Re-run a logged reduction on its input branch, verifying each step.

    Applies the recorded scale and moves; for every parameter change the
    logged series is checked to invert the recomputed one exactly.
    """
    n = phi.n
    m = _first_offgrid_exponent(phi)
    mu = (n - 1) * (m - 1)
    work = phi.with_trunc(mu + 2 * n)
    cur = Parametrization(n, work.y.scale(result.leading_scale))
    for record in result.moves:
        cur, w = record.apply(cur)
        if w is None:
            continue
        rho = record.reparametrization
        if rho is None:
            raise CrossCheckFailed(
                f"move at {record.target_exponent} carries no parameter change log"
            )
        roundtrip = reparametrize(w, rho)
        ident = TSeries.monomial(w.var, 1, 1, roundtrip.trunc)
        if not roundtrip.agrees_with(ident):
            raise CrossCheckFailed(
                f"logged parameter change at {record.target_exponent} "
                "does not invert the recomputed one"
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
    n' * ((n1 - 1) * m + lambda) / n1; then lambda' = n' * lambda / n.
    """
    if (contact_order is None) == (intersection_value is None):
        raise ValueError("provide exactly one of contact_order/intersection_value")
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
