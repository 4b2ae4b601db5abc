"""h-adic expansion and the distinguished-monomial decomposition.

Dividing f repeatedly by a monic h of y-degree n1 writes f as a polynomial
in h with remainders of smaller y-degree.  When h defines a witness branch
with the extremal intersection (n1 - 1) * m + lambda, the bottom remainder
splits into a unique nonzero multiple of x**p * y**q (the monomial of that
weight) plus terms of strictly larger weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BranchesEqual,
    CrossCheckFailed,
    InvalidArgument,
    WitnessMismatch,
    ZeroLeadingC,
)
from .geometry import Parametrization, implicitize, intersection_poly_param
from .semigroup import CharData, rep_nm
from .series import BivarPoly, _check_instance, _is_int


@dataclass(frozen=True)
class ExpansionResult:
    """Decomposition f = h**e1 + sum(A_k h**k, k=1..e1-1) + c x**p y**q + tail.

    `blocks` holds A_0 ... A_{e1-1} as produced by the h-adic expansion
    (A_0 = c x**p y**q + tail); `tail` is A_0 minus the distinguished
    monomial, every monomial of it having n1,m1-weight above p*n1 + q*m1.
    `checks` records the verified equalities.
    """

    blocks: tuple
    c: Fraction
    p: int
    q: int
    tail: BivarPoly
    h: BivarPoly
    checks: dict

    @property
    def distinguished(self) -> BivarPoly:
        return BivarPoly.monomial(self.p, self.q, self.c)


def h_adic_expansion(f: BivarPoly, h: BivarPoly) -> list:
    """Coefficients [A_0, ..., A_d] with f = sum A_k h**k, deg_y A_k < deg_y h."""
    _check_instance(f, BivarPoly, "polynomial")
    _check_instance(h, BivarPoly, "polynomial")
    blocks = []
    cur = f
    d = h.deg_y()
    while not cur.is_zero and cur.deg_y() >= d:
        cur, rem = cur.divmod_monic_y(h)
        blocks.append(rem)
    blocks.append(cur)
    return blocks


def _recombine(blocks, h: BivarPoly) -> BivarPoly:
    acc = BivarPoly.zero()
    for block in reversed(blocks):
        acc = acc * h + block
    return acc


def zariski_decomposition(
    f: BivarPoly,
    h_phi: Parametrization,
    cd_f: CharData,
    lam: int,
) -> ExpansionResult:
    """Decompose f along the witness branch h_phi attaining the invariant.

    Verifies I(f, h_phi) = (n1 - 1) * m + lambda, expands f h-adically,
    reads off (p, q) from the unique weighted representation and the
    coefficient c there, and certifies I(f, h) = I(A_0, h) together with
    the weight bound on the remaining tail.  A lam that is not a finite
    integer, such as the None exponent of an infinite invariant, is
    refused with InvalidArgument.
    """
    if not _is_int(lam):
        raise InvalidArgument(f"lambda {lam!r} is not a finite integer invariant")
    _check_instance(cd_f, CharData, "class")
    n1 = cd_f.reduced_mult
    m1 = cd_f.reduced_first
    e1 = cd_f.gcd_sequence[1]
    m = cd_f.char_exponents[1]
    target = (n1 - 1) * m + lam
    try:
        observed = intersection_poly_param(f, h_phi)
    except BranchesEqual:
        raise WitnessMismatch("witness branch divides f")
    if observed != target:
        raise WitnessMismatch(
            f"I(f, witness) = {observed}, expected (n1-1)*m + lambda = {target}"
        )
    h = implicitize(h_phi)
    if h.deg_y() != n1 or not h.is_monic_in_y():
        raise WitnessMismatch(
            f"witness implicitizes to y-degree {h.deg_y()}, expected monic of degree {n1}"
        )
    p, q = rep_nm(target, n1, m1)
    if p < 0:
        raise WitnessMismatch(
            f"{target} has no representation p*{n1} + q*{m1} with 0 <= q < {n1}"
        )
    blocks = h_adic_expansion(f, h)
    if len(blocks) != e1 + 1 or blocks[e1] != BivarPoly.one():
        raise WitnessMismatch(
            f"h-adic expansion has degree {len(blocks) - 1} with top block "
            f"{blocks[-1]}, expected h**{e1} with top block 1"
        )
    if _recombine(blocks, h) != f:
        raise CrossCheckFailed("h-adic expansion failed to reconstruct f")
    a0 = blocks[0]
    c = a0.coeff(p, q)
    if c == 0:
        raise ZeroLeadingC(f"coefficient of x^{p} y^{q} in A_0 vanishes")
    tail = a0 - BivarPoly.monomial(p, q, c)
    for j, row in tail.rows.items():
        for i in row:
            if i * n1 + j * m1 <= target or j >= n1:
                raise CrossCheckFailed(
                    f"tail monomial x^{i} y^{j} violates the weight bound"
                )
    checks = {
        "intersection_f_h": observed,
        "intersection_a0_h": intersection_poly_param(a0, h_phi),
        "weight": target,
    }
    if checks["intersection_a0_h"] != target:
        raise CrossCheckFailed(
            f"I(A_0, h) = {checks['intersection_a0_h']} differs from {target}"
        )
    if not tail.is_zero:
        tail_order = intersection_poly_param(tail, h_phi)
        checks["intersection_tail_h"] = tail_order
        if tail_order <= target:
            raise CrossCheckFailed(
                f"I(h, tail) = {tail_order} does not exceed {target}"
            )
    return ExpansionResult(tuple(blocks[:e1]), c, p, q, tail, h, checks)
