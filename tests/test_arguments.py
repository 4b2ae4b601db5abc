"""The argument contract: every scalar slot of every public callable refuses
every wrong value of its kind.

TABLE is the one place that says which scalar slot of which public
callable takes which kind; `series` is the one place that decides what
each kind accepts (README, "Arguments").  Each row is a call that
succeeds with its slots' valid values; each wrong value of a slot's kind,
put into that slot alone, must make the call raise a typed error that the
CLI maps to exit code 3.  Plain enumeration: one test per row, looping over
its slots and values.
"""

from collections.abc import Hashable
from fractions import Fraction as F

import pytest

import planebranch
from planebranch import cli
from planebranch.errors import PlaneBranchError
from planebranch.expansion import zariski_decomposition
from planebranch.geometry import (
    ContactOrder,
    Parametrization,
    contact_from_intersection,
    implicitize,
    intersection_from_contact,
    puiseux_parametrization,
    swap_parametrization,
)
from planebranch.semigroup import CharData, char_sequence, contains, standard_rep
from planebranch.series import BivarPoly, TSeries, nth_root_unit, substitute
from planebranch.zariski import (
    apply_pmove,
    apply_qmove,
    eliminate_term,
    infer_zariski,
    is_in_b,
    zariski_invariant,
)

# the wrong values, tried in every slot, and the odd ones earlier refusal
# rows used
POOL = (True, False, 1.5, 2.0, "2", None, -1, 0, F(1, 2), [], "x", "1/0", "nan", "")

# kind: the values of POOL it accepts; every other value is wrong.  A kind
# ending in "?" also accepts None, the default of its slot; "exponent key"
# is an exponent as the key of a map, which no caller can make a list
ACCEPTS = {
    "positive": (),
    "positive?": (None,),
    "natural": (0,),
    "int": (-1, 0),
    "rational": ("2", -1, 0, F(1, 2)),
    # a contact order: a rational >= 1
    "contact": ("2",),
    # an exponent of TSeries(...), BivarPoly(...) or their monomials
    "exponent": (2.0, 0),
    "tag": ("2", "x", "1/0", "nan"),
}

K23 = CharData.from_char_exponents((2, 3))
K467 = CharData.from_char_exponents((4, 6, 7))
SERIES = TSeries("t", {1: 1, 2: 3}, 5)
POLY = BivarPoly({(0, 2): 1, (3, 0): -1})
CUSP = Parametrization.from_pairs(2, [(3, 1)])
TRUNCATED_CUSP = Parametrization.from_pairs(2, [(3, 1)], trunc=8)
QUARTIC = Parametrization.from_pairs(4, [(7, 1), (10, 1), (12, 1)])


def _decompose(lam):
    result = zariski_invariant(QUARTIC)
    return zariski_decomposition(implicitize(QUARTIC), result.witness, char_sequence(QUARTIC), lam)


# name: (call, {slot: (kind, valid value)}); the call takes its slots as
# keywords.  A name of planebranch.__all__ is covered by its own row or by
# a row "name.method"
TABLE = {
    "TSeries": (
        lambda var, e, c, trunc: TSeries(var, {e: c}, trunc),
        {"var": ("tag", "t"), "e": ("exponent key", 1), "c": ("rational", 3),
         "trunc": ("positive", 5)},
    ),
    "TSeries.zero": (
        lambda var, trunc: TSeries.zero(var, trunc),
        {"var": ("tag", "u"), "trunc": ("positive", 5)},
    ),
    "TSeries.constant": (
        lambda var, c, trunc: TSeries.constant(var, c, trunc),
        {"var": ("tag", "t"), "c": ("rational", 3), "trunc": ("positive", 5)},
    ),
    "TSeries.monomial": (
        lambda var, e, c, trunc: TSeries.monomial(var, e, c, trunc),
        {"var": ("tag", "t"), "e": ("exponent", 2), "c": ("rational", 3),
         "trunc": ("positive", 5)},
    ),
    "TSeries.coeff": (lambda e: SERIES.coeff(e), {"e": ("natural", 2)}),
    "TSeries.shift": (lambda k: SERIES.shift(k), {"k": ("int", 1)}),
    "TSeries.truncated": (lambda bound: SERIES.truncated(bound), {"bound": ("positive", 3)}),
    "TSeries.scale": (lambda c: SERIES.scale(c), {"c": ("rational", 2)}),
    "TSeries.__pow__": (lambda k: SERIES ** k, {"k": ("natural", 2)}),
    "BivarPoly": (
        lambda i, j, c: BivarPoly({(i, j): c}),
        {"i": ("exponent key", 1), "j": ("exponent key", 2), "c": ("rational", 3)},
    ),
    "BivarPoly.monomial": (
        lambda i, j, c: BivarPoly.monomial(i, j, c),
        {"i": ("exponent", 1), "j": ("exponent", 2), "c": ("rational", 3)},
    ),
    "BivarPoly.coeff": (lambda i, j: POLY.coeff(i, j), {"i": ("natural", 3), "j": ("natural", 0)}),
    "BivarPoly.scale": (lambda c: POLY.scale(c), {"c": ("rational", 2)}),
    "BivarPoly.__pow__": (lambda k: POLY ** k, {"k": ("natural", 2)}),
    "Parametrization": (
        lambda n: Parametrization(n, TSeries("t", {3: 1}, 10)), {"n": ("positive", 2)},
    ),
    "Parametrization.from_pairs": (
        lambda n, trunc: Parametrization.from_pairs(n, [(3, 1)], trunc),
        {"n": ("positive", 2), "trunc": ("positive", 8)},
    ),
    "Parametrization.with_trunc": (
        lambda bound: TRUNCATED_CUSP.with_trunc(bound), {"bound": ("positive", 5)},
    ),
    "Parametrization.with_trunc/exact": (
        lambda bound: CUSP.with_trunc(bound), {"bound": ("positive", 5)},
    ),
    "ContactOrder.finite": (lambda theta: ContactOrder.finite(theta), {"theta": ("contact", 2)}),
    "CharData.from_char_exponents": (
        lambda b: CharData.from_char_exponents((4, 6, b)), {"b": ("int", 7)},
    ),
    "apply_qmove": (
        lambda a, b, c: apply_qmove(TRUNCATED_CUSP, a, b, c),
        {"a": ("int", 1), "b": ("natural", 1), "c": ("rational", 1)},
    ),
    "apply_pmove": (
        lambda b, c: apply_pmove(TRUNCATED_CUSP, b, c), {"b": ("int", 2), "c": ("rational", 1)},
    ),
    "eliminate_term": (
        lambda j: eliminate_term(Parametrization.from_pairs(3, [(4, 1), (5, 1)], trunc=12), j),
        {"j": ("int", 5)},
    ),
    "contact_from_intersection": (
        lambda inter, mult: contact_from_intersection(K467, inter, mult),
        {"inter": ("rational", 10), "mult": ("positive", 2)},
    ),
    "intersection_from_contact": (
        lambda theta, mult: intersection_from_contact(K23, theta, mult),
        {"theta": ("contact", 2), "mult": ("positive", 2)},
    ),
    # 7 is an invariant of K(4,6,7), and contact 2 exceeds 7/4
    "infer_zariski": (
        lambda lam, mult, theta: infer_zariski(K467, lam, mult, contact_order=theta),
        {"lam": ("int", 7), "mult": ("positive", 4), "theta": ("rational", 2)},
    ),
    "infer_zariski/intersection": (
        lambda inter: infer_zariski(K467, 7, 4, intersection_value=inter),
        {"inter": ("rational", 100)},
    ),
    "contains": (lambda z: contains(z, K467), {"z": ("int", 10)}),
    "standard_rep": (lambda z: standard_rep(z, K467), {"z": ("int", 10)}),
    "is_in_b": (
        lambda n1, m1: is_in_b(CUSP, n1, m1), {"n1": ("positive", 2), "m1": ("positive", 3)},
    ),
    "nth_root_unit": (
        lambda n: nth_root_unit(TSeries("t", {0: 1, 1: 1}, 5), n), {"n": ("positive", 2)},
    ),
    "puiseux_parametrization": (
        lambda trunc: puiseux_parametrization(POLY, trunc), {"trunc": ("positive?", 10)},
    ),
    "swap_parametrization": (
        lambda trunc: swap_parametrization(Parametrization.from_pairs(2, [(3, 1)], 12), trunc),
        {"trunc": ("positive?", 9)},
    ),
    "substitute": (lambda n: substitute(POLY, n, TSeries("t", {1: 1}, 5)), {"n": ("natural", 2)}),
    "zariski_decomposition": (_decompose, {"lam": ("int", 13)}),
}

# the names of planebranch.__all__ that take no scalar argument: the
# constant EXACT, the error class, the records the kernel returns, and the
# functions of branches, series, polynomials and CharData alone
NO_SCALAR = {
    "EXACT", "PlaneBranchError", "ExpansionResult", "MoveRecord", "StandardRep",
    "ZariskiResult", "char_sequence", "contact", "genus1_reduce", "h_adic_expansion",
    "implicitize", "intersection", "intersection_poly_param", "replay_moves",
    "reparametrize", "zariski_invariant",
}


def _wrong(kind: str) -> list:
    """The values of POOL that `kind` does not accept, compared by type as
    well as value: False == 0 and 2.0 == 2."""
    ok = ACCEPTS[kind.removesuffix(" key")]
    wrong = [v for v in POOL if not any(type(v) is type(a) and v == a for a in ok)]
    return [v for v in wrong if isinstance(v, Hashable)] if kind.endswith(" key") else wrong


def test_the_table_covers_every_public_name():
    covered = {name.split(".")[0].split("/")[0] for name in TABLE}
    assert covered.isdisjoint(NO_SCALAR)
    assert covered | NO_SCALAR == set(planebranch.__all__)


@pytest.mark.parametrize("name", TABLE)
def test_every_wrong_scalar_is_refused(name):
    call, slots = TABLE[name]
    valid = {slot: value for slot, (_, value) in slots.items()}
    call(**valid)
    missed = []
    for slot, (kind, _) in slots.items():
        for value in _wrong(kind):
            try:
                result = call(**{**valid, slot: value})
            except PlaneBranchError as exc:
                if cli._exit_code(exc) != cli.EXIT_PRECONDITION:
                    missed.append(f"{slot}={value!r}: {type(exc).__name__}, not exit 3")
            except Exception as exc:  # noqa: BLE001 - an untyped error is the fault
                missed.append(f"{slot}={value!r}: untyped {type(exc).__name__}: {exc}")
            else:
                missed.append(f"{slot}={value!r}: returned {result!r}")
    assert missed == []
