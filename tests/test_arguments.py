"""The argument contract: every slot of every public callable, a scalar, the
key of a sequence of pairs, a branch, a series, a polynomial, a `CharData`
or a `ZariskiResult`, refuses every wrong value of its kind.

TABLE is the one place that says which slot of which public callable takes
which kind; `series` is the one place that decides what each scalar kind
accepts (README, "Arguments").  Each row is a call that succeeds with its
slots' valid values; each wrong value of a slot's kind, put into that slot
alone, must make the call raise a typed error with exit code 3.  Plain
enumeration: one test per row, looping over its slots and values.
"""

from collections.abc import Hashable
from fractions import Fraction as F

import pytest

import planebranch
from planebranch.errors import PlaneBranchError
from planebranch.expansion import h_adic_expansion, zariski_decomposition
from planebranch.geometry import (
    ContactOrder,
    Parametrization,
    contact,
    contact_from_intersection,
    implicitize,
    intersection,
    intersection_from_contact,
    intersection_poly_param,
    puiseux_parametrization,
    swap_parametrization,
)
from planebranch.semigroup import CharData, char_sequence, contains, standard_rep
from planebranch.series import BivarPoly, TSeries, nth_root_unit, reparametrize, substitute
from planebranch.zariski import (
    ZariskiResult,
    apply_pmove,
    apply_qmove,
    eliminate_term,
    genus1_reduce,
    infer_zariski,
    is_in_b,
    replay_moves,
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
    # an exponent of TSeries(...), BivarPoly(...), their monomials and
    # their sequences of pairs
    "exponent": (2.0, 0),
    "tag": ("2", "x", "1/0", "nan"),
    # a key (i, j) of BivarPoly.from_pairs, a branch, a series, a
    # polynomial, a CharData, a ZariskiResult: no scalar at all
    "monomial": (),
    "branch": (),
    "series": (),
    "polynomial": (),
    "chardata": (),
    "result": (),
}

K23 = CharData.from_char_exponents((2, 3))
K467 = CharData.from_char_exponents((4, 6, 7))
SERIES = TSeries("t", {1: 1, 2: 3}, 5)
UNIT = TSeries("t", {0: 1, 1: 1}, 5)
POLY = BivarPoly({(0, 2): 1, (3, 0): -1})
CUSP = Parametrization.from_pairs(2, [(3, 1)])
TRUNCATED_CUSP = Parametrization.from_pairs(2, [(3, 1)], trunc=8)
QUARTIC = Parametrization.from_pairs(4, [(7, 1), (10, 1), (12, 1)])
# the implicit equation of (t^3, t^7 + t^8), whose invariant 8 the witness
# (t^3, t^7) attains, and the cusp's reduction, which has no moves: written
# out, so that importing the table runs no kernel
K37_EQUATION = BivarPoly({(0, 3): 1, (5, 1): -3, (7, 0): -1, (8, 0): -1})
CUSP_RESULT = ZariskiResult(None, None, CUSP, CUSP, (), F(1))


# name: (call, {slot: (kind, valid value)}); the call takes its slots as
# keywords, so most rows name the callable itself.  A name of
# planebranch.__all__ is covered by its own row or by a row "name.method"
TABLE = {
    "TSeries": (
        lambda var, e, c, trunc: TSeries(var, {e: c}, trunc),
        {"var": ("tag", "t"), "e": ("exponent key", 1), "c": ("rational", 3),
         "trunc": ("positive", 5)},
    ),
    "TSeries.zero": (TSeries.zero, {"var": ("tag", "u"), "trunc": ("positive", 5)}),
    "TSeries.constant": (
        TSeries.constant,
        {"var": ("tag", "t"), "value": ("rational", 3), "trunc": ("positive", 5)},
    ),
    "TSeries.from_terms": (
        lambda var, e, c, trunc: TSeries.from_terms(var, [(e, c)], trunc),
        {"var": ("tag", "t"), "e": ("exponent", 1), "c": ("rational", 3),
         "trunc": ("positive", 5)},
    ),
    "TSeries.monomial": (
        TSeries.monomial,
        {"var": ("tag", "t"), "exponent": ("exponent", 2), "value": ("rational", 3),
         "trunc": ("positive", 5)},
    ),
    "TSeries.coeff": (SERIES.coeff, {"exponent": ("natural", 2)}),
    "TSeries.shift": (SERIES.shift, {"offset": ("int", 1)}),
    "TSeries.truncated": (SERIES.truncated, {"bound": ("positive", 3)}),
    "TSeries.scale": (SERIES.scale, {"value": ("rational", 2)}),
    "TSeries.__pow__": (SERIES.__pow__, {"k": ("natural", 2)}),
    "TSeries.__add__": (SERIES.__add__, {"other": ("series", UNIT)}),
    "TSeries.__sub__": (SERIES.__sub__, {"other": ("series", UNIT)}),
    "TSeries.__mul__": (SERIES.__mul__, {"other": ("series", UNIT)}),
    "TSeries.agrees_with": (SERIES.agrees_with, {"other": ("series", UNIT)}),
    "BivarPoly": (
        lambda i, j, c: BivarPoly({(i, j): c}),
        {"i": ("exponent key", 1), "j": ("exponent key", 2), "c": ("rational", 3)},
    ),
    "BivarPoly.monomial": (
        BivarPoly.monomial, {"i": ("exponent", 1), "j": ("exponent", 2), "c": ("rational", 3)},
    ),
    "BivarPoly.from_pairs": (
        lambda i, j, c: BivarPoly.from_pairs([((i, j), c)]),
        {"i": ("exponent", 1), "j": ("exponent", 2), "c": ("rational", 3)},
    ),
    "BivarPoly.from_pairs/key": (
        lambda key: BivarPoly.from_pairs([(key, 1)]), {"key": ("monomial", (1, 2))},
    ),
    "BivarPoly.coeff": (POLY.coeff, {"i": ("natural", 3), "j": ("natural", 0)}),
    "BivarPoly.scale": (POLY.scale, {"value": ("rational", 2)}),
    "BivarPoly.__pow__": (POLY.__pow__, {"k": ("natural", 2)}),
    "BivarPoly.__add__": (POLY.__add__, {"other": ("polynomial", K37_EQUATION)}),
    "BivarPoly.__sub__": (POLY.__sub__, {"other": ("polynomial", K37_EQUATION)}),
    "BivarPoly.__mul__": (POLY.__mul__, {"other": ("polynomial", K37_EQUATION)}),
    "BivarPoly.divmod_monic_y": (K37_EQUATION.divmod_monic_y, {"divisor": ("polynomial", POLY)}),
    "Parametrization": (
        Parametrization, {"n": ("positive", 2), "y": ("series", TSeries("t", {3: 1}, 10))},
    ),
    "Parametrization.from_pairs": (
        lambda n, e, c, trunc: Parametrization.from_pairs(n, [(e, c)], trunc),
        {"n": ("positive", 2), "e": ("exponent", 3), "c": ("rational", 1),
         "trunc": ("positive", 8)},
    ),
    "Parametrization.with_trunc": (TRUNCATED_CUSP.with_trunc, {"bound": ("positive", 5)}),
    "Parametrization.with_trunc/exact": (CUSP.with_trunc, {"bound": ("positive", 5)}),
    "Parametrization.same_branch": (CUSP.same_branch, {"other": ("branch", CUSP)}),
    "ContactOrder.finite": (ContactOrder.finite, {"theta": ("contact", 2)}),
    "CharData.from_char_exponents": (
        lambda b: CharData.from_char_exponents((4, 6, b)), {"b": ("int", 7)},
    ),
    "apply_qmove": (
        apply_qmove,
        {"phi": ("branch", TRUNCATED_CUSP), "a": ("int", 1), "b": ("natural", 1),
         "c": ("rational", 1)},
    ),
    "apply_pmove": (
        apply_pmove, {"phi": ("branch", TRUNCATED_CUSP), "b": ("int", 2), "c": ("rational", 1)},
    ),
    "eliminate_term": (
        eliminate_term,
        {"phi": ("branch", Parametrization.from_pairs(3, [(4, 1), (5, 1)], trunc=12)),
         "j": ("int", 5)},
    ),
    "contact_from_intersection": (
        contact_from_intersection,
        {"cd": ("chardata", K467), "inter": ("rational", 10), "mult_other": ("positive", 2)},
    ),
    "intersection_from_contact": (
        intersection_from_contact,
        {"cd": ("chardata", K23), "theta": ("contact", 2), "mult_other": ("positive", 2)},
    ),
    # 7 is an invariant of K(4,6,7), and contact 2 exceeds 7/4
    "infer_zariski": (
        infer_zariski,
        {"cd_f": ("chardata", K467), "lambda_f": ("int", 7), "other_mult": ("positive", 4),
         "contact_order": ("rational", 2)},
    ),
    "infer_zariski/intersection": (
        lambda inter: infer_zariski(K467, 7, 4, intersection_value=inter),
        {"inter": ("rational", 100)},
    ),
    "contains": (contains, {"z": ("int", 10), "cd": ("chardata", K467)}),
    "standard_rep": (standard_rep, {"z": ("int", 10), "cd": ("chardata", K467)}),
    "char_sequence": (char_sequence, {"phi": ("branch", CUSP)}),
    "genus1_reduce": (genus1_reduce, {"phi": ("branch", CUSP)}),
    "zariski_invariant": (zariski_invariant, {"phi": ("branch", CUSP)}),
    "is_in_b": (
        is_in_b, {"phi": ("branch", CUSP), "n1": ("positive", 2), "m1": ("positive", 3)},
    ),
    "replay_moves": (replay_moves, {"phi": ("branch", CUSP), "result": ("result", CUSP_RESULT)}),
    "nth_root_unit": (nth_root_unit, {"s": ("series", UNIT), "n": ("positive", 2)}),
    "reparametrize": (
        reparametrize,
        {"s": ("series", SERIES), "rho": ("series", TSeries("t", {1: 1, 2: 1}, 5))},
    ),
    "puiseux_parametrization": (
        puiseux_parametrization, {"f": ("polynomial", POLY), "trunc": ("positive?", 10)},
    ),
    "swap_parametrization": (
        swap_parametrization,
        {"phi": ("branch", Parametrization.from_pairs(2, [(3, 1)], 12)),
         "trunc": ("positive?", 9)},
    ),
    "implicitize": (implicitize, {"phi": ("branch", CUSP)}),
    "intersection_poly_param": (
        intersection_poly_param, {"f": ("polynomial", POLY), "phi": ("branch", QUARTIC)},
    ),
    "intersection": (intersection, {"phi1": ("branch", CUSP), "phi2": ("branch", QUARTIC)}),
    "contact": (contact, {"phi1": ("branch", CUSP), "phi2": ("branch", QUARTIC)}),
    "substitute": (
        substitute,
        {"poly": ("polynomial", POLY), "n": ("natural", 2), "y": ("series", SERIES)},
    ),
    "h_adic_expansion": (h_adic_expansion, {"f": ("polynomial", POLY), "h": ("polynomial", POLY)}),
    "zariski_decomposition": (
        zariski_decomposition,
        {"f": ("polynomial", K37_EQUATION),
         "h_phi": ("branch", Parametrization.from_pairs(3, [(7, 1)])),
         "cd_f": ("chardata", CharData.from_char_exponents((3, 7))), "lam": ("int", 8)},
    ),
}

# the names of planebranch.__all__ that have no row, since they are not
# functions: the constant EXACT, the error class and the records the kernel
# returns
NO_SCALAR = {
    "EXACT", "PlaneBranchError", "ExpansionResult", "MoveRecord", "StandardRep", "ZariskiResult",
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
                if exc.exit_code != 3:
                    missed.append(f"{slot}={value!r}: {type(exc).__name__}, not exit 3")
            except Exception as exc:  # noqa: BLE001 - an untyped error is the fault
                missed.append(f"{slot}={value!r}: untyped {type(exc).__name__}: {exc}")
            else:
                missed.append(f"{slot}={value!r}: returned {result!r}")
    assert missed == []
