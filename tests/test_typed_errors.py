"""Every kernel precondition and internal check raises a typed error.

A bad argument raises `InvalidArgument`, whose exit code is 3 and which
stays a `ValueError`; other violated preconditions have their own classes,
also exit code 3; a broken internal invariant raises `CrossCheckFailed`
(exit code 6).  Each class carries the exit code of its family.
"""

from dataclasses import replace
from fractions import Fraction as F

import pytest

from planebranch.errors import (
    BranchFileError,
    CrossCheckFailed,
    HypothesisNotMet,
    InvalidArgument,
    InvalidParameterChange,
    NeedsTruncation,
    NonPolynomialInput,
    NotPrimitive,
    NotRealizable,
    NotSingular,
    NotTransversal,
    NotWeierstrass,
    PlaneBranchError,
    PrecisionExhausted,
    WrongEquisingularityClass,
)
from planebranch.geometry import (
    ContactOrder,
    Parametrization,
    contact,
    implicitize,
    puiseux_parametrization,
)
from planebranch.semigroup import CharData, char_sequence, standard_rep
from planebranch.series import (
    EXACT,
    BivarPoly,
    TSeries,
    exact_root,
    ratio,
    reparametrize,
    solve_composition,
)
from planebranch.expansion import zariski_decomposition
from planebranch.zariski import eliminate_term, zariski_invariant
from test_arguments import K467, TABLE

# calls the generated table of tests/test_arguments.py cannot make: ratio and
# exact_root are not public, shift(-2) is refused for its result, a key of
# BivarPoly is refused whole, CharData.from_char_exponents refuses a whole
# sequence, and TSeries and BivarPoly refuse a list for their map of terms
BAD_ARGUMENTS = {
    "ratio": lambda: ratio(1.5),
    "ratio-bad-string": lambda: ratio("x"),
    "ratio-zero-denominator": lambda: ratio("1/0"),
    "shift": lambda: TSeries("t", {1: 1}, 5).shift(-2),
    "exact-root-index": lambda: exact_root(F(4), 0),
    "exact-root-string-index": lambda: exact_root(F(4), "2"),
    "bivar-string-monomial": lambda: BivarPoly({"ab": 1}),
    "bivar-three-exponents": lambda: BivarPoly({(1, 2, 3): 1}),
    "char-exponents-not-characteristic": lambda: CharData.from_char_exponents((4, 6, 8)),
    # (4, 6, 5) and (4, 6, 3) were read as classes with a decreasing sequence
    "char-exponents-decreasing": lambda: CharData.from_char_exponents((4, 6, 5)),
    "char-exponents-below-beta-1": lambda: CharData.from_char_exponents((4, 6, 3)),
    # tuple(beta) raised an untyped TypeError
    "char-exponents-missing": lambda: CharData.from_char_exponents(None),
    "char-exponents-int": lambda: CharData.from_char_exponents(7),
    "tseries-list-terms": lambda: TSeries("t", [1, 2], 5),
    "bivar-list-terms": lambda: BivarPoly([((0, 2), 1), ((3, 0), -1)]),
}

# the older rows whose calls the table makes, under their names, by the row
# and slot of TABLE that they fill: {(row, slot): {name: wrong value}}
GENERATED = {
    ("TSeries", "trunc"): {"tseries-trunc": 0, "tseries-bool-trunc": True},
    ("TSeries", "e"): {"tseries-exponent": -1, "tseries-fractional-exponent": F(1, 2),
                       "tseries-string-exponent": "a"},
    ("TSeries.shift", "offset"): {"shift-bool": True},
    ("TSeries.__pow__", "k"): {"tseries-pow": -1, "tseries-float-pow": 2.0,
                               "tseries-bool-pow": True},
    ("BivarPoly", "i"): {"bivar-exponent": -1, "bivar-fractional-exponent": 1.5},
    ("BivarPoly", "j"): {"bivar-fractional-y-exponent": F(27, 10)},
    ("BivarPoly.__pow__", "k"): {"bivar-pow": -1, "bivar-fractional-pow": F(1, 2),
                                 "bivar-bool-pow": True},
    ("BivarPoly.scale", "value"): {"bivar-scale-bad-string": "nan"},
    ("Parametrization", "n"): {"parametrization-multiplicity-0": 0,
                               "char-sequence-multiplicity": 0,
                               "parametrization-string-multiplicity": "4",
                               "parametrization-bool-multiplicity": True},
    ("Parametrization", "y"): {"parametrization-dict-y": {3: 1}},
    ("Parametrization.from_pairs", "n"): {"parametrization-from-pairs-float-multiplicity": 2.5},
    # (2, 3.7) was read as K(2, 3)
    ("CharData.from_char_exponents", "b"): {"char-exponents-float": 3.7,
                                            "char-exponents-string": "7",
                                            "char-exponents-bool": True},
    ("nth_root_unit", "n"): {"nth-root-index": 0, "nth-root-string-index": "2"},
    ("substitute", "n"): {"substitute-negative-n": -1, "substitute-fractional-n": 1.5,
                          "substitute-bool-n": True},
    ("contact_from_intersection", "inter"): {"contact-from-intersection-bad-string": "x"},
    ("contact_from_intersection", "mult_other"): {"contact-from-intersection-multiplicity-0": 0},
    ("intersection_from_contact", "mult_other"): {"intersection-from-contact-multiplicity-0": 0},
    ("infer_zariski", "contact_order"): {"infer-bad-contact-string": "x"},
    ("infer_zariski/intersection", "inter"): {"infer-bad-intersection-string": "x"},
    ("infer_zariski", "other_mult"): {"infer-multiplicity-0": 0},
    ("infer_zariski", "lambda_f"): {"infer-float-lambda": 7.0, "infer-missing-lambda": None,
                                    "infer-string-lambda": "7", "infer-bool-lambda": True},
    ("apply_qmove", "b"): {"qmove-negative-exponent": -1, "qmove-fractional-exponent": 1.5,
                           "qmove-bool-exponent": True},
    ("apply_qmove", "a"): {"qmove-fractional-a": 1.5, "qmove-missing-a": None,
                           "qmove-bool-a": True},
    # True, read as 1 here and as eliminate_term's j, raised DegenerateMove
    ("apply_pmove", "b"): {"pmove-fractional-exponent": 2.5, "pmove-string-exponent": "3",
                           "pmove-missing-exponent": None, "pmove-bool-exponent": True},
    ("eliminate_term", "j"): {"eliminate-term-bool-target": True,
                              "eliminate-term-string-target": "5",
                              "eliminate-term-float-target": 5.0},
    ("puiseux_parametrization", "trunc"): {"puiseux-string-trunc": "10",
                                           "puiseux-float-trunc": 10.5,
                                           "puiseux-bool-trunc": True},
    ("puiseux_parametrization", "f"): {"puiseux-dict-polynomial": {(0, 2): 1, (3, 0): -1}},
    ("swap_parametrization", "trunc"): {"swap-string-trunc": "9"},
    ("zariski_decomposition", "lam"): {"decomposition-float-lambda": 1.0,
                                       "decomposition-fraction-lambda": F(1)},
    # 4.5 was read as 4, a generator of K(4,6,9)
    ("contains", "z"): {"contains-float": 4.5, "contains-missing": None, "contains-bool": True},
    ("standard_rep", "z"): {"standard-rep-float": 10.0, "standard-rep-string": "10"},
}


def _generated(row: str, slot: str, value):
    """The call the table makes with `value` in `slot` of `row`."""
    call, slots = TABLE[row]
    valid = {name: v for name, (_, v) in slots.items()}
    return lambda: call(**{**valid, slot: value})


TRUNCATED_CUSP = Parametrization.from_pairs(2, [(3, 1)], trunc=8)
CUSP = Parametrization.from_pairs(2, [(3, 1)])
# no term is known below 1, so the order of this parameter change is not 1
UNKNOWN_ORDER = TSeries("t", {}, 1)

VIOLATED_PRECONDITIONS = {
    "implicitize-truncated": (NonPolynomialInput, lambda: implicitize(TRUNCATED_CUSP)),
    "implicitize-zero": (
        NonPolynomialInput, lambda: implicitize(Parametrization(2, TSeries.zero("t")))
    ),
    "same-branch-truncated": (NonPolynomialInput, lambda: CUSP.same_branch(TRUNCATED_CUSP)),
    "reparametrize-unknown-order": (
        InvalidParameterChange, lambda: reparametrize(TSeries.monomial("t", 2), UNKNOWN_ORDER)
    ),
    "solve-composition-unknown-order": (
        InvalidParameterChange, lambda: solve_composition([CUSP.y.truncated(5)], UNKNOWN_ORDER)
    ),
    # 5 + 3 = 2 * 4 needs a p-move, whose unit has an infinite root on an
    # exact branch: refused as apply_pmove refuses it
    "eliminate-term-exact-p-move": (
        NeedsTruncation,
        lambda: eliminate_term(
            Parametrization.from_pairs(3, [(4, 1), (5, F(-2, 3)), (6, F(-7, 2)), (8, -2)]), 5
        ),
    ),
    # 6, the first exponent off the grid of 4, shares a factor with it
    "eliminate-term-not-genus-one": (
        WrongEquisingularityClass,
        lambda: eliminate_term(Parametrization.from_pairs(4, [(6, 1), (7, 1), (9, 1)], 20), 8),
    ),
}

BROKEN_INVARIANTS = {
    # quotients that do not match the gcd chain leave an odd remainder at e_1 = 2
    "standard-rep-gcd-level": lambda: standard_rep(3, replace(K467, quotients=(2, 3))),
    # a wrong v_0 leaves a remainder that v_0 does not divide
    "standard-rep-close": lambda: standard_rep(1, replace(K467, generators=(5, 6, 13))),
}


CALLS = {**BAD_ARGUMENTS, **{name: _generated(row, slot, value)
                             for (row, slot), named in GENERATED.items()
                             for name, value in named.items()}}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_bad_argument_is_a_typed_precondition(call):
    with pytest.raises(InvalidArgument) as info:
        call()
    assert isinstance(info.value, ValueError)
    assert info.value.exit_code == 3


def test_a_float_target_is_blamed_on_the_target():
    # 5.0 once reached the move and was refused as a q-move exponent b
    with pytest.raises(InvalidArgument, match="target exponent j"):
        eliminate_term(Parametrization.from_pairs(2, [(3, 1)], trunc=8), 5.0)


def test_a_weierstrass_refusal_does_not_depend_on_term_order():
    # (y + x*y) * (y + 1) is neither monic in y nor a pure power of y at
    # x = 0; the refusal names the same fault whichever way its terms run,
    # as the product lists them or as a caller does, in either order
    product = BivarPoly({(0, 1): 1, (1, 1): 1}) * BivarPoly({(0, 1): 1, (0, 0): 1})
    terms = list(product.terms.items())
    for f in (product, BivarPoly(dict(terms)), BivarPoly(dict(reversed(terms)))):
        with pytest.raises(NotWeierstrass, match="f\\(0, y\\) is not a pure power of y"):
            puiseux_parametrization(f)


def test_an_infinite_invariant_has_no_decomposition():
    # (t^3, t^4) is y^3 = x^4 itself: its invariant is infinite, and its
    # exponent None was once added to (n1 - 1) * m
    phi = Parametrization.from_pairs(3, [(4, 1)])
    result = zariski_invariant(phi)
    assert result.exponent is None
    with pytest.raises(InvalidArgument, match="lambda None is not a finite integer"):
        zariski_decomposition(implicitize(phi), result.witness, char_sequence(phi), None)


@pytest.mark.parametrize(
    "error,call", VIOLATED_PRECONDITIONS.values(), ids=VIOLATED_PRECONDITIONS.keys()
)
def test_violated_precondition_exits_3(error, call):
    with pytest.raises(error) as info:
        call()
    assert info.value.exit_code == 3


@pytest.mark.parametrize("call", BROKEN_INVARIANTS.values(), ids=BROKEN_INVARIANTS.keys())
def test_broken_invariant_is_a_cross_check_failure(call):
    with pytest.raises(CrossCheckFailed) as info:
        call()
    assert info.value.exit_code == 6


# the families whose exit code is not the base class's 3
FAMILY_EXIT_CODES = {BranchFileError: 2, PrecisionExhausted: 4, HypothesisNotMet: 5,
                     CrossCheckFailed: 6}


def test_every_error_class_carries_its_family_exit_code():
    classes, stack = [], [PlaneBranchError]
    while stack:
        classes.append(stack.pop())
        stack.extend(classes[-1].__subclasses__())
    assert len(classes) == 29
    for cls in classes:
        family = [code for base, code in FAMILY_EXIT_CODES.items() if issubclass(cls, base)]
        assert cls.exit_code == (family or [3])[0], cls.__name__


def _pair(n1, y1, n2, y2, trunc1=EXACT, trunc2=EXACT):
    return Parametrization.from_pairs(n1, y1, trunc1), Parametrization.from_pairs(n2, y2, trunc2)


# contact(a, b): the scan certifies the pair first (equal exact branches are
# infinite contact, whatever the first branch is), then the first branch is
# classified, then I / n' is checked against n.  Each row pins the outcome,
# an error's exact type and message or the ContactOrder
CONTACT_OUTCOMES = {
    "smooth-first": (
        _pair(1, [(2, 1)], 2, [(3, 1)]),
        (NotSingular, "multiplicity 1: smooth branch, no characteristic sequence"),
    ),
    "non-transversal-first": (
        _pair(2, [(2, 1), (3, 1)], 2, [(3, 1)]),
        (NotTransversal, "ord(y) = 2 must exceed n = 2; swap the coordinates first"),
    ),
    "zero-first": (
        (Parametrization(2, TSeries.zero("t")), Parametrization.from_pairs(2, [(3, 1)])),
        (NotTransversal, "y-component is identically zero"),
    ),
    "truncated-zero-first": (
        (Parametrization(2, TSeries("t", {}, 5)), Parametrization.from_pairs(2, [(3, 1)])),
        (PrecisionExhausted, "y-component vanishes up to truncation 5; cannot classify"),
    ),
    "non-primitive-first": (
        _pair(4, [(6, 1)], 4, [(5, 1)]),
        (NotPrimitive, "gcd of 4 and the exponents [6] is 2"),
    ),
    # the first branch is refused before the second's low y-order is seen
    "non-primitive-first-low-second": (
        _pair(4, [(6, 1)], 3, [(2, 1)]),
        (NotPrimitive, "gcd of 4 and the exponents [6] is 2"),
    ),
    "gcd-chain-stuck-first": (
        _pair(4, [(6, 1)], 4, [(5, 1)], trunc1=7),
        (PrecisionExhausted, "gcd chain stuck at 2 with exponents known only below 7"),
    ),
    # I = 4 against n' = 3: I / n' = 4/3 is below n = 2
    "low-y-order-second": (
        _pair(2, [(3, 1)], 3, [(2, 1)]),
        (NotRealizable, "intersection 4 with multiplicity 3 admits 0 contact solutions"),
    ),
    "agree-up-to-truncations": (
        _pair(2, [(3, 1)], 2, [(3, 1)], trunc1=5, trunc2=6),
        (
            PrecisionExhausted,
            "the branches agree up to their truncations 5 and 6; raise them or the "
            "branches coincide",
        ),
    ),
    "smooth-first-agree-up-to-truncations": (
        _pair(1, [(2, 1)], 1, [(2, 1)], trunc1=4, trunc2=3),
        (
            PrecisionExhausted,
            "the branches agree up to their truncations 4 and 3; raise them or the "
            "branches coincide",
        ),
    ),
    "equal-exact": (_pair(2, [(3, 1), (4, 2)], 4, [(6, 1), (8, 2)]), ContactOrder.infinite()),
    "conjugate-exact": (_pair(2, [(3, 1), (4, 2)], 2, [(3, -1), (4, 2)]), ContactOrder.infinite()),
    "smooth-first-equal-exact": (_pair(1, [(2, 1)], 1, [(2, 1)]), ContactOrder.infinite()),
    "finite": (_pair(4, [(6, 1), (7, 1)], 2, [(3, 1)]), ContactOrder.finite(F(7, 4))),
}


@pytest.mark.parametrize(
    "pair,expected", CONTACT_OUTCOMES.values(), ids=CONTACT_OUTCOMES.keys()
)
def test_contact_outcome(pair, expected):
    try:
        got = contact(*pair)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        got = (type(exc), str(exc))
    assert got == expected
