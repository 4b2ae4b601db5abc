"""Every kernel precondition and internal check raises a typed error.

A bad argument raises `InvalidArgument`, which the CLI maps to exit code 3
and which stays a `ValueError`; other violated preconditions have their own
classes, also exit code 3; a broken internal invariant raises
`CrossCheckFailed` (exit code 6).
"""

from dataclasses import replace
from fractions import Fraction as F

import pytest

from planebranch import cli
from planebranch.errors import (
    CrossCheckFailed,
    InvalidArgument,
    InvalidParameterChange,
    NonPolynomialInput,
    WrongEquisingularityClass,
)
from planebranch.geometry import (
    Parametrization,
    contact_from_intersection,
    implicitize,
    intersection_from_contact,
    puiseux_parametrization,
    swap_parametrization,
)
from planebranch.semigroup import CharData, char_sequence, standard_rep
from planebranch.series import (
    BivarPoly,
    TSeries,
    exact_root,
    nth_root_unit,
    ratio,
    reparametrize,
    solve_composition,
    substitute,
)
from planebranch.zariski import apply_pmove, apply_qmove, eliminate_term, infer_zariski

K467 = CharData.from_char_exponents((4, 6, 7))
# y**2 - x**3, the implicit equation of the cusp (t**2, t**3)
CUSP_EQUATION = BivarPoly.from_pairs([((0, 2), 1), ((3, 0), -1)])

BAD_ARGUMENTS = {
    "ratio": lambda: ratio(1.5),
    "ratio-bad-string": lambda: ratio("x"),
    "ratio-zero-denominator": lambda: ratio("1/0"),
    "tseries-trunc": lambda: TSeries("t", {1: 1}, 0),
    "tseries-exponent": lambda: TSeries("t", {-1: 1}, 5),
    "tseries-fractional-exponent": lambda: TSeries("t", {F(1, 2): 1}, 5),
    "shift": lambda: TSeries("t", {1: 1}, 5).shift(-2),
    "tseries-pow": lambda: TSeries("t", {1: 1}, 5) ** -1,
    "tseries-float-pow": lambda: TSeries("t", {1: 1}, 5) ** 2.0,
    "nth-root-index": lambda: nth_root_unit(TSeries("t", {0: 1, 1: 1}, 5), 0),
    "exact-root-index": lambda: exact_root(F(4), 0),
    "bivar-exponent": lambda: BivarPoly({(-1, 0): 1}),
    "bivar-fractional-exponent": lambda: BivarPoly({(1.5, 0): 1}),
    "bivar-fractional-y-exponent": lambda: BivarPoly({(0, F(27, 10)): 1}),
    "bivar-pow": lambda: BivarPoly.monomial(1, 1) ** -1,
    "bivar-fractional-pow": lambda: BivarPoly.monomial(1, 1) ** F(1, 2),
    "bivar-scale-bad-string": lambda: BivarPoly.monomial(1, 1).scale("nan"),
    "substitute-negative-n": lambda: substitute(
        BivarPoly.monomial(1, 1), -1, TSeries.monomial("t", 2)
    ),
    "substitute-fractional-n": lambda: substitute(
        BivarPoly.monomial(1, 1), 1.5, TSeries.monomial("t", 2)
    ),
    "contact-from-intersection-bad-string": lambda: contact_from_intersection(K467, "x", 2),
    "infer-bad-contact-string": lambda: infer_zariski(K467, 7, 4, contact_order="x"),
    "infer-bad-intersection-string": lambda: infer_zariski(K467, 7, 4, intersection_value="x"),
    "contact-from-intersection-multiplicity-0": lambda: contact_from_intersection(K467, 10, 0),
    "infer-multiplicity-0": lambda: infer_zariski(K467, 7, 0, intersection_value=100),
    "intersection-from-contact-multiplicity-0": lambda: intersection_from_contact(K467, 2, 0),
    "qmove-negative-exponent": lambda: apply_qmove(
        Parametrization.from_pairs(2, [(3, 1)], trunc=8), 1, -1, 1
    ),
    "qmove-fractional-exponent": lambda: apply_qmove(
        Parametrization.from_pairs(2, [(3, 1)], trunc=8), 1, 1.5, 1
    ),
    "pmove-fractional-exponent": lambda: apply_pmove(
        Parametrization.from_pairs(2, [(3, 1)], trunc=8), 2.5, 1
    ),
    "qmove-fractional-a": lambda: apply_qmove(
        Parametrization.from_pairs(2, [(3, 1)], trunc=8), 1.5, 1, 1
    ),
    "qmove-missing-a": lambda: apply_qmove(
        Parametrization.from_pairs(2, [(3, 1)], trunc=8), None, 1, 1
    ),
    "pmove-string-exponent": lambda: apply_pmove(
        Parametrization.from_pairs(2, [(3, 1)], trunc=8), "3", 1
    ),
    "pmove-missing-exponent": lambda: apply_pmove(
        Parametrization.from_pairs(2, [(3, 1)], trunc=8), None, 1
    ),
    "eliminate-term-string-target": lambda: eliminate_term(
        Parametrization.from_pairs(2, [(3, 1)], trunc=8), "5"
    ),
    "eliminate-term-float-target": lambda: eliminate_term(
        Parametrization.from_pairs(2, [(3, 1)], trunc=8), 5.0
    ),
    "puiseux-string-trunc": lambda: puiseux_parametrization(CUSP_EQUATION, trunc="10"),
    "puiseux-float-trunc": lambda: puiseux_parametrization(CUSP_EQUATION, trunc=10.5),
    "puiseux-bool-trunc": lambda: puiseux_parametrization(CUSP_EQUATION, trunc=True),
    "swap-string-trunc": lambda: swap_parametrization(
        Parametrization.from_pairs(2, [(3, 1)], trunc=12), trunc="9"
    ),
    "nth-root-string-index": lambda: nth_root_unit(TSeries("t", {0: 1, 1: 1}, 5), "2"),
    "exact-root-string-index": lambda: exact_root(F(4), "2"),
    "tseries-bool-trunc": lambda: TSeries("t", {1: 1}, True),
    "parametrization-multiplicity-0": lambda: Parametrization(0, TSeries("t", {3: 1}, 10)),
    "parametrization-string-multiplicity": lambda: Parametrization("4", TSeries("t", {6: 1}, 10)),
    "parametrization-bool-multiplicity": lambda: Parametrization(True, TSeries("t", {3: 1}, 10)),
    "parametrization-from-pairs-float-multiplicity": lambda: Parametrization.from_pairs(
        2.5, [(3, 1)]
    ),
    "tseries-string-exponent": lambda: TSeries("t", {"a": 1}, 5),
    "bivar-string-monomial": lambda: BivarPoly({"ab": 1}),
    "bivar-three-exponents": lambda: BivarPoly({(1, 2, 3): 1}),
    "char-exponents-not-characteristic": lambda: CharData.from_char_exponents((4, 6, 8)),
    "char-sequence-multiplicity": lambda: char_sequence(
        Parametrization(0, TSeries("t", {3: 1}, 10))
    ),
}

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


@pytest.mark.parametrize("call", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS.keys())
def test_bad_argument_is_a_typed_precondition(call):
    with pytest.raises(InvalidArgument) as info:
        call()
    assert isinstance(info.value, ValueError)
    assert cli._exit_code(info.value) == cli.EXIT_PRECONDITION == 3


def test_a_float_target_is_blamed_on_the_target():
    # 5.0 once reached the move and was refused as a q-move exponent b
    with pytest.raises(InvalidArgument, match="target exponent j"):
        eliminate_term(Parametrization.from_pairs(2, [(3, 1)], trunc=8), 5.0)


@pytest.mark.parametrize(
    "error,call", VIOLATED_PRECONDITIONS.values(), ids=VIOLATED_PRECONDITIONS.keys()
)
def test_violated_precondition_exits_3(error, call):
    with pytest.raises(error) as info:
        call()
    assert cli._exit_code(info.value) == cli.EXIT_PRECONDITION == 3


@pytest.mark.parametrize("call", BROKEN_INVARIANTS.values(), ids=BROKEN_INVARIANTS.keys())
def test_broken_invariant_is_a_cross_check_failure(call):
    with pytest.raises(CrossCheckFailed) as info:
        call()
    assert cli._exit_code(info.value) == cli.EXIT_INTERNAL == 6

