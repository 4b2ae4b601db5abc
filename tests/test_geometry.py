"""Implicitization, Puiseux parametrization, intersections and contact."""

import random
from fractions import Fraction as F

import pytest

from planebranch.errors import (
    BranchesEqual,
    NonRationalCoefficient,
    NotIrreducible,
    NotRealizable,
    NotWeierstrass,
    PrecisionExhausted,
    ThetaOutOfRange,
)
from planebranch import geometry
from planebranch.fixtures import FIXTURES, load_fixture
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
from planebranch.semigroup import CharData, char_sequence
from planebranch.series import EXACT, BivarPoly, TSeries, substitute
from conftest import (
    binomial_coefficient,
    contact_from_intersection_reference,
    dict_order,
    eval_poly_on_series,
    intersection_from_contact_reference,
    resultant_implicitize,
    to_rows,
)


def _seeded(seed, n, exponents):
    """(t^n, y) with a seeded nonzero rational at every listed exponent."""
    rng = random.Random(seed)
    return Parametrization.from_pairs(
        n, [(e, F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))) for e in exponents]
    )


# dense branches of multiplicity 2 to 9, one with terms below n, and sparser
# ones up to n = 12 at degree 31; the fully dense n = 12, degree-31 branch is
# left out only because the Bareiss oracle takes seconds on it
ORACLE_BRANCHES = [
    *(_seeded(n, n, range(n + 1, 2 * n + 4)) for n in range(2, 9)),
    _seeded(9, 9, range(2, 14)),
    _seeded(10, 10, range(11, 24, 3)),
    _seeded(11, 11, [12, 15, 20, 23]),
    _seeded(12, 12, range(13, 32, 3)),
]


class TestImplicitize:
    def test_deformed_cubic(self):
        poly = implicitize(Parametrization.from_pairs(3, [(7, 1), (9, 1)]))
        assert poly == BivarPoly.from_pairs(
            [((0, 3), 1), ((3, 2), -3), ((6, 1), 3), ((7, 0), -1), ((9, 0), -1)]
        )

    def test_cusp(self):
        poly = implicitize(Parametrization.from_pairs(2, [(3, 1)]))
        assert poly == BivarPoly.from_pairs([((0, 2), 1), ((3, 0), -1)])

    def test_cubic_cusp(self):
        poly = implicitize(Parametrization.from_pairs(3, [(7, 1)]))
        assert poly == BivarPoly.from_pairs([((0, 3), 1), ((7, 0), -1)])

    @pytest.mark.parametrize(
        "n,pairs",
        [
            (4, [(7, 1), (10, 1), (12, 1), (13, F(17, 14))]),
            (4, [(6, 1), (9, F(2, 3))]),
            (5, [(7, 2), (11, -1)]),
        ],
    )
    def test_result_vanishes_on_the_branch(self, n, pairs):
        phi = Parametrization.from_pairs(n, pairs)
        poly = implicitize(phi)
        assert poly.deg_y() == n and poly.is_monic_in_y()
        value = substitute(poly, phi.n, phi.y)
        assert value.is_zero_below_trunc() and value.exact

    @pytest.mark.parametrize(
        "name", [k for k, v in FIXTURES.items() if v["kind"] == "parametrization"]
    )
    def test_fixtures_match_the_resultant_oracle(self, name):
        phi, _ = load_fixture(name)
        assert implicitize(phi) == resultant_implicitize(phi)

    @pytest.mark.parametrize(
        "phi", ORACLE_BRANCHES, ids=[f"n{phi.n}-deg{phi.y.max_exponent()}" for phi in ORACLE_BRANCHES]
    )
    def test_seeded_branches_match_the_resultant_oracle(self, phi):
        assert implicitize(phi) == resultant_implicitize(phi)

    def test_matches_the_sympy_resultant(self):
        sympy = pytest.importorskip("sympy")
        t, x, y = sympy.symbols("t x y")
        phi = _seeded(5, 5, [3, 6, 7, 9, 11, 12])
        p = sum(sympy.Rational(c.numerator, c.denominator) * t**e for e, c in phi.y.terms.items())
        res = sympy.Poly(sympy.resultant(t**phi.n - x, p - y, t), x, y)
        res = res * (1 / res.coeff_monomial(y**phi.n))
        expected = BivarPoly({ij: F(int(c.p), int(c.q)) for ij, c in res.terms()})
        assert implicitize(phi) == expected

    def test_does_not_take_the_resultant_route(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("implicitize must not build a resultant")

        monkeypatch.setattr(geometry, "bareiss_determinant", refuse)
        monkeypatch.setattr(BivarPoly, "divexact", refuse)
        phi = _seeded(6, 6, range(7, 16))
        assert implicitize(phi).is_monic_in_y()


class TestPuiseux:
    def test_cusp(self):
        phi = puiseux_parametrization(
            BivarPoly.from_pairs([((0, 2), 1), ((3, 0), -1)])
        )
        assert phi.n == 2 and phi.y.terms == {3: F(1)}

    def test_quartic_monomial_curve(self):
        phi = puiseux_parametrization(
            BivarPoly.from_pairs([((0, 4), 1), ((7, 0), -1)])
        )
        assert phi.n == 4 and phi.y.terms == {7: F(1)}

    def test_sextic_class_and_vanishing(self, sextic):
        phi = puiseux_parametrization(sextic, trunc=48)
        cd = char_sequence(phi)
        assert cd.char_exponents == (6, 14, 17)
        value = substitute(sextic, phi.n, phi.y)
        assert value.is_zero_below_trunc()
        assert value.trunc >= 80

    def test_sextic_root_is_polynomial(self, sextic):
        phi = puiseux_parametrization(sextic)
        assert phi.exact and phi.y.terms == {14: F(1), 16: F(1), 17: F(1)}

    def test_rejects_non_weierstrass(self):
        with pytest.raises(NotWeierstrass):
            puiseux_parametrization(BivarPoly.from_pairs([((0, 2), 1), ((0, 0), 1)]))

    def test_rejects_irrational_branch(self):
        # y^2 = 2 x^3 needs sqrt(2)
        with pytest.raises(NonRationalCoefficient):
            puiseux_parametrization(BivarPoly.from_pairs([((0, 2), 1), ((3, 0), -2)]))

    def test_non_unit_edge_coefficients(self):
        phi = puiseux_parametrization(BivarPoly.from_pairs([((0, 2), 1), ((3, 0), -9)]))
        assert phi.n == 2 and phi.y.terms == {3: F(3)}
        phi = puiseux_parametrization(BivarPoly.from_pairs([((0, 2), 1), ((5, 0), -4)]))
        assert phi.n == 2 and phi.y.terms == {5: F(2)}

    def test_infinite_series_root_matches_binomial_oracle(self):
        # y^2 = x^3 (1 + x): the root is t^3 * (1 + t^2)^(1/2)
        _check_binomial_root(30)

    def test_root_far_out_matches_binomial_oracle(self):
        # the edge root comes in closed form; a search over the divisors of
        # the cleared edge coefficients grew exponentially with trunc
        _check_binomial_root(60)

    def test_edge_with_several_roots_is_reducible(self):
        # edge polynomial z^3 - z^2 + z - 1 = (z - 1)(z^2 + 1): one rational
        # root, but not the single repeated root of one branch
        f = BivarPoly.from_pairs([((0, 3), 1), ((2, 2), -1), ((4, 1), 1), ((6, 0), -1)])
        with pytest.raises(NotIrreducible):
            geometry._np_edge(to_rows(f.terms))
        with pytest.raises(NotIrreducible):
            puiseux_parametrization(f + BivarPoly.monomial(7, 0))

    def test_deep_perturbed_series_at_default_truncation(self):
        # a perturbed K(8, 19) runs 34 stages to its default truncation
        # t^142: the deepest series of the suite, and a guard on its time
        phi = Parametrization.from_pairs(8, [(19, 1), (20, 1), (22, F(1, 2))])
        f = implicitize(phi) + BivarPoly.monomial(30, 0)
        psi = puiseux_parametrization(f)
        assert psi.trunc == 142 and len(psi.y.terms) == 34
        assert eval_poly_on_series(f.terms, psi.n, psi.y.terms, 142) == {}

    def test_default_truncation_is_conductor_based(self):
        f = BivarPoly.from_pairs([((0, 2), 1), ((3, 0), -1), ((4, 0), -1)])
        phi = puiseux_parametrization(f)
        # conductor of <2, 3> is 2; default bound is conductor + 2n
        assert phi.trunc == 6

    def test_non_transversal_input_takes_its_own_truncation(self):
        # (y - x)^2 = x^3 is the branch (t^2, t^2 + t^3): its first stage does
        # not ramify, so the stages found so far are no transversal branch to
        # classify; the default truncation comes from the ramifying stages
        f = BivarPoly.from_pairs([((0, 2), 1), ((1, 1), -2), ((2, 0), 1), ((3, 0), -1)])
        phi = puiseux_parametrization(f)
        assert phi.n == 2 and phi.exact and phi.y.terms == {2: F(1), 3: F(1)}

    @pytest.mark.parametrize(
        "pairs, n, terms, trunc",
        [
            # smooth: no ramifying stage, conductor 0, default bound 2
            ([((0, 1), 1), ((1, 0), -1), ((2, 0), -1)], 1, {1: F(1)}, 2),
            # smooth but tangent to the y-axis: the branch (t^2, t)
            ([((0, 2), 1), ((1, 0), -1)], 2, {1: F(1)}, EXACT),
            # first exponent below the multiplicity: the branch (t^3, t^2)
            ([((0, 3), 1), ((2, 0), -1)], 3, {2: F(1)}, EXACT),
        ],
        ids=["y-x-x2", "y2-x", "y3-x2"],
    )
    def test_default_truncation_needs_no_singular_transversal_branch(
        self, pairs, n, terms, trunc
    ):
        phi = puiseux_parametrization(BivarPoly.from_pairs(pairs))
        assert (phi.n, phi.y.terms, phi.trunc) == (n, terms, trunc)

    def test_long_root_is_not_cut_by_a_stage_count(self):
        # one non-ramifying stage per term: 520 stages before y | f
        f = BivarPoly.from_pairs([((0, 1), 1)] + [((i, 0), -1) for i in range(1, 521)])
        phi = puiseux_parametrization(f, trunc=600)
        assert phi.n == 1 and phi.exact
        assert phi.y.terms == {e: F(1) for e in range(1, 521)}

    def test_repeated_factor_is_refused(self):
        # the two double roots of (y^2 - x^3 - x^4)^2 never separate, so the
        # ramification stays at 2 < 4; the stages pass the discriminant bound
        # 7 * 8 / 2 at x-order 57/2
        f = BivarPoly.from_pairs([((0, 2), 1), ((3, 0), -1), ((4, 0), -1)])
        with pytest.raises(NotIrreducible, match="repeated factor"):
            puiseux_parametrization(f * f)

    def test_roots_sharing_a_long_prefix_are_separated(self):
        # f = (y - p)^2 - x^15 (1 + x), with p the polynomial part of
        # x^8 sqrt(1 + 1/x), has x-degree 8, and its two roots
        # p +- x^(15/2) sqrt(1 + x) share every term up to x^7: past a
        # quarter of the bound (2n - 1) deg_x(f) = 24, within its half
        d = 8
        p = BivarPoly.from_pairs(
            [((d - k, 0), binomial_coefficient(F(1, 2), k)) for k in range(d)]
        )
        y = BivarPoly.monomial(0, 1)
        f = (y - p) ** 2 - BivarPoly.from_pairs([((2 * d - 1, 0), 1), ((2 * d, 0), 1)])
        assert max(i for i, _ in f.terms) == d
        phi = puiseux_parametrization(f)
        # class <2, 15>: conductor 14, default bound 14 + 2n
        assert phi.n == 2 and phi.trunc == 2 * d + 2
        expected = {2 * (d - k): binomial_coefficient(F(1, 2), k) for k in range(d)}
        expected.update({2 * d - 1 + 2 * k: binomial_coefficient(F(1, 2), k) for k in range(2)})
        assert phi.y.terms == expected


def _check_binomial_root(trunc):
    f = BivarPoly.from_pairs([((0, 2), 1), ((3, 0), -1), ((4, 0), -1)])
    phi = puiseux_parametrization(f, trunc=trunc)
    assert not phi.exact and phi.trunc == trunc
    expected = {
        3 + 2 * k: binomial_coefficient(F(1, 2), k)
        for k in range(trunc)
        if binomial_coefficient(F(1, 2), k) and 3 + 2 * k < trunc
    }
    assert phi.y.terms == expected
    value = substitute(f, phi.n, phi.y)
    assert value.is_zero_below_trunc()


class TestIntersectionPolyParam:
    def test_sextic_with_cubic_branch(self, sextic):
        phi = Parametrization.from_pairs(3, [(7, 1), (8, 1)])
        assert intersection_poly_param(sextic, phi) == 45

    def test_cusp_poly_with_sextic_branch(self, sextic, cusp37):
        phi2 = puiseux_parametrization(sextic)
        assert intersection_poly_param(cusp37, phi2) == 44

    def test_coordinate_axes_realize_mult_and_first_exponent(self):
        phi = Parametrization.from_pairs(4, [(7, 1), (10, 1)])
        x_axis = BivarPoly.monomial(1, 0)
        y_axis = BivarPoly.monomial(0, 1)
        assert intersection_poly_param(x_axis, phi) == 4
        assert intersection_poly_param(y_axis, phi) == 7

    def test_identical_branch_raises(self, cusp37):
        with pytest.raises(BranchesEqual):
            intersection_poly_param(cusp37, Parametrization.from_pairs(3, [(7, 1)]))


class TestIntersection:
    def test_deformed_cubic_with_cusp(self):
        # direct expansion oracle: h'(t^3, t^7) = -3t^23 + 3t^25 - t^27
        a = Parametrization.from_pairs(3, [(7, 1), (9, 1)])
        b = Parametrization.from_pairs(3, [(7, 1)])
        oracle = eval_poly_on_series(
            {(0, 3): F(1), (3, 2): F(-3), (6, 1): F(3), (7, 0): F(-1), (9, 0): F(-1)},
            3,
            {7: F(1)},
            40,
        )
        assert dict_order(oracle) == 23
        assert intersection(a, b) == 23

    def test_cusp_against_perturbed_cusp(self):
        a = Parametrization.from_pairs(2, [(3, 1)])
        b = Parametrization.from_pairs(2, [(3, 1), (4, 1)])
        oracle = eval_poly_on_series(
            {(0, 2): F(1), (3, 0): F(-1)}, 2, {3: F(1), 4: F(1)}, 20
        )
        assert dict_order(oracle) == 7
        assert intersection(a, b) == 7

    def test_cubic_branch_with_sextic_root(self, sextic):
        phi2 = puiseux_parametrization(sextic)
        c1 = Parametrization.from_pairs(3, [(7, 1), (8, 1)])
        assert intersection(c1, phi2) == 45

    def test_symmetry(self, sextic):
        pairs = [
            (
                Parametrization.from_pairs(3, [(7, 1), (8, 1)]),
                puiseux_parametrization(sextic),
            ),
            (
                Parametrization.from_pairs(2, [(3, 1)]),
                Parametrization.from_pairs(2, [(3, 1), (4, 1)]),
            ),
            (
                Parametrization.from_pairs(3, [(7, 1), (9, 1)]),
                Parametrization.from_pairs(4, [(7, 1), (10, 1)]),
            ),
        ]
        for a, b in pairs:
            assert intersection(a, b) == intersection(b, a)

    def test_same_branch_detected_exactly(self):
        a = Parametrization.from_pairs(2, [(3, 1)])
        conj = Parametrization.from_pairs(2, [(3, -1)])
        with pytest.raises(BranchesEqual):
            intersection(a, conj)

    def test_high_contact_pair_is_not_cut_off(self):
        # distinct branches agreeing far beyond the conductor
        a = Parametrization.from_pairs(2, [(3, 1)])
        b = Parametrization.from_pairs(2, [(3, 1), (101, 1)])
        assert intersection(a, b) == 104

    def test_truncated_branch_intersections(self):
        f = BivarPoly.from_pairs([((0, 2), 1), ((3, 0), -1), ((4, 0), -1)])
        root = puiseux_parametrization(f, trunc=30)
        cusp = Parametrization.from_pairs(2, [(3, 1)])
        # contact 5/2 (the roots differ at t^5), so I = 8
        assert intersection(root, cusp) == 8
        # a pair that agrees on every term the truncated side knows must
        # refuse rather than report a wrong value
        short = puiseux_parametrization(f, trunc=6)
        close = Parametrization.from_pairs(2, [(3, 1), (5, F(1, 2))])
        with pytest.raises(PrecisionExhausted):
            intersection(short, close)

    def test_truncated_pair_certified_in_both_orders(self):
        # the roots part at t^27, below the truncation 30 of `root`: the
        # identity conjugate contributes 27, the conjugate t -> -t 3
        f = BivarPoly.from_pairs([((0, 2), 1), ((3, 0), -1), ((4, 0), -1)])
        root = puiseux_parametrization(f, trunc=30)
        close = Parametrization.from_pairs(
            2, [*((e, c) for e, c in root.y.terms.items() if e < 27), (27, 5)]
        )
        assert intersection(root, close) == intersection(close, root) == 30


def _outcome(call):
    """repr of what call() returns, or the type and message of what it raises."""
    try:
        return repr(call())
    except Exception as exc:
        return type(exc), str(exc)


class TestContactCorrespondence:
    def test_intersection_from_contact_values(self):
        cd47 = CharData.from_char_exponents((4, 7))
        cd6 = CharData.from_char_exponents((6, 14, 17))
        assert intersection_from_contact(cd47, F(13, 4), 4) == 34
        assert intersection_from_contact(cd6, F(17, 6), 3) == 45
        assert intersection_from_contact(cd47, 1, 1) == 4

    def test_contact_from_intersection_values(self):
        cd47 = CharData.from_char_exponents((4, 7))
        cd6 = CharData.from_char_exponents((6, 14, 17))
        assert contact_from_intersection(cd47, 34, 4).theta == F(13, 4)
        assert contact_from_intersection(cd6, 44, 3).theta == F(8, 3)
        assert contact_from_intersection(cd6, 45, 3).theta == F(17, 6)

    def test_theta_below_one_rejected(self):
        cd = CharData.from_char_exponents((4, 7))
        with pytest.raises(ThetaOutOfRange):
            intersection_from_contact(cd, F(1, 2), 1)

    def test_unrealizable_intersection(self):
        # 1 cannot be I(C_f, C) for a multiplicity-4 branch
        cd = CharData.from_char_exponents((4, 7))
        with pytest.raises(NotRealizable):
            contact_from_intersection(cd, 1, 1)

    @pytest.mark.parametrize("beta", [(4, 7), (6, 14, 17), (3, 7), (4, 6, 13)])
    def test_round_trip_over_admissible_grid(self, beta):
        cd = CharData.from_char_exponents(beta)
        n = cd.mult
        for k in range(n, n + 100):
            theta = F(k, n)
            inter = intersection_from_contact(cd, theta, n)
            assert inter.denominator == 1
            assert contact_from_intersection(cd, int(inter), n).theta == theta

    @pytest.mark.parametrize(
        "beta", [(2, 5), (4, 7), (3, 5), (6, 14, 17), (4, 6, 13), (8, 12, 14, 15)]
    )
    def test_walk_is_the_interval_scan(self, beta):
        # theta: every beta_q / n, 1 included, exactly and 1/97 either side.
        # I: halves from 0 to past the last breakpoint's value, and each
        # breakpoint's value exactly and 1/97 either side; n' from 1 to 12
        cd = CharData.from_char_exponents(beta)
        n = cd.mult
        step = F(1, 97)
        thetas = [F(b, n) + d for b in beta for d in (-step, 0, step)]
        for m in range(1, 13):
            for theta in thetas:
                assert _outcome(lambda: intersection_from_contact(cd, theta, m)) == _outcome(
                    lambda: intersection_from_contact_reference(cd, theta, m)
                )
            marks = [intersection_from_contact_reference(cd, F(b, n), m) for b in beta]
            top = 2 * (int(marks[-1]) + 2 * m)
            halves = [k // 2 if k % 2 == 0 else F(k, 2) for k in range(top)]
            for inter in halves + [v + d for v in marks for d in (-step, 0, step)]:
                assert _outcome(lambda: contact_from_intersection(cd, inter, m)) == _outcome(
                    lambda: contact_from_intersection_reference(cd, inter, m)
                )


class TestContact:
    def test_concrete_triple(self, sextic):
        c1 = Parametrization.from_pairs(3, [(7, 1), (8, 1)])
        c2 = puiseux_parametrization(sextic)
        h = Parametrization.from_pairs(3, [(7, 1)])
        assert contact(c1, c2).theta == F(17, 6)
        assert contact(c1, h).theta == F(8, 3)
        assert contact(c2, h).theta == F(8, 3)

    def test_contact_is_symmetric(self, sextic):
        c1 = Parametrization.from_pairs(3, [(7, 1), (8, 1)])
        c2 = puiseux_parametrization(sextic)
        assert contact(c1, c2).theta == contact(c2, c1).theta

    def test_infinite_contact_of_a_branch_with_itself(self):
        a = Parametrization.from_pairs(2, [(3, 1)])
        b = Parametrization.from_pairs(2, [(3, -1)])
        assert contact(a, b).is_infinite


def _random_branch(rng):
    n = rng.choice([2, 3, 4])
    m = rng.choice([k for k in range(n + 1, 3 * n + 2) if k % n])
    pairs = [(m, rng.choice([1, 1, 2, F(1, 2)]))]
    top = m
    from math import gcd

    g = gcd(n, m)
    if g > 1:
        top = m + rng.choice([k for k in range(1, 2 * g + 1) if gcd(k, g) == 1])
        pairs.append((top, rng.choice([1, -1, F(3, 2)])))
    if rng.random() < 0.5:
        pairs.append((top + rng.randint(1, 4), F(rng.randint(1, 5), 2)))
    pairs.sort()
    return Parametrization.from_pairs(n, pairs)


def _distinct(a, b):
    return not a.same_branch(b)


class TestTriangularInequality:
    def test_concrete_triple_of_contacts_and_intersections(self, sextic):
        c1 = Parametrization.from_pairs(3, [(7, 1), (8, 1)])
        c2 = puiseux_parametrization(sextic)
        h = Parametrization.from_pairs(3, [(7, 1)])
        contacts = sorted(
            [contact(c1, c2).theta, contact(c1, h).theta, contact(c2, h).theta]
        )
        assert contacts == [F(8, 3), F(8, 3), F(17, 6)]
        normalized = sorted(
            [
                F(intersection(c1, c2), c1.n * c2.n),
                F(intersection(c1, h), c1.n * h.n),
                F(intersection(c2, h), c2.n * h.n),
            ]
        )
        assert normalized[0] == normalized[1] <= normalized[2]
        assert normalized == [F(22, 9), F(22, 9), F(5, 2)]

    def test_random_triples(self):
        rng = random.Random(271828)
        done = 0
        while done < 20:
            a, b, c = (_random_branch(rng) for _ in range(3))
            if not (_distinct(a, b) and _distinct(a, c) and _distinct(b, c)):
                continue
            contacts = sorted(
                [contact(a, b).theta, contact(a, c).theta, contact(b, c).theta]
            )
            assert contacts[0] == contacts[1] <= contacts[2]
            normalized = sorted(
                [
                    F(intersection(a, b), a.n * b.n),
                    F(intersection(a, c), a.n * c.n),
                    F(intersection(b, c), b.n * c.n),
                ]
            )
            assert normalized[0] == normalized[1] <= normalized[2]
            done += 1


class TestContactRatioEquality:
    """Pairs with contact beyond beta_k/beta_0 share the ratios of their data."""

    @pytest.mark.parametrize(
        "a_pairs,a_n,b_pairs,b_n",
        [
            # contact 8/3 > 14/6: level-1 data proportional
            ([(14, 1), (16, 1), (17, 1)], 6, [(7, 1)], 3),
            ([(14, 1), (16, 1), (17, 1)], 6, [(7, 1), (8, 1)], 3),
            # same class, contact beyond beta_2/beta_0: all ratios 1
            ([(6, 1), (7, 1)], 4, [(6, 1), (7, 1), (9, 1)], 4),
        ],
    )
    def test_ratios_up_to_the_contact_level(self, a_pairs, a_n, b_pairs, b_n):
        a = Parametrization.from_pairs(a_n, a_pairs)
        b = Parametrization.from_pairs(b_n, b_pairs)
        cda, cdb = char_sequence(a), char_sequence(b)
        theta = contact(a, b).theta
        level = max(
            k
            for k in range(cda.genus + 1)
            if theta > F(cda.char_exponents[k], cda.mult)
        )
        for i in range(level + 1):
            assert (
                F(cda.gcd_sequence[i], cdb.gcd_sequence[i])
                == F(cda.char_exponents[i], cdb.char_exponents[i])
                == F(cda.generators[i], cdb.generators[i])
            )


class TestSwap:
    def test_swap_polynomialize_roundtrip(self):
        # (t^4, t^3) swapped is the branch (t^3, t^4)
        phi = Parametrization.from_pairs(4, [(3, 1)])
        swapped = swap_parametrization(phi)
        assert swapped.n == 3
        assert swapped.y.terms == {4: F(1)}

    def test_swap_matches_polynomial_swap(self):
        phi = Parametrization.from_pairs(5, [(4, 1), (6, 1)])
        swapped = swap_parametrization(phi, trunc=40)
        poly = implicitize(Parametrization.from_pairs(5, [(4, 1), (6, 1)])).swap_xy()
        value = substitute(poly, swapped.n, swapped.y)
        assert value.is_zero_below_trunc()

    def test_swap_needs_rational_root(self):
        with pytest.raises(NonRationalCoefficient):
            swap_parametrization(Parametrization.from_pairs(4, [(3, 2)]))
