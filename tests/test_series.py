"""Truncated series arithmetic: orders, units, roots, substitution."""

import random
from fractions import Fraction as F

import pytest

from planebranch.errors import (
    ConstantTermNotOne,
    CrossCheckFailed,
    InvalidParameterChange,
    NeedsTruncation,
    PrecisionExhausted,
    TagMismatch,
)
from planebranch.series import (
    EXACT,
    BivarPoly,
    TSeries,
    exact_root,
    inverse_parameter,
    nth_root_unit,
    reparametrize,
    solve_composition,
    substitute,
)
from conftest import binomial_coefficient

def ts(pairs, trunc=EXACT):
    return TSeries.from_terms("t", pairs, trunc)


class TestOrder:
    def test_order_reads_smallest_live_exponent(self):
        s = ts([(44, 9), (45, -9), (46, 6), (47, -9), (48, 10), (49, -6), (51, -1)], 60)
        assert s.order() == 44

    def test_zero_series_keeps_its_truncation_open(self):
        # no term is known below the bound, so the order stays open; the
        # bound itself is read off the series, not off its order
        assert TSeries.zero("t", 30).order() is None
        assert TSeries.zero("t").order() is None

    def test_two_term_series(self):
        assert ts([(7, 1), (8, 1)], 100).order() == 7


class TestRingOps:
    def test_square_of_binomial(self):
        b = ts([(7, 1), (9, 1)], 100)
        assert (b * b).terms == {14: F(1), 16: F(2), 18: F(1)}

    def test_cube_against_repeated_multiplication(self):
        b = ts([(7, 1), (9, 1)], 100)
        assert (b ** 3).terms == (b * b * b).terms == {
            21: F(1), 23: F(3), 25: F(3), 27: F(1)
        }

    def test_add_zero_is_identity(self):
        s = ts([(3, F(2, 5)), (8, -1)], 40)
        assert (s + TSeries.zero("t", 40)).terms == s.terms

    def test_mismatched_tags_rejected(self):
        with pytest.raises(TagMismatch):
            ts([(1, 1)], 10) + TSeries.from_terms("u", [(1, 1)], 10)

    def test_ring_laws_on_random_series(self):
        rng = random.Random(20240811)
        for _ in range(25):
            def rand_series():
                pairs = [
                    (rng.randint(0, 12), F(rng.randint(-4, 4), rng.randint(1, 5)))
                    for _ in range(4)
                ]
                return TSeries.from_terms("t", pairs, 25)

            a, b, c = rand_series(), rand_series(), rand_series()
            assert (a * b).terms == (b * a).terms
            assert ((a * b) * c).agrees_with(a * (b * c))
            assert (a * (b + c)).agrees_with(a * b + a * c)

    def test_multiplication_trunc_accounts_for_orders(self):
        # each factor's unknown tail enters at trunc + the other's order
        a = ts([(3, 1)], 10)
        b = ts([(5, 1)], 20)
        assert (a * b).trunc == min(10 + 5, 20 + 3)


class TestNthRootUnit:
    def test_root_of_one_is_one(self):
        for n in (1, 2, 5):
            assert nth_root_unit(TSeries.constant("t", 1, 30), n).terms == {0: F(1)}

    def test_quartic_root_matches_binomial_series(self):
        root = nth_root_unit(ts([(0, 1), (1, 4)], 8), 4)
        expected = {
            k: binomial_coefficient(F(1, 4), k) * F(4) ** k for k in range(8)
        }
        expected = {k: c for k, c in expected.items() if c}
        assert root.terms == expected
        assert root.terms[1] == 1 and root.terms[2] == F(-3, 2)

    def test_round_trip_on_random_units(self):
        rng = random.Random(4711)
        for _ in range(50):
            n = rng.randint(2, 6)
            pairs = [(0, 1)] + [
                (rng.randint(1, 20), F(rng.randint(-3, 3), rng.randint(1, 4)))
                for _ in range(4)
            ]
            s = TSeries.from_terms("t", pairs, 40)
            if s.terms.get(0) != 1:
                continue
            root = nth_root_unit(s, n)
            assert (root ** n).agrees_with(s, below=40)

    def test_requires_constant_term_one(self):
        with pytest.raises(ConstantTermNotOne):
            nth_root_unit(ts([(0, 2)], 10), 3)


class TestExactRoot:
    """Integer roots past the float range (about 1e308) are exact."""

    def test_huge_square(self):
        assert exact_root(F(3**660), 2) == 3**330

    def test_huge_non_square(self):
        assert exact_root(F(3**661), 2) is None
        assert exact_root(F(3**660 + 1), 2) is None

    def test_odd_root_of_a_huge_negative(self):
        q = F(-(3**663), 7**600)
        assert exact_root(q, 3) == F(-(3**221), 7**200)

    def test_small_values(self):
        for a in range(200):
            for k in range(1, 6):
                r = round(a ** (1 / k))
                assert exact_root(F(a), k) == (r if r**k == a else None)


class TestSubstitute:
    def test_sextic_on_the_cusp(self, sextic):
        value = substitute(sextic, 3, TSeries.monomial("t", 7))
        assert value.terms == {
            44: F(9), 45: F(-9), 46: F(6), 47: F(-9), 48: F(10), 49: F(-6), 51: F(-1)
        }
        assert value.exact

    def test_deformed_cubic_vanishes_on_its_branch(self, deformed37):
        value = substitute(deformed37, 3, ts([(7, 1), (9, 1)]))
        assert value.is_zero_below_trunc() and value.exact

    def test_cusp_identity(self):
        cusp = BivarPoly.from_pairs([((0, 2), 1), ((3, 0), -1)])
        value = substitute(cusp, 2, TSeries.monomial("t", 3))
        assert value.is_zero_below_trunc() and value.exact

    def test_substitution_is_a_ring_homomorphism(self):
        rng = random.Random(99)
        ys = ts([(3, 1), (4, -2)], 30)
        for _ in range(10):
            def rand_poly():
                return BivarPoly.from_pairs(
                    [
                        ((rng.randint(0, 3), rng.randint(0, 3)), rng.randint(-3, 3))
                        for _ in range(4)
                    ]
                )

            p, q = rand_poly(), rand_poly()
            left = substitute(p * q, 2, ys)
            right = substitute(p, 2, ys) * substitute(q, 2, ys)
            assert left.agrees_with(right)
            add_left = substitute(p + q, 2, ys)
            add_right = substitute(p, 2, ys) + substitute(q, 2, ys)
            assert add_left.agrees_with(add_right)


class TestDivexact:
    def test_exact_quotient(self, cusp37):
        factor = BivarPoly.from_pairs([((1, 0), 2), ((0, 1), F(1, 3))])
        assert (cusp37 * factor).divexact(factor) == cusp37

    @pytest.mark.parametrize(
        "divisor", [BivarPoly.zero(), BivarPoly.monomial(0, 1)], ids=["zero", "non-divisor"]
    )
    def test_failure_is_a_cross_check(self, cusp37, divisor):
        with pytest.raises(CrossCheckFailed):
            cusp37.divexact(divisor)


class TestReparametrize:
    def test_identity_parameter(self):
        out = reparametrize(ts([(2, 1)], 20), TSeries.monomial("u", 1, 1, 20))
        assert out.terms == {2: F(1)} and out.var == "u"

    def test_scaling_parameter(self):
        out = reparametrize(ts([(1, 1)], 20), TSeries.monomial("u", 1, 2, 20))
        assert out.terms == {1: F(2)}

    def test_rejects_wrong_order(self):
        with pytest.raises(InvalidParameterChange):
            reparametrize(ts([(1, 1)], 10), TSeries.from_terms("u", [(2, 1)], 10))

    def test_inverse_of_perturbed_power_restores_monomial(self):
        # x(t) = t^4 (1 + t^3); w = x^(1/4); x(w^{-1}(u)) must be u^4
        n = 4
        unit = ts([(0, 1), (3, 1)], 24)
        w = nth_root_unit(unit, n).shift(1)
        rho = inverse_parameter(w)
        x_full = ts([(4, 1), (7, 1)], 28)
        back = reparametrize(x_full, rho)
        expected = TSeries.monomial("t", 4, 1, back.trunc)
        assert back.agrees_with(expected)

    def test_solve_composition_inverts_reparametrize(self):
        w = ts([(1, 1), (2, F(1, 3)), (4, -1)], 18)
        s = ts([(2, 1), (3, 5), (7, F(2, 7))], 18)
        (y,) = solve_composition([s], w)
        assert reparametrize(y, w).agrees_with(s)


class TestSolveComposition:
    def test_several_targets_equal_the_single_target_solves(self):
        # each target keeps its own truncation min(target.trunc, w.trunc):
        # below, at and above that of w, and exact
        rng = random.Random(3141)
        for _ in range(10):
            wt = rng.randint(8, 20)
            def rand(lo, hi):
                return [(e, F(rng.randint(-5, 5), rng.randint(1, 4))) for e in range(lo, hi)]

            w = ts([(1, 1)] + rand(2, wt), wt)
            targets = [ts(rand(1, 2 * wt), trunc) for trunc in (wt - 3, wt, wt + 5, EXACT)]
            targets.append(TSeries.monomial("t", 1, 1, wt))
            together = solve_composition(targets, w)
            for target, joint in zip(targets, together):
                (alone,) = solve_composition([target], w)
                assert (joint.terms, joint.trunc) == (alone.terms, alone.trunc)
            assert [s.trunc for s in together] == [wt - 3, wt, wt, wt, wt]
            assert together[-1] == inverse_parameter(w)

    def test_exact_input_needs_a_truncation(self):
        exact = ts([(1, 1), (2, 1)])
        with pytest.raises(NeedsTruncation):
            solve_composition([ts([(3, 1)])], exact)


class TestCoeff:
    def test_reading_past_the_truncation_is_precision_exhausted(self):
        s = ts([(2, 1)], 5)
        assert s.coeff(4) == 0
        with pytest.raises(PrecisionExhausted) as info:
            s.coeff(5)
        assert info.value.needed == 6


class TestTruncationSoundness:
    def test_larger_trunc_never_changes_reported_coefficients(self):
        base = [(0, 1), (1, F(1, 2)), (4, -3), (9, F(5, 7))]
        for build in (
            lambda T: inverse_parameter(TSeries.from_terms("t", base, T).shift(1)),
            lambda T: nth_root_unit(TSeries.from_terms("t", base, T), 3),
        ):
            small, large = build(12), build(37)
            assert large.agrees_with(small, below=12)

    def test_substitution_trunc_soundness(self, sextic):
        def run(T):
            return substitute(
                sextic, 6, TSeries.from_terms("t", [(14, 1), (16, 1), (17, 1)], T)
            )

        small, large = run(30), run(90)
        assert large.agrees_with(small)
