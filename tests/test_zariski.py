"""Elimination moves, genus-one reduction, the invariant and inference."""

import dataclasses
import functools
import hashlib
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from planebranch.errors import (
    AmbiguousEvidence,
    CrossCheckFailed,
    DegenerateMove,
    HypothesisNotMet,
    NeedsTruncation,
    NonIntegralResult,
    NotAnInvariant,
    NotPrimitive,
    NotRemovable,
    NotSingular,
    PrecisionExhausted,
    WrongEquisingularityClass,
)
from planebranch.geometry import (
    Parametrization,
    contact_from_intersection,
    implicitize,
    intersection_poly_param,
    puiseux_parametrization,
)
from planebranch import zariski
from planebranch.semigroup import CharData, char_sequence, contains, rep_nm
from planebranch.series import BivarPoly, TSeries
from planebranch.zariski import (
    apply_pmove,
    apply_qmove,
    eliminate_term,
    genus1_reduce,
    infer_zariski,
    is_in_b,
    replay_moves,
    zariski_invariant,
)
from conftest import SEXTIC_TERMS, lift_reference, witness_by_all_slots
from test_golden import GOLDEN, SPECIAL_56, dense

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)
import gen  # noqa: E402


class TestNormalizeLeading:
    def test_char_data_invariant_under_scaling(self):
        rng = random.Random(7)
        checked = 0
        while checked < 20:
            n = rng.choice([3, 4, 5])
            m = rng.choice([k for k in range(n + 1, 3 * n) if k % n])
            pairs = [(m, F(rng.randint(1, 9), rng.randint(1, 4)))]
            pairs.append((m + rng.randint(1, 5), rng.randint(1, 5)))
            phi = Parametrization.from_pairs(n, pairs)
            before = char_sequence(phi)
            after = char_sequence(Parametrization(n, phi.y.scale(1 / pairs[0][1])))
            assert before == after
            checked += 1


class TestEliminateTerm:
    def test_quartic_exponent_12_uses_a_coordinate_shift(self):
        phi = Parametrization.from_pairs(4, [(7, 1), (10, 1), (12, 1)]).with_trunc(30)
        new, rec = eliminate_term(phi, 12)
        assert (rec.kind, rec.a, rec.b, rec.c) == ("q", 4, 0, F(-1))
        assert 12 not in new.y.terms

    def test_quartic_exponent_10_uses_the_4_7_parameter_move(self):
        phi = Parametrization.from_pairs(4, [(7, 1), (10, 1), (12, 1)]).with_trunc(30)
        new, rec = eliminate_term(phi, 10)
        assert (rec.kind, rec.a, rec.b, rec.c) == ("p", 0, 2, F(4, 7))
        assert 10 not in new.y.terms
        assert rec.reparametrization is not None

    def test_deformed_cubic_reduces_to_the_cusp(self):
        phi = Parametrization.from_pairs(3, [(7, 1), (9, 1)]).with_trunc(30)
        new, rec = eliminate_term(phi, 9)
        assert (rec.kind, rec.a, rec.b, rec.c) == ("q", 4, 0, F(-1))
        assert new.y.terms == {7: F(1)}

    def test_triangularity_below_the_target(self):
        phi = Parametrization.from_pairs(
            4, [(7, 1), (10, F(1, 3)), (11, 5), (12, 1)]
        ).with_trunc(30)
        new, _ = eliminate_term(phi, 12)
        for e in range(12):
            assert new.y.terms.get(e) == phi.y.terms.get(e)

    def test_gap_exponent_is_not_removable(self):
        phi = Parametrization.from_pairs(4, [(7, 1), (13, 1)]).with_trunc(30)
        with pytest.raises(NotRemovable):
            eliminate_term(phi, 13)

    def test_move_that_outruns_its_truncation_is_refused(self):
        # the b = 2 p-move at 10 costs n - 1 = 3 orders: O(t^12) -> O(t^9),
        # so the coefficient it was meant to kill is no longer known
        phi = Parametrization.from_pairs(4, [(7, 1), (10, 1)]).with_trunc(12)
        with pytest.raises(PrecisionExhausted):
            eliminate_term(phi, 10)

    def test_move_that_leaves_its_target_at_the_truncation_is_refused(self):
        # O(t^13) -> O(t^10): the coefficient at 10 is unknown after the move
        phi = Parametrization.from_pairs(4, [(7, 1), (10, 1)]).with_trunc(13)
        with pytest.raises(PrecisionExhausted):
            eliminate_term(phi, 10)

    def test_move_that_disturbs_a_lower_coefficient_is_refused(self):
        # with t^6 on the grid below m = 7, the q-move y -> y - x*y that
        # kills t^10 also puts -t^9 where y had no term
        phi = Parametrization.from_pairs(3, [(6, 1), (7, 1), (10, 1)])
        with pytest.raises(CrossCheckFailed, match="disturbed"):
            eliminate_term(phi, 10)

    @pytest.mark.parametrize(
        "j,kind,b", [(11, "q", 1), (14, "q", 2), (21, "q", 3), (10, "p", 2), (17, "p", 3)]
    )
    def test_closed_form_slope_matches_the_probed_response(self, j, kind, b):
        # a move of size c shifts the coefficient at j by c * L**b (q-move)
        # or -c * (m/n) * L**b (p-move); probe the response at c = 1 and 0
        rng = random.Random(j)
        lead = F(rng.choice([-3, -2, 2, 3]), rng.choice([1, 5, 7]))
        pairs = [(7, lead)] + [(e, F(rng.randint(1, 9), rng.randint(1, 4))) for e in range(8, 30)]
        phi = Parametrization.from_pairs(4, pairs).with_trunc(30)
        _, rec = eliminate_term(phi, j)
        assert (rec.kind, rec.b) == (kind, b)
        if kind == "q":
            moved = [apply_qmove(phi, rec.a, b, c) for c in (0, 1)]
            closed = lead ** b
        else:
            moved = [apply_pmove(phi, b, c)[0] for c in (0, 1)]
            closed = -F(7, 4) * lead ** b
        probed = moved[1].y.coeff(j) - moved[0].y.coeff(j)
        assert probed == closed
        assert rec.c == -phi.y.coeff(j) / probed


class TestGenus1Reduce:
    def test_quartic_family_generic_member(self, quartic_family):
        res = genus1_reduce(quartic_family(0))
        assert res.exponent == 13 and res.coefficient == F(-17, 14)

    def test_quartic_family_special_member(self, quartic_family):
        res = genus1_reduce(quartic_family(F(17, 14)))
        assert not res.finite
        assert res.normal_form.y.terms == {7: F(1)}

    def test_a_negative_lead_with_no_move_leaves_a_form_in_lowest_terms(self):
        # y / L at L = -2/3 is divided by a negative numerator; with no
        # removable term no move puts it over a positive denominator again
        res = genus1_reduce(Parametrization.from_pairs(3, [(4, F(-2, 3))]))
        assert res.normal_form == Parametrization.from_pairs(3, [(4, 1)], 12)
        assert res.normal_form.y.den == 1 and res.leading_scale == F(-3, 2)

    def test_cubic_branch(self, branch_c1):
        res = genus1_reduce(branch_c1)
        assert res.exponent == 8 and res.coefficient == F(1)

    def test_low_terms_divisible_by_n_are_removed(self):
        # ord(y) = 8 is on the n-grid; the class is still K(4, 11)
        phi = Parametrization.from_pairs(4, [(8, 1), (11, 1), (13, 2)])
        res = genus1_reduce(phi)
        assert res.normal_form.y.terms.get(8) is None
        assert min(res.normal_form.y.terms) == 11

    @pytest.mark.parametrize(
        "phi,error",
        [
            (Parametrization.from_pairs(4, [(6, 1)]), NotPrimitive),
            (Parametrization.from_pairs(4, [(6, 1)], trunc=8), PrecisionExhausted),
            (Parametrization.from_pairs(1, [(2, 1)]), NotSingular),
        ],
        ids=["exact t^6", "t^6 + O(t^8)", "smooth"],
    )
    def test_malformed_input_raises_what_zariski_invariant_raises(self, phi, error):
        with pytest.raises(error):
            genus1_reduce(phi)
        with pytest.raises(error):
            zariski_invariant(phi)

    def test_survivors_sit_outside_the_semigroup(self, quartic_family):
        res = genus1_reduce(quartic_family(3))
        cd = CharData.from_char_exponents((4, 7))
        for j in res.normal_form.y.terms:
            if j > 7:
                assert not contains(j + 4, cd)


class TestIsInB:
    def test_special_quartic_is_equivalent_to_y4_x7(self, quartic_family):
        assert is_in_b(quartic_family(F(17, 14)), 4, 7)

    def test_deformed_cubic_is_equivalent_to_y3_x7(self):
        assert is_in_b(Parametrization.from_pairs(3, [(7, 1), (9, 1)]), 3, 7)

    def test_branch_with_finite_invariant_is_not(self, branch_c1):
        assert not is_in_b(branch_c1, 3, 7)

    def test_wrong_class_is_rejected(self, branch_c1):
        with pytest.raises(WrongEquisingularityClass):
            is_in_b(branch_c1, 4, 7)

    def test_genus_two_branch_is_not_of_its_reduced_class(self):
        with pytest.raises(WrongEquisingularityClass):
            is_in_b(GOLDEN["genus 2 K(8,14,27)"][0](), 8, 14)

    def test_branch_known_below_the_working_bound_is_refused(self):
        # K(4, 7) is decided at truncation 18 + 2*4 = 26
        with pytest.raises(PrecisionExhausted):
            is_in_b(Parametrization.from_pairs(4, [(7, 1), (9, 1)], trunc=25), 4, 7)
        assert not is_in_b(Parametrization.from_pairs(4, [(7, 1), (9, 1)], trunc=26), 4, 7)

    def test_golden_special_branch_is_in_b(self):
        assert is_in_b(SPECIAL_56, 5, 6)


class TestZariskiInvariant:
    def test_quartic_branch_with_witness(self, quartic_family):
        res = zariski_invariant(quartic_family(0))
        assert res.exponent == 13
        assert res.witness.y.terms == {7: F(1), 10: F(1), 12: F(1), 13: F(17, 14)}

    def test_sextic_root(self, sextic):
        phi2 = puiseux_parametrization(sextic)
        res = zariski_invariant(phi2)
        assert res.exponent == 16

    def test_monomial_branch_is_infinite(self):
        res = zariski_invariant(Parametrization.from_pairs(2, [(5, 1)]))
        assert not res.finite

    def test_invariant_contract(self, quartic_family, branch_c1, sextic):
        branches = [
            quartic_family(0),
            quartic_family(1),
            branch_c1,
            puiseux_parametrization(sextic),
        ]
        for phi in branches:
            cd = char_sequence(phi)
            res = zariski_invariant(phi)
            assert res.finite
            assert res.coefficient != 0
            assert not contains(res.exponent + cd.mult, cd)
            assert res.exponent > cd.char_exponents[1]
            if cd.genus >= 2:
                assert res.exponent <= cd.char_exponents[2]

    def test_witness_attains_the_extremal_intersection(self, quartic_family):
        phi = quartic_family(0)
        res = zariski_invariant(phi)
        observed = intersection_poly_param(implicitize(res.witness), phi)
        assert observed == (4 - 1) * 7 + 13 == 34
        theta = contact_from_intersection(char_sequence(phi), observed, res.witness.n)
        assert theta.theta == F(13, 4)

    def test_second_surviving_slot_is_matched_too(self):
        # lambda = 9 here, and the witness must also fix the slot at 13
        phi = Parametrization.from_pairs(4, [(7, 1), (9, 1), (10, 1)])
        res = zariski_invariant(phi)
        assert res.exponent == 9
        assert is_in_b(res.witness, 4, 7)
        assert res.witness.y.terms.get(9) != phi.y.terms.get(9)

    def test_genus_two_with_trivial_reduced_family(self):
        # every branch of the reduced class K(3, 4) is equivalent to
        # y^3 = x^4, so the invariant saturates at the second exponent
        phi = Parametrization.from_pairs(6, [(8, 1), (10, 1), (13, 1)])
        cd = char_sequence(phi)
        assert cd.generators == (6, 8, 29)
        res = zariski_invariant(phi)
        assert res.exponent == 13 and res.coefficient == 1
        observed = intersection_poly_param(implicitize(res.witness), phi)
        assert observed == cd.generators[2] == 29

    def test_genus_two_with_survivor_below_second_exponent(self):
        # reduced branch (s^4, s^7 + s^9) has a survivor at 9: lambda = 18
        phi = Parametrization.from_pairs(8, [(14, 1), (18, 1), (21, 1)])
        res = zariski_invariant(phi)
        assert res.exponent == 18
        assert res.witness.y.terms == {7: F(1)}
        observed = intersection_poly_param(implicitize(res.witness), phi)
        assert observed == 3 * 14 + 18 == 60

    def test_genus_three_branch(self):
        phi = Parametrization.from_pairs(8, [(12, 1), (14, 1), (15, 1)])
        cd = char_sequence(phi)
        assert cd.char_exponents == (8, 12, 14, 15)
        assert cd.generators == (8, 12, 26, 53)
        res = zariski_invariant(phi)
        assert res.exponent == 14
        assert res.witness.y.terms == {3: F(1)}
        observed = intersection_poly_param(implicitize(res.witness), phi)
        assert observed == cd.generators[2] == 26

    def test_witness_sweeps_kill_only_known_coefficients(self, monkeypatch):
        # the main sweep of a dense K(4,13) branch kills each coefficient
        # below its own truncation; the witness, built by the differential
        # route with no sweep, stays the locked one
        seen = []
        original = zariski._eliminate

        def logged(y, n, m, j):
            new, record = original(y, n, m, j)
            seen.append((j, new.trunc))
            return new, record

        monkeypatch.setattr(zariski, "_eliminate", logged)
        res = zariski_invariant(dense(413, 4, range(14, 44), {13: 1}))
        assert seen and all(j < trunc for j, trunc in seen)
        assert (res.exponent, res.coefficient) == (14, F(3, 2))
        assert hashlib.sha256(str(res.witness).encode()).hexdigest() == (
            "fd9f40eba101c5f4b604f6ba32d6bae129d7cb1c13b3204888fa4525802a89f4"
        )

    @pytest.mark.parametrize(
        "n,m,slot", [(5, 7, 8), (5, 7, 13), (5, 7, 18), (6, 7, 9), (6, 7, 16), (6, 7, 23)]
    )
    def test_witness_matches_the_all_slots_oracle(self, n, m, slot):
        # slots of K(5, 7): 8, 11, 13, 18; of K(6, 7): 9, 10, 11, 16, 17, 23.
        # Forcing the slots below `slot` to reduce to 0 puts lambda there.
        lead = F(-2, 3) if n == 5 else F(3, 2)
        phi = dense(10 * n + m, n, range(m + 1, (n - 1) * (m - 1)), {m: lead})
        phi = witness_by_all_slots(phi, m, below=slot)
        res = genus1_reduce(phi)
        assert res.exponent == slot
        assert res.witness == witness_by_all_slots(phi, m)

    def test_infinite_series_branch_has_infinite_invariant(self):
        from planebranch.series import BivarPoly

        f = BivarPoly.from_pairs([((0, 2), 1), ((3, 0), -1), ((4, 0), -1)])
        phi = puiseux_parametrization(f, trunc=30)
        assert not zariski_invariant(phi).finite


def _slots(n, m):
    """The exponents s in (m, mu - n) with s + n outside <n, m>."""
    mu = (n - 1) * (m - 1)
    return [s for s in range(m + 1, mu - n) if rep_nm(s + n, n, m)[0] < 0]


CLASSES = [(3, 4), (3, 7), (4, 5), (4, 7), (5, 6), (5, 7), (5, 8), (6, 7), (7, 9)]


@functools.cache
def planted(n, m):
    """slot -> a dense branch of K(n, m) with the all-slots oracle's loop run
    below the slot; at None the loop has run through, so the branch is the
    oracle's witness.  Each is a step of one loop, so all share its witness;
    planting every slot leaves a branch in B."""
    lead = F(3, 2) if n % 2 == 0 else F(-2, 3)
    phi = dense(10 * n + m, n, range(m + 1, (n - 1) * (m - 1)), {m: lead})
    return {slot: witness_by_all_slots(phi, m, below=slot) for slot in _slots(n, m) + [None]}


def plus_term(phi, k, c=F(5, 7)):
    return Parametrization(phi.n, phi.y + TSeries.monomial(phi.y.var, k, c))


class TestRoute:
    """The differential route against the sweep and the all-slots oracle."""

    @staticmethod
    def check(phi, n, m, oracle):
        res = genus1_reduce(phi)
        cd = CharData.from_char_exponents((n, m))
        assert zariski._route(phi.y, cd) == (res.exponent, res.coefficient)
        assert res.witness == oracle
        assert is_in_b(res.witness, n, m)
        return res

    @pytest.mark.parametrize("n,m", CLASSES)
    def test_every_slot_and_the_infinite_case(self, n, m):
        branches = planted(n, m)
        for slot, phi in branches.items():
            assert self.check(phi, n, m, branches[None]).exponent == slot

    @pytest.mark.parametrize("n,m", CLASSES)
    def test_the_route_reads_y_only_below_mu_minus_n(self, n, m):
        # a term at t**k enters omega, and every form that cancels a lead of
        # omega, at t**(k + n - 1) or above: from k = mu - n on, that is past
        # omega's cut at mu - 1.  At k = mu - n - 1 it lands on mu - 2, whose
        # value mu - 1 is the largest gap of <n, m>: the last slot
        mu = (n - 1) * (m - 1)
        cd = CharData.from_char_exponents((n, m))
        branches = planted(n, m)
        plain = Parametrization.from_pairs(n, [(m, 1)])
        for phi in [plain, *branches.values()]:
            route = zariski._route(phi.y, cd)
            for k in range(mu - n, mu + 2 * n):
                assert zariski._route(plus_term(phi, k).y, cd) == route
        for member in (plain, branches[None]):
            assert zariski._route(member.y, cd) == (None, None)
            assert zariski._route(plus_term(member, mu - n - 1).y, cd)[0] == mu - n - 1

    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_golden_reduced_branches(self, name):
        phi = GOLDEN[name][0]()
        cd = char_sequence(phi)
        reduced = zariski._reduced_branch(phi, cd)
        m = cd.reduced_first
        self.check(reduced, cd.reduced_mult, m, witness_by_all_slots(reduced, m))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_dense_k_8_11(self, seed):
        phi = dense(seed, 8, range(12, 70 + 2 * 8), {11: 1})
        assert self.check(phi, 8, 11, witness_by_all_slots(phi, 11)).finite

    @pytest.mark.parametrize("n,m,seed", [(3, 7, 37), (4, 9, 49), (5, 11, 511)])
    def test_x_powers_below_m(self, n, m, seed):
        # terms at multiples of n below m make y**b lead below b*m; the
        # route drops them, as the sweep's first moves do, and keeps its
        # walk triangular (kept, K(4,9) and K(5,11) walk back down)
        mu = (n - 1) * (m - 1)
        phi = dense(seed, n, [*range(2 * n, m, n), *range(m + 1, mu)], {m: 1})
        self.check(phi, n, m, witness_by_all_slots(phi, m))

    def test_a_slot_the_route_returns_twice_is_a_cross_check_failure(self, monkeypatch):
        phi = Parametrization.from_pairs(4, [(7, 1), (9, 1), (10, 1)])
        route = zariski._route
        monkeypatch.setattr(zariski, "_route", lambda _, cd: route(phi.y, cd))
        with pytest.raises(CrossCheckFailed, match="slot 9 after clearing 9"):
            genus1_reduce(phi)


# name -> (branch of genus 2 or 3, lambda): e1*k below beta_2, or beta_2
GENUS_2_AND_3 = {
    "sextic K(6,14,17)": (lambda: puiseux_parametrization(BivarPoly(dict(SEXTIC_TERMS))), 16),
    "K(6,14,17) at beta_2": (lambda: dense(617, 6, range(18, 30), {14: 2, 17: F(1, 3)}), 17),
    "golden K(8,14,27)": (GOLDEN["genus 2 K(8,14,27)"][0], 18),
    "K(8,14,27) at beta_2": (lambda: dense(827, 8, range(28, 40), {14: 1, 27: F(-3, 2)}), 27),
    "K(12,28,34,37) at 4k": (
        lambda: dense(1237, 12, [32, 36, 38, 40, 41, 42], {28: 1, 34: 1, 37: -1}), 32
    ),
    "K(12,28,34,37) at beta_2": (
        lambda: dense(1234, 12, [36, 38, 39, 40, 41], {28: 1, 34: 2, 37: 1}), 34
    ),
    # with x-powers below beta_1, which the route drops
    "sextic after y -> y + (2/3)*x**2": (
        lambda: apply_qmove(puiseux_parametrization(BivarPoly(dict(SEXTIC_TERMS))), 3, 0, F(2, 3)),
        16,
    ),
    "K(6,16,41) with x**2 at 2k": (
        lambda: dense(641, 6, [12, *range(18, 41, 2), *range(41, 50)], {16: 1, 41: 1}), 20
    ),
    "K(6,16,41) with x**2 at beta_2": (
        lambda: dense(642, 6, [12, 18, *range(22, 41, 2), *range(41, 50)], {16: 1, 41: 1}), 41
    ),
    "K(9,21,25) with x**2 at 3k": (
        lambda: dense(925, 9, [18, 24, *range(25, 40)], {21: 1, 25: 1}), 24
    ),
    "K(9,21,25) with x**2 at beta_2": (
        lambda: dense(926, 9, [18, *range(25, 40)], {21: 1, 25: 1}), 25
    ),
}


class TestRouteAtGenusTwoAndThree:
    """The route on a branch of genus >= 2 itself, against the lift from its
    reduced branch that it replaced."""

    @pytest.mark.parametrize("name", list(GENUS_2_AND_3))
    def test_zariski_invariant_matches_the_lift(self, name):
        build, lam = GENUS_2_AND_3[name]
        phi = build()
        short = phi.with_trunc(char_sequence(phi).char_exponents[-1] + 1)
        for branch in (phi, short):
            res = zariski_invariant(branch)
            assert (res.exponent, res.coefficient) == lift_reference(branch)
            assert res.exponent == lam

    @pytest.mark.parametrize("name", list(GENUS_2_AND_3))
    def test_the_route_reads_y_only_below_beta_2_plus_one(self, name):
        # a term at t**k, k > beta_2, enters omega and every form at value
        # k + n or above, past omega's cut at beta_2 + n; one at beta_2
        # moves c when lambda = beta_2
        phi = GENUS_2_AND_3[name][0]()
        cd = char_sequence(phi)
        n, beta2 = cd.mult, cd.char_exponents[2]
        route = zariski._route(phi.y, cd)
        for k in range(beta2 + 1, beta2 + 2 * n):
            assert zariski._route(plus_term(phi, k).y, cd) == route
        moved = zariski._route(plus_term(phi, beta2).y, cd)
        assert (moved != route) == (route[0] == beta2)
        assert moved[0] == route[0]

    def test_a_route_that_finds_no_value_is_a_cross_check_failure(self):
        cd = CharData.from_char_exponents((4, 6, 7))
        with pytest.raises(CrossCheckFailed, match="found no value"):
            zariski._route(Parametrization.from_pairs(4, [(6, 1)]).y, cd)


# (class, planted survivor of the reduced branch): the ten classes of the
# geometry-pairs workload, and K(4,6,7) and K(8,14,19), the smallest and the
# largest gap between beta_g + 1 and e1 * (mu_1 + 2n_1)
KNOWN_PAST_BETA_G = [
    ((4, 6, 7), None), ((4, 6, 9), None), ((4, 10, 11), None), ((6, 8, 11), None),
    ((6, 9, 10), None), ((6, 10, 13), None), ((6, 14, 17), 8), ((8, 10, 17), 7),
    ((8, 12, 13), None), ((8, 14, 19), 9), ((8, 12, 14, 15), None), ((8, 12, 18, 19), None),
]


@pytest.mark.parametrize(
    "beta,red_lam", KNOWN_PAST_BETA_G, ids=[str(beta) for beta, _ in KNOWN_PAST_BETA_G]
)
def test_a_branch_known_past_beta_g_gives_the_exact_result(beta, red_lam):
    # the reduced branch is exact, built from y below beta_2, and the route
    # reads y below beta_2 + 1, so every cut past beta_g gives the exact
    # branch's result, up to e1 * (mu_1 + 2n_1), the precision once asked for
    cd = CharData.from_char_exponents(beta)
    n1, m1 = cd.reduced_mult, cd.reduced_first
    old_need = cd.gcd_sequence[1] * ((n1 - 1) * (m1 - 1) + 2 * n1)
    item = gen.pair_item(random.Random(f"known past beta_g {beta}"), beta, old_need + 2, red_lam)
    phi = Parametrization.from_pairs(item.n, sorted(item.y.items()))
    exact = zariski_invariant(phi)
    assert (exact.exponent, exact.coefficient) == (item.lam, item.coeff)
    replayed = replay_moves(phi, exact)
    for trunc in range(beta[-1] + 1, old_need + 1):
        cut = phi.with_trunc(trunc)
        result = zariski_invariant(cut)
        assert result == exact, trunc
        assert replay_moves(cut, result) == replayed, trunc


def _random_coordinate_change(rng, phi, bound):
    cur = phi.with_trunc(bound)
    n = cur.n
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        c = F(rng.randint(1, 6), rng.randint(1, 4)) * rng.choice([1, -1])
        if roll < 0.4:
            cur = apply_qmove(cur, rng.randint(1, 3), rng.randint(1, 2), c)
        elif roll < 0.6:
            cur = apply_qmove(cur, rng.randint(3, 4), 0, c)
        elif roll < 0.8:
            cur, _ = apply_pmove(cur, rng.randint(2, 3), c)
        else:
            cur = Parametrization(n, cur.y.scale(F(rng.randint(1, 5), rng.randint(1, 3))))
    return cur


class TestCoordinateInvariance:
    @pytest.mark.parametrize(
        "pairs,n,expected",
        [
            ([(7, 1), (10, 1), (12, 1)], 4, 13),
            ([(7, 1), (10, 1), (12, 1), (13, F(17, 14))], 4, None),
            ([(7, 1), (8, 1)], 3, 8),
            ([(7, 1), (9, 1)], 3, None),
        ],
    )
    def test_invariant_stable_under_random_changes(self, pairs, n, expected):
        rng = random.Random(1234 + n + len(pairs))
        phi = Parametrization.from_pairs(n, pairs)
        bound = char_sequence(phi).conductor + 6 * n
        for _ in range(10):
            moved = _random_coordinate_change(rng, phi, bound)
            res = zariski_invariant(moved)
            assert res.exponent == expected

    def test_sextic_invariant_stable_under_changes(self, sextic):
        rng = random.Random(5150)
        phi = puiseux_parametrization(sextic)
        for _ in range(4):
            moved = _random_coordinate_change(rng, phi, 60)
            assert zariski_invariant(moved).exponent == 16


class TestReplay:
    def test_moves_replay_to_the_normal_form(self, quartic_family, branch_c1):
        for phi in (quartic_family(0), quartic_family(F(17, 14)), branch_c1):
            res = zariski_invariant(phi)
            replayed = replay_moves(phi, res)
            assert replayed.y.terms == res.normal_form.y.terms
            assert replayed.trunc == res.normal_form.trunc

    @pytest.mark.parametrize(
        "build",
        [
            *(GOLDEN[name][0] for name in GOLDEN),
            lambda: dense(469, 4, [8, *range(10, 18)], {6: 1, 9: 1}),
            lambda: dense(61417, 6, [12, 16, *range(18, 26)], {14: 1, 17: 1}),
            lambda: dense(8121415, 8, range(16, 26), {12: 1, 14: 1, 15: 1}),
        ],
        ids=[*GOLDEN, "K(4,6,9)", "K(6,14,17)", "K(8,12,14,15)"],
    )
    def test_every_genus_replays_to_the_normal_form(self, build):
        # at genus >= 2 the log was recorded on the reduced branch, so the
        # replay runs there too
        phi = build()
        res = zariski_invariant(phi)
        replayed = replay_moves(phi, res)
        assert replayed.y.terms == res.normal_form.y.terms
        assert replayed.trunc == res.normal_form.trunc


class TestReplayRefusesATamperedLog:
    @pytest.fixture
    def logged(self, quartic_family):
        phi = quartic_family(0)
        res = zariski_invariant(phi)
        k = next(i for i, rec in enumerate(res.moves) if rec.kind == "p")
        return phi, res, k

    @staticmethod
    def tampered(res, k, rho):
        moves = list(res.moves)
        moves[k] = dataclasses.replace(moves[k], reparametrization=rho)
        return dataclasses.replace(res, moves=tuple(moves))

    def test_dropped_parameter_change(self, logged):
        phi, res, k = logged
        with pytest.raises(CrossCheckFailed, match="no parameter change"):
            replay_moves(phi, self.tampered(res, k, None))

    @pytest.mark.parametrize("where", ["lead", "second", "last"])
    def test_altered_coefficient(self, logged, where):
        phi, res, k = logged
        rho = res.moves[k].reparametrization
        e = {"lead": 1, "second": 2, "last": rho.trunc - 1}[where]
        terms = dict(rho.terms)
        terms[e] = terms.get(e, 0) + F(1, 7)
        altered = TSeries(rho.var, terms, rho.trunc)
        with pytest.raises(CrossCheckFailed, match="does not restore"):
            replay_moves(phi, self.tampered(res, k, altered))


class TestInfer:
    def test_from_intersection(self):
        cd = CharData.from_char_exponents((3, 7))
        assert infer_zariski(cd, 8, 6, intersection_value=45) == 16

    def test_boundary_is_excluded(self):
        cd = CharData.from_char_exponents((3, 7))
        with pytest.raises(HypothesisNotMet):
            infer_zariski(cd, 8, 6, intersection_value=44)

    def test_from_contact(self):
        cd = CharData.from_char_exponents((3, 7))
        assert infer_zariski(cd, 8, 6, contact_order=F(17, 6)) == 16

    def test_contact_boundary_is_excluded(self):
        cd = CharData.from_char_exponents((3, 7))
        with pytest.raises(HypothesisNotMet):
            infer_zariski(cd, 8, 6, contact_order=F(8, 3))

    def test_non_integral_transfer_rejected(self):
        cd = CharData.from_char_exponents((3, 7))
        with pytest.raises(NonIntegralResult):
            infer_zariski(cd, 8, 5, intersection_value=1000)

    @pytest.mark.parametrize("lam", [-3, 0, 7, 14, 25])
    def test_lambda_outside_the_class_is_rejected(self, lam):
        # K(4, 7): lambda must exceed 7 and keep lambda + 4 out of <4, 7>
        cd = CharData.from_char_exponents((4, 7))
        with pytest.raises(NotAnInvariant):
            infer_zariski(cd, lam, 4, intersection_value=1000)

    def test_lambda_above_beta_2_is_rejected(self):
        cd = CharData.from_char_exponents((6, 14, 17))
        assert infer_zariski(cd, 16, 3, intersection_value=1000) == 8
        with pytest.raises(NotAnInvariant):
            infer_zariski(cd, 19, 6, intersection_value=1000)

    @pytest.mark.parametrize("evidence", [{}, {"contact_order": 3, "intersection_value": 45}])
    def test_exactly_one_kind_of_evidence(self, evidence):
        cd = CharData.from_char_exponents((3, 7))
        with pytest.raises(AmbiguousEvidence):
            infer_zariski(cd, 8, 6, **evidence)

    def test_ratio_equality_on_a_high_contact_pair(self, sextic, branch_c1):
        # contact(c1, sextic root) = 17/6 exceeds lambda/n = 8/3, so the
        # ratios lambda/n agree, each side computed by its own reduction
        phi2 = puiseux_parametrization(sextic)
        r1 = zariski_invariant(branch_c1)
        r2 = zariski_invariant(phi2)
        assert F(r1.exponent, 3) == F(r2.exponent, 6)

    def test_same_class_pair_with_contact_beyond_lambda(self, quartic_family):
        phi = quartic_family(0)
        other = Parametrization.from_pairs(4, [(7, 1), (10, 1), (12, 1), (14, 1)])
        r1 = zariski_invariant(phi)
        r2 = zariski_invariant(other)
        # the two branches agree below 14 > 13, so their invariants coincide
        assert r1.exponent == r2.exponent == 13


class TestMoveHelpers:
    def test_pmove_needs_b_at_least_two(self, branch_c1):
        with pytest.raises(DegenerateMove):
            apply_pmove(branch_c1.with_trunc(20), 1, 1)

    def test_pmove_needs_a_finite_truncation(self, branch_c1):
        with pytest.raises(NeedsTruncation):
            apply_pmove(branch_c1, 2, 1)

    def test_qmove_keeps_exact_series_exact(self, branch_c1):
        out = apply_qmove(branch_c1, 2, 1, F(1, 2))
        assert out.exact
