"""Elimination moves, genus-one reduction, the invariant and inference."""

import hashlib
import random
from fractions import Fraction as F

import pytest

from planebranch.errors import (
    DegenerateMove,
    HypothesisNotMet,
    NonIntegralResult,
    NotRemovable,
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
from planebranch.semigroup import CharData, char_sequence, contains
from planebranch.zariski import (
    apply_pmove,
    apply_qmove,
    eliminate_term,
    genus1_reduce,
    infer_zariski,
    is_in_b,
    normalize_leading,
    replay_moves,
    zariski_invariant,
)
from test_golden import dense


class TestNormalizeLeading:
    def test_divides_by_the_leading_coefficient(self):
        phi = Parametrization.from_pairs(4, [(7, 2), (10, 2)])
        assert normalize_leading(phi).y.terms == {7: F(1), 10: F(1)}

    def test_monic_input_unchanged(self):
        phi = Parametrization.from_pairs(4, [(7, 1), (10, 1)])
        assert normalize_leading(phi) is phi

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
            after = char_sequence(normalize_leading(phi))
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

    def test_cubic_branch(self, branch_c1):
        res = genus1_reduce(branch_c1)
        assert res.exponent == 8 and res.coefficient == F(1)

    def test_low_terms_divisible_by_n_are_removed(self):
        # ord(y) = 8 is on the n-grid; the class is still K(4, 11)
        phi = Parametrization.from_pairs(4, [(8, 1), (11, 1), (13, 2)])
        res = genus1_reduce(phi)
        assert res.normal_form.y.terms.get(8) is None
        assert min(res.normal_form.y.terms) == 11

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
        # slot 15 of a dense K(4,13) branch is swept at truncation 23, where
        # the b = 2 p-move at 22 would leave O(t^20); the slot's sweep stops
        # below 15, as moves above 15 cannot change the coefficient there,
        # so the witness stays the locked one
        seen = []
        original = zariski.eliminate_term

        def logged(phi, j, log_reparam=True):
            new, record = original(phi, j, log_reparam)
            seen.append((j, new.trunc))
            return new, record

        monkeypatch.setattr(zariski, "eliminate_term", logged)
        res = zariski_invariant(dense(413, 4, range(14, 44), {13: 1}))
        assert seen and all(j < trunc for j, trunc in seen)
        assert (res.exponent, res.coefficient) == (14, F(3, 2))
        assert hashlib.sha256(str(res.witness).encode()).hexdigest() == (
            "fd9f40eba101c5f4b604f6ba32d6bae129d7cb1c13b3204888fa4525802a89f4"
        )

    def test_infinite_series_branch_has_infinite_invariant(self):
        from planebranch.series import BivarPoly

        f = BivarPoly.from_pairs([((0, 2), 1), ((3, 0), -1), ((4, 0), -1)])
        phi = puiseux_parametrization(f, trunc=30)
        assert not zariski_invariant(phi).finite


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
        bound = phi.char_data().conductor + 6 * n
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

    def test_qmove_keeps_exact_series_exact(self, branch_c1):
        out = apply_qmove(branch_c1, 2, 1, F(1, 2))
        assert out.exact
