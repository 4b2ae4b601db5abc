"""Characteristic data, semigroup generators, conductor and membership."""

import pytest

from planebranch.errors import (
    NotPrimitive,
    NotSingular,
    NotTransversal,
    PrecisionExhausted,
)
from planebranch.geometry import Parametrization
from planebranch.semigroup import (
    CharData,
    char_sequence,
    contains,
    standard_rep,
)
from conftest import enumerate_semigroup


class TestCharSequence:
    def test_quartic_family_is_genus_one(self):
        cd = char_sequence(
            Parametrization.from_pairs(4, [(7, 1), (10, 1), (12, 1), (13, 1)])
        )
        assert cd.char_exponents == (4, 7)
        assert cd.gcd_sequence == (4, 1)
        assert cd.genus == 1

    def test_two_term_genus_two_series(self):
        cd = char_sequence(Parametrization.from_pairs(6, [(14, 1), (17, 1)]))
        assert cd.char_exponents == (6, 14, 17)
        assert cd.gcd_sequence == (6, 2, 1)
        assert cd.quotients == (3, 2)
        assert cd.genus == 2

    def test_cusp(self):
        cd = char_sequence(Parametrization.from_pairs(2, [(3, 1)]))
        assert cd.char_exponents == (2, 3) and cd.gcd_sequence == (2, 1)

    def test_non_primitive_exact_input(self):
        with pytest.raises(NotPrimitive):
            char_sequence(Parametrization.from_pairs(4, [(6, 1), (10, 1)]))

    def test_non_transversal_input(self):
        with pytest.raises(NotTransversal):
            char_sequence(Parametrization.from_pairs(4, [(3, 1)]))

    def test_smooth_branch_rejected(self):
        with pytest.raises(NotSingular):
            char_sequence(Parametrization.from_pairs(1, [(2, 1)]))

    def test_truncated_series_with_open_gcd_chain(self):
        # divisible exponents only, and the tail is unknown: undecidable
        phi = Parametrization.from_pairs(4, [(6, 1), (10, 1)], trunc=12)
        with pytest.raises(PrecisionExhausted):
            char_sequence(phi)


class TestGenerators:
    def test_genus_one_generators_are_the_exponents(self):
        cd = CharData.from_char_exponents((4, 7))
        assert cd.generators == (4, 7)

    def test_genus_two_generator_recursion(self):
        cd = CharData.from_char_exponents((6, 14, 17))
        assert cd.generators == (6, 14, 45)

    def test_generators_match_membership_enumeration(self):
        # v_2 = 2*6 + 13 - 6 = 19; cross-checked by ord of (y^2 - x^3) on
        # (t^4, t^6 + t^13), which is 19
        cd = CharData.from_char_exponents((4, 6, 13))
        assert cd.generators == (4, 6, 19)
        bound = cd.conductor + 20
        table = enumerate_semigroup(cd.generators, bound)
        for z in range(bound + 1):
            assert contains(z, cd) == (z in table)


class TestConductor:
    @pytest.mark.parametrize(
        "beta,expected",
        [((4, 7), 18), ((6, 14, 17), 68), ((2, 3), 2), ((3, 7), 12)],
    )
    def test_conductor_values(self, beta, expected):
        assert CharData.from_char_exponents(beta).conductor == expected

    @pytest.mark.parametrize("beta", [(4, 7), (6, 14, 17), (3, 7), (4, 6, 13)])
    def test_conductor_against_gap_enumeration(self, beta):
        cd = CharData.from_char_exponents(beta)
        bound = cd.conductor + 60
        table = enumerate_semigroup(cd.generators, bound)
        gaps = [z for z in range(bound + 1) if z not in table]
        assert max(gaps) == cd.conductor - 1

    @pytest.mark.parametrize("beta", [(4, 7), (6, 14, 17), (3, 7)])
    def test_conductor_property(self, beta):
        cd = CharData.from_char_exponents(beta)
        mu = cd.conductor
        assert not contains(mu - 1, cd)
        for k in range(51):
            assert contains(mu + k, cd)


class TestStandardRep:
    def test_thirteen_is_a_gap_of_4_7(self):
        cd = CharData.from_char_exponents((4, 7))
        rep = standard_rep(13, cd)
        assert rep.s0 == -2 and rep.coords == (3,)
        assert not contains(13, cd)

    def test_sixteen_lies_in_4_7(self):
        cd = CharData.from_char_exponents((4, 7))
        rep = standard_rep(16, cd)
        assert rep.s0 == 4 and rep.coords == (0,)
        assert contains(16, cd)

    def test_zero(self):
        cd = CharData.from_char_exponents((6, 14, 17))
        rep = standard_rep(0, cd)
        assert rep.s0 == 0 and rep.coords == (0, 0)

    @pytest.mark.parametrize("beta", [(4, 7), (6, 14, 17), (3, 7), (4, 6, 13)])
    def test_round_trip_and_bounds(self, beta):
        cd = CharData.from_char_exponents(beta)
        for z in range(-200, 201):
            rep = standard_rep(z, cd)
            assert rep.value(cd) == z
            for s, ni in zip(rep.coords, cd.quotients):
                assert 0 <= s < ni


class TestMembership:
    def test_seventeen_outside_4_7(self):
        assert not contains(17, CharData.from_char_exponents((4, 7)))

    def test_forty_four_inside_3_7(self):
        assert contains(44, CharData.from_char_exponents((3, 7)))

    @pytest.mark.parametrize("beta", [(4, 7), (6, 14, 17), (3, 7)])
    def test_agreement_with_enumeration(self, beta):
        cd = CharData.from_char_exponents(beta)
        bound = cd.conductor + 20
        table = enumerate_semigroup(cd.generators, bound)
        for z in range(bound + 1):
            assert contains(z, cd) == (z in table)

    @pytest.mark.parametrize("beta", [(4, 7), (6, 14, 17), (3, 7), (4, 6, 13)])
    def test_gap_symmetry(self, beta):
        cd = CharData.from_char_exponents(beta)
        mu = cd.conductor
        for z in range(mu):
            assert contains(z, cd) != contains(mu - 1 - z, cd)
