"""h-adic expansion and the distinguished-monomial decomposition."""

from fractions import Fraction as F

import pytest

from planebranch.errors import NotMonic, WitnessMismatch
from planebranch.expansion import h_adic_expansion, zariski_decomposition
from planebranch.geometry import (
    Parametrization,
    implicitize,
    intersection_poly_param,
    puiseux_parametrization,
)
from planebranch.series import BivarPoly
from planebranch.semigroup import char_sequence
from planebranch.zariski import zariski_invariant

H_CUSP = [((0, 3), 1), ((7, 0), -1)]
H_DEFORMED = [
    ((0, 3), 1),
    ((3, 2), -3),
    ((6, 1), 3),
    ((7, 0), -1),
    ((9, 0), -1),
]


class TestHAdicExpansion:
    def test_sextic_along_the_cusp(self, sextic, cusp37):
        blocks = h_adic_expansion(sextic, cusp37)
        assert blocks[2] == BivarPoly.one()
        assert blocks[1] == BivarPoly.from_pairs([((5, 1), -6), ((8, 0), -8)])
        expected_a0 = BivarPoly.from_pairs(
            [
                ((10, 2), 9),
                ((11, 2), -9),
                ((13, 1), 6),
                ((14, 1), -6),
                ((15, 0), -9),
                ((16, 0), 10),
                ((17, 0), -1),
            ]
        )
        assert blocks[0] == expected_a0

    def test_square_of_the_divisor(self, cusp37):
        blocks = h_adic_expansion(cusp37 * cusp37, cusp37)
        assert blocks == [BivarPoly.zero(), BivarPoly.zero(), BivarPoly.one()]

    def test_sextic_along_the_deformed_cubic(self, sextic, deformed37):
        blocks = h_adic_expansion(sextic, deformed37)
        # forced by uniqueness of division: the y-bearing term 6 x^3 y^2
        # pairs with -6 x^5 y, not a constant -6 x^5
        assert blocks[1] == BivarPoly.from_pairs(
            [((3, 2), 6), ((5, 1), -6), ((6, 1), 3), ((8, 0), -26), ((9, 0), 11)]
        )
        acc = BivarPoly.zero()
        for block in reversed(blocks):
            acc = acc * deformed37 + block
        assert acc == sextic

    def test_low_degree_input_is_its_own_block(self, cusp37):
        f = BivarPoly.from_pairs([((2, 1), 5), ((0, 2), 1)])
        assert h_adic_expansion(f, cusp37) == [f]

    def test_divisor_must_be_monic(self, sextic):
        with pytest.raises(NotMonic):
            h_adic_expansion(sextic, BivarPoly.from_pairs([((1, 1), 1)]))


class TestZariskiDecomposition:
    def test_sextic_with_the_cusp_witness(self, sextic):
        cd = char_sequence(puiseux_parametrization(sextic))
        res = zariski_decomposition(
            sextic, Parametrization.from_pairs(3, [(7, 1)]), cd, 16
        )
        assert (res.c, res.p, res.q) == (F(9), 10, 2)
        assert res.tail == BivarPoly.from_pairs(
            [
                ((11, 2), -9),
                ((13, 1), 6),
                ((14, 1), -6),
                ((15, 0), -9),
                ((16, 0), 10),
                ((17, 0), -1),
            ]
        )
        assert res.checks["intersection_f_h"] == 44
        assert res.checks["intersection_a0_h"] == 44

    def test_sextic_with_the_deformed_witness(self, sextic):
        cd = char_sequence(puiseux_parametrization(sextic))
        res = zariski_decomposition(
            sextic, Parametrization.from_pairs(3, [(7, 1), (9, 1)]), cd, 16
        )
        assert (res.c, res.p, res.q) == (F(9), 10, 2)
        assert res.tail == BivarPoly.from_pairs(
            [
                ((11, 2), -69),
                ((12, 2), 15),
                ((13, 1), 15),
                ((14, 1), 66),
                ((15, 1), -24),
                ((15, 0), -27),
                ((16, 0), 19),
                ((17, 0), -27),
                ((18, 0), 10),
            ]
        )

    def test_uniqueness_of_the_distinguished_coefficient(self, sextic):
        cd = char_sequence(puiseux_parametrization(sextic))
        one = zariski_decomposition(
            sextic, Parametrization.from_pairs(3, [(7, 1)]), cd, 16
        )
        other = zariski_decomposition(
            sextic, Parametrization.from_pairs(3, [(7, 1), (9, 1)]), cd, 16
        )
        assert (one.c, one.p, one.q) == (other.c, other.p, other.q)

    def test_reconstruction_is_exact(self, sextic):
        cd = char_sequence(puiseux_parametrization(sextic))
        for pairs in ([(7, 1)], [(7, 1), (9, 1)]):
            res = zariski_decomposition(
                sextic, Parametrization.from_pairs(3, pairs), cd, 16
            )
            rebuilt = res.h ** 2
            for k, block in enumerate(res.blocks):
                if k:
                    rebuilt = rebuilt + block * res.h ** k
            rebuilt = rebuilt + res.distinguished + res.tail
            assert rebuilt == sextic

    def test_weight_bound_on_the_tail(self, sextic):
        cd = char_sequence(puiseux_parametrization(sextic))
        res = zariski_decomposition(
            sextic, Parametrization.from_pairs(3, [(7, 1)]), cd, 16
        )
        for (i, j) in res.tail.terms:
            assert i * 3 + j * 7 > 44 and j < 3

    def test_tail_has_higher_contact_order(self, sextic):
        cd = char_sequence(puiseux_parametrization(sextic))
        res = zariski_decomposition(
            sextic, Parametrization.from_pairs(3, [(7, 1)]), cd, 16
        )
        h_phi = Parametrization.from_pairs(3, [(7, 1)])
        assert intersection_poly_param(res.tail, h_phi) > 44

    def test_wrong_witness_is_rejected(self, sextic, branch_c1):
        cd = char_sequence(puiseux_parametrization(sextic))
        with pytest.raises(WitnessMismatch):
            zariski_decomposition(sextic, branch_c1, cd, 16)

    def test_genus_one_shape(self):
        phi = Parametrization.from_pairs(4, [(7, 1), (13, 1)])
        f = implicitize(phi)
        res = zariski_invariant(phi)
        assert res.exponent == 13
        assert res.witness.y.terms == {7: F(1)}
        dec = zariski_decomposition(f, res.witness, char_sequence(phi), res.exponent)
        # e1 = 1: f = h + c x^p y^q + tail
        assert len(dec.blocks) == 1
        assert dec.p * 4 + dec.q * 7 == 3 * 7 + 13
        rebuilt = dec.h + dec.blocks[0]
        assert rebuilt == f
        assert dec.h + dec.distinguished + dec.tail == f
