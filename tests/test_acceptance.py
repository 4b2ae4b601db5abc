"""Acceptance suite: every check runs at exact rational arithmetic.

Each criterion prints one pass line (visible with -s or -rP); tolerances are
zero everywhere, i.e. equality of Fractions and term maps.
"""

import json
import random
from fractions import Fraction as F

import pytest

from planebranch.cli import main
from planebranch.errors import HypothesisNotMet
from planebranch.expansion import zariski_decomposition
from planebranch.geometry import (
    Parametrization,
    contact,
    contact_from_intersection,
    implicitize,
    intersection,
    intersection_from_contact,
    intersection_poly_param,
    puiseux_parametrization,
)
from planebranch.semigroup import CharData, char_sequence, contains
from planebranch.series import BivarPoly, TSeries, substitute
from planebranch.zariski import (
    apply_pmove,
    apply_qmove,
    infer_zariski,
    replay_moves,
    zariski_invariant,
)
from conftest import SEXTIC_TERMS, enumerate_semigroup


SEXTIC = BivarPoly(dict(SEXTIC_TERMS))


def _cli_json(capsys, *argv):
    code = main(list(argv) + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def _passed(text):
    print(f"PASS  {text}")


def test_criterion_01_quartic_family_through_the_cli(capsys, tmp_path):
    for b, coeff in ((F(0), "-17/14"), (F(1), "-3/14"), (F(-3), "-59/14"),
                     (F(17, 14) + 1, "1")):
        payload = {
            "kind": "parametrization",
            "n": 4,
            "terms": [[7, "1"], [10, "1"], [12, "1"], [13, str(b)]],
        }
        path = tmp_path / "family.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, doc = _cli_json(capsys, "zariski", str(path))
        assert code == 0
        assert doc["results"]["invariant"] == 13
        assert doc["results"]["coefficient"] == coeff
        assert F(doc["results"]["coefficient"]) == b - F(17, 14)
    payload = {
        "kind": "parametrization",
        "n": 4,
        "terms": [[7, "1"], [10, "1"], [12, "1"], [13, "17/14"]],
    }
    path = tmp_path / "special.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, doc = _cli_json(capsys, "zariski", str(path))
    assert code == 0 and doc["results"]["invariant"] == "infinite"
    _passed(
        "criterion 1: quartic family has invariant 13 with coefficient "
        "b - 17/14, infinite exactly at b = 17/14"
    )


def test_criterion_02_witness_contact_and_intersection():
    phi = Parametrization.from_pairs(4, [(7, 1), (10, 1), (12, 1)])
    res = zariski_invariant(phi)
    assert res.exponent == 13
    assert res.witness.y.terms == {7: F(1), 10: F(1), 12: F(1), 13: F(17, 14)}
    observed = intersection_poly_param(implicitize(res.witness), phi)
    assert observed == 34
    theta = contact_from_intersection(char_sequence(phi), observed, res.witness.n)
    assert theta.theta == F(13, 4)
    _passed(
        "criterion 2: witness (t^4, t^7+t^10+t^12+(17/14)t^13), contact 13/4, "
        "intersection 34 via the implicitize route"
    )


def test_criterion_03_intersection_and_inference_on_the_sextic():
    c1 = Parametrization.from_pairs(3, [(7, 1), (8, 1)])
    assert intersection_poly_param(SEXTIC, c1) == 45
    cd1 = char_sequence(c1)
    assert infer_zariski(cd1, 8, 6, intersection_value=45) == 16
    phi2 = puiseux_parametrization(SEXTIC)
    assert zariski_invariant(phi2).exponent == 16
    _passed(
        "criterion 3: I(f2, (t^3,t^7+t^8)) = 45; inference gives 16; "
        "the direct reduction agrees"
    )


def test_criterion_04_cusp_witness_expansion():
    value = substitute(SEXTIC, 3, TSeries.monomial("t", 7))
    assert value.terms == {
        44: F(9), 45: F(-9), 46: F(6), 47: F(-9), 48: F(10), 49: F(-6), 51: F(-1)
    }
    cusp = Parametrization.from_pairs(3, [(7, 1)])
    assert intersection_poly_param(SEXTIC, cusp) == 44
    cd = char_sequence(puiseux_parametrization(SEXTIC))
    dec = zariski_decomposition(SEXTIC, cusp, cd, 16)
    assert dec.blocks[1] == BivarPoly.from_pairs([((5, 1), -6), ((8, 0), -8)])
    assert (dec.c, dec.p, dec.q) == (F(9), 10, 2)
    assert dec.tail == BivarPoly.from_pairs(
        [
            ((11, 2), -9),
            ((13, 1), 6),
            ((14, 1), -6),
            ((15, 0), -9),
            ((16, 0), 10),
            ((17, 0), -1),
        ]
    )
    _passed(
        "criterion 4: f2 on (t^3,t^7) is 9t^44-9t^45+6t^46-9t^47+10t^48-6t^49-t^51; "
        "I = 44; expansion gives A_1 = -(6x^5y+8x^8), c = 9, p = 10, q = 2"
    )


def test_criterion_05_deformed_witness_expansion():
    deformed = Parametrization.from_pairs(3, [(7, 1), (9, 1)])
    hprime = implicitize(deformed)
    assert hprime == BivarPoly.from_pairs(
        [((0, 3), 1), ((3, 2), -3), ((6, 1), 3), ((7, 0), -1), ((9, 0), -1)]
    )
    cd = char_sequence(puiseux_parametrization(SEXTIC))
    dec = zariski_decomposition(SEXTIC, deformed, cd, 16)
    # the y-degree-1 block, forced by uniqueness of monic division (the
    # reconstruction below certifies it term by term)
    assert dec.blocks[1] == BivarPoly.from_pairs(
        [((3, 2), 6), ((5, 1), -6), ((6, 1), 3), ((8, 0), -26), ((9, 0), 11)]
    )
    assert dec.tail == BivarPoly.from_pairs(
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
    rebuilt = hprime ** 2 + dec.blocks[1] * hprime + dec.distinguished + dec.tail
    assert rebuilt == SEXTIC
    assert (dec.c, dec.p, dec.q) == (F(9), 10, 2)
    _passed(
        "criterion 5: implicitize (t^3,t^7+t^9) = y^3-3x^3y^2+3x^6y-x^7-x^9; "
        "expansion blocks exact; (c, p, q) = (9, 10, 2) matches criterion 4"
    )


def test_criterion_06_semigroup_suite():
    expected = {(4, 7): 18, (3, 7): 12, (6, 14, 17): 68}
    for beta, mu in expected.items():
        cd = CharData.from_char_exponents(beta)
        assert cd.conductor == mu
        bound = mu + 20
        table = enumerate_semigroup(cd.generators, bound)
        for z in range(bound + 1):
            assert contains(z, cd) == (z in table)
        for z in range(mu):
            assert contains(z, cd) != contains(mu - 1 - z, cd)
    assert CharData.from_char_exponents((6, 14, 17)).generators == (6, 14, 45)
    _passed(
        "criterion 6: membership matches enumeration up to conductor + 20; "
        "conductors 18, 12, 68; gap symmetry holds"
    )


def test_criterion_07_contact_intersection_round_trip():
    for beta in ((4, 7), (3, 7), (6, 14, 17)):
        cd = CharData.from_char_exponents(beta)
        n = cd.mult
        count = 0
        for k in range(n, n + 100):
            theta = F(k, n)
            inter = intersection_from_contact(cd, theta, n)
            assert inter.denominator == 1
            back = contact_from_intersection(cd, int(inter), n)
            assert back.theta == theta
            count += 1
        assert count == 100
    _passed("criterion 7: contact <-> intersection round-trips on 100 values per class")


def _random_branch(rng):
    from math import gcd

    n = rng.choice([2, 3, 4])
    m = rng.choice([k for k in range(n + 1, 3 * n + 2) if k % n])
    pairs = [(m, rng.choice([1, 1, 2, F(1, 2)]))]
    top = m
    g = gcd(n, m)
    if g > 1:
        top = m + rng.choice([k for k in range(1, 2 * g + 1) if gcd(k, g) == 1])
        pairs.append((top, rng.choice([1, -1, F(3, 2)])))
    if rng.random() < 0.5:
        pairs.append((top + rng.randint(1, 4), F(rng.randint(1, 5), 2)))
    pairs.sort()
    return Parametrization.from_pairs(n, pairs)


def test_criterion_08_triangular_inequalities():
    c1 = Parametrization.from_pairs(3, [(7, 1), (8, 1)])
    c2 = puiseux_parametrization(SEXTIC)
    h = Parametrization.from_pairs(3, [(7, 1)])
    contacts = sorted([contact(c1, c2).theta, contact(c1, h).theta, contact(c2, h).theta])
    assert contacts == [F(8, 3), F(8, 3), F(17, 6)]
    rng = random.Random(314159)
    done = 0
    while done < 20:
        a, b, c = (_random_branch(rng) for _ in range(3))
        if not (
            not a.same_branch(b) and not a.same_branch(c) and not b.same_branch(c)
        ):
            continue
        thetas = sorted([contact(a, b).theta, contact(a, c).theta, contact(b, c).theta])
        assert thetas[0] == thetas[1] <= thetas[2]
        normalized = sorted(
            [
                F(intersection(a, b), a.n * b.n),
                F(intersection(a, c), a.n * c.n),
                F(intersection(b, c), b.n * c.n),
            ]
        )
        assert normalized[0] == normalized[1] <= normalized[2]
        done += 1
    _passed(
        "criterion 8: triangular inequality holds for the concrete triple "
        "{17/6, 8/3, 8/3} and for 20 random triples, in both forms"
    )


def _random_change(rng, phi, bound):
    cur = phi.with_trunc(bound)
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
            cur = Parametrization(
                cur.n, cur.y.scale(F(rng.randint(1, 5), rng.randint(1, 3)))
            )
    return cur


def test_criterion_09_coordinate_invariance_and_replay():
    fixtures = [
        (Parametrization.from_pairs(4, [(7, 1), (10, 1), (12, 1)]), 13),
        (Parametrization.from_pairs(4, [(7, 1), (10, 1), (12, 1), (13, F(17, 14))]), None),
        (Parametrization.from_pairs(3, [(7, 1), (8, 1)]), 8),
        (Parametrization.from_pairs(3, [(7, 1), (9, 1)]), None),
    ]
    rng = random.Random(20260811)
    for phi, expected in fixtures:
        bound = char_sequence(phi).conductor + 6 * phi.n
        for _ in range(10):
            moved = _random_change(rng, phi, bound)
            assert zariski_invariant(moved).exponent == expected
        res = zariski_invariant(phi)
        replayed = replay_moves(phi, res)
        assert replayed.y.terms == res.normal_form.y.terms
    phi2 = puiseux_parametrization(SEXTIC)
    for _ in range(10):
        moved = _random_change(rng, phi2, 60)
        assert zariski_invariant(moved).exponent == 16
    _passed(
        "criterion 9: invariant stable under 10 random coordinate changes per "
        "fixture; move logs replay to identical normal forms"
    )


def test_criterion_10_inference_boundary_is_strict(capsys):
    cd1 = CharData.from_char_exponents((3, 7))
    boundary = F(3 * ((3 - 1) * 7 + 8), 3)
    assert boundary == 22
    # the cusp realizes the boundary intersection exactly
    c1 = Parametrization.from_pairs(3, [(7, 1), (8, 1)])
    cusp = Parametrization.from_pairs(3, [(7, 1)])
    assert intersection(c1, cusp) == 22
    with pytest.raises(HypothesisNotMet):
        infer_zariski(cd1, 8, 3, intersection_value=22)
    with pytest.raises(HypothesisNotMet):
        infer_zariski(cd1, 8, 6, intersection_value=44)
    code = main(
        ["pair", "infer", "--fixture", "k37-branch", "--fixture", "k37-cusp",
         "--known-lambda", "8"]
    )
    capsys.readouterr()
    assert code == 5
    _passed(
        "criterion 10: inference at the exact boundary intersection is "
        "rejected (exit code 5 through the CLI)"
    )
