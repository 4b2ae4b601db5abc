"""Newton-Puiseux past full ramification against the stage loop it replaced.

`puiseux_reference` keeps the stage loop that recentered the rows once per
coefficient to the end; the library solves the coefficients past ram = n
one at a time and reads the closure off one evaluation of f.  Both must
give the same terms and trunc, or the same exception type and message, on
seeded inputs: implicitized `gen.genus1_item` and `gen.pair_item`
branches, sparse branches of multiplicity 1 to 4, each equation plus
x**k with n*k below and past the default target, at the default and at
explicit truncations, among them one whose last term sits at trunc - 1.
"""

import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from planebranch import geometry
from planebranch.errors import PlaneBranchError
from planebranch.geometry import Parametrization, implicitize, puiseux_parametrization
from planebranch.semigroup import char_sequence
from planebranch.series import EXACT, BivarPoly
from conftest import puiseux_reference

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)
import gen  # noqa: E402


def _outcome(call, f, trunc):
    try:
        phi = call(f, trunc)
    except PlaneBranchError as exc:
        return type(exc), str(exc)
    return phi.n, dict(phi.y.terms), phi.trunc


def _genus1(seed):
    rng = random.Random(seed)
    for n, m in ((3, 4), (3, 5), (4, 5), (4, 7), (5, 6)):
        for lam in (None, *gen.slots(n, m)[:1]):
            item = gen.genus1_item(rng, n, m, lam)
            yield Parametrization.from_pairs(n, sorted(item.y.items()))


def _pairs(seed):
    rng = random.Random(seed)
    for beta, length in (((4, 6, 7), 10), ((4, 10, 11), 14), ((6, 8, 11), 14)):
        item = gen.pair_item(rng, beta, length, None)
        yield Parametrization.from_pairs(item.n, sorted(item.y.items()))


def _sparse(seed):
    """Branches of n = 1 to 4 with a few terms far apart: their roots have
    runs of zero coefficients, and some close exactly."""
    rng = random.Random(seed)
    for n in (1, 1, 2, 2, 2, 3, 4):
        terms = {}
        while not any(e % n for e in terms) and n > 1 or not terms:
            terms[rng.randint(1, 25)] = F(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 3]))
        yield Parametrization.from_pairs(n, sorted(terms.items()))


FAMILIES = {"genus1": _genus1, "pairs": _pairs, "sparse": _sparse}


def _inputs(phi):
    """(f, trunc) pairs from one branch: its equation at the default and at
    explicit truncations, and the equation plus x**k at the default."""
    f = implicitize(phi)
    top = max(phi.y.terms)
    for trunc in (None, top + 1, top, top + 3, 1):
        yield f, trunc
    target = puiseux_reference(f).trunc
    if target == EXACT:
        target = 2 * top
    # n*k below the target, just past it and far past it
    for k in {max(1, target // phi.n - 1), target // phi.n + 1, target}:
        yield f + BivarPoly.monomial(k, 0, F(1, 2)), None


@pytest.mark.parametrize("family", FAMILIES)
def test_the_solve_matches_the_stage_loop(family):
    seen = set()
    for phi in FAMILIES[family](0):
        for f, trunc in _inputs(phi):
            expected = _outcome(puiseux_reference, f, trunc)
            assert _outcome(puiseux_parametrization, f, trunc) == expected, (str(phi), trunc)
            seen.add("refused" if len(expected) == 2 else expected[2] == EXACT)
    # exact and truncated roots, and refusals
    assert seen == {True, False, "refused"}


@pytest.mark.parametrize(
    "pairs, trunc, terms, bound",
    [
        # n = 1: every root is a polynomial; the default target is 2
        ([((0, 1), 1), ((2, 0), -1), ((9, 0), -3)], None, {}, 2),
        ([((0, 1), 1), ((2, 0), -1), ((9, 0), -3)], 9, {2: F(1)}, 9),
        ([((0, 1), 1), ((2, 0), -1), ((9, 0), -3)], 10, {2: F(1), 9: F(3)}, EXACT),
        ([((0, 1), 1)], 1, {}, EXACT),
        # n = 2: the stage that reaches ram = n at the target closes there
        # unchecked; one past it, the check after the last k runs alone
        ([((0, 2), 1), ((3, 0), -1), ((4, 0), -1)], None, {3: F(1), 5: F(1, 2)}, 6),
        ([((0, 2), 1), ((3, 0), -1), ((4, 0), -1)], 3, {}, 3),
        ([((0, 2), 1), ((3, 0), -1), ((4, 0), -1)], 4, {3: F(1)}, 4),
        ([((0, 2), 1), ((1, 1), -2), ((2, 0), 1), ((3, 0), -1)], 4, {2: F(1), 3: F(1)}, EXACT),
        ([((0, 2), 1), ((1, 0), -1)], 1, {}, 1),
    ],
)
def test_small_multiplicities(pairs, trunc, terms, bound):
    f = BivarPoly.from_pairs(pairs)
    phi = puiseux_parametrization(f, trunc)
    assert (phi.y.terms, phi.trunc) == (terms, bound)
    assert _outcome(puiseux_reference, f, trunc) == (phi.n, terms, bound)


def test_a_root_whose_last_term_sits_at_trunc_minus_one_closes():
    # no zero coefficient follows the last term below the target, so only
    # the check after the last k sees the closure; the root found is the
    # conjugate t -> -t
    phi = Parametrization.from_pairs(4, [(5, -2), (6, F(-3, 4)), (7, F(2, 7)), (8, -2)])
    f = implicitize(phi)
    psi = puiseux_parametrization(f, trunc=9)
    assert psi.exact and psi.y.terms == {e: c * (-1) ** e for e, c in phi.y.terms.items()}
    assert _outcome(puiseux_reference, f, 9) == (4, dict(psi.y.terms), EXACT)


def test_no_recentering_past_full_ramification(monkeypatch):
    # K(6, 14, 17): stages at t**14 (ram 3), t**16 and t**17 (ram 6); past
    # them every coefficient comes from the solve, with one evaluation per
    # run of zeros, after t**17, t**20 and t**23.  The last reads
    # f(t**6, y) at t-order 6 * 30, so the next term, at
    # 180 - (conductor 68 + 5), lies past the truncation
    phi = Parametrization.from_pairs(6, [(14, 1), (16, 1), (17, 1), (19, 2), (20, -1), (23, 1)])
    f = implicitize(phi) + BivarPoly.monomial(30, 0)
    counts = {"_np_transform": 0, "_at_two_power": 0}
    for name in counts:
        def counted(*args, _name=name, _call=getattr(geometry, name)):
            counts[_name] += 1
            return _call(*args)

        monkeypatch.setattr(geometry, name, counted)
    psi = puiseux_parametrization(f, trunc=60)
    assert dict(psi.y.terms) == _outcome(puiseux_reference, f, 60)[1]
    assert counts == {"_np_transform": 3, "_at_two_power": 3}


def test_the_skip_lands_on_the_next_nonzero_coefficient():
    # a branch plus x**40 agrees with it up to t**(3 * 40 - conductor - 2):
    # the evaluation after its last term skips the zeros up to there
    phi = Parametrization.from_pairs(3, [(4, 1), (5, 2)])
    f = implicitize(phi) + BivarPoly.monomial(40, 0)
    psi = puiseux_parametrization(f, trunc=130)
    assert psi.y.terms == _outcome(puiseux_reference, f, 130)[1]
    assert min(e for e in psi.y.terms if e > 5) == 3 * 40 - char_sequence(phi).conductor - 2
