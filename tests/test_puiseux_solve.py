"""Newton-Puiseux past full ramification against the stage loop it replaced.

`puiseux_reference` keeps the stage loop that recentered the rows once per
coefficient to the end; the library solves the coefficients past ram = n
one at a time and reads the closure off at most one evaluation of f, when
the terms end at t**D, D = deg_x f(x, 0).  Both must
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
        # unchecked; a root whose stages end at D = 3 closes on entry
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
    # the last term sits at D = 8 = trunc - 1, the last k the solve reaches,
    # and the evaluation there closes the root; the root found is the
    # conjugate t -> -t
    phi = Parametrization.from_pairs(4, [(5, -2), (6, F(-3, 4)), (7, F(2, 7)), (8, -2)])
    f = implicitize(phi)
    psi = puiseux_parametrization(f, trunc=9)
    assert psi.exact and psi.y.terms == {e: c * (-1) ** e for e, c in phi.y.terms.items()}
    assert _outcome(puiseux_reference, f, 9) == (4, dict(psi.y.terms), EXACT)


@pytest.fixture
def counts(monkeypatch):
    """The calls of `_np_transform` and `_at_two_power` from geometry,
    `implicitize`'s among them."""
    counts = {"_np_transform": 0, "_at_two_power": 0}
    for name in counts:
        def counted(*args, _name=name, _call=getattr(geometry, name)):
            counts[_name] += 1
            return _call(*args)

        monkeypatch.setattr(geometry, name, counted)
    return counts


def test_no_recentering_past_full_ramification(counts):
    # K(6, 14, 17): stages at t**14 (ram 3), t**16 and t**17 (ram 6); past
    # them every coefficient comes from the solve.  Plus x**30, the root
    # agrees with the branch up to t**(180 - conductor 68 - 5), past the
    # truncation, so its coefficient at D = 30 is 0: no evaluation
    phi = Parametrization.from_pairs(6, [(14, 1), (16, 1), (17, 1), (19, 2), (20, -1), (23, 1)])
    f = implicitize(phi) + BivarPoly.monomial(30, 0)
    counts.update(dict.fromkeys(counts, 0))
    psi = puiseux_parametrization(f, trunc=60)
    assert dict(psi.y.terms) == _outcome(puiseux_reference, f, 60)[1]
    assert counts == {"_np_transform": 3, "_at_two_power": 0}


@pytest.mark.parametrize("family", FAMILIES)
def test_at_most_one_evaluation_at_the_degree_of_a_polynomial_root(family, counts):
    # once per exact root, none when D = deg_x f(x, 0) is at or past the
    # target, and never more than one
    seen = set()
    for phi in FAMILIES[family](0):
        for f, trunc in _inputs(phi):
            counts["_at_two_power"] = 0
            try:
                psi = puiseux_parametrization(f, trunc)
            except PlaneBranchError:
                continue
            D = max(f.rows[0])
            if psi.exact:
                expected = 1
            elif D >= psi.trunc:
                expected = 0
            else:
                assert counts["_at_two_power"] <= 1, (str(phi), trunc)
                continue
            assert counts["_at_two_power"] == expected, (str(phi), trunc)
            seen.add(expected)
    assert seen == {0, 1}


@pytest.mark.parametrize(
    "pairs, trunc, evaluations, bound",
    [
        # y**2 - x**3: the stages close the root at t**3 = t**D, checked on entry
        ([((0, 2), 1), ((3, 0), -1)], None, 1, EXACT),
        ([((0, 2), 1), ((3, 0), -1)], 4, 1, EXACT),
        # D = 3 at the target: returned unchecked
        ([((0, 2), 1), ((3, 0), -1)], 3, 0, 3),
        # f = y, whose root 0 has no terms
        ([((0, 1), 1)], None, 1, EXACT),
    ],
)
def test_a_root_closed_by_the_stages_is_checked_on_entry(pairs, trunc, evaluations, bound, counts):
    f = BivarPoly.from_pairs(pairs)
    psi = puiseux_parametrization(f, trunc)
    assert (counts["_at_two_power"], psi.trunc) == (evaluations, bound)
    assert _outcome(puiseux_reference, f, trunc) == (psi.n, dict(psi.y.terms), bound)


def test_the_skip_lands_on_the_next_nonzero_coefficient():
    # a branch plus x**40 agrees with it up to t**(3 * 40 - conductor - 2):
    # every coefficient between its last term and there is solved as 0
    phi = Parametrization.from_pairs(3, [(4, 1), (5, 2)])
    f = implicitize(phi) + BivarPoly.monomial(40, 0)
    psi = puiseux_parametrization(f, trunc=130)
    assert psi.y.terms == _outcome(puiseux_reference, f, 130)[1]
    assert min(e for e in psi.y.terms if e > 5) == 3 * 40 - char_sequence(phi).conductor - 2
