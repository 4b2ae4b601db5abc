"""Golden outputs of the Zariski kernel on seeded dense branches.

Every exact rational the reduction reports is frozen here: the invariant,
its coefficient, the leading scale, the witness, the normal form and a
sha256 of the move log (parameter changes included).  A refactor of the
kernel must reproduce all of them bit for bit.
"""

import hashlib
import random
from fractions import Fraction as F

import pytest

from planebranch.geometry import Parametrization
from planebranch.zariski import zariski_invariant


def dense(seed, n, exponents, fixed):
    """(t^n, y) with the fixed terms and a seeded nonzero rational at every
    other listed exponent."""
    rng = random.Random(seed)
    terms = dict(fixed)
    for e in exponents:
        terms.setdefault(e, F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)))
    return Parametrization.from_pairs(n, sorted(terms.items()))


def move_log_digest(result) -> str:
    text = "\n".join(f"{rec.describe()} | {rec.reparametrization}" for rec in result.moves)
    return hashlib.sha256(text.encode()).hexdigest()


# the witness of a seeded K(5, 6) branch, hence equivalent to y^5 = x^6
SPECIAL_56 = Parametrization.from_pairs(
    5,
    [
        (6, 1), (7, 2), (8, F(13, 3)), (9, F(266, 27)), (10, 1), (11, 3),
        (12, F(-3, 2)), (13, 2), (14, F(125267, 2187)), (15, F(-1, 3)),
        (16, -2), (17, 2), (18, -1), (19, 2),
    ],
)

GOLDEN = {
    "K(4,7)": (
        lambda: dense(47, 4, range(8, 18), {7: 2}),
        9, F(1, 6), F(1, 2),
        "(t^4, 2*t^7 - t^8 + 1/3*t^10 - 1/2*t^11 + t^12 + 17/252*t^13 - 3/2*t^14"
        " + 3*t^15 - 3*t^16 - 1/2*t^17)",
        "(t^4, t^7 + 1/6*t^9 + 11/63*t^13 + O(t^23))",
        "6e462b07b4e1b49da7b6d71dedbf66dfeb8bc5c11a43d13cc76f83097bd34d23",
    ),
    "K(5,7)": (
        lambda: dense(57, 5, range(8, 24), {7: F(-2, 3)}),
        8, F(9, 4), F(-3, 2),
        "(t^5, -2/3*t^7 + 2/3*t^9 - 3*t^10 - 16/21*t^11 + 1/2*t^12 + 46/49*t^13"
        " + t^14 + 3*t^15 + 2/3*t^16 - 1/2*t^17 - 874/147*t^18 + t^19"
        " + 2/3*t^20 + 1/3*t^21 - 1/3*t^22 + 2*t^23)",
        "(t^5, t^7 + 9/4*t^8 + 22/7*t^11 + 325/28*t^13 + 7921992167/49172480*t^18"
        " + O(t^30))",
        "a3bd8d7d1dfc5aece078b6c110ba0af11583218cec0b01425df1b4ac4e31910b",
    ),
    "special K(5,6)": (
        lambda: SPECIAL_56,
        None, None, F(1),
        str(SPECIAL_56),
        "(t^5, t^6 + O(t^26))",
        "8c3a1165a7458467690b0c41746536a04ad9057432e760a70d1e7efa6cb4cfb8",
    ),
    "genus 2 K(8,14,27)": (
        lambda: dense(819, 8, [*range(16, 27, 2), 28, 29, 30], {14: 1, 27: 1}),
        18, F(-1), F(1),
        "(t^4, t^7 - t^8 - t^10 + 3/2*t^11 + t^12 + 17/14*t^13)",
        "(t^4, t^7 - t^9 + 25/14*t^13 + O(t^23))",
        "300cc0b85ed6991233f18b5fa4b395fe2a6f519f651c4105c9449028e0ddb39a",
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_reduction_matches_the_golden_outputs(name):
    build, lam, coeff, scale, witness, normal_form, digest = GOLDEN[name]
    res = zariski_invariant(build())
    assert (res.exponent, res.coefficient, res.leading_scale) == (lam, coeff, scale)
    assert str(res.witness) == witness
    assert str(res.normal_form) == normal_form
    assert move_log_digest(res) == digest
