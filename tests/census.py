"""A census of the paper's theorem on seeded disguised branches.

Usage:  python tests/census.py

The Zariski invariant lambda of a branch phi of K(n, m) is read off its
intersection with B, the family of branches equivalent to y**n = x**m:
I(psi, phi) <= (n - 1)*m + lambda for every psi in B, with equality for the
witness.  Per genus-one class of `CLASSES` with n <= 7, per slot and the
infinite case, the census takes a disguised `gen.genus1_item` branch and
checks that

- the sweep, the route and the planted (lambda, c) agree;
- four members psi of B near phi, each phi plus one seeded term
  projected into B by the witness loop, meet phi at most
  (n - 1)*m + lambda, either way round, and the witness meets it at
  exactly that;
- each such I(psi, phi), counted by the conjugate scan, is also the
  intersection of the curve psi = 0 with phi,
  `intersection_poly_param(implicitize(psi), phi)`, and what
  `intersection_from_contact` makes of `contact(psi, phi)`, which
  `contact_from_intersection` turns back into that contact.

At genus 2 and 3, on `gen.pair_item` branches of `PAIR_CLASSES` with
n <= 14, every reduced slot and the infinite case, the census checks that

- the route on the branch itself, `lift_reference` and the planted
  (lambda, c) agree;
- the witness of `zariski_invariant` meets phi at exactly
  (n1 - 1)*beta_1 + lambda, and members psi of B of the reduced class
  K(n1, m1) never meet it above: each psi is the reduced branch, y's terms
  below beta_2 at exponents divided by e1, plus one seeded term, projected
  into B by the witness loop, where K(n1, m1) has a slot for that term.

The branches are disguised by the dict arithmetic of perfbench's `gen`,
never by the library.  Prints the counts; exits 1 on a violation, naming
it.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for part in ("src", "tests", "perfbench"):
    if str(ROOT / part) not in sys.path:
        sys.path.insert(0, str(ROOT / part))

import gen  # noqa: E402
from conftest import lift_reference  # noqa: E402
from planebranch import zariski  # noqa: E402
from planebranch.geometry import (  # noqa: E402
    Parametrization,
    contact,
    contact_from_intersection,
    implicitize,
    intersection,
    intersection_from_contact,
    intersection_poly_param,
)
from planebranch.semigroup import char_sequence  # noqa: E402

CLASSES = [(3, 4), (3, 7), (4, 5), (4, 7), (5, 6), (5, 7), (5, 8), (6, 7), (7, 9)]
PAIR_CLASSES = [(4, 6, 7), (6, 14, 17), (8, 14, 19), (8, 12, 14, 15), (12, 28, 35),
                (12, 28, 34, 37)]
# branches per reduced slot at genus >= 2
PAIR_SEEDS = 2


@dataclass
class Counts:
    branches: int = 0
    projected: int = 0
    at_maximum: int = 0
    pair_branches: int = 0
    pair_projected: int = 0
    pair_at_maximum: int = 0
    violations: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.violations.append(what)


def project(rng: random.Random, n: int, m: int, terms: dict):
    """(psi, k, c): a member psi of B of K(n, m), the branch (t^n, terms)
    plus c*t^k at a seeded m < k < mu, projected into B by the witness loop."""
    k = rng.randrange(m + 1, (n - 1) * (m - 1))
    c = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    near = {**terms, k: terms.get(k, 0) + c}
    return zariski.genus1_reduce(Parametrization.from_pairs(n, sorted(near.items()))).witness, k, c


def genus_one(counts: Counts, n: int, m: int, rng: random.Random, projected: int) -> None:
    cd = char_sequence(Parametrization.from_pairs(n, [(m, 1)]))
    for lam in gen.slots(n, m) + [None]:
        item = gen.genus1_item(rng, n, m, lam)
        phi = Parametrization.from_pairs(n, sorted(item.y.items()))
        name = f"K({n},{m}) lambda={lam}"
        counts.branches += 1
        res = zariski.genus1_reduce(phi)
        counts.check((res.exponent, res.coefficient) == (lam, item.coeff),
                     f"{name}: the sweep reads ({res.exponent}, {res.coefficient})")
        route = zariski._route(phi.y, cd)
        counts.check(route == (lam, item.coeff), f"{name}: the route reads {route}")
        if lam is None:
            counts.check(zariski.is_in_b(phi, n, m), f"{name}: not in B")
            continue
        bound = (n - 1) * m + lam
        attained = intersection(res.witness, phi)
        counts.check(attained == bound, f"{name}: the witness meets phi at {attained}")
        for _ in range(projected):
            psi, k, c = project(rng, n, m, item.y)
            counts.projected += 1
            counts.check(zariski.is_in_b(psi, n, m), f"{name}: projected psi not in B")
            meet = intersection(psi, phi)
            counts.at_maximum += meet == bound
            counts.check(meet <= bound, f"{name}: psi (t^{k} by {c}) meets phi at {meet}")
            counts.check(intersection(phi, psi) == meet, f"{name}: I(phi, psi) != I(psi, phi)")
            curve = intersection_poly_param(implicitize(psi), phi)
            counts.check(curve == meet, f"{name}: the curve psi = 0 meets phi at {curve}")
            theta = contact(psi, phi)
            via = intersection_from_contact(cd, theta.theta, n)
            counts.check(via == meet, f"{name}: contact {theta} gives I = {via}")
            back = contact_from_intersection(cd, meet, n)
            counts.check(back == theta, f"{name}: I = {meet} gives contact {back}")


def genus_two_and_three(counts: Counts, beta: tuple, rng: random.Random, projected: int) -> None:
    e1 = gen.gcd_chain(beta)[1]
    n1, m1 = beta[0] // e1, beta[1] // e1
    for red_lam in gen.slots(n1, m1) + [None]:
        for _ in range(PAIR_SEEDS):
            item = gen.pair_item(rng, beta, beta[-1] + 4, red_lam)
            phi = Parametrization.from_pairs(item.n, sorted(item.y.items()))
            name = f"K{beta} reduced lambda={red_lam}"
            counts.pair_branches += 1
            route = zariski._route(phi.y, char_sequence(phi))
            lift = lift_reference(phi)
            counts.check(route == lift == (item.lam, item.coeff),
                         f"{name}: route {route}, lift {lift}, planted {(item.lam, item.coeff)}")
            bound = (n1 - 1) * beta[1] + item.lam
            attained = intersection(zariski.zariski_invariant(phi).witness, phi)
            counts.check(attained == bound, f"{name}: the witness meets phi at {attained}")
            reduced = {e // e1: c for e, c in item.y.items() if e < beta[2]}
            # K(n1, m1) has a slot for the term when m1 + 1 < mu_1
            for _ in range(projected if m1 + 1 < (n1 - 1) * (m1 - 1) else 0):
                psi, k, c = project(rng, n1, m1, reduced)
                counts.pair_projected += 1
                counts.check(zariski.is_in_b(psi, n1, m1), f"{name}: projected psi not in B")
                meet = intersection(psi, phi)
                counts.pair_at_maximum += meet == bound
                counts.check(meet <= bound, f"{name}: psi (t^{k} by {c}) meets phi at {meet}")


def census(max_n: int, projected: int) -> Counts:
    """The census of the genus-one classes with n <= max_n and the
    genus-2 and genus-3 classes with n <= 2*max_n, `projected` members of
    B per finite genus-one branch and per genus-2/3 branch whose reduced
    class has a slot."""
    rng = random.Random("census/0")
    counts = Counts()
    for n, m in CLASSES:
        if n <= max_n:
            genus_one(counts, n, m, rng, projected)
    for beta in PAIR_CLASSES:
        if beta[0] <= 2 * max_n:
            genus_two_and_three(counts, beta, rng, projected)
    return counts


def main() -> int:
    counts = census(7, 4)
    print(f"census n <= 7: {counts.branches} genus-one branches, "
          f"{counts.projected} projected psi ({counts.at_maximum} at the maximum), "
          f"{counts.pair_branches} genus-2/3 branches, {counts.pair_projected} projected psi "
          f"({counts.pair_at_maximum} at the maximum), {len(counts.violations)} violations")
    for what in counts.violations:
        print(f"violation: {what}")
    return 1 if counts.violations else 0


if __name__ == "__main__":
    sys.exit(main())
