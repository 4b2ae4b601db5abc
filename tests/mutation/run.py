"""Mutation run: how many planted faults the tier-1 tests catch.

Usage:  python tests/mutation/run.py

Each mutant in MUTANTS replaces one exact text of one file under src/ by
another.  For each mutant the tree (src/, tests/, pyproject.toml, and
perfbench/, whose seeded branches the census test reads) is copied
to a temporary directory, the mutant applied there, and tier-1 run with
`-x -p no:cacheprovider --hypothesis-seed=0`, two mutants at a time.  The
mutant is killed when the run fails or outlasts TIMEOUT seconds (a mutant
can make a loop never end), and survives when it passes.  A
declared mutant, an equivalent one with its one-line proof or a known
survivor with the item that will pin it, is reported but fails nothing.

Exit status: 0 when every undeclared mutant is killed; 1 when one survives;
2 when the unmutated copy fails tier-1 or a mutant's text is not found
exactly once in its file (the table is stale).  Standard library only; the
file is not named test_*, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SERIES = "src/planebranch/series.py"
GEOMETRY = "src/planebranch/geometry.py"
ZARISKI = "src/planebranch/zariski.py"
SEMIGROUP = "src/planebranch/semigroup.py"
ERRORS = "src/planebranch/errors.py"

# name: (file, old text, new text, why it must be killed or why it is declared)
MUTANTS = {
    # -- the power routine and the bounds its callers ask for
    "powers-bound-minus-one": (
        SERIES, "reach += order", "reach += order - 1",
        "y**g claims trunc + (g-1)*order - 1, one order short of what it knows",
    ),
    "powers-no-content-division": (
        SERIES, "num, den = _reduced(num, den * yden)", "den *= yden",
        "powers stay over yden**g, not in lowest terms",
    ),
    "qmove-below-minus-one": (
        ZARISKI, "_powers(y, y.trunc - shift)", "_powers(y, y.trunc - shift - 1)",
        "the q-move reads y**b below T - n(a-1) - 1 and loses an order",
    ),
    "pmove-below-minus-one": (
        ZARISKI, "_powers(y, y.trunc + n)", "_powers(y, y.trunc + n - 1)",
        "the p-move reads y**(b-1) below T + n - 1 and loses an order",
    ),
    "route-below-minus-one": (
        ZARISKI, "_powers(y, top + 1)", "_powers(y, top)",
        "d(y**b) loses its term at top - 1, where omega is still known",
    ),
    "working-bound-minus-one": (
        ZARISKI, "return (n - 1) * (m - 1) + 2 * n", "return (n - 1) * (m - 1) + 2 * n - 1",
        "the sweep runs one order short and the normal form's truncation moves",
    ),
    # -- the integer move kernels and the checks of each move
    "qmove-no-rescale": (
        ZARISKI, "out = {e: v * (common // y.den) for e, v in y.num.items()}", "out = dict(y.num)",
        "y is added over its own denominator, not over the lcm",
    ),
    "qmove-term-not-rescaled": (
        ZARISKI, "c.numerator * (common // pden), shift)", "c.numerator, shift)",
        "c * x**(a-1) * y**b is added over its own denominator, not over the lcm",
    ),
    "qmove-shift-dropped": (
        ZARISKI, "(common // pden), shift)", "(common // pden))",
        "the term lands on y's coefficient at e instead of e + n(a-1)",
    ),
    "pmove-unit-one-order-long": (
        ZARISKI, "utrunc = ptrunc - n", "utrunc = ptrunc - n + 1",
        "the unit, its root and rho claim an order past what y**(b-1) gives",
    ),
    "pmove-size-sign": (
        ZARISKI, "c *= Fraction(-n, m)", "c *= Fraction(n, m)",
        "the p-move's response is -c*(m/n)*L**b; the wrong sign doubles the term",
    ),
    "move-target-at-trunc-accepted": (
        ZARISKI, "if j >= new.trunc:", "if j > new.trunc:",
        "a move that leaves its target's coefficient unknown is accepted",
    ),
    "below-j-check-one-sided": (
        ZARISKI,
        "    if below != {e: v * den for e, v in nnum.items() if e < j}:\n",
        "    if any(nnum.get(e, 0) * den != v for e, v in below.items()):\n",
        "a term the move puts below j where y had none goes unseen",
    ),
    "below-j-check-one-short": (
        ZARISKI,
        "    below = {e: v * nden for e, v in num.items() if e < j}\n"
        "    if below != {e: v * den for e, v in nnum.items() if e < j}:\n",
        "    below = {e: v * nden for e, v in num.items() if e < j - 1}\n"
        "    if below != {e: v * den for e, v in nnum.items() if e < j - 1}:\n",
        "a disturbance at j - 1 goes unseen",
    ),
    "route-denominator-not-scaled": (
        ZARISKI, "            oden *= lead\n", "",
        "omega is scaled by the form's lead but its denominator is not",
    ),
    "route-lead-without-factor": (
        ZARISKI, "lead = form[b * m] * (1 if a else b * m)", "lead = form[b * m]",
        "the lead of d(y**b) is k times that of y**b; omega's lead survives its step",
    ),
    "route-genus2-stop-one-short": (
        ZARISKI, "else cd.char_exponents[2] + n\n", "else cd.char_exponents[2] + n - 1\n",
        "omega is read only below beta_2 + n, so a lambda = beta_2 is never found",
    ),
    "route-membership-without-e1": (
        ZARISKI, "if a < 0 or (e + 1) % e1:", "if a < 0:",
        "a value e1 does not divide is taken for the element of <n, m> at its floor",
    ),
    "route-keeps-x-powers": (
        ZARISKI,
        "    y = TSeries._make(y.var, {j: c for j, c in y.num.items() if j % n or j > m},"
        " y.den, y.trunc)\n",
        "",
        "a term of y at k*n below m gives y**b terms below b*m, and omega's lead walks"
        " back down",
    ),
    "route-no-value-guard-dropped": (
        ZARISKI,
        "    if cd.genus > 1:\n"
        "        raise CrossCheckFailed(f\"the route found no value of omega up to"
        " beta_2 + n = {top}\")\n",
        "",
        "a genus >= 2 route that finds no value reports an infinite invariant",
    ),
    "qmove-no-content-division": (
        ZARISKI, "    return TSeries._make(y.var, out, common, y.trunc)\n",
        "    s = object.__new__(TSeries)\n"
        "    s.var, s.num, s.den, s.trunc, s._terms = y.var, out, common, y.trunc, None\n"
        "    return s\n",
        "the q-move's form, built past `_make`, leaves lowest terms, and forms compare by ==",
    ),
    # -- the Newton-Puiseux stage on integer rows: the faults first planted
    # in the tuple-map stage, and the choices the row layout makes
    "np-no-content-division": (
        GEOMETRY, "g = gcd(*(c for row in acc.values() for c in row.values()))  # stops at 1",
        "g = 1",
        "the stage polynomial keeps its content and stops being primitive",
    ),
    "np-table-without-q-power": (
        GEOMETRY, "q ** (d - j + l)", "q ** (d - j)",
        "the recentering factor drops q**l and changes the polynomial",
    ),
    "np-edge-check-without-b-power": (
        GEOMETRY, "edge.get(j * nu, 0) * b ** (k - j) !=", "edge.get(j * nu, 0) !=",
        "the binomial edge check compares terms of different scale",
    ),
    "np-zeros-kept": (
        GEOMETRY, "acc = {l: row for l, row in acc.items() if row}", "acc = dict(acc)",
        "rows emptied by cancellation stay in the map and sit on the Newton polygon",
    ),
    "np-largest-slope": (
        GEOMETRY, "if i * nu < mu * (jstar - j):",
        "if mu == inf or i * nu > mu * (jstar - j):",
        "the edge is read at the largest ratio of the polygon, not the least",
    ),
    "np-slope-row-maximum": (
        GEOMETRY, "i = min(row)", "i = max(row)",
        "each row enters the slope at its highest x-power, not its lowest",
    ),
    "np-edge-rows-below-jstar": (
        GEOMETRY, "if j <= jstar and not r and i in row:", "if j < jstar and not r and i in row:",
        "the edge is read without its y-axis point, the lead of the edge polynomial",
    ),
    "np-shift-without-y": (
        GEOMETRY, "shift = min(nu * min(row) + mu * j for j, row in cur.items())",
        "shift = min(nu * min(row) for j, row in cur.items())",
        "the recentered rows keep a power of x, so no point is left on the y-axis",
    ),
    "np-zero-entries-kept": (
        GEOMETRY,
        "    acc = {l: {i: c for i, c in row.items() if c} for l, row in acc.items()}\n", "",
        "terms cancelled by the recentering stay as zero entries; a zero at a row's lowest"
        " x-power moves the Newton polygon",
    ),
    "np-target-minus-one": (
        GEOMETRY, "target = conductor + 2 * n", "target = conductor + 2 * n - 1",
        "the default truncation falls one short of the conductor plus 2n",
    ),
    "np-separation-bound-doubled": (
        GEOMETRY, "if ram < n and 2 * texp > separation:", "if ram < n and texp > separation:",
        "a repeated factor is refused only past twice the discriminant bound",
    ),
    "np-separation-non-strict": (
        GEOMETRY, "if ram < n and 2 * texp > separation:",
        "if ram < n and 2 * texp >= separation:",
        "a repeated factor whose roots agree exactly to the bound is refused one stage"
        " early, at another x-order",
    ),
    "np-stage-exponent-old-ram": (
        GEOMETRY, "        ram *= nu\n        texp += n // ram * mu\n",
        "        texp += n // ram * mu\n        ram *= nu\n",
        "a ramified stage's t-exponent is nu times too large",
    ),
    # -- the solve past full ramification: its entry, its integer form, the
    # rows it reads and the one evaluation that closes it
    "np-solve-one-stage-early": (
        GEOMETRY, "    while ram < n:\n        edge = _np_edge(cur)\n",
        "    while ram < n:\n        edge = _np_edge(cur)\n"
        "        if edge and ram * edge[0] == n:\n            break\n",
        "the solve starts on rows whose y-axis point is not at j* = 1, one stage early",
    ),
    "np-solve-den-power-off-by-one": (
        GEOMETRY, "u = Fraction(-acc, b0 * den**d)", "u = Fraction(-acc, b0 * den ** (d + 1))",
        "each coefficient is divided by one power of the running denominator too many",
    ),
    "np-solve-den-growth-not-rescaled": (
        GEOMETRY, "                    Q[j][:] = [c * scale for c in Q[j]]\n", "",
        "N and its powers stay over the old denominator when it grows",
    ),
    "np-final-closure-check-skipped": (
        GEOMETRY, "if texp + k == D:", "if texp + k == D < target - 1:",
        "a root whose last term sits at target - 1 is returned truncated, not exact",
    ),
    "np-closure-degree-off-by-one": (
        GEOMETRY, "if texp + k == D:", "if texp + k == D + 1:",
        "the evaluation runs one past the only degree a polynomial root can have, so no"
        " root closes",
    ),
    "np-entry-check-dropped": (
        GEOMETRY, "if texp + k == D:", "if k and texp + k == D:",
        "a root the stages closed, y**2 - x**3 say, is returned truncated, not exact",
    ),
    # -- the fast paths that compute only what is read: implicitize's half of
    # the powers and the exact product
    "implicitize-half-floor": (
        GEOMETRY, "half = (n + 1) // 2", "half = n // 2",
        "at odd n, p**n is read as p**h * p**(h + 1), a power that was not formed",
    ),
    "implicitize-residue-class": (
        GEOMETRY, "classes.get(-e1 % n, ())", "classes.get(e1 % n, ())",
        "for n >= 3 the pairs with e1 + e2 divisible by n are missed and others summed",
    ),
    "convolve-exact-skips-last": (
        SERIES, "b = list(b.items())", "b = list(b.items())[:-1]",
        "an exact product loses every product with the second factor's last term",
    ),
    # -- the integer form of series and polynomials, and its ring operations
    "tseries-add-keeps-zeros": (
        SERIES,
        "            c = acc.get(e, 0) + q * c\n"
        "            if c:\n"
        "                acc[e] = c\n"
        "            else:\n"
        "                acc.pop(e, None)\n",
        "            acc[e] = acc.get(e, 0) + q * c\n",
        "a cancelled term of a sum stays as a zero numerator",
    ),
    "tseries-add-writes-into-self": (
        SERIES, "acc = {e: c * (den // self.den) for e, c in self.num.items() if e < trunc}",
        "acc = self.num\n"
        "        acc.update({e: c * (den // self.den) for e, c in acc.items()})",
        "the sum is written into its left operand's numerators",
    ),
    "tseries-truncated-shares-dict": (
        SERIES, "num = {e: c for e, c in s.num.items() if e < bound}",
        "num = s.num if max(s.num, default=-1) < bound"
        " else {e: c for e, c in s.num.items() if e < bound}",
        "a truncation that cuts nothing shares its input's numerators",
    ),
    "view-cache-shared": (
        SERIES,
        "    return TSeries._make(s.var, num, s.den, bound)\n",
        "    out = TSeries._make(s.var, num, s.den, bound)\n"
        "    out._terms = s._terms\n"
        "    return out\n",
        "a truncation shows its input's view, terms past its trunc included",
    ),
    "reduced-without-sign-fix": (
        SERIES, "g = math.gcd(den, *num.values()) * (-1 if den < 0 else 1)",
        "g = math.gcd(den, *num.values())",
        "a form over a negative lead keeps den < 0, and equal series compare unequal",
    ),
    "make-without-reduction": (
        SERIES, "s.num, s.den = _reduced(num, den)", "s.num, s.den = num, den",
        "every series kernel's output leaves lowest terms, and forms compare by ==",
    ),
    "eq-without-den": (
        SERIES, "            and self.den == other.den\n", "",
        "t/2 and t/3 have the same numerators and compare equal",
    ),
    "bivar-add-keeps-zeros": (
        SERIES, "rows = {j: {i: c for i, c in row.items() if c} for j, row in rows.items()}",
        "rows = {j: dict(row) for j, row in rows.items()}",
        "a cancelled monomial stays as a zero numerator",
    ),
    "bivar-sub-writes-into-left": (
        SERIES, "acc = {j: {i: c * a for i, c in row.items()} for j, row in self.rows.items()}",
        "acc = self.rows\n"
        "        for row in acc.values():\n"
        "            row.update({i: c * a for i, c in row.items()})",
        "the difference is written into its left operand's rows",
    ),
    "monic-reads-numerator": (
        SERIES, "self.rows[d] == {0: self.den}", "self.rows[d] == {0: 1}",
        "a top row 1 over den > 1 reads as not monic, and a top numerator 1 as monic",
    ),
    "root-unit-reads-numerator": (
        SERIES, "if s.num.get(0) != s.den:", "if s.num.get(0) != 1:",
        "a unit over den > 1 is refused, and constant 1/den accepted",
    ),
    "substitute-without-poly-den": (
        SERIES, "TSeries._make(y.var, num, den * poly.den, trunc)",
        "TSeries._make(y.var, num, den, trunc)",
        "the value of poly on the branch loses poly's common denominator",
    ),
    # -- the evaluation at t = 2**k that decides vanishing and reads orders on
    # an exact branch, and the refusal of a bool where an int is read
    "two-power-no-margin": (
        SERIES, "k = beta.bit_length() + 1\n", "k = beta.bit_length() - 1\n",
        "a coefficient can reach 2**k: beta = 2**k attained at the lowest term reads one"
        " order up",
    ),
    "two-power-not-homogenized": (
        SERIES, "rows[j].items()) * scale", "rows[j].items())",
        "row j is not multiplied by den**(d - j), so y's denominator is not cleared",
    ),
    "two-power-x-shift-without-n": (
        SERIES, "shift = k * n", "shift = k",
        "x**i lands on t**i instead of t**(n*i)",
    ),
    "poly-param-order-from-top-bit": (
        GEOMETRY, "return ((v & -v).bit_length() - 1) // k", "return (v.bit_length() - 1) // k",
        "the intersection reads the degree of G, not its order",
    ),
    "is-int-accepts-bool": (
        SERIES, "return isinstance(value, int) and not isinstance(value, bool)",
        "return isinstance(value, int)",
        "True is read as the exponent 1",
    ),
    # -- the argument contract: each kind decided once in `series`
    "ratio-accepts-bool": (
        SERIES, "    if _is_int(value):\n        return Fraction(value)\n",
        "    if isinstance(value, int):\n        return Fraction(value)\n",
        "True is read as the rational 1",
    ),
    "exponent-accepts-bool": (
        SERIES, "    if _is_int(e):\n        return e >= 0\n",
        "    if isinstance(e, int):\n        return e >= 0\n",
        "True is read as the constructor exponent 1",
    ),
    "coeff-without-refusal": (
        SERIES,
        "        if not _is_natural(exponent):\n"
        "            raise InvalidArgument(f\"exponent {exponent!r} is not a non-negative"
        " integer\")\n",
        "",
        "coeff(-1) and coeff(1.5) read 0, and coeff(True) the coefficient at 1",
    ),
    "contact-order-without-range": (
        GEOMETRY,
        "        if theta < 1:\n"
        "            raise ThetaOutOfRange(f\"contact order {theta} is below 1\")\n",
        "",
        "a contact order below 1, which no two branches have, is accepted",
    ),
    "scan-not-cross-multiplied": (
        GEOMETRY, "ae, be = a.get(e, 0) * db, b.get(e, 0) * da",
        "ae, be = a.get(e, 0), b.get(e, 0)",
        "the scan compares numerators over different denominators",
    ),
    "substitute-order-counts-zeros": (
        SERIES, "order = min((e for e, c in acc.items() if c), default=trunc)",
        "order = min(acc, default=trunc)",
        "a cancelled lead of the accumulator still sets the truncation",
    ),
    "substitute-trunc-one-too-loose": (
        SERIES, "trunc = min(trunc + g * y._eff_order(), ptrunc + order)",
        "trunc = min(trunc + g * y._eff_order(), ptrunc + order + 1)",
        "the Horner pass claims one order more than it knows",
    ),
    "divmod-adds-quotient-term": (
        SERIES, "row2, -c1, i1)", "row2, c1, i1)",
        "each quotient term times the divisor's lower rows is added, not taken off",
    ),
    "divmod-rows-not-rescaled": (
        SERIES,
        "rows = {j: {i: c * lden for i, c in row.items()} for j, row in rows.items()}",
        "rows = rows",
        "what remains is not put over the lower rows' denominator before they come off",
    ),
    # -- the breakpoint walks between contact order and intersection, which
    # `contact` no longer calls
    "contact-theta-one-refused": (
        GEOMETRY, "if c < n * d:", "if c <= n * d:",
        "I / n' = n, contact exactly 1, is refused as admitting no contact",
    ),
    "intersection-theta-one-refused": (
        GEOMETRY, "if theta < 1:", "if theta <= 1:",
        "contact exactly 1 is refused as below 1",
    ),
    "contact-walk-product-late": (
        GEOMETRY,
        "        nq = cd.quotients[q]\n        prod *= nq\n        q += 1\n"
        "    return ContactOrder(",
        "        q += 1\n        nq = cd.quotients[q]\n        prod *= nq\n"
        "    return ContactOrder(",
        "the piece climbed to is solved with n_(q+1) for n_q, past the last one out of range",
    ),
    "intersection-walk-product-late": (
        GEOMETRY,
        "        nq = cd.quotients[q]\n        prod *= nq\n        q += 1\n"
        "    return Fraction(",
        "        q += 1\n        nq = cd.quotients[q]\n        prod *= nq\n"
        "    return Fraction(",
        "the piece climbed to is evaluated with n_(q+1) for n_q, past the last one out of range",
    ),
    # -- the conjugate scan's decisions and contact's reading of it
    "scan-equal-keeps-every-twist": (
        GEOMETRY, "kept = [k for k in pending if k * e % big == 0]", "kept = list(pending)",
        "equal coefficients cancel only for the conjugates whose twist is 1",
    ),
    "scan-opposite-twist-floor-half": (
        GEOMETRY, "2 * (k * e % big) == big", "k * e % big == big // 2",
        "at odd N no twist is -1, yet the twist (N - 1) / 2 is kept for opposite coefficients",
    ),
    "contact-least-order": (
        GEOMETRY, "Fraction(max(orders), ", "Fraction(min(orders), ",
        "the contact order is the largest conjugate order, not the least",
    ),
    # -- the comparisons of infer_zariski
    "infer-contact-non-strict": (
        ZARISKI, "if not ratio(contact_order) > Fraction(lambda_f, n):",
        "if not ratio(contact_order) >= Fraction(lambda_f, n):",
        "contact exactly lambda/n is accepted as evidence",
    ),
    "defect-non-strict": (
        ZARISKI, "if not lam > beta[1]:", "if not lam >= beta[1]:",
        "lam = beta_1 is still refused, since beta_1 + n lies in the semigroup, but with"
        " the semigroup's message, which the differential corpus pins",
    ),
    "reduced-branch-need-without-2n": (
        ZARISKI, "e1 * _working_bound(n1, m1))", "e1 * (_working_bound(n1, m1) - 2 * n1))",
        "a genus >= 2 branch is asked for less precision; the corpus pins the parent's"
        " `needed`, and ROADMAP item 8 decides whether 2n is needed at all",
    ),
    "defect-genus-two-skipped": (
        ZARISKI, "if cd.genus >= 2 and lam > beta[2]:", "if cd.genus > 2 and lam > beta[2]:",
        "at genus 2 a lambda above beta_2 is no longer refused",
    ),
    "defect-beta2-non-strict": (
        ZARISKI, "if cd.genus >= 2 and lam > beta[2]:", "if cd.genus >= 2 and lam >= beta[2]:",
        "lambda = beta_2, which a genus >= 2 branch can have, is refused",
    ),
    "defect-semigroup-without-n": (
        ZARISKI, "if contains(lam + cd.mult, cd):", "if contains(lam, cd):",
        "membership is tested for lambda, not lambda + n",
    ),
    "pmove-exact-accepted": (
        ZARISKI,
        "    if y.exact:\n"
        "        raise NeedsTruncation(\"p-move needs a finite working truncation;"
        " re-truncate first\")\n",
        "",
        "a p-move on an exact branch asks for a unit root to infinite precision",
    ),
    "swap-default-one-short": (
        GEOMETRY, "2 * (phi.n + top) * max(1, phi.n))", "2 * (phi.n + top) * max(1, phi.n) - 1)",
        "the swap's default truncation falls one short",
    ),
    # -- the semigroup of values
    "gcd-chain-skips-even": (
        SEMIGROUP, "        if i % e:\n", "        if i % e and i % 2:\n",
        "an even exponent off the running gcd is not taken as characteristic",
    ),
    "conductor-one-short": (
        SEMIGROUP, "- (n - 1)", "- n",
        "the conductor is one below the least element past which every integer lies in"
        " the semigroup",
    ),
    "infer-intersection-non-strict": (
        ZARISKI, "if not ratio(intersection_value) > threshold:",
        "if not ratio(intersection_value) >= threshold:",
        "an intersection on the boundary is accepted as evidence",
    ),
    # -- the refusal contract: object slots and exit codes
    "char-exponents-branch-check-dropped": (
        SEMIGROUP,
        "    if not isinstance(getattr(phi, \"y\", None), TSeries):\n"
        "        raise InvalidArgument(f\"branch {phi!r} is not a Parametrization\")\n",
        "",
        "char_sequence and the sweep's entry points read phi.n of a non-branch untyped",
    ),
    "standard-rep-class-check-dropped": (
        SEMIGROUP, "    _check_instance(cd, CharData, \"class\")\n", "",
        "standard_rep and contains read cd.generators of a non-CharData untyped",
    ),
    "precision-exhausted-exits-3": (
        ERRORS, "    exit_code = 4\n", "    exit_code = 3\n",
        "an exhausted truncation exits as a violated precondition",
    ),
}

# name: (file, old text, new text, why it survives)
DECLARED = {
    "np-rows-read-through-K": (
        GEOMETRY, "for i, c in row.items() if i < K)", "for i, c in row.items() if i <= K)",
        "equivalent: an entry of row j at x-power K is read for coefficient k only when"
        " k - j >= K, past the last k < K that the solve computes",
    ),
    "poly-param-order-without-minus-one": (
        GEOMETRY, "return ((v & -v).bit_length() - 1) // k", "return (v & -v).bit_length() // k",
        "equivalent: with k = beta.bit_length() + 1 the lowest digit has v_2 <= k - 2, so"
        " v_2(v) + 1 < k*(e + 1) and the floor is still e",
    ),
    "route-rise-guard-dropped": (
        ZARISKI,
        "        if e <= last:\n"
        "            raise CrossCheckFailed(f\"omega's lead went back to t^{e} from t^{last}\")\n",
        "",
        "equivalent: with y's x-powers below m dropped every form leads at its b*m, and"
        " f / lead is omega's lead over the form's, so each step cancels the lead and adds"
        " terms above it only; the guard turns route-lead-without-factor's endless loop"
        " and route-keeps-x-powers's walk back down into refusals",
    ),
    "route-lead-not-reduced": (
        ZARISKI, "g = gcd(omega[e], lead)", "g = 1",
        "equivalent: omega is then g times its reduced form over g times its denominator,"
        " and the content division of the same step takes g out",
    ),
    "route-no-content-division": (
        ZARISKI, "        omega, oden = _reduced(omega, oden)\n", "",
        "equivalent: omega's rationals are unchanged, and the coefficient returned is one"
        " Fraction of them",
    ),
    "contact-walk-strict": (
        GEOMETRY, "c * prod >= v[q + 1] * d", "c * prod > v[q + 1] * d",
        "equivalent: an I / n' on a breakpoint then stays on the piece below, whose"
        " solution there is the same breakpoint, since the pieces meet",
    ),
    "intersection-walk-strict": (
        GEOMETRY, "n * a >= beta[q + 1] * b", "n * a > beta[q + 1] * b",
        "equivalent: a theta on a breakpoint is then evaluated on the piece below,"
        " whose value there is the same, since the pieces meet",
    ),
    "scan-no-early-stop": (
        GEOMETRY, "        pending = kept\n        if not pending:\n            break\n",
        "        pending = kept\n",
        "equivalent: with no conjugate pending every later exponent keeps none and adds no"
        " order, so the stop only ends the scan sooner",
    ),
    "reduced-branch-need-without-beta-g": (
        ZARISKI, "max(cd.char_exponents[-1] + 1, e1 * _working_bound(n1, m1))",
        "e1 * _working_bound(n1, m1)",
        "equivalent: both callers first run char_sequence, which has read y's term at"
        " beta_g, so the trunc already exceeds beta_g and only the other term can refuse",
    ),
    "pmove-unit-no-content-division": (
        ZARISKI, "    root = _root(TSeries._make(y.var, unit, unit[0], utrunc), n)\n",
        "    u = object.__new__(TSeries)\n"
        "    u.var, u.num, u.den, u.trunc, u._terms = y.var, unit, unit[0], utrunc, None\n"
        "    root = _root(u, n)\n",
        "equivalent: each coefficient of the root is reduced as it is found, so a unit over"
        " a larger denominator gives the same root",
    ),
}
# divmod_monic_y takes each quotient term off with _addmul, so the fault the
# retired divmod-keeps-zero-rows planted is tseries-add-keeps-zeros

# the unmutated tree takes about 15 s, the slowest killed mutant about 50 s
TIMEOUT = 120

TIER1 = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", "tests"]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _tier1(mutant) -> tuple[bool, float, str]:
    """(passed, seconds, the first failing test or else the last line of the
    pytest report) on a fresh copy of the tree with the mutant (file, old,
    new) applied, or with none at None."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        dest = Path(tmp)
        _copy_tree(dest)
        if mutant is not None:
            path, old, new = mutant
            target = dest / path
            target.write_text(target.read_text(encoding="utf-8").replace(old, new), "utf-8")
        env = dict(os.environ, PYTHONPATH=str(dest / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, *TIER1], cwd=dest, env=env, capture_output=True, text=True,
                timeout=TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            return False, time.monotonic() - start, f"timed out after {TIMEOUT} s"
        lines = [line for line in proc.stdout.splitlines() if line.strip()]
        failed = [line.split(" - ")[0] for line in lines if line.startswith(("FAILED", "ERROR"))]
        report = failed[0] if failed else lines[-1] if lines else ""
        return proc.returncode == 0, time.monotonic() - start, report


def main() -> int:
    table = {**MUTANTS, **DECLARED}
    names = list(table)
    # each mutant's text must occur exactly once, checked before anything runs
    for name in names:
        path, old, _, _ = table[name]
        count = (ROOT / path).read_text(encoding="utf-8").count(old)
        if count != 1:
            print(f"stale: {name}: its text occurs {count} times in {path}")
            return 2
    passed, seconds, last = _tier1(None)
    print(f"unmutated tree: {'passed' if passed else 'FAILED'} in {seconds:.1f} s ({last})",
          flush=True)
    if not passed:
        return 2
    start = time.monotonic()
    # the threads only wait on their pytest processes, which do the work
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = pool.map(lambda name: _tier1(table[name][:3]), names)
        counts = {"killed": 0, "survived": 0, "declared": 0}
        for name, (passed, seconds, last) in zip(names, results):
            declared = name in DECLARED
            verdict = "killed" if not passed else "declared" if declared else "survived"
            counts[verdict] += 1
            note = table[name][3] if passed else last
            print(f"{verdict:9} {name:34} {seconds:6.1f} s  {note}", flush=True)
    print(
        f"{len(names)} mutants: {counts['killed']} killed, {counts['survived']} survived, "
        f"{counts['declared']} declared survivors, in {time.monotonic() - start:.0f} s"
    )
    return 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
