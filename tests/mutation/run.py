"""Mutation run: how many planted faults the tier-1 tests catch.

Usage:  python tests/mutation/run.py

Each mutant in MUTANTS replaces one exact text of one file under src/ by
another.  For each mutant the tree (src/, tests/, pyproject.toml) is copied
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

# name: (file, old text, new text, why it must be killed or why it is declared)
MUTANTS = {
    # -- the power routine and the bounds its callers ask for
    "powers-bound-minus-one": (
        SERIES, "reach += order", "reach += order - 1",
        "y**g claims trunc + (g-1)*order - 1, one order short of what it knows",
    ),
    "powers-no-content-division": (
        SERIES, "num, den, _ = _reduced(num, den * yden, None)", "den *= yden",
        "powers stay over yden**g, not in lowest terms",
    ),
    "qmove-below-minus-one": (
        ZARISKI, "_powers(y, trunc - shift)", "_powers(y, trunc - shift - 1)",
        "the q-move reads y**b below T - n(a-1) - 1 and loses an order",
    ),
    "pmove-below-minus-one": (
        ZARISKI, "_powers(y, y[2] + n)", "_powers(y, y[2] + n - 1)",
        "the p-move reads y**(b-1) below T + n - 1 and loses an order",
    ),
    "route-below-minus-one": (
        ZARISKI, "_powers(y, mu)", "_powers(y, mu - 1)",
        "d(y**b) loses its term at mu - 2, where omega is still known",
    ),
    "working-bound-minus-one": (
        ZARISKI, "return _conductor(n, m) + 2 * n", "return _conductor(n, m) + 2 * n - 1",
        "the sweep runs one order short and the normal form's truncation moves",
    ),
    # -- the integer move kernels and the checks of each move
    "qmove-no-rescale": (
        ZARISKI, "out = {e: v * (common // den) for e, v in num.items()}", "out = dict(num)",
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
        ZARISKI, "if j >= ntrunc:", "if j > ntrunc:",
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
        ZARISKI, "lead = form[e - shift] * (1 if a else e - shift)", "lead = form[e - shift]",
        "the lead of d(y**b) is k times that of y**b; omega's lead is never cancelled",
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
    "np-target-minus-one": (
        GEOMETRY, "target = conductor + 2 * n", "target = conductor + 2 * n - 1",
        "the default truncation falls one short of the conductor plus 2n",
    ),
    "np-separation-bound-doubled": (
        GEOMETRY, "max(i for i, _ in f.terms), 2)", "max(i for i, _ in f.terms), 1)",
        "a repeated factor is refused only past twice the discriminant bound",
    ),
    # -- series ring operations (recorded for PRs 13 and 14)
    "tseries-add-keeps-zeros": (
        SERIES,
        "                c += acc.get(e, _ZERO)\n"
        "                if c:\n"
        "                    acc[e] = c\n"
        "                else:\n"
        "                    del acc[e]\n",
        "                acc[e] = c + acc.get(e, _ZERO)\n",
        "a cancelled term stays as a zero coefficient",
    ),
    "tseries-add-writes-into-self": (
        SERIES, "acc = {e: c for e, c in self.terms.items() if e < trunc}", "acc = self.terms",
        "the sum is written into its left operand",
    ),
    "tseries-truncated-shares-dict": (
        SERIES,
        "return TSeries._make(self.var, {e: c for e, c in self.terms.items() if e < bound}, bound)",
        "return TSeries._make(self.var, self.terms if max(self.terms, default=-1) < bound"
        " else {e: c for e, c in self.terms.items() if e < bound}, bound)",
        "a truncation that cuts nothing shares its input's dict",
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
    "bivar-add-keeps-zeros": (
        SERIES,
        "            c = op(acc.get(k, _ZERO), c)\n"
        "            if c:\n"
        "                acc[k] = c\n"
        "            else:\n"
        "                del acc[k]\n",
        "            acc[k] = op(acc.get(k, _ZERO), c)\n",
        "a cancelled monomial stays as a zero coefficient",
    ),
    "bivar-sub-writes-into-left": (
        SERIES, "acc = dict(self.terms)", "acc = self.terms",
        "the difference is written into its left operand",
    ),
    "divmod-keeps-zero-rows": (
        SERIES,
        "                    c = row.get(i1 + i2, 0) - c1 * c2\n"
        "                    if c:\n"
        "                        row[i1 + i2] = c\n"
        "                    else:\n"
        "                        del row[i1 + i2]\n",
        "                    row[i1 + i2] = row.get(i1 + i2, 0) - c1 * c2\n",
        "the remainder keeps zero coefficients",
    ),
    "divmod-rows-not-rescaled": (
        SERIES,
        "rows = {j: {i: c * lden for i, c in row.items()} for j, row in rows.items()}",
        "rows = rows",
        "what remains is not put over the lower rows' denominator before they come off",
    ),
    # -- the comparisons of infer_zariski
    "infer-contact-non-strict": (
        ZARISKI, "if not ratio(contact_order) > Fraction(lambda_f, n):",
        "if not ratio(contact_order) >= Fraction(lambda_f, n):",
        "contact exactly lambda/n is accepted as evidence",
    ),
    "infer-intersection-non-strict": (
        ZARISKI, "if not ratio(intersection_value) > threshold:",
        "if not ratio(intersection_value) >= threshold:",
        "an intersection on the boundary is accepted as evidence",
    ),
}

# name: (file, old text, new text, why it survives)
DECLARED = {
    "lift-non-strict": (
        ZARISKI, "e1 * result.exponent < beta2", "e1 * result.exponent <= beta2",
        "equivalent: e1 never divides beta_2, so e1*k = beta_2 cannot occur",
    ),
    "defect-non-strict": (
        ZARISKI, "if not lam > beta[1]:", "if not lam >= beta[1]:",
        "equivalent: beta_1 + n lies in the semigroup, so its check refuses lam = beta_1",
    ),
    "reduced-branch-need-without-2n": (
        ZARISKI, "_conductor(n1, m1) * e1 + 2 * cd.mult", "_conductor(n1, m1) * e1",
        "known survivor: the bound is loose or untested (ROADMAP item 8, the least precision)",
    ),
    "qmove-no-content-division": (
        ZARISKI, "return _reduced(out, common, trunc)", "return out, common, trunc",
        "equivalent: the form's rationals are unchanged, and every later kernel and each"
        " Fraction built from it reduces them",
    ),
    "route-lead-not-reduced": (
        ZARISKI, "g = gcd(omega[e], lead)", "g = 1",
        "equivalent: omega is then g times its reduced form over g times its denominator,"
        " and the content division of the same step takes g out",
    ),
    "route-no-content-division": (
        ZARISKI, "        omega, oden, _ = _reduced(omega, oden, None)\n", "",
        "equivalent: omega's rationals are unchanged, and the coefficient returned is one"
        " Fraction of them",
    ),
    "pmove-unit-no-content-division": (
        ZARISKI, "_root(_reduced(unit, unit[0], utrunc), n)", "_root((unit, unit[0], utrunc), n)",
        "equivalent: each coefficient of the root is reduced as it is found, so a unit over"
        " a larger denominator gives the same root",
    ),
}

# the unmutated tree takes about 11 s, the slowest killed mutant about 35 s
TIMEOUT = 120

TIER1 = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", "tests"]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
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
