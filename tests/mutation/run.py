"""Mutation run: how many planted faults the tier-1 tests catch.

Usage:  python tests/mutation/run.py

Each mutant in MUTANTS replaces one exact text of one file under src/ by
another.  For each mutant the tree (src/, tests/, pyproject.toml) is copied
to a temporary directory, the mutant applied there, and tier-1 run with
`-x -p no:cacheprovider --hypothesis-seed=0`, two mutants at a time.  The
mutant is killed when the run fails and survives when it passes.  A
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
        SERIES, "reach += y._eff_order()", "reach += y._eff_order() - 1",
        "y**g claims trunc + (g-1)*order - 1, one order short of what it knows",
    ),
    "powers-no-content-division": (
        SERIES, "g = math.gcd(den, *num.values())", "g = 1",
        "powers stay over yden**g, not in lowest terms",
    ),
    "qmove-below-minus-one": (
        ZARISKI, "_powers(phi.y, phi.trunc - shift)", "_powers(phi.y, phi.trunc - shift - 1)",
        "the q-move reads y**b below T - n(a-1) - 1 and loses an order",
    ),
    "pmove-below-minus-one": (
        ZARISKI, "_powers(phi.y, phi.trunc + n)", "_powers(phi.y, phi.trunc + n - 1)",
        "the p-move reads y**(b-1) below T + n - 1 and loses an order",
    ),
    "route-below-minus-one": (
        ZARISKI, "_powers(y, mu)", "_powers(y, mu - 1)",
        "d(y**b) loses its term at mu - 2, where omega is still known",
    ),
    # -- the integer Newton-Puiseux stage (recorded in CHANGES.md for PR 10)
    "np-no-content-division": (
        GEOMETRY, "g = gcd(*acc.values())  # stops at 1", "g = 1",
        "the stage polynomial keeps its content and stops being primitive",
    ),
    "np-table-without-q-power": (
        GEOMETRY, "q ** (d - j + l)", "q ** (d - j)",
        "the recentering table drops q**l and changes the polynomial",
    ),
    "np-edge-check-without-b-power": (
        GEOMETRY, "edge.get(j * nu, 0) * b ** (k - j) !=", "edge.get(j * nu, 0) !=",
        "the binomial edge check compares terms of different scale",
    ),
    "np-zeros-kept": (
        GEOMETRY, "acc = {key: c for key, c in acc.items() if c}", "acc = dict(acc)",
        "cancelled terms stay in the map and shift the Newton polygon",
    ),
    "np-largest-slope": (
        GEOMETRY, "if j < jstar and i * nu < mu * (jstar - j):",
        "if j < jstar and (mu == inf or i * nu > mu * (jstar - j)):",
        "the edge is read at the largest ratio of the polygon, not the least",
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
        "                    c = row.get(i1 + i2, _ZERO) - c1 * c2\n"
        "                    if c:\n"
        "                        row[i1 + i2] = c\n"
        "                    else:\n"
        "                        del row[i1 + i2]\n",
        "                    row[i1 + i2] = row.get(i1 + i2, _ZERO) - c1 * c2\n",
        "the remainder keeps zero coefficients",
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
}

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
        proc = subprocess.run(
            [sys.executable, *TIER1], cwd=dest, env=env, capture_output=True, text=True
        )
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
