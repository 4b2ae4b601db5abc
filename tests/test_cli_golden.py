"""Golden bytes of the command line.

Each case is one in-process `main(argv)` call, and each group of cases is
locked by the sha256 of every case's argv, exit code, standard output and
standard error.  A refactor of `cli.py` must reproduce all of them byte for
byte: text results, JSON documents, error and hint lines, usage lines and
the six help texts.  Help wraps at COLUMNS=80.  No case gives argparse an
invalid choice, or a branch file after an option together with an
unrecognized one, because argparse's handling of those differs between
Python releases; `test_cli.py` checks that a branch file may follow an
option.
"""

import contextlib
import hashlib
import io
import json

import pytest

from planebranch.cli import main
from planebranch.fixtures import fixture_names

FILES = {
    # y^2 - x^3 - x^4: Newton-Puiseux chooses truncation 6
    "p.json": {"kind": "polynomial", "terms": [[[0, 2], "1"], [[3, 0], "-1"], [[4, 0], "-1"]]},
    # (t^2, t^3 + t^4), known below t^9
    "c.json": {"kind": "parametrization", "n": 2, "terms": [[3, "1"], [4, "1"]], "trunc": 9},
    # (t^4, t^7), known below t^9: too short for the Zariski invariant
    "short.json": {"kind": "parametrization", "n": 4, "terms": [[7, "1"]], "trunc": 9},
    # (t^4, t^3): not transversal until x and y are exchanged
    "nt.json": {"kind": "parametrization", "n": 4, "terms": [[3, "1"]]},
    # (y^2 - x^3 - x^4)^2: a repeated factor
    "square.json": {
        "kind": "polynomial",
        "terms": [
            [[0, 4], "1"], [[3, 2], "-2"], [[4, 2], "-2"],
            [[6, 0], "1"], [[7, 0], "2"], [[8, 0], "1"],
        ],
    },
}

INPUTS = [["--fixture", name] for name in fixture_names()] + [["p.json"], ["c.json"]]


def _fixtures(*names):
    return [arg for name in names for arg in ("--fixture", name)]


PAIRS = [
    _fixtures("k37-branch", "k61417-poly"),
    _fixtures("k61417-poly", "k37-branch"),
    _fixtures("k47-branch", "k47-special"),
    _fixtures("k47-special", "k47-branch"),
    _fixtures("k37-cusp", "k37-cusp"),
    _fixtures("k23-cusp", "k37-cusp-poly"),
    ["c.json", "p.json"],
]

EXPAND_PAIRS = [
    _fixtures("k61417-poly", "k37-cusp"),
    _fixtures("k61417-poly", "k37-deformed-poly"),
    _fixtures("k47-branch", "k47-special"),
    _fixtures("k37-branch", "k23-cusp"),
    _fixtures("k37-branch", "k37-branch"),
]

GROUPS = {
    "invariants": [
        ["invariants", *branch, *fmt] for branch in INPUTS for fmt in ([], ["--json"])
    ],
    "zariski": [
        ["zariski", *branch, *fmt] for branch in INPUTS for fmt in ([], ["--json"])
    ],
    "convert": [
        ["convert", sub, *branch] for branch in INPUTS for sub in ("implicitize", "puiseux")
    ] + [
        ["convert", "puiseux", "--fixture", "k61417-poly", "--json"],
        ["convert", "implicitize", "--fixture", "k47-branch", "--json"],
        ["convert", "puiseux", "p.json", "--json"],
    ],
    "pair": [
        ["pair", sub, *pair, *fmt]
        for pair in PAIRS
        for sub in ("intersect", "contact", "infer")
        for fmt in ([], ["--json"])
    ],
    "expand": [["expand", *pair, *fmt] for pair in EXPAND_PAIRS for fmt in ([], ["--json"])],
    "options": [
        ["invariants", "nt.json", "--swap-xy"],
        ["invariants", "nt.json", "--swap-xy", "--json"],
        ["zariski", "--fixture", "k37-branch", "--swap-xy", "--json"],
        ["invariants", "--fixture", "k37-cusp-poly", "--swap-xy"],
        ["pair", "intersect", "nt.json", "--fixture", "k37-cusp", "--swap-xy"],
        ["convert", "puiseux", "p.json", "--precision", "20", "--json"],
        ["convert", "puiseux", "--fixture", "k61417-poly", "--precision", "30"],
        ["invariants", "p.json", "--precision", "9", "--json"],
        ["pair", "contact", "c.json", "p.json", "--precision", "7", "--json"],
        ["pair", "infer", *_fixtures("k37-branch", "k61417-poly"), "--known-lambda", "8"],
        ["pair", "infer", *_fixtures("k37-branch", "k61417-poly"), "--known-lambda", "8",
         "--json"],
        ["expand", *_fixtures("k61417-poly", "k37-cusp"), "--known-lambda", "16", "--json"],
        ["expand", "--known-lambda", "16", *_fixtures("k61417-poly", "k37-cusp")],
    ],
    "errors": [
        [],
        ["pair"],
        ["convert", "--fixture", "k23-cusp"],
        ["invariants", "missing.json"],
        ["invariants", "--fixture", "nope"],
        ["invariants"],
        ["pair", "intersect", "--fixture", "k37-branch"],
        ["invariants", "--fixture", "k23-cusp", "--precision", "0"],
        ["invariants", "--fixture", "k23-cusp", "--precision", "x"],
        ["zariski", "--fixture", "k23-cusp", "--known-lambda", "8"],
        ["convert", "puiseux", "--fixture", "k23-cusp", "--known-lambda", "8"],
        ["pair", "intersect", *_fixtures("k37-branch", "k37-cusp"), "--known-lambda", "99"],
        ["pair", "contact", *_fixtures("k37-branch", "k37-cusp"), "--known-lambda", "99"],
        ["pair", "infer", *_fixtures("k37-branch", "k61417-poly"), "--known-lambda", "x"],
        ["pair", "infer", *_fixtures("k47-branch", "k47-special"), "--known-lambda", "-3"],
        ["pair", "infer", *_fixtures("k47-branch", "k47-special"), "--known-lambda", "9"],
        ["pair", "infer", *_fixtures("k47-special", "k47-branch"), "--known-lambda", "9"],
        ["expand", *_fixtures("k61417-poly", "k37-cusp"), "--known-lambda", "15"],
        ["pair", "infer", *_fixtures("k37-branch", "k37-cusp"), "--known-lambda", "8"],
        ["zariski", "short.json"],
        ["convert", "puiseux", "square.json"],
        ["invariants", "nt.json"],
        ["zariski", "nt.json", "--json"],
        ["invariants", "--fixture", "k23-cusp", "--bogus"],
    ],
    "help": [
        ["--help"],
        ["invariants", "--help"],
        ["zariski", "--help"],
        ["pair", "--help"],
        ["expand", "--help"],
        ["convert", "--help"],
    ],
}

GOLDEN = {
    "convert": (
        "0202022002200202202032000",
        "ec7c03724fe43c53364808a185e23d755d42e5a2f3aa3c5238b82717a275ba63",
    ),
    "errors": (
        "222222222222223333543332",
        "99bfce536ad9322d90b1b51389d1430f0a96bbc98a6221c2ed21220e5c062cee",
    ),
    "expand": (
        "0000003333",
        "4f362b0b93d3c04e38834b61b415ed68c5f39b9a42db805c1dd472adc8b0bb57",
    ),
    "help": (
        "000000",
        "07829e314104a7ae58682b28f8dfd266e07bdc69731aff7d07c876844c76cbcd",
    ),
    "invariants": (
        "0000000000000000000000",
        "18549a1d021eb2b0b9c13603db152400e2c09fab3c99772e617e5a408ebd5927",
    ),
    "options": (
        "0033000000000",
        "8dd41a51aeadb5ed6502f1bae34bb47aa87d6e8be282e3e2dd97b12365df6c2c",
    ),
    "pair": (
        "000000000000000055000055330055000055000055",
        "769526b227be7a2e791ed6315e20943216d172382de43a993d5497ebfab5ca03",
    ),
    "zariski": (
        "0000000000000000000000",
        "fc45414d70d9cdf24023cf53528899876628dfac6c91e13a95b19620aa714ad4",
    ),
}


def run_case(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    return [argv, code, out.getvalue(), err.getvalue()]


@pytest.fixture
def branch_files(tmp_path, monkeypatch):
    """The FILES in a fresh working directory, so that argv names them
    relatively and every message reads the same wherever the test runs."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    for name, payload in FILES.items():
        (tmp_path / name).write_text(json.dumps(payload), encoding="utf-8")


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_cli_bytes_match_the_golden_digest(branch_files, group):
    records = [run_case(argv) for argv in GROUPS[group]]
    codes = "".join(str(code) for _, code, _, _ in records)
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert (codes, digest) == GOLDEN[group]

