"""Built-in branch fixtures, addressable from the CLI via --fixture NAME.

Named by their equisingularity class; `k47-branch` and `k47-special` differ
exactly in the coefficient that decides whether the quartic reduces to
y^4 = x^7.
"""

from __future__ import annotations

from .branchio import parse_branch
from .errors import BranchFileError

FIXTURES: dict = {
    "k23-cusp": {
        "kind": "parametrization",
        "n": 2,
        "terms": [[3, "1"]],
        "label": "cusp (t^2, t^3)",
    },
    "k47-branch": {
        "kind": "parametrization",
        "n": 4,
        "terms": [[7, "1"], [10, "1"], [12, "1"]],
        "label": "quartic branch in K(4,7) with invariant 13",
    },
    "k47-special": {
        "kind": "parametrization",
        "n": 4,
        "terms": [[7, "1"], [10, "1"], [12, "1"], [13, "17/14"]],
        "label": "quartic branch equivalent to y^4 = x^7",
    },
    "k37-branch": {
        "kind": "parametrization",
        "n": 3,
        "terms": [[7, "1"], [8, "1"]],
        "label": "cubic branch in K(3,7) with invariant 8",
    },
    "k37-cusp": {
        "kind": "parametrization",
        "n": 3,
        "terms": [[7, "1"]],
        "label": "cusp (t^3, t^7)",
    },
    "k37-cusp-poly": {
        "kind": "polynomial",
        "terms": [[[0, 3], "1"], [[7, 0], "-1"]],
        "label": "y^3 - x^7",
    },
    "k37-deformed": {
        "kind": "parametrization",
        "n": 3,
        "terms": [[7, "1"], [9, "1"]],
        "label": "branch (t^3, t^7 + t^9), equivalent to y^3 = x^7",
    },
    "k37-deformed-poly": {
        "kind": "polynomial",
        "terms": [
            [[0, 3], "1"],
            [[3, 2], "-3"],
            [[6, 1], "3"],
            [[7, 0], "-1"],
            [[9, 0], "-1"],
        ],
        "label": "y^3 - 3x^3y^2 + 3x^6y - x^7 - x^9",
    },
    "k61417-poly": {
        "kind": "polynomial",
        "terms": [
            [[0, 6], "1"],
            [[5, 4], "-6"],
            [[7, 3], "-2"],
            [[8, 3], "-8"],
            [[10, 2], "9"],
            [[11, 2], "-9"],
            [[12, 1], "6"],
            [[13, 1], "6"],
            [[14, 1], "-6"],
            [[14, 0], "1"],
            [[15, 0], "-1"],
            [[16, 0], "10"],
            [[17, 0], "-1"],
        ],
        "label": "sextic in K(6,14,17) with invariant 16",
    },
}


def fixture_names() -> list:
    return sorted(FIXTURES)


def load_fixture(name: str):
    """(branch, label) parsed from the fixture of that name; an unknown name
    is refused with BranchFileError, which lists the names there are."""
    if name not in FIXTURES:
        raise BranchFileError(
            f"unknown fixture {name!r}; available: {', '.join(fixture_names())}"
        )
    return parse_branch(FIXTURES[name])
