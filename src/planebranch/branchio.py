"""Reading and writing branch description files.

A branch file is a JSON object: {"kind": "parametrization", "n": 4,
"terms": [[7, "1"], [13, "17/14"]], "label": "..."} for a branch
(t**n, sum c_e t**e), or {"kind": "polynomial", "terms": [[[i, j], "c"],
...]} for an implicit equation.  Rationals travel as strings, never floats.
An optional "trunc" on a parametrization marks it as known only below that
exponent; an optional "label" is a string.  Any other key is refused.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import BranchFileError
from .geometry import Parametrization
from .series import EXACT, BivarPoly, _is_int

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")

#: the keys each kind of document may hold
_KEYS = {
    "parametrization": {"kind", "n", "terms", "trunc", "label"},
    "polynomial": {"kind", "terms", "label"},
}


def _rational(text) -> Fraction:
    if isinstance(text, str):
        if not _RATIONAL_RE.match(text.strip()):
            raise BranchFileError(
                f"bad rational {text!r}; expected 'p/q' or an integer string"
            )
        return Fraction(text.strip())
    if not _is_int(text):
        raise BranchFileError(
            f"rationals must be strings like '17/14' or integers, got {text!r}"
        )
    return Fraction(text)


def _natural(value) -> bool:
    """A non-negative JSON integer; true and false are not integers here."""
    return _is_int(value) and value >= 0


def _term_items(data: dict, shape: str):
    """The items of data's 'terms', a non-empty list, each checked to be a
    pair before it is yielded; shape names the pair in the refusals."""
    terms = data.get("terms")
    if not isinstance(terms, list) or not terms:
        raise BranchFileError(f"'terms' must be a non-empty list of {shape}")
    for item in terms:
        if not (isinstance(item, list) and len(item) == 2):
            raise BranchFileError(f"bad term {item!r}; expected {shape}")
        yield item


def parse_branch(data: dict):
    """Validate a branch description; returns (Parametrization | BivarPoly, label)."""
    if not isinstance(data, dict):
        raise BranchFileError("branch description must be a JSON object")
    kind = data.get("kind")
    allowed = _KEYS.get(kind) if isinstance(kind, str) else None
    if allowed is None:
        raise BranchFileError(f"'kind' must be 'parametrization' or 'polynomial', got {kind!r}")
    unknown = set(data) - allowed
    if unknown:
        names = ", ".join(sorted(map(repr, unknown)))
        raise BranchFileError(f"unknown key(s) {names} in a {kind} description")
    label = data.get("label")
    if "label" in data and not isinstance(label, str):
        raise BranchFileError(f"'label' must be a string, got {label!r}")
    if kind == "parametrization":
        n = data.get("n")
        if not _natural(n) or n < 1:
            raise BranchFileError(f"'n' must be a positive integer, got {n!r}")
        pairs = []
        last = -1
        for e, c in _term_items(data, "[exponent, rational]"):
            if not _natural(e):
                raise BranchFileError(f"bad exponent {e!r}")
            if e <= last:
                raise BranchFileError("exponents must be strictly increasing")
            last = e
            pairs.append((e, _rational(c)))
        trunc = data.get("trunc", None)
        if trunc is None:
            bound = EXACT
        elif _natural(trunc) and trunc > last:
            bound = trunc
        else:
            raise BranchFileError(f"'trunc' must be an integer above every exponent")
        return Parametrization.from_pairs(n, pairs, bound), label
    pairs = []
    for ij, c in _term_items(data, "[[i, j], rational]"):
        if not (
            isinstance(ij, list)
            and len(ij) == 2
            and all(_natural(k) for k in ij)
        ):
            raise BranchFileError(f"bad monomial exponents {ij!r}")
        pairs.append(((ij[0], ij[1]), _rational(c)))
    poly = BivarPoly.from_pairs(pairs)
    if poly.is_zero:
        raise BranchFileError("polynomial is zero")
    return poly, label


def load_branch(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise BranchFileError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise BranchFileError(f"{path} is not valid JSON: {exc}") from None
    return parse_branch(data)


def serialize_parametrization(phi: Parametrization, label: str | None = None) -> dict:
    data: dict = {
        "kind": "parametrization",
        "n": phi.n,
        "terms": [[e, str(c)] for e, c in sorted(phi.y.terms.items())],
    }
    if not phi.exact:
        data["trunc"] = phi.trunc
    if label:
        data["label"] = label
    return data


def serialize_polynomial(poly: BivarPoly, label: str | None = None) -> dict:
    data: dict = {
        "kind": "polynomial",
        "terms": [
            [[i, j], str(poly.terms[(i, j)])]
            for (i, j) in sorted(poly.terms, key=lambda ij: (-ij[1], ij[0]))
        ],
    }
    if label:
        data["label"] = label
    return data


def serialize_branch(branch, label: str | None = None) -> dict:
    if isinstance(branch, Parametrization):
        return serialize_parametrization(branch, label)
    return serialize_polynomial(branch, label)
