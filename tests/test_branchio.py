"""Branch description files: what parses, and what is refused."""

import pytest

from planebranch.branchio import parse_branch
from planebranch.errors import BranchFileError

FIELDS = ["n", "exponent", "trunc", "monomial"]


def document(field, one=1, zero=0):
    """A valid branch document whose `field` holds the integers 1 and 0,
    written as `one` and `zero`."""
    return {
        "n": {"kind": "parametrization", "n": one, "terms": [[7, "1"]]},
        "exponent": {"kind": "parametrization", "n": 4, "terms": [[one, "1"], [7, "1"]]},
        "trunc": {"kind": "parametrization", "n": 1, "terms": [[zero, "1"]], "trunc": one},
        "monomial": {"kind": "polynomial", "terms": [[[one, zero], "-1"], [[0, 2], "1"]]},
    }[field]


@pytest.mark.parametrize("field", FIELDS)
def test_integers_parse(field):
    parse_branch(document(field))


@pytest.mark.parametrize("field", FIELDS)
def test_a_json_boolean_is_not_an_integer(field):
    with pytest.raises(BranchFileError):
        parse_branch(document(field, True, False))


CUSP = {"kind": "parametrization", "n": 2, "terms": [[3, "1"]]}
CUSP_POLY = {"kind": "polynomial", "terms": [[[0, 2], "1"], [[3, 0], "-1"]]}


@pytest.mark.parametrize(
    "doc",
    [
        {**CUSP_POLY, "trunc": 5},
        {**CUSP, "bogus": 1},
        {**CUSP_POLY, "n": 2},
        {**CUSP, "label": {"a": 1}},
        {**CUSP, "label": 7},
        {**CUSP_POLY, "label": None},
    ],
    ids=[
        "polynomial-trunc", "unknown-key", "polynomial-n",
        "label-object", "label-number", "label-null",
    ],
)
def test_a_key_outside_the_format_is_refused(doc):
    # a polynomial has no truncation: dropping the one it asks for would
    # print an exact answer to an inexact question
    with pytest.raises(BranchFileError):
        parse_branch(doc)


@pytest.mark.parametrize(
    "doc", [{**CUSP, "trunc": 9, "label": "cusp"}, {**CUSP_POLY, "label": "cusp"}]
)
def test_every_allowed_key_parses(doc):
    assert parse_branch(doc)[1] == "cusp"
