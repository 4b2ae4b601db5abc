"""Branch description files: what parses, and what is refused."""

import re

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


def test_a_rational_may_be_a_json_integer():
    phi, _ = parse_branch({**CUSP, "terms": [[3, -2]]})
    assert dict(phi.y.terms) == {3: -2}


# each refusal of the format that no other test reaches, by the message
# fragment that names it; every one exits 2
REFUSED_DOCUMENTS = {
    "rational-float": ({**CUSP, "terms": [[3, 1.5]]}, "rationals must be strings"),
    "rational-bool": ({**CUSP, "terms": [[3, True]]}, "rationals must be strings"),
    "terms-missing": ({"kind": "parametrization", "n": 2}, "'terms' must be a non-empty list"),
    "terms-empty": ({**CUSP_POLY, "terms": []}, "'terms' must be a non-empty list"),
    "term-not-a-pair": ({**CUSP, "terms": [[3, "1", "2"]]}, "bad term [3, '1', '2']"),
    "term-not-a-list": ({**CUSP_POLY, "terms": ["y^2"]}, "bad term 'y^2'"),
    "not-an-object": ([CUSP], "branch description must be a JSON object"),
    "kind-missing": ({"n": 2, "terms": [[3, "1"]]}, "'kind' must be 'parametrization'"),
    "kind-unknown": ({**CUSP, "kind": "series"}, "'kind' must be 'parametrization'"),
    "trunc-at-an-exponent": ({**CUSP, "trunc": 3}, "'trunc' must be an integer above"),
    "trunc-string": ({**CUSP, "trunc": "9"}, "'trunc' must be an integer above"),
    "polynomial-zero": (
        {"kind": "polynomial", "terms": [[[1, 1], "1"], [[1, 1], "-1"]]}, "polynomial is zero"
    ),
}


@pytest.mark.parametrize(
    "doc,fragment", REFUSED_DOCUMENTS.values(), ids=REFUSED_DOCUMENTS.keys()
)
def test_a_malformed_document_exits_2(doc, fragment):
    with pytest.raises(BranchFileError, match=re.escape(fragment)) as info:
        parse_branch(doc)
    assert info.value.exit_code == 2
