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
