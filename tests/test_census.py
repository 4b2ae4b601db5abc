"""A fixed-seed slice of the census in `census.py`: the genus-one classes
with n <= 5, two projected members of B per finite branch, and the genus-2
and genus-3 classes with n <= 10.  The whole census runs as its own CI step."""

from census import census


def test_a_census_slice_finds_no_violation():
    counts = census(5, projected=2)
    assert counts.violations == []
    assert (counts.branches, counts.projected, counts.pair_branches) == (23, 32, 14)
    # the bound is attained by more than the witnesses
    assert counts.at_maximum > 0
