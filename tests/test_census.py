"""A fixed-seed slice of the census in `census.py`: the genus-one classes
with n <= 5 and the genus-2 and genus-3 classes with n <= 10, with two
projected members of B per finite genus-one branch and per genus-2/3 branch
whose reduced class has a slot.  The whole census runs as its own CI step."""

from census import census


def test_a_census_slice_finds_no_violation():
    counts = census(5, projected=2)
    assert counts.violations == []
    assert (counts.branches, counts.projected, counts.pair_branches) == (23, 32, 14)
    assert counts.pair_projected == 20
    # the bound is attained by more than the witnesses
    assert counts.at_maximum > 0 and counts.pair_at_maximum > 0
