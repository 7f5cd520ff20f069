"""Property-based checks of the construction (skipped without hypothesis)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from phisq.factored import FactoredInteger, FactoredRational  # noqa: E402
from phisq.primes import primes_up_to  # noqa: E402
from phisq.represent import represent  # noqa: E402

PRIMES = primes_up_to(400)
EXPONENTS = st.integers(min_value=-9, max_value=9).filter(bool)
RATIONALS = st.dictionaries(st.sampled_from(PRIMES), EXPONENTS, max_size=12).map(
    FactoredRational.from_factors
)


@settings(max_examples=300, deadline=None)
@given(RATIONALS)
def test_inversion_swaps_the_pair(r):
    # Every rule commutes with inversion, which is what lets an odd negative
    # exponent be placed on n directly instead of solving 1/r and swapping.
    rep = represent(r)
    inv = represent(r.inverse())
    assert (inv.m, inv.n, inv.depth) == (rep.n, rep.m, rep.depth)


@settings(max_examples=300, deadline=None)
@given(RATIONALS)
def test_the_pair_is_canonical_as_built(r):
    # represent wraps m and n unchecked; the validator must accept them as they are.
    rep = represent(r)
    assert (FactoredInteger(rep.m.entries), FactoredInteger(rep.n.entries)) == (rep.m, rep.n)
