"""The one way tests empty phisq's per-process stores (README, "Per-process stores")."""

from contextlib import contextmanager

import pytest

from phisq import factored, oracle, primes


# Taken at import, so a test that patches a module's name still has the real store emptied.
_CACHES = (primes.is_prime, primes._odd_sieve, primes._block_product)
_DICTS = (primes._p_minus_1, factored._BASES, factored._EXPONENTS)


def _empty():
    for store in _CACHES:
        store.cache_clear()
    for store in _DICTS:
        store.clear()


@contextmanager
def empty_stores(kept=None):
    """Every store emptied, with kept (a new table if None) as the oracle's kept table, which is
    yielded; on exit the stores are emptied again, so nothing planted or filled under a patched
    bound outlives the block, and the kept table found on entry is put back.  Safe inside a
    hypothesis body, and nested."""
    found, oracle._kept = oracle._kept, oracle._Table() if kept is None else kept
    _empty()
    try:
        yield oracle._kept
    finally:
        _empty()
        oracle._kept = found


@pytest.fixture
def emptied_stores():
    """The test runs inside empty_stores(), and gets its kept table."""
    with empty_stores() as kept:
        yield kept
