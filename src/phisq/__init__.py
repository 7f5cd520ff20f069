"""phisq: every positive rational r equals phi(m^2)/phi(n^2) for some positive
integers m, n, and this package computes such a pair exactly.

The library works in factored form throughout (maps prime -> exponent), so
results stay exact and compact even when the expanded integers would be
astronomically large.  Brute-force oracles are included for cross-checking.
"""

from .errors import (
    ExponentOverflowError,
    FactorizationFailure,
    ParseError,
    PhisqError,
    UnsupportedScaleError,
    ZeroValueError,
)
from .factored import (
    EXPONENT_LIMIT,
    FactoredInteger,
    FactoredRational,
    factor,
    parse_integer,
    parse_rational,
)
from .oracle import (
    SearchResult,
    brute_force_minimal,
    injectivity_scan,
    phi_square_sequence,
    random_rational,
    sieve_totients,
)
from .primes import PRIMALITY_BOUND, is_prime, prime_pi, primes_up_to
from .represent import (
    Representation,
    VerificationReport,
    represent,
    verify,
)
from .totient import phi_square_value, totient, totient_of_square

__version__ = "0.1.0"

__all__ = [
    "EXPONENT_LIMIT",
    "ExponentOverflowError",
    "FactoredInteger",
    "FactoredRational",
    "FactorizationFailure",
    "PRIMALITY_BOUND",
    "ParseError",
    "PhisqError",
    "Representation",
    "SearchResult",
    "UnsupportedScaleError",
    "VerificationReport",
    "ZeroValueError",
    "brute_force_minimal",
    "factor",
    "injectivity_scan",
    "is_prime",
    "parse_integer",
    "parse_rational",
    "phi_square_sequence",
    "phi_square_value",
    "prime_pi",
    "primes_up_to",
    "random_rational",
    "represent",
    "sieve_totients",
    "totient",
    "totient_of_square",
    "verify",
]
