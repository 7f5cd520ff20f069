"""Golden construction corpus: represent() output pinned byte for byte.

Each line of golden/represent.jsonl holds one input ratio (as accepted by
parse_rational) with the m, n and depth that represent() gave for it when the
corpus was recorded. A change to the construction must leave every line
identical. To re-record after an intended change of output, run

    PYTHONPATH=src python tests/test_golden_represent.py

and review the diff of tests/golden/represent.jsonl.
"""

import json
from pathlib import Path
from random import Random

from phisq.factored import parse_rational
from phisq.oracle import random_rational
from phisq.primes import primes_up_to
from phisq.represent import represent

GOLDEN = Path(__file__).with_name("golden") / "represent.jsonl"

CLASSIC = ["1", "19/47", "47/19", "47/58", "58/47"]
LARGE_EXPONENTS = ["2^1000001 * 3^-999999", "2^9223372036854775807"]
RANDOM_SEED = 20261017
RANDOM_CASES = 1000
WIDE_SEED = 2000
WIDE_LIMIT = 2000


def corpus_inputs() -> list[str]:
    rng = Random(RANDOM_SEED)
    randoms = [str(random_rational(rng)) for _ in range(RANDOM_CASES)]
    wide_rng = Random(WIDE_SEED)
    exponents = (-4, -3, -2, -1, 1, 2, 3, 4)
    wide = " * ".join(f"{p}^{wide_rng.choice(exponents)}" for p in primes_up_to(WIDE_LIMIT))
    return CLASSIC + randoms + LARGE_EXPONENTS + [wide]


def corpus_lines() -> list[str]:
    lines = []
    for text in corpus_inputs():
        rep = represent(parse_rational(text))
        record = {"input": text, "m": str(rep.m), "n": str(rep.n), "depth": rep.depth}
        lines.append(json.dumps(record))
    return lines


def test_golden_construction_corpus_is_unchanged():
    expected = GOLDEN.read_text().splitlines()
    got = corpus_lines()
    assert len(got) == len(expected)
    for want, have in zip(expected, got):
        assert have == want


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(corpus_lines()) + "\n")
