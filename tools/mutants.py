"""Apply each recorded mutation of phisq in a scratch copy and run the tests that should kill it.

    python tools/mutants.py              # every mutation
    python tools/mutants.py NAME ...     # only these, to check a mutation one by one

A mutation names a file, an exact snippet of it, the snippet's replacement and
the test ids expected to fail once it is made.  For each, src/, tests/ and
pyproject.toml are copied once to a temporary directory; for each mutation the
snippet is replaced there, only the named tests run (`pytest -x -q -p
no:cacheprovider`, with a fixed hypothesis seed), and the file is restored.
The repository itself is never written.

Each mutation is reported as
    killed    a named test failed;
    survived  every named test passed: the tests miss this fault;
    stale     the snippet does not occur exactly once, so the code it was
              written for has changed: re-target it or retire it;
    timeout   the named tests ran past the time allowed;
    error     pytest could not run them, e.g. the mutated file does not compile.
A known equivalent mutant changes no result the program can give, so it is
expected to survive; it is listed with the reason, and a kill is reported.
Before any mutation, the named tests run once on the unmutated copy and must
pass, so a kill is never a test that fails anyway.

The exit status is 0 when every mutation is killed, every equivalent mutant
survives and nothing is stale, else 1.  Needs only pytest and hypothesis.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600
PYTEST = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]

# reason is set only on a known equivalent mutant: why it cannot change a result.
Mutation = namedtuple("Mutation", "name path snippet replacement tests reason", defaults=(None,))

ORACLE = "src/phisq/oracle.py"
ERRORS = "src/phisq/errors.py"
CLI = "src/phisq/cli.py"
FACTORED = "src/phisq/factored.py"
PRIMES = "src/phisq/primes.py"
REPRESENT = "src/phisq/represent.py"
TOTIENT = "src/phisq/totient.py"

T_ORACLE = "tests/test_oracle.py::"
T_CLI = "tests/test_cli.py::"
T_PRIMES = "tests/test_primes.py::"
T_FACTORED = "tests/test_factored.py::"
T_REPRESENT = "tests/test_represent.py::"
T_TOTIENT = "tests/test_totient.py::"
T_PRIMES_PROPERTIES = "tests/test_primes_properties.py::"
QUOTES = T_CLI + "test_a_refusal_quotes_long_outside_text_by_a_prefix_and_its_length"
NUMBERS = T_CLI + "test_a_refusal_names_a_huge_number_by_its_digit_count"
RANGES = T_ORACLE + "test_oracles_own_their_range_checks"
LINES = T_CLI + "test_a_command_line_ends_in_its_exit_code_and_message"
DOUBLE_DASH = "            if not slots and not last:\n"
REFUSAL = "    print(_output(args, code, {\"error\": message}, [f\"error: {message}\"]), file=sys.stderr)\n"

SEARCH_STAGE = (
    "            j, c = table.grow_index(top) or (0, top + 1)\n"
    "            limit = c - 1  # the index is exact below its collision\n"
)
SEARCH_HITS = (
    "            hits = [(k, i) for k in _candidates(v, x, ell, limit)\n"
    "                    if (i := index.get(v[k] // x * y, limit + 1)) <= limit]\n"
)
BLOCK_PRODUCTS = T_PRIMES + "test_every_block_product_is_the_product_of_its_primes"
ODD_SIEVE_ROW = "            sieve[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(sieve), p)))\n"
SIEVE_TO_3000 = T_PRIMES + "test_the_sieve_matches_trial_division_to_3000"
RHO_REFERENCE = T_PRIMES + "test_rho_split_matches_the_one_reduction_loop"
# r = 1's one step alone, in the advance and in the product phase, each before its paired steps.
RHO_STEP = "            if r == 1:\n                y = (y * y + c) % n\n"
RHO_PAIRS = "            for _ in range(r // 2):\n"
RHO_PRODUCT_STEP = "                if r == 1:\n                    y = (y * y + c) % n\n                    q = q * (x - y) % n\n"
RHO_PRODUCT_PAIRS = "                for _ in range(min(m, r - k) // 2):\n"
COLLIDING = [T_ORACLE + "test_search_refuses_a_colliding_index", T_ORACLE + "test_a_collision_counts_only_within_the_callers_limit"]
PAST_THE_KEPT_BOUND = [T_ORACLE + "test_a_request_past_the_kept_bound_leaves_the_kept_lists"]
PAST_BOUND_BLOCKS = "[_lines(v[k : k + _KEEP_LIMIT])[1:] for k in range(1, limit + 1, _KEEP_LIMIT)]"
KEEP_RULE = "    if limit > _KEEP_LIMIT:\n"
NEW_TABLE = "        table = _Table()\n"
CANDIDATES = [T_ORACLE + "test_candidates_are_exactly_the_ks_x_divides"]
SIEVE = [T_ORACLE + "test_sieve_equals_the_classic_sieve"]
PRIME_AND_SIZE_RULES = "    if bound <= _SIEVE_CAP and (wide or r.entries and r.entries[-1][0] > bound):\n"
PSI_9_TO_11 = "    3825123056546413051,\n" * 3
BASE_SCREEN = (
    "    if gcd(n, _MR_PRODUCT) > 1:\n"
    "        return False  # before the bound: a huge n with a small factor is refused as composite\n"
)
BOUND_CHECK = (
    "    if n >= PRIMALITY_BOUND:\n"
    "        raise UnsupportedScaleError(\n"
    "            f\"cannot certify primality of {shown(n, 'number')}: >= deterministic bound {PRIMALITY_BOUND}\"\n"
    "        )\n"
)

MUTATIONS = [
    # One table per process: the kept one up to _KEEP_LIMIT, past it a new one that starts empty.
    Mutation(
        "keep-rule-below-the-bound", ORACLE, KEEP_RULE, KEEP_RULE.replace(">", ">="),
        [T_ORACLE + "test_table_is_sieved_only_when_it_grows"],
    ),
    Mutation(
        "keep-rule-past-the-bound", ORACLE, KEEP_RULE, KEEP_RULE.replace("_KEEP_LIMIT", "_KEEP_LIMIT + 1"),
        [T_ORACLE + "test_table_is_sieved_only_when_it_grows"],
    ),
    Mutation("past-the-bound-uses-the-kept-table", ORACLE, NEW_TABLE, "        table = _kept\n", PAST_THE_KEPT_BOUND),
    Mutation(
        "one-request-table-keeps-phi", ORACLE, "        table.phi = None\n", "",
        [T_ORACLE + "test_a_table_past_the_kept_bound_drops_phi_before_it_is_indexed"],
    ),
    Mutation("one-request-table-starts-from-the-kept-phi", ORACLE, NEW_TABLE,
             NEW_TABLE + "        table.phi = _kept.phi\n", PAST_THE_KEPT_BOUND),
    Mutation("one-request-table-starts-from-the-kept-values", ORACLE, NEW_TABLE,
             NEW_TABLE + "        table.v = _kept.v\n", PAST_THE_KEPT_BOUND),
    Mutation("one-request-table-starts-from-the-kept-index", ORACLE, NEW_TABLE,
             NEW_TABLE + "        table.index = _kept.index\n", PAST_THE_KEPT_BOUND),
    Mutation(
        "one-request-table-starts-from-copies-of-the-kept-lists", ORACLE, NEW_TABLE,
        NEW_TABLE + "        table.phi, table.v = _kept.phi[:], _kept.v[:]\n", PAST_THE_KEPT_BOUND,
    ),
    # Past the kept bound the text is one join of blocks of _KEEP_LIMIT lines, each formatted alone.
    Mutation(
        "past-bound-text-in-one-list", ORACLE, PAST_BOUND_BLOCKS, "[str(x) for x in v[1 : limit + 1]]",
        [T_CLI + "test_a_line_at_the_grammars_edge_ends_in_its_exit_code_in_1_gb[sequence-at-the-cap]"],
    ),
    Mutation(
        "past-bound-block-edge-shifted", ORACLE, PAST_BOUND_BLOCKS,
        PAST_BOUND_BLOCKS.replace("k + _KEEP_LIMIT]", "k + _KEEP_LIMIT - 1]"),
        [T_ORACLE + "test_text_past_the_kept_bound_is_a_render_of_the_sieve_across_block_edges"],
    ),
    # Each reader holds the one lock from _table_for until it has read the kept table, and
    # a request past the kept bound holds none.
    Mutation(
        "kept-table-unlocked", ORACLE, "_lock = Lock()", "_lock = __import__(\"contextlib\").nullcontext()",
        [T_ORACLE + "test_two_threads_grow_the_kept_table_one_after_the_other"],
    ),
    Mutation(
        "past-the-bound-holds-the-lock", ORACLE, "    return _lock if limit <= _KEEP_LIMIT else nullcontext()\n",
        "    return _lock\n", [T_ORACLE + "test_a_request_past_the_kept_bound_leaves_the_lock_to_the_kept_table"],
    ),
    # The sieve runs odd j in Python and fills each even j = 2^t * o as phi(o) << (t - 1), cutting
    # phi back if anything raises; the kept text is cut at marks and read by formatting its tail.
    Mutation("sieve-even-shift-off-by-one", ORACLE, "repeat(t - 1)", "repeat(t)", SIEVE),
    Mutation("sieve-odd-start-at-lo", ORACLE, "    odd = lo | 1  #", "    odd = lo  #", SIEVE),
    Mutation(
        "sieve-cut-back-removed", ORACLE, "        del phi[lo:]\n", "",
        [T_ORACLE + "test_an_interrupted_extension_leaves_phi_as_it_was"],
    ),
    Mutation(
        "text-tail-one-line-short", ORACLE, "table.v[c * _MARK + 1 : limit + 1]", "table.v[c * _MARK + 1 : limit]",
        [T_ORACLE + "test_the_kept_text_reads_at_and_around_each_mark"],
    ),
    Mutation(
        "text-mark-skipped", ORACLE, "initial=marks[-1]))[1:]", "initial=marks[-1]))[2:]",
        [T_ORACLE + "test_the_kept_text_reads_at_and_around_each_mark"],
    ),
    Mutation(
        "text-regrown-past-its-last-mark", ORACLE, "[self.text[: marks[-1]], *parts", "[self.text, *parts",
        [T_ORACLE + "test_the_kept_text_reads_at_and_around_each_mark"],
    ),
    # The value index, grown in C and by hand past a collision; the scan and the search share it.
    Mutation(
        "search-collision-check-removed", ORACLE, "        if len(index) < limit:  #", "        if False:  #", COLLIDING,
    ),
    Mutation(
        "search-index-by-plain-assignment", ORACLE,
        "                    if (j := index.setdefault(v[k], k)) != k:\n",
        "                    index[v[k]] = k\n                    if (j := index[v[k]]) != k:\n",
        [*COLLIDING, T_ORACLE + "test_injectivity_scan_reports_first_collision"],
    ),
    Mutation(
        "scan-collision-past-its-limit", ORACLE, "collision[1] <= limit", "collision[1] < limit",
        [T_ORACLE + "test_a_collision_counts_only_within_the_callers_limit"],
    ),
    # The search walks one side's candidates in stages, against the index.
    Mutation(
        "search-indexes-after-its-lookups", ORACLE, SEARCH_STAGE + SEARCH_HITS,
        SEARCH_STAGE.replace("table.grow_index(top) or ", "") + SEARCH_HITS + "            table.grow_index(top)\n",
        [T_ORACLE + "test_brute_force_fixtures"],
    ),
    Mutation(
        "search-indexes-the-whole-bound-first", ORACLE, "table.grow_index(top) or", "table.grow_index(bound) or",
        [T_CLI + "test_search_hit_at_the_sieve_cap_fits_in_1_gb"],
    ),
    Mutation(
        "search-partner-below-limit", ORACLE, "limit + 1)) <= limit]\n", "limit + 1)) < limit]\n",
        [T_ORACLE + "test_brute_force_fixtures"],
    ),
    Mutation("search-stops-a-stage-early", ORACLE, "        while top < bound:\n", "        while 2 * top < bound:\n",
             [T_ORACLE + "test_brute_force_fixtures"]),
    Mutation(
        "search-collision-raise-past-the-stage", ORACLE, "            if c <= top:\n", "            if c < top:\n",
        [T_ORACLE + "test_a_kept_index_meets_a_collision_the_table_grew_into"],
    ),
    Mutation(
        "candidates-start-at-ell-plus-1", ORACLE, "range(2 * ell + 1, limit + 1, 2 * ell)", "range(ell + 1, limit + 1, 2 * ell)",
        CANDIDATES,
    ),
    Mutation("candidates-prime-test-negated", ORACLE, "if v[s] == s * (s - 1):", "if v[s] != s * (s - 1):", CANDIDATES),
    Mutation("candidates-walk-2-sparsely", ORACLE, "    if ell <= 5:\n", "    if ell <= 1:\n", CANDIDATES),
    Mutation(
        "sequence-takes-limit-zero", ORACLE, "    if limit < 1:\n        raise", "    if limit < 0:\n        raise",
        [T_ORACLE + "test_oracles_own_their_range_checks", T_ORACLE + "test_text_refuses_a_limit_below_one_even_on_a_warm_table"],
    ),
    # The construction's pair is the least: a larger valid pair is caught by the oracle.
    Mutation(
        "represent-even-exponent-not-least", REPRESENT, "c = 1 if half >= 0 else 1 - half", "c = 2 if half >= 0 else 2 - half",
        [T_ORACLE + "test_the_search_finds_the_constructions_pair_first"],
    ),
    # verify range-checks a ratio that is not r, and answers with r only when no other prime is
    # left nonzero; _checked drops zeros. The construction pushes each prime once.
    Mutation(
        "verify-ratio-unchecked", REPRESENT, "        lhs = _checked(FactoredRational, acc)\n",
        "        lhs = _canonical(FactoredRational, tuple((p, e) for p, e in sorted(acc.items()) if e))\n",
        [T_REPRESENT + "test_verify_range_checks_the_ratio_not_each_side"],
    ),
    Mutation(
        "verify-leftover-nonzero-ignored", REPRESENT, " and len(acc) - countOf(acc.values(), 0) == len(r.entries)", "",
        [T_REPRESENT + "test_verify_refuses_a_claim_that_leaves_out_a_prime_of_the_ratio"],
    ),
    Mutation(
        "checked-keeps-zeros", FACTORED, "sorted(filter(itemgetter(1), acc.items()))", "sorted(acc.items())",
        [T_FACTORED + "test_parse_accepts_non_lowest_terms"],
    ),
    # One accumulator for phi(m^2)/phi(n^2): a prime on both sides looks up no p - 1.
    Mutation(
        "phi-ratio-looks-up-shared-primes", TOTIENT, "        b = pop(p, 0)\n", "        b = 0\n",
        [T_REPRESENT + "test_verify_skips_p_minus_1_on_both_sides_and_expands_on_read"],
    ),
    Mutation("totient-subtracts-a-minus-1", TOTIENT, "        acc[p] -= a\n", "        acc[p] -= a - 1\n",
             [T_TOTIENT + "test_totient_fixtures"]),
    Mutation(
        "construct-pushes-every-time", REPRESENT, "            if s is None:\n                heappush(new, -p)",
        "            heappush(new, -p)\n            if s is None:\n                pass",
        [T_REPRESENT + "test_represent_19_47_canonical_output"],
    ),
    Mutation("construct-newcomer-appended", REPRESENT, "heappush(new, -p)", "primes.append(p)",
             [T_REPRESENT + "test_represent_matches_the_heap_loop_on_fixed_inputs"]),
    Mutation(
        "construct-odd-negative-sign-flipped", REPRESENT, "            sign = 1  #", "            sign = -1  #",
        [T_REPRESENT + "test_represent_19_47_canonical_output"],
    ),
    # Each p - 1 is factored once, in a memo that empties itself at is_prime's bound.
    Mutation(
        "p-minus-1-memo-never-cleared", PRIMES, "            self.clear()  #", "            pass  #",
        [T_PRIMES_PROPERTIES + "test_factor_p_minus_1_cache_is_bounded_like_is_prime"],
    ),
    # A valid entry takes one range test; a zero exponent is still named.
    Mutation(
        "validator-zero-exponent-accepted", FACTORED, "if not least <= e <= EXPONENT_LIMIT or e == 0:",
        "if not least <= e <= EXPONENT_LIMIT:", [T_FACTORED + "test_rational_rejects_zero_exponent"],
    ),
    # A fraction parses into one exponent map; factorize sorts only after rho splits.
    Mutation(
        "fraction-adds-the-denominator", FACTORED, "            acc[p] = acc.get(p, 0) - e\n",
        "            acc[p] = acc.get(p, 0) + e\n", [T_FACTORED + "test_parse_fraction_fixtures"],
    ),
    Mutation(
        "factorize-unsorted-after-a-split", PRIMES, "    return dict(sorted(out.items())) if split else out\n",
        "    return out\n", [T_PRIMES + "test_factorize_returns_primes_ascending_on_every_path"],
    ),
    # is_prime's screen by the bases, and the block products, each one C call.
    Mutation(
        "base-screen-after-the-bound", PRIMES, BASE_SCREEN + BOUND_CHECK, BOUND_CHECK + BASE_SCREEN,
        [T_CLI + "test_literal_refusals_name_a_huge_base_by_its_digit_count"],
    ),
    Mutation(
        "base-screen-drops-2", PRIMES, "return n in _MR_BASES  #", "return n in _MR_BASES[1:]  #",
        [T_PRIMES + "test_known_fixtures"],
    ),
    Mutation(
        "block-product-6k-plus-5-only", PRIMES, "range(f, stop, 2), _odd_sieve()[f // 2 : stop // 2]",
        "range(f, stop, 6), _odd_sieve()[f // 2 : stop // 2 : 3]",
        [T_PRIMES + "test_staged_matches_reference_on_products_within_one_block", BLOCK_PRODUCTS],
    ),
    Mutation("odd-sieve-start-not-halved", PRIMES, ODD_SIEVE_ROW, ODD_SIEVE_ROW.replace("p * p // 2", "p * p"),
             [BLOCK_PRODUCTS]),
    # The one sieve behind primes_up_to, prime_pi, the first stage's primes and the blocks.
    Mutation("sieve-stops-one-odd-short", PRIMES, "range(3, isqrt(stop - 1) + 1, 2)", "range(3, isqrt(stop - 1) - 1, 2)",
             [T_PRIMES + "test_the_sieve_stops_at_the_right_square"]),
    Mutation("prime-pi-drops-the-flag-of-2", PRIMES, "_sieve(x + 1).count(1)", "_sieve(x + 1)[1:].count(1)",
             [SIEVE_TO_3000]),
    Mutation("primes-up-to-drops-the-limit", PRIMES, "range(3, limit + 1, 2)", "range(3, limit, 2)", [SIEVE_TO_3000]),
    # Refusals quote outside text through errors.cut.
    Mutation(
        "cut-measures-before-escaping", ERRORS, "    if len(dumps(form(text))) - 2 <= limit:\n",
        "    if len(text) <= limit:\n", [QUOTES + "[escaped-short]"],
    ),
    Mutation(
        "cut-prefix-measured-before-escaping", ERRORS, "    while len(dumps(form(text[:k]))) - 2 > limit // 2:\n",
        "    while k > limit // 2:\n", [QUOTES + "[escaped-prefix]"],
    ),
    Mutation("argparse-message-uncut", CLI, "return ParseError(cut(message, limit=200))", "return ParseError(message)",
             [QUOTES + "[bound]", QUOTES + "[command]"]),
    # The CLI's reader: argparse's grammar and messages for this program.
    Mutation("reader-keeps-the-first-of-a-repeated-option", CLI, "        setattr(args, name.lstrip(\"-\"), value)\n",
             "        vars(args).setdefault(name.lstrip(\"-\"), value)\n",
             [LINES + "[repeated-option-keeps-the-last]"]),
    Mutation("reader-accepts-a-dash-token", CLI,
             "    return \" \" in token and token.partition(\"=\")[0] not in options\n", "    return True\n",
             [LINES + "[unknown-option]"]),
    Mutation("reader-skips-decimal", CLI, "                value = _decimal(value)\n", "                pass\n",
             [LINES + "[plain-leading-zeros]"]),
    Mutation("reader-drops-the-operand-count", CLI, "[a for a in arguments if not hasattr(",
             "[a for a in arguments if a[0] == \"-\" and not hasattr(", [LINES + "[missing-operand]"]),
    # The first "--" after the command is dropped next to an operand that fills a slot.
    Mutation("reader-drops-a-double-dash-past-the-operands", CLI, DOUBLE_DASH,
             DOUBLE_DASH.replace("not slots and not last", "False"), [LINES + "[double-dash-past-the-operands]"]),
    Mutation("reader-keeps-a-double-dash-beside-the-last-operand", CLI, DOUBLE_DASH,
             DOUBLE_DASH.replace(" and not last", ""), [LINES + "[double-dash-after-the-operands]"]),
    Mutation("reader-takes-a-negative-numeral-for-an-option", CLI, " or token == \"-\" or re.match(",
             " or token == \"-\" and re.match(", [LINES + "[dash-operand]"]),
    # A refused line's record names the command the reader accepted, never a guess from argv.
    Mutation(
        "refusal-guesses-the-command", CLI, REFUSAL,
        "    first = next((a for a in argv if not a.startswith(\"-\")), None)\n"
        "    args.command = first if first in COMMANDS else None\n" + REFUSAL,
        [LINES + "[json-double-dash-as-the-command]", LINES + "[json-negative-numeral-as-the-command]",
         LINES + "[json-dash-as-the-command]"],
    ),
    Mutation("closed-pipe-is-a-fault", CLI, "    except BrokenPipeError:\n", "    except ZeroDivisionError:\n",
             [T_CLI + "test_a_closed_output_pipe_is_not_a_fault"]),
    Mutation("factor-refusal-uncut", CLI, "got {cut(args.n, repr)}", "got {args.n!r}", [QUOTES + "[factor]"]),
    Mutation("echo-uncut", CLI, "        echo = cut(echo)\n", "        pass\n", [T_CLI + "test_factor_names_a_huge_cofactor_by_its_digit_count"]),
    Mutation("numeral-quote-uncut", FACTORED, "got {cut(text, repr)}", "got {text!r}", [QUOTES + "[numeral]"]),
    Mutation("term-quote-uncut", FACTORED, "term {cut(term.strip(), repr)}", "term {term.strip()!r}", [QUOTES + "[term]"]),
    Mutation("base-quote-uncut", FACTORED, "base {cut(base, repr)}", "base {base!r}", [QUOTES + "[base]"]),
    Mutation("exponent-quote-uncut", FACTORED, "exponent {cut(exp, repr)}", "exponent {exp!r}", [QUOTES + "[exponent]"]),
    # Refusals name a number past 49 digits by its length and sign.
    Mutation("shown-counts-digits-with-sign", ERRORS, "    while abs(n) >= 10**d:\n", "    while n >= 10**d:\n",
             [RANGES + "[search-50-digits]"]),
    Mutation("shown-drops-the-sign", ERRORS, "{'negative ' * (n < 0)}", "", [NUMBERS + "[limit]"]),
    Mutation("limit-refusal-unshown", ORACLE, "must be >= 1, got {shown(limit, 'number')}", "must be >= 1, got {limit}",
             [NUMBERS + "[limit]"]),
    Mutation("scan-limit-refusal-unshown", ORACLE, "must be >= 2, got {shown(limit, 'number')}", "must be >= 2, got {limit}",
             [RANGES + "[injectivity-5000-digits]"]),
    Mutation("bound-refusal-unshown", ORACLE, "got {shown(bound, 'number')}", "got {bound}", [NUMBERS + "[bound]"]),
    Mutation("exponent-refusal-unshown", FACTORED, "exponent {shown(e, 'number')}", "exponent {e}", [NUMBERS + "[exponent]"]),
    # Miller-Rabin bases chosen by n's size.
    Mutation(
        "mr-bases-one-short", PRIMES, "_MR_BASES[: bisect_right(_MR_PSI, n) + 1]", "_MR_BASES[: bisect_right(_MR_PSI, n)]",
        [T_PRIMES + "test_each_psi_is_refused_and_its_neighbours_match_all_bases"],
    ),
    Mutation(
        "mr-bases-bisect-left", PRIMES, "bisect_right(_MR_PSI, n) + 1]", "__import__('bisect').bisect_left(_MR_PSI, n) + 1]",
        [T_PRIMES + "test_each_psi_is_refused_and_its_neighbours_match_all_bases"],
    ),
    Mutation("psi-1-is-4033", PRIMES, "    2047,\n", "    4033,\n", [T_PRIMES + "test_psi_table_is_consistent"]),
    Mutation("psi-2-plus-2", PRIMES, "    1373653,\n", "    1373655,\n", [T_PRIMES + "test_psi_table_is_consistent"]),
    Mutation(
        "psi-7-plus-2", PRIMES, "    3474749660383,\n    341550071728321,\n", "    3474749660383,\n    341550071728323,\n",
        [T_PRIMES + "test_psi_table_is_consistent"],
    ),
    Mutation(
        "psi-9-plus-2", PRIMES, PSI_9_TO_11, "    3825123056546413053,\n" + "    3825123056546413051,\n" * 2,
        [T_PRIMES + "test_psi_table_is_consistent"],
    ),
    Mutation(
        "psi-10-plus-2", PRIMES, PSI_9_TO_11,
        "    3825123056546413051,\n    3825123056546413053,\n    3825123056546413051,\n",
        [T_PRIMES + "test_psi_table_is_consistent"],
    ),
    Mutation(
        "psi-11-plus-2", PRIMES, PSI_9_TO_11, "    3825123056546413051,\n" * 2 + "    3825123056546413053,\n",
        [T_PRIMES + "test_psi_table_is_consistent"],
    ),
    Mutation(
        "psi-12-is-the-bound", PRIMES, "    318665857834031151167461,\n", "    3_317_044_064_679_887_385_961_981,\n",
        [T_PRIMES + "test_each_psi_is_refused_and_its_neighbours_match_all_bases"],
    ),
    # Brent's rho reduces y once per two advance steps and q once per two differences; each gcd
    # sees the residue of the one-reduction loop.
    Mutation(
        "rho-product-off-by-one", PRIMES, "q = q * a * (x - y) % n", "q = q * a * (x - y + 1) % n",
        [T_PRIMES + "test_rho_split_returns_the_recorded_factor", RHO_REFERENCE],
    ),
    Mutation("rho-pair-drops-a-factor", PRIMES, "q = q * a * (x - y) % n", "q = q * (x - y) % n", [RHO_REFERENCE]),
    Mutation("rho-advance-drops-the-single-step", PRIMES, RHO_STEP + RHO_PAIRS, RHO_PAIRS, [RHO_REFERENCE]),
    Mutation(
        "rho-product-drops-the-single-step", PRIMES, RHO_PRODUCT_STEP + RHO_PRODUCT_PAIRS, RHO_PRODUCT_PAIRS,
        [RHO_REFERENCE],
    ),
    # Trial division's one exit, and the literal reader.
    Mutation(
        "prime-break-keeps-f", PRIMES, "                f = n  # n < f * f: certified below, not tested again\n", "",
        [T_PRIMES + "test_the_prime_that_ends_trial_division_is_tested_once"],
    ),
    Mutation(
        "no-square-shortcut", PRIMES, "        if c < f * f or is_prime(c):", "        if is_prime(c):",
        [T_PRIMES + "test_rho_pieces_below_the_square_of_the_trial_end_are_not_tested"],
    ),
    Mutation(
        "cube-shortcut", PRIMES, "        if c < f * f or is_prime(c):", "        if c < f * f * f or is_prime(c):",
        [T_PRIMES + "test_rho_pieces_below_the_square_of_the_trial_end_are_not_tested"],
    ),
    Mutation(
        "exponent-signs-stripped", FACTORED, '(exp[1:] if exp[:1] in ("+", "-") else exp).isdecimal()',
        'exp.lstrip("+-").isdecimal()', [T_FACTORED + "test_parse_rejects_malformed_input"],
    ),
    Mutation(
        "literal-strips-spaces-only", FACTORED, "list(map(str.strip, raw))", "list(map(lambda s: s.strip(\" \"), raw))",
        [T_FACTORED + "test_the_passes_read_every_literal_they_accept"],
    ),
    Mutation(
        "base-isdigit", FACTORED, "if not base.isdecimal():", "if not base.isdigit():",
        [T_FACTORED + "test_parse_rejects_malformed_input"],
    ),
    Mutation(
        "exponent-isdigit", FACTORED, "else exp).isdecimal():", "else exp).isdigit():",
        [T_FACTORED + "test_parse_rejects_malformed_input"],
    ),
    Mutation(
        "numeral-isdigit", FACTORED, "    if not s.isdecimal():\n        raise ParseError(f\"{what}",
        "    if not s.isdigit():\n        raise ParseError(f\"{what}", [T_FACTORED + "test_parse_rejects_malformed_input"],
    ),
    # The literal's whole-text passes; the term-by-term walk only names a refusal.
    Mutation("literal-underscore-unchecked", FACTORED, ' and "_" not in text:', ":",
             [T_FACTORED + "test_parse_rejects_malformed_input"]),
    Mutation("literal-caret-count-unchecked", FACTORED, 'text.count("^") == len(terms) and ', "",
             [T_FACTORED + "test_a_literal_refusal_names_its_first_wrong_part"]),
    Mutation("literal-always-walked", FACTORED, 'if text.count("^")', 'if False and text.count("^")',
             [T_FACTORED + "test_the_passes_read_every_literal_they_accept"]),
    # The numeral dicts: one per role, filled only after the validator and from short numerals, bounded, and read.
    Mutation("numeral-dicts-one-for-both-roles", FACTORED, "_EXPONENTS: dict[str, int] = {}\n", "_EXPONENTS = _BASES\n",
             [T_FACTORED + "test_a_numeral_is_read_from_the_dicts_only_in_its_role"]),
    Mutation(
        "numeral-dicts-filled-before-validation", FACTORED,
        "            value = cls.from_factors(factors)\n            if numbers is not None:\n                _remember(raw, numbers)\n",
        "            if numbers is not None:\n                _remember(raw, numbers)\n            value = cls.from_factors(factors)\n",
        [T_FACTORED + "test_a_literal_the_validator_refuses_stores_nothing"],
    ),
    Mutation("numeral-dicts-never-cleared", FACTORED, "            _BASES.clear()\n            _EXPONENTS.clear()\n", "            pass\n",
             [T_FACTORED + "test_the_numeral_dicts_stay_within_the_cache_bound"]),
    Mutation("numeral-dicts-keep-a-literal-past-4096-terms", FACTORED, "len(raw) <= 2 * _TERM_LIMIT and ", "",
             [T_FACTORED + "test_a_literal_of_more_than_4096_terms_is_not_kept"]),
    Mutation("numeral-dicts-keep-long-keys", FACTORED, " and max(map(len, raw)) <= _KEY_LIMIT:\n", ":\n",
             [T_FACTORED + "test_a_literal_with_a_numeral_past_32_characters_stores_nothing"]),
    Mutation("numeral-dicts-never-read", FACTORED, "map(_BASES.__getitem__, raw[::2])", "map({}.__getitem__, raw[::2])",
             [T_FACTORED + "test_a_value_planted_in_the_base_dict_is_read"]),
    Mutation(
        "fraction-read-as-integer", FACTORED, 'if "/" in s and not cls._integral:', 'if "/" in s:',
        [T_FACTORED + "test_parse_integer"],
    ),
    # The search's misses that need no sieve, each answered only within the cap.
    Mutation(
        "size-guard-past-the-cap", ORACLE, PRIME_AND_SIZE_RULES,
        "    if wide or bound <= _SIEVE_CAP and r.entries and r.entries[-1][0] > bound:\n",
        [T_CLI + "test_sieve_past_the_cap_exits_2"],
    ),
    Mutation(
        "prime-rule-past-the-cap", ORACLE, PRIME_AND_SIZE_RULES,
        "    if r.entries and r.entries[-1][0] > bound or bound <= _SIEVE_CAP and wide:\n",
        [T_CLI + "test_sieve_past_the_cap_exits_2"],
    ),
    Mutation("prime-rule-at-the-bound", ORACLE, "r.entries[-1][0] > bound", "r.entries[-1][0] >= bound",
             [T_ORACLE + "test_brute_force_fixtures"]),
]

EQUIVALENT = [
    Mutation(
        "search-walks-the-other-side", ORACLE, "largest.get(True, 1) > largest.get(False, 1)", "largest.get(True, 1) < largest.get(False, 1)",
        ["tests/test_oracle.py"],
        "A pair has p | phi(m^2) and q | phi(n^2), so walking either side's candidates up to a stage, each by its "
        "own largest prime, and looking up the partners finds the same pairs; only their number differs.",
    ),
]


def copy_tree(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")


def run_tests(work: Path, tests: list[str]) -> tuple[str, float]:
    """'passed', 'failed', 'timeout' or an error for the tests in the copy, and the seconds taken."""
    # No bytecode is written, so a mutated file is never read from a stale .pyc.
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *PYTEST, *tests], cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    finally:
        # Examples saved by one run would be replayed by the next: each run starts from none.
        shutil.rmtree(work / ".hypothesis", ignore_errors=True)
    # 2-5: a collection error (a mutation that does not compile), usage error, or no test found.
    outcome = {0: "passed", 1: "failed"}.get(proc.returncode, f"error (pytest exit {proc.returncode})")
    return outcome, time.perf_counter() - start


def run_one(m, work: Path) -> tuple[str, float]:
    """The mutation's outcome (killed, survived, stale, timeout, error) and the seconds its tests took."""
    target = work / m.path
    original = target.read_text()
    if original.count(m.snippet) != 1:
        return f"stale ({original.count(m.snippet)} matches)", 0.0
    target.write_text(original.replace(m.snippet, m.replacement))
    try:
        outcome, seconds = run_tests(work, m.tests)
    finally:
        target.write_text(original)
    return {"failed": "killed", "passed": "survived"}.get(outcome, outcome), seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="run only these mutations (default: all)")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTATIONS + EQUIVALENT if not args.names or m.name in args.names]
    unknown = set(args.names) - {m.name for m in chosen}
    if unknown:
        parser.error(f"no mutation named {', '.join(sorted(unknown))}")
    failures = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="phisq-mutants-") as tmp:
        work = Path(tmp)
        copy_tree(work)
        tests = sorted({t for m in chosen for t in m.tests})
        outcome, seconds = run_tests(work, tests)
        print(f"baseline  {outcome} in {seconds:.1f} s ({len(tests)} test ids)", flush=True)
        if outcome != "passed":
            print("the named tests must pass before any mutation", file=sys.stderr)
            return 1
        for m in chosen:
            outcome, seconds = run_one(m, work)
            failures += outcome != ("survived" if m.reason else "killed")
            note = f"  (equivalent: {m.reason})" if m.reason else ""
            print(f"{outcome:<9} {m.name}  {seconds:.1f} s{note}", flush=True)
    total = time.perf_counter() - start
    print(f"{len(chosen) - failures} of {len(chosen)} as expected, {failures} not, in {total:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
