"""The mutation registry: small faults in src/paradim, each with the tests
that must catch it.

Each entry of MUTANTS is (name, file, old text, new text, node ids): the
mutant replaces the one occurrence of the old text in the file (a path
from the root of the repository) by the new text, and every pytest node
id must then fail.  tests/test_mutants.py checks in tier-1 only that each
old text occurs exactly once in its file, so a refactor that moves the
code must re-point its mutant rather than drop it.

    python tests/mutants.py [--only NAME]

copies src, tests and pyproject.toml to a temporary directory, checks
that every node id passes there, then applies one mutant at a time and
runs each of its node ids in a fresh pytest process.  It exits 1 if a
node id passes under its mutant (the mutant survives) or fails
unmutated.  A survivor is a finding: add a test that kills it, or say
here why the mutant is equivalent.
"""
import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

KERNELS = "src/paradim/kernels.py"
CHARACTERS = "src/paradim/characters.py"
COMPACT = "src/paradim/compact.py"
ELLIPTIC = "src/paradim/elliptic.py"
ARITH = "src/paradim/arith.py"
PARAMODULAR = "src/paradim/paramodular.py"
EXACTMATH = "src/paradim/exactmath.py"
CLI = "src/paradim/cli.py"
TEST_PARAMODULAR = "tests/test_paramodular.py::"
FORMULA = TEST_PARAMODULAR + "test_formula_is_the_signed_dimension"
ZERO_PAIRS = TEST_PARAMODULAR + "test_bias_zero_pairs_small"
GRADED_RUNS = "tests/test_corpus.py::test_verify_evaluates_one_graded_run_per_key"
SQUAREFREE_50000 = ("tests/test_kernels.py::"
                    "test_squarefree_part_matches_the_definition_below_50000")
SQUAREFREE_TABLE = "tests/test_kernels.py::test_squarefree_part_on_both_sides_of_the_table"
ROW_CAP = "tests/test_kernels.py::test_class_numbers_past_the_row_cap_build_no_rows"

MUTANTS = [
    ("least-factor-reads-past-the-table", KERNELS,
     "return _spf[n] if n < len(_spf) else None",
     "return _spf[n] if n <= len(_spf) else None",
     ["tests/test_arith.py::test_is_prime_table_lookup_agrees_with_trial_division"]),
    ("table-walk-keeps-even-exponents", KERNELS,
     "            else:  # q^2 divides n\n                n //= q\n",
     "            else:  # q^2 divides n\n                n //= q\n                d0 *= q\n",
     [SQUAREFREE_50000, SQUAREFREE_TABLE]),
    ("no-leftover-square-past-the-table", KERNELS,
     "    return d0 if r * r == n else d0 * n\n",
     "    return d0 * n\n",
     [SQUAREFREE_50000, SQUAREFREE_TABLE]),
    ("width-pinned-at-64", COMPACT,
     "    return 64 * (bound.bit_length() // 64 + 1)\n",
     "    return 64\n",
     [TEST_PARAMODULAR + "test_a_wide_level_takes_a_wider_field"]),
    ("no-digit-range-check", COMPACT,
     "        if r or (q + h) | low != low:\n",
     "        if r:\n",
     [TEST_PARAMODULAR + "test_residues_that_cancel_in_the_packed_sum_are_refused"]),
    ("no-replay-of-dim-M-signed", COMPACT,
     "            for f2 in f2s:\n                dim_M_signed(p, f2 + j, f2)\n",
     "            pass\n",
     [TEST_PARAMODULAR + "test_a_bent_level_raises_alike_on_both_routes",
      TEST_PARAMODULAR + "test_a_bent_character_raises_alike_at_its_weight"]),
    ("columns-swapped-in-the-list-view", COMPACT,
     "return _unpack(plus, width, offset), _unpack(minus, width, offset)",
     "return _unpack(minus, width, offset), _unpack(plus, width, offset)",
     [TEST_PARAMODULAR + "test_grid_is_the_pointwise_route"]),
    ("bias-sign-up-and-down-swapped", PARAMODULAR,
     "signs = up & even | down & ~even",
     "signs = down & even | up & ~even",
     [TEST_PARAMODULAR + "test_a_negative_bias_is_refused",
      TEST_PARAMODULAR + "test_the_bias_region_is_the_pointwise_route"]),
    ("bias-zeros-from-up-alone", PARAMODULAR,
     "zero = up & down",
     "zero = up",
     [ZERO_PAIRS]),
    ("even-mask-of-the-other-start-parity", PARAMODULAR,
     "width * (ks.start % 2)",
     "width * (1 - ks.start % 2)",
     [TEST_PARAMODULAR + "test_packed_runs_are_the_pointwise_route", ZERO_PAIRS]),
    ("negative-minus-space-unchecked", PARAMODULAR,
     "signs = (plus + top) & (minus + top) & top",
     "signs = (plus + top) & top",
     [TEST_PARAMODULAR + "test_a_negative_dimension_is_refused",
      TEST_PARAMODULAR + "test_each_mask_reads_what_the_pointwise_route_gives"]),
    ("width-bound-without-the-column-sums", COMPACT,
     "max(max(tops, default=0), 2 * max(bounds),",
     "max(max(tops, default=0),",
     [TEST_PARAMODULAR + "test_the_bulk_check_holds_at_every_width_edge"]),
    ("graded-runs-cached-one-at-a-time", PARAMODULAR,
     "@lru_cache(maxsize=128, typed=True)\ndef _graded_run(",
     "@lru_cache(maxsize=1, typed=True)\ndef _graded_run(",
     [GRADED_RUNS]),
    ("no-run-min-floor", PARAMODULAR,
     "max(nmax + 1, _RUN_MIN)",
     "nmax + 1",
     ["tests/test_corpus.py::test_fallback_denominators_share_one_run", GRADED_RUNS]),
    ("sequence-one-term-long", PARAMODULAR,
     "column[:nmax + 1 - first]",
     "column[:nmax + 2 - first]",
     ["tests/test_assembly_oracle.py::test_space_sequence_matches_oracle",
      TEST_PARAMODULAR + "test_space_sequence_is_the_pointwise_route"]),
    ("run-min-30-shorter", PARAMODULAR,
     "_RUN_MIN = 2 * sum(FALLBACK_DENOMINATORS[0]) + FIT_SLACK + 1\n",
     "_RUN_MIN = 2 * sum(FALLBACK_DENOMINATORS[0]) + FIT_SLACK + 1 - 30\n",
     ["tests/test_corpus.py::test_one_run_serves_every_embedded_fit"]),
    ("formula-without-the-weight-2-newspace-terms", ELLIPTIC,
     "kept, e, b = int(w == 2),",
     "kept, e, b = 0,",
     [FORMULA, "tests/test_elliptic.py::test_newspace_weight2_is_genus_of_x0"]),
    ("weight3-without-the-replay", PARAMODULAR,
     "            class_and_type(p)\n",
     "",
     [TEST_PARAMODULAR + "test_weight3_replays_the_pointwise_error"]),
    ("weight3-without-the-type-number-bound", PARAMODULAR,
     "    _check_type_number(p, plus + minus + 1, minus + 1)\n",
     "",
     [TEST_PARAMODULAR + "test_weight3_checks_the_type_number_bound"]),
    ("branch-of-5-is-3-mod-4", COMPACT,
     'else "1 mod 4" if p % 4 == 1 else "3 mod 4"',
     'else "1 mod 4" if p % 4 == 1 and p != 5 else "3 mod 4"',
     [FORMULA, "tests/test_compact.py::test_level_record_is_integer_data"]),
    ("chi15-one-entry-changed", CHARACTERS,
     "(-1, 0, 0, 1, 0, -2, 1, 2, -2, -1, 2, 0), (1, -1, 0),",
     "(-1, 0, 0, 1, 0, -2, 1, 2, -2, -1, 2, 1), (1, -1, 0),",
     ["tests/test_acceptance.py::test_criterion_08_character_oracles"]),
    ("chi11-row-of-length-7", CHARACTERS,
     "(1, 0, 0, -1), (-1, 1, 0, 0))),)),",
     "(1, 0, 0, -1), (-1, 1, 0, 0), (0,) * 7)),)),",
     [TEST_PARAMODULAR + "test_fallback_denominators_are_true_denominators"]),
    ("newspace-3-mod-4-row-sign-flipped", ELLIPTIC,
     '(-1, "s2_h_p")',
     '(1, "s2_h_p")',
     ["tests/test_assembly_oracle.py::test_signed_newspace_matches_oracle"]),
    ("newspace-halving-unchecked", ELLIPTIC,
     'exact_quotient(twice, 2, "the trace of W_p on S_{}^new(Gamma0({}))", w, p)',
     "twice // 2",
     ["tests/test_elliptic.py::test_an_odd_twice_difference_is_refused"]),
    ("fallback-4-4-6-12-first", PARAMODULAR,
     "    [4, 6, 10, 12],\n",
     "    [4, 4, 6, 12],\n",
     [TEST_PARAMODULAR + "test_full_plus_series_at_2_takes_two_fit_attempts",
      TEST_PARAMODULAR + "test_first_fallback_denominator_to_fit"]),
    ("is-prime-grows-the-table-straight-to-the-root", ARITH,
     "bound = min(max(bound * bound, 64), root)",
     "bound = root",
     ["tests/test_arith.py::test_is_prime_refuses_a_huge_composite_from_a_small_table"]),
    ("root-rows-to-2048", KERNELS,
     "_ROW_TOP = 1024\n",
     "_ROW_TOP = 2048\n",
     [ROW_CAP]),
    ("root-rows-to-1000", KERNELS,
     "_ROW_TOP = 1024\n",
     "_ROW_TOP = 1000\n",
     [ROW_CAP]),
    ("minus-sequence-reads-the-plus-column", PARAMODULAR,
     'return plus if sign == "+" else minus',
     "return plus",
     [TEST_PARAMODULAR + "test_space_sequence_is_the_pointwise_route"]),
    ("lift-column-at-weight-2k-plus-j", PARAMODULAR,
     "range(2 * ks.start + j - 2, 2 * ks.stop + j - 2, 2)",
     "range(2 * ks.start + j, 2 * ks.stop + j, 2)",
     [TEST_PARAMODULAR + "test_weight_run_is_the_pointwise_route"]),
    ("packed-sum-and-difference-swapped", COMPACT,
     "for value in (total + trace, total - trace):",
     "for value in (total - trace, total + trace):",
     [TEST_PARAMODULAR + "test_grid_is_the_pointwise_route"]),
    ("series-accumulates-with-stride-a-plus-1", EXACTMATH,
     "c[r::a] = accumulate(c[r::a])",
     "c[r::a + 1] = accumulate(c[r::a + 1])",
     ["tests/test_exactmath.py::test_series_coeffs_is_the_prefix_sum_by_steps"]),
    ("cli-takes-the-format-value-for-the-command-word", CLI,
     'argv[2:] if argv[:1] == ["--format"] else argv',
     'argv[1:] if argv[:1] == ["--format"] else argv',
     ["tests/test_cli.py::test_main_builds_the_parser_of_the_command_word_alone"]),
    ("root-rows-grow-past-the-doubling", KERNELS,
     "max(_ROW_FLOOR, 2 * (len(_squares) - 1))",
     "max(_ROW_FLOOR, 4 * (len(_squares) - 1))",
     ["tests/test_kernels.py::test_rows_grow_at_most_by_doubling"]),
]


def _run(tree, node_id):
    """The exit status of pytest on one node id in `tree`: 0 when it
    passes, 1 when it fails, another status when pytest could not run it."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           node_id], cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _copy(tree):
    """Copy the sources, the tests and the pytest settings into `tree`."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, tree / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", tree / "pyproject.toml")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", metavar="NAME", help="run only the mutant NAME")
    args = parser.parse_args(argv)
    mutants = [m for m in MUTANTS if args.only in (None, m[0])]
    if not mutants:
        parser.error(f"no mutant named {args.only!r}")
    faults = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        _copy(tree)
        for node_id in dict.fromkeys(n for m in mutants for n in m[4]):
            if _run(tree, node_id):
                print(f"fails unmutated: {node_id}")
                faults += 1
        for name, file, old, new, node_ids in mutants:
            path = tree / file
            source = path.read_text()
            if source.count(old) != 1:
                print(f"{name}: the old text occurs {source.count(old)} times in {file}")
                faults += 1
                continue
            path.write_text(source.replace(old, new))
            for node_id in node_ids:
                status = _run(tree, node_id)
                verdict = {0: "SURVIVES", 1: "killed"}.get(status, f"pytest exit {status}")
                print(f"{name}: {verdict} by {node_id}")
                faults += status != 1
            path.write_text(source)
    print(f"{len(mutants)} mutants, {faults} faults")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
