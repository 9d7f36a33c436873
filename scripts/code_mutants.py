#!/usr/bin/env python3
"""Mutation checks of the test oracles: each row of MUTANTS breaks one exact
snippet of src/ and names the tests that must catch it.

    python3 scripts/code_mutants.py

src/ and tests/ are copied to a temporary directory, once unmutated and once
per row with the row's snippet replaced; the snippet must occur exactly once
in its file.  The named tests of every row must pass on the unmutated copy,
and at least one named test of each row must fail on its mutant.  A row whose
mutant survives prints SURVIVED.  Exit status 0 when every mutant is caught,
1 when one survives or the unmutated copy fails, 2 when a snippet does not
occur exactly once.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKERS = 2


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # under src/pcomod
    snippet: str
    replacement: str
    tests: tuple[str, ...]


REWRITE_TESTS = "tests/test_ncpoly_rewrite.py::"
COMODULE_TESTS = "tests/test_comodule_smash.py::"
PULLBACK_TESTS = "tests/test_pullback.py::"

MUTANTS = [
    Mutant(
        "interreduction-drops-the-requeue", "rewrite.py",
        "queue += [NCPoly.word(self.alphabet, r.lhs_word) - r.rhs for r in moved]",
        "pass",
        (REWRITE_TESTS + "test_interreduction_keeps_the_ideal",),
    ),
    Mutant(
        "interreduction-skipped", "rewrite.py",
        "moved = [r for r in system.rules if len(r.lhs_word) > len(lead) and reduces(r.lhs_word)]",
        "moved = []",
        (REWRITE_TESTS + "test_suite_quotients_are_complete_and_confluent",),
    ),
    Mutant(
        "interreduction-rebuilds-every-step", "rewrite.py",
        "if moved:\n                system = build(",
        "if True:\n                system = build(",
        ("tests/test_suites_cli.py::test_covering_file_of_hundreds_of_kernel_words_loads_in_linear_work",),
    ),
    Mutant(
        "interreduction-tests-every-left-side", "rewrite.py",
        "if len(r.lhs_word) > len(lead) and reduces(r.lhs_word)]",
        "if reduces(r.lhs_word)]",
        ("tests/test_suites_cli.py::test_covering_file_of_hundreds_of_kernel_words_loads_in_linear_work",),
    ),
    Mutant(
        "overlap-words-cut-at-the-bound", "rewrite.py",
        "                    found.setdefault(a.canon(nc + cmax), []).append(((r1, 0), (r2, pos)))\n",
        "                    if len(nc) + len(cmax) <= degree_bound:\n"
        "                        found.setdefault(a.canon(nc + cmax), []).append(((r1, 0), (r2, pos)))\n",
        (REWRITE_TESTS + "test_overlap_past_the_bound_is_checked_beside_a_gap_family",),
    ),
    Mutant(
        "gap-words-not-listed", "rewrite.py",
        "spans += [(n1 + x + n2, len(n1) + k) for k in range(room + 1) for x in product(letters, repeat=k)]",
        "pass",
        (REWRITE_TESTS + "test_central_letter_shared_by_disjoint_redexes",),
    ),
    Mutant(
        "gap-family-reported-complete", "rewrite.py",
        "complete = False\n",
        "pass\n",
        (REWRITE_TESTS + "test_confluence_report_complete",),
    ),
    Mutant(
        "normal-form-memo-skipped", "rewrite.py",
        "if w in memo:\n                    continue\n",
        "if False:\n                    continue\n",
        (REWRITE_TESTS + "test_normal_form_matches_each_word_once",),
    ),
    Mutant(
        "ambiguity-cap-ignored", "rewrite.py",
        "if size > AMBIGUITY_CAP:",
        "if False:",
        (REWRITE_TESTS + "test_ambiguity_cap_counts_the_overlap_letters",),
    ),
    Mutant(
        "central-only-rule-left-out-of-the-index", "rewrite.py",
        "if rule.lhs_nc else self._central_only",
        "if rule.lhs_nc else []",
        (REWRITE_TESTS + "test_redex_scan_agrees_with_scanning_oracle[toeplitz_z2_smash]",),
    ),
    Mutant(
        "add-terms-keeps-zero-sums", "ncpoly.py",
        "        if c.is_zero():\n            acc.pop(k, None)\n        else:\n            acc[k] = c\n",
        "        acc[k] = c\n",
        (REWRITE_TESTS + "test_add_terms_matches_grouped_sums",),
    ),
    Mutant(
        "cleaving-relations-not-checked", "comodule.py",
        "for w, _, lhs, rhs in self.j.mismatches",
        "for w, _, lhs, rhs in []",
        (COMODULE_TESTS + "test_gl_mod_det_unscaled_a_is_not_well_defined",),
    ),
    Mutant(
        "cleaving-colinearity-not-compared", "comodule.py",
        'if lhs != rhs:\n                failures.append(CheckFailure("cleaving-colinear"',
        'if False:\n                failures.append(CheckFailure("cleaving-colinear"',
        (COMODULE_TESTS + "test_gl_mod_det_rescaled_cleaving_is_not_colinear",),
    ),
    Mutant(
        "relation-check-recomputed-on-every-read", "maps.py",
        "@cached_property\n    def mismatches",
        "@property\n    def mismatches",
        ("tests/test_suites_cli.py::test_each_generator_map_has_its_relations_checked_once",),
    ),
    Mutant(
        "stored-recomputes-on-every-read", "hopf.py",
        "if key not in kept:",
        "if True:",
        ("tests/test_suites_cli.py::test_each_comodule_certificate_runs_once_per_object",),
    ),
    Mutant(
        "hopf-map-counit-not-compared", "hopf.py",
        "if H1.counit_table[g] != H2.counit(img):",
        "if False:",
        (PULLBACK_TESTS + "test_prolong_along_a_surjection_that_is_not_a_hopf_map",),
    ),
    Mutant(
        "pair-differences-skips-the-length-check", "pullback.py",
        "if len(tup) != cov.size:",
        "if False:",
        (PULLBACK_TESTS + "test_pair_differences_needs_one_entry_per_piece",),
    ),
    Mutant(
        "trivialisation-skips-the-hopf-premise", "pullback.py",
        "failures = check_hopf_axioms(self.hopf) + self.covering.validate()",
        "failures = self.covering.validate()",
        (PULLBACK_TESTS + "test_validate_checks_the_hopf_premise",),
    ),
    Mutant(
        "cotensor-check-reads-h-words-in-hbar", "pullback.py",
        "lambda w: H.delta_word(w).map_leg(0, pi.apply_word, codomain=Hbar.system),",
        "lambda w: Tensor((Hbar.system, H.system), H.delta_word(w).terms).map_leg(\n"
        "                    0, pi.apply_word, codomain=Hbar.system),",
        (PULLBACK_TESTS + "test_prolong_keeps_each_leg_in_its_alphabet",),
    ),
    Mutant(
        "reducibility-skips-the-commutativity-premise", "pullback.py",
        "if not pair.target.system.is_commutative()",
        "if False",
        (PULLBACK_TESTS + "test_noncommutative_pair_target_is_not_certified",),
    ),
    Mutant(
        "pair-coaction-not-checked", "pullback.py",
        "for w, _, lhs, rhs in pair.target.rho.mismatches",
        "for w, _, lhs, rhs in []",
        (PULLBACK_TESTS + "test_bad_trivialisations_fail_the_certificate_where_the_word_loop_does",),
    ),
    Mutant(
        "power-exponent-cap-ignored", "exprs.py",
        "if abs(k) > MAX_EXPONENT:",
        "if False:",
        ("tests/test_parser_json.py::test_parse_errors",),
    ),
    Mutant(
        "sphere-slot-u-part-never-read", "numgeom/membership.py",
        "add_terms(parts[len(us) % 2], ((nc, c),))",
        "add_terms(parts[0], ((nc, c),))",
        ("tests/test_numgeom.py::test_memberships",),
    ),
    Mutant(
        "non-monomial-inverse-returns", "scalars.py",
        'raise ScalarError(f"{self!r} is not a unit c*q^k of Q(i)[q, q^-1]")',
        "return _scalar((n[-1].inv(),), -self.v)",
        ("tests/test_scalars.py::test_reduced_form_is_canonical",),
    ),
]


def check_snippets() -> list[str]:
    """A message for each row whose snippet does not occur exactly once."""
    bad = []
    for m in MUTANTS:
        n = (ROOT / "src" / "pcomod" / m.path).read_text().count(m.snippet)
        if n != 1:
            bad.append(f"{m.name}: snippet occurs {n} times in src/pcomod/{m.path}")
    return bad


def run_tests(mutant: Mutant | None, tests) -> subprocess.CompletedProcess:
    """pytest on ``tests`` in a fresh copy of src/ and tests/, with the
    mutant's replacement applied when one is given."""
    with tempfile.TemporaryDirectory(prefix="pcomod-mutant-") as tmp:
        for sub in ("src", "tests"):
            shutil.copytree(ROOT / sub, Path(tmp) / sub, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            path = Path(tmp) / "src" / "pcomod" / mutant.path
            path.write_text(path.read_text().replace(mutant.snippet, mutant.replacement))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=tmp, env=env, capture_output=True, text=True, timeout=300,
        )


def main() -> int:
    bad = check_snippets()
    if bad:
        print("\n".join(bad))
        return 2
    every_test = sorted({t for m in MUTANTS for t in m.tests})
    with ThreadPoolExecutor(WORKERS) as pool:
        clean = pool.submit(run_tests, None, every_test)
        runs = list(pool.map(lambda m: run_tests(m, m.tests), MUTANTS))
        clean = clean.result()
    if clean.returncode != 0:
        print("the named tests fail on the unmutated tree:\n" + clean.stdout[-2000:])
        return 1
    survived = 0
    for m, out in zip(MUTANTS, runs):
        # pytest exits 1 when a test failed; 2 or more is an error of the run itself
        caught = out.returncode == 1
        survived += not caught
        print(f"{'caught' if caught else 'SURVIVED'}  {m.name} (pytest exit {out.returncode})")
        if not caught:
            print(out.stdout[-2000:] + out.stderr[-2000:])
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants caught")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
