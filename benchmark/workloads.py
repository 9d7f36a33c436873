"""Workload definitions and the correctness gate of the pcomod benchmark.

A workload is a list of suites run through ``pcomod.suites.run_suite`` with
``SuiteConfig`` defaults, except for ``q`` and the grid seed.  Together,
``exact-formal`` and ``numeric`` are the suite list of ``verify --suite all``.

The gate compares every suite outcome of every pass with the reference
recorded at the seed commit (``reference/<workload>.json``) and with the known
answers.  It never reads a timing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# GridConfig.seed default; the reference records were made with it.
REFERENCE_SEED = 20130915

EXACT_SUITES = (
    "hopf-axioms",
    "comodule-axioms",
    "strong-connection",
    "smash",
    "covering",
    "transition",
    "reduction-theorem",
    "prolong",
    "frame-obstruction",
    "negative-controls",
)
NUMERIC_SUITES = (
    "quantum-rp2",
    "sphere-gluing",
    "mattprop",
    "disc-decomposition",
    "parity-probe",
    "peter-weyl",
)
ALL_SUITES = EXACT_SUITES + NUMERIC_SUITES

# Record fields that legitimately depend on the grid seed.  At any seed other
# than REFERENCE_SEED they are left out of the record comparison of a seeded
# workload; id, claim, status and seed are still compared exactly.
SEEDED_FIELDS = ("residual", "witness")


@dataclass(frozen=True)
class Workload:
    name: str
    suites: tuple[str, ...]
    q: str | int
    # True when the grid seed changes the inputs (random samples, trials).
    seeded: bool
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact-formal",
            EXACT_SUITES,
            "formal",
            False,
            "exact suites with q formal: rational-function-in-q scalars, rewriting and confluence",
        ),
        Workload(
            "numeric",
            NUMERIC_SUITES,
            "formal",
            True,
            "numgeom suites at the default grid: constant Q(i) scalars, Toeplitz rebuilds, numpy",
        ),
        Workload(
            "exact-q3",
            EXACT_SUITES,
            3,
            False,
            "exact suites at q=3: the same rewriting as exact-formal with constant scalars only",
        ),
    )
}


def expected_pass(suite: str, q: str | int) -> bool:
    """Known answer: every suite passes, except that frame-obstruction fails
    exactly when q is an integer with q**3 != 1."""
    if suite == "frame-obstruction" and isinstance(q, int):
        return q**3 == 1
    return True


def load_reference(workload: Workload) -> dict:
    with open(REFERENCE_DIR / f"{workload.name}.json") as fh:
        return json.load(fh)


def _compare_records(suite: str, got: dict, ref: dict, fields_skipped: tuple[str, ...]) -> list[str]:
    problems = []
    ref_records = {r["id"]: r for r in ref["records"]}
    got_records = {r["id"]: r for r in got["records"]}
    for rid in sorted(ref_records.keys() - got_records.keys()):
        problems.append(f"{suite}: check {rid} is missing")
    for rid in sorted(got_records.keys() - ref_records.keys()):
        problems.append(f"{suite}: check {rid} is not in the reference")
    for rid in sorted(ref_records.keys() & got_records.keys()):
        a, b = got_records[rid], ref_records[rid]
        diff = sorted(k for k in a.keys() | b.keys() if k not in fields_skipped and a.get(k) != b.get(k))
        if diff:
            problems.append(
                f"{suite}: check {rid} differs in {', '.join(diff)}: "
                + "; ".join(f"{k}={a.get(k)!r} (reference {b.get(k)!r})" for k in diff)
            )
    return problems


def check_outcome(workload: Workload, suite: str, outcome: dict, reference: dict, seed: int) -> list[str]:
    """Problems with one suite outcome; an empty list means it is correct.

    ``outcome`` is ``{"canonical": <canonical_json() text>}`` or
    ``{"error": [<exception type>, <message>]}``.  A raise that the reference
    also recorded is a known defect: it is not a problem here, but the caller
    still counts the suite run as gone wrong.
    """
    ref = reference["suites"][suite]
    if "error" in outcome:
        etype, msg = outcome["error"]
        if ref.get("error") == etype:
            return []
        return [f"{suite}: raised {etype}: {msg}"]
    got = json.loads(outcome["canonical"])
    problems = []
    want = expected_pass(suite, workload.q)
    if got["pass"] != want:
        problems.append(f"{suite}: verdict {'pass' if got['pass'] else 'fail'}, known answer {'pass' if want else 'fail'}")
    if "canonical" not in ref:
        # The seed commit raised here; only the known answer applies.
        return problems
    same_seed = seed == reference["seed"]
    skipped = () if same_seed or not workload.seeded else SEEDED_FIELDS
    exp = ref["canonical"]
    got_params = {k: v for k, v in got["params"].items() if same_seed or k != "seed"}
    exp_params = {k: v for k, v in exp["params"].items() if same_seed or k != "seed"}
    if got_params != exp_params:
        problems.append(f"{suite}: params {got_params} differ from reference {exp_params}")
    if got["pass"] != exp["pass"]:
        problems.append(f"{suite}: verdict differs from the reference")
    problems += _compare_records(suite, got, exp, skipped)
    return problems
