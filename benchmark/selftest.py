"""Tests of the benchmark itself (not of pcomod):

    python3 -m pytest -q -p no:cacheprovider benchmark/selftest.py

They run cheap subsets of the workloads, a few seconds each.
"""

import copy
import dataclasses
import json

import pytest

import run
from layers import COUNTS
from workloads import REFERENCE_SEED, WORKLOADS, check_outcome, load_reference

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def cheap(name: str, suites: tuple) -> run.Workload:
    return dataclasses.replace(WORKLOADS[name], suites=suites)


def quiet(*_args):
    pass


@pytest.mark.parametrize(
    "trace, section",
    [(False, "end_to_end"), (True, "per_layer")],
)
def test_cheap_run_emits_every_metric_with_its_unit(trace, section):
    w = cheap("exact-formal", ("covering", "transition", "frame-obstruction"))
    result = run.run_workload(w, REFERENCE_SEED, seconds=0, trace=trace, log=quiet)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {m: v["unit"] for m, v in result["metrics"].items()} == declared
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_doctored_reference_record_fails_the_gate_and_names_the_check(monkeypatch):
    w = cheap("exact-formal", ("transition",))
    ref = load_reference(w)
    doctored = copy.deepcopy(ref)
    record = doctored["suites"]["transition"]["canonical"]["records"][0]
    record["witness"] = "doctored"
    monkeypatch.setattr(run, "load_reference", lambda _w: doctored)
    result = run.run_workload(w, REFERENCE_SEED, seconds=0, trace=False, log=quiet)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]

    outcome = {"canonical": json.dumps(ref["suites"]["transition"]["canonical"])}
    assert check_outcome(w, "transition", outcome, ref, REFERENCE_SEED) == []
    (problem,) = check_outcome(w, "transition", outcome, doctored, REFERENCE_SEED)
    assert record["id"] in problem and "witness" in problem


def test_known_answers_and_known_raises():
    q3 = WORKLOADS["exact-q3"]
    ref = load_reference(q3)
    frame = ref["suites"]["frame-obstruction"]["canonical"]
    assert frame["pass"] is False  # q**3 != 1 at q = 3
    flipped = dict(frame, **{"pass": True})
    problems = check_outcome(q3, "frame-obstruction", {"canonical": json.dumps(flipped)}, ref, REFERENCE_SEED)
    assert any("known answer fail" in p for p in problems)
    # The seed commit raises here: counted by the caller, not a gate problem.
    assert ref["suites"]["strong-connection"] == {"error": "NotHopfIdealError"}
    raised = {"error": ["NotHopfIdealError", "coideal check failed"]}
    assert check_outcome(q3, "strong-connection", raised, ref, REFERENCE_SEED) == []
    assert check_outcome(q3, "smash", raised, ref, REFERENCE_SEED)


def test_other_seed_skips_only_seeded_fields():
    numeric = WORKLOADS["numeric"]
    ref = load_reference(numeric)
    doc = copy.deepcopy(ref["suites"]["peter-weyl"]["canonical"])
    doc["params"]["seed"] = 7
    doc["records"][0]["residual"] = 1e-16
    outcome = {"canonical": json.dumps(doc)}
    assert check_outcome(numeric, "peter-weyl", outcome, ref, 7) == []
    doc["records"][0]["status"] = "fail"
    assert check_outcome(numeric, "peter-weyl", {"canonical": json.dumps(doc)}, ref, 7)


def test_two_traced_passes_give_identical_call_counts():
    w = cheap("exact-q3", ("comodule-axioms", "covering"))
    first, second = (run.run_pass("traced", w, REFERENCE_SEED)["layers"] for _ in range(2))
    counts = {m: first[m] for m in COUNTS}
    assert counts == {m: second[m] for m in COUNTS}
    assert counts["scalars.scalar_mul_calls"] > 0 and counts["rewrite.nf_word_calls"] > 0
