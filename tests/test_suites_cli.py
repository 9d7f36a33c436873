import argparse
import json
import os
import re
import subprocess
import sys
import time
import zlib
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from pcomod import builtin, suites
from pcomod.cli import main, make_parser
from pcomod.exprs import parse_poly
from pcomod.hopf import CheckFailure
from pcomod.ncpoly import NCPoly
from pcomod.numgeom import GridConfig
from pcomod.rewrite import RewriteSystem
from pcomod.scalars import GaussRat
from pcomod.suites import (
    CheckRecord,
    ConfigError,
    SuiteConfig,
    SuiteReport,
    run_suite,
)


def mini_cfg(suite, **kw):
    grid = GridConfig(n_circle=720, m_interval=65, seed=7)
    return SuiteConfig(suite=suite, grid=grid, **kw)


def test_run_single_suites():
    for name in ("covering", "transition", "quantum-rp2", "parity-probe"):
        rep = run_suite(mini_cfg(name))
        assert rep.passed, (name, [r for r in rep.records if r.status != "pass"])
        assert rep.exit_code == 0
        assert all(r.claim for r in rep.records)


@pytest.mark.parametrize("q", [3, 2])
def test_determinant_ideal_at_integer_q(q):
    """<D - 1> is a Hopf ideal of O(GL_q(2)) at every q, not only formal q."""
    for name in ("strong-connection", "reduction-theorem"):
        rep = run_suite(SuiteConfig(suite=name, q=q))
        assert rep.passed, (name, [r for r in rep.records if r.status != "pass"])


def test_classical_point_reduction_and_prolong(capsys):
    """At q = 1 SU_q(2) is commutative and the prolongation along it takes its
    fiber generators as central; both suites give a verdict and pass."""
    for name in ("reduction-theorem", "prolong"):
        rep = run_suite(SuiteConfig(suite=name, q=1))
        assert rep.passed, (name, [r for r in rep.records if r.status != "pass"])
    assert main(["verify", "--suite", "reduction-theorem", "--q", "1"]) == 0
    capsys.readouterr()


def test_patch_instance_reads_the_surjection_checks_first(monkeypatch):
    """reduction/patch-instance rests on the surjection's star and kernel
    checks: a failure there fails the record, and its witness comes before
    any reducibility witness."""
    bad = CheckFailure("surjection-star", "a", "ui != u")
    monkeypatch.setattr(builtin, "su_q2_to_u1_checks", lambda q="formal": [bad])
    records = {r.id: r for r in run_suite(SuiteConfig(suite="reduction-theorem")).records}
    assert (records["reduction/patch-instance"].status, records["reduction/patch-instance"].witness) == (
        "fail",
        repr(bad),
    )


def test_unknown_suite_nearest_match():
    with pytest.raises(ConfigError) as exc:
        run_suite(mini_cfg("hopf-axiom"))
    assert "hopf-axioms" in str(exc.value)


def test_exit_code_semantics():
    recs = [CheckRecord("a", "c", "pass"), CheckRecord("b", "c", "undecided")]
    rep = SuiteReport("x", {}, recs)
    assert rep.exit_code == 3 and rep.n_undecided == 1
    recs.append(CheckRecord("c", "c", "fail"))
    rep = SuiteReport("x", {}, recs)
    assert rep.exit_code == 1


def test_report_roundtrip_and_atomic_write(tmp_path):
    rep = run_suite(mini_cfg("quantum-rp2"))
    path = tmp_path / "out.json"
    rep.write(str(path))
    doc = json.loads(path.read_text())
    assert doc["suite"] == "quantum-rp2" and doc["pass"] is True
    assert doc["params"]["seed"] == 7
    md = rep.to_markdown()
    assert "| check | status" in md


def test_reports_reproducible():
    r1 = run_suite(mini_cfg("parity-probe"))
    r2 = run_suite(mini_cfg("parity-probe"))
    assert r1.canonical_json() == r2.canonical_json()
    r3 = run_suite(mini_cfg("mattprop"))
    r4 = run_suite(mini_cfg("mattprop"))
    assert r3.canonical_json() == r4.canonical_json()


@pytest.mark.parametrize("name", ["mattprop", "peter-weyl"])
def test_record_runtimes_add_up_to_at_most_the_report(name):
    """Both suites compute one report and then yield several records; each
    record carries only the time since the one before it."""
    rep = run_suite(mini_cfg(name))
    assert len(rep.records) > 1
    assert sum(r.runtime_ms for r in rep.records) <= rep.runtime_ms


def test_record_seeds_are_id_labels():
    rep = run_suite(mini_cfg("all"))
    assert len(rep.records) > 40
    assert all(r.seed == zlib.crc32(r.id.encode()) & 0xFFFF for r in rep.records)


def test_jobs_is_a_constant_and_not_a_flag(capsys):
    """None of "jobs", "trunc" and "degree" is a flag; the report keeps each,
    and "tol" and "trials", as a constant."""
    params = run_suite(mini_cfg("transition")).params
    for key, value in (("jobs", 1), ("trunc", 64), ("degree", 4), ("tol", 1e-9), ("trials", 100)):
        assert params[key] == value
    for key, arg in (("jobs", "2"), ("trunc", "2"), ("degree", "2")):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "transition", f"--{key}", arg])
        assert exc.value.code == 2
        assert f"--{key}" in capsys.readouterr().err


EXAMPLE_COVERING = str(Path(__file__).resolve().parents[1] / "scripts" / "example_covering.json")
DEFAULT_PARAMS = ["suite", "degree", "q", "grid_circle", "grid_interval", "tol", "trunc", "seed", "trials", "jobs"]


def test_params_name_the_covering_and_the_algebra():
    """A report says which covering file or algebra it checked; a default
    report keeps exactly the keys of the reference reports."""
    builtin_cover = run_suite(SuiteConfig(suite="covering"))
    assert list(builtin_cover.params) == DEFAULT_PARAMS
    assert (builtin_cover.params["tol"], builtin_cover.params["trials"]) == (1e-09, 100)
    file_cover = run_suite(SuiteConfig(suite="covering", covering=EXAMPLE_COVERING))
    assert list(file_cover.params) == DEFAULT_PARAMS + ["covering"]
    assert file_cover.params["covering"] == EXAMPLE_COVERING
    assert file_cover.canonical_json() != builtin_cover.canonical_json()
    one = run_suite(SuiteConfig(suite="hopf-axioms", algebra="su_q2"))
    assert list(one.params) == DEFAULT_PARAMS + ["algebra"] and one.params["algebra"] == "su_q2"


@pytest.mark.parametrize("fmt", ["md", "json"])
def test_cli_out_writes_the_printed_report(fmt, tmp_path, capsys):
    path = tmp_path / f"r.{fmt}"
    assert main(["verify", "--suite", "transition", "--out", str(path), "--format", fmt]) == 0
    printed = capsys.readouterr().out
    assert path.read_text() + "\n" == printed
    if fmt == "md":
        assert printed.startswith("# suite transition")
    else:
        assert json.loads(printed)["suite"] == "transition"


@pytest.mark.parametrize("command", [["verify", "--suite", "smash"], ["export", "--algebra", "su_q2"]])
@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_cli_bad_out_path_is_a_config_error(command, target, tmp_path, monkeypatch, capsys):
    """An --out path that cannot be written exits 2 with CONFIG_ERROR and
    leaves no temp file beside it; verify rejects it before any suite runs."""
    calls = []
    monkeypatch.setattr("pcomod.cli.run_suite", calls.append)
    out = tmp_path / "out"
    out.mkdir()
    path = out if target == "directory" else tmp_path / "missing" / "r.json"
    assert main(command + ["--out", str(path)]) == 2
    assert calls == []
    captured = capsys.readouterr()
    assert captured.err.startswith("CONFIG_ERROR: --out ") and captured.out == ""
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["out"]


@pytest.mark.parametrize("command", [["verify", "--suite", "smash"], ["export", "--algebra", "su_q2"]])
def test_cli_out_file_takes_the_mode_open_would_give(command, tmp_path, capsys):
    path = tmp_path / "r.json"
    umask = os.umask(0o027)
    try:
        assert main(command + ["--out", str(path)]) == 0
    finally:
        os.umask(umask)
    assert path.stat().st_mode & 0o777 == 0o640


def test_atomic_write_removes_its_temp_file_on_failure(tmp_path, monkeypatch):
    def fail(*args):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="replace failed"):
        suites.write_atomic(str(tmp_path / "r.json"), "{}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("suite", ["all", "covering"])
def test_cli_verify_without_flags_builds_the_default_config(monkeypatch, suite):
    """The verify flags take their defaults from SuiteConfig and GridConfig."""
    built = []

    def capture(cfg):
        built.append(cfg)
        raise ConfigError("captured")

    monkeypatch.setattr("pcomod.cli.run_suite", capture)
    assert main(["verify", "--suite", suite]) == 2
    assert built == [SuiteConfig(suite=suite)]


@pytest.mark.parametrize("args", [["--suite", "negative-controls"], ["--suite", "frame-obstruction", "--q", "2"]])
def test_markdown_rows_have_four_cells(capsys, args):
    """A witness holding the action symbol |> stays in its cell."""
    main(["verify", *args, "--format", "md"])
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("|")]
    assert any("\\|>" in row for row in rows)
    # a row's cells lie between its unescaped |s
    assert [len(re.split(r"(?<!\\)\|", row.strip())) - 2 for row in rows] == [4] * len(rows)


def test_readme_flags_name_exactly_the_verify_options():
    """The Flags paragraph of README's Command line section names every
    option of verify and no other."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    paragraph = section.split("\nFlags:", 1)[1].split("\n\n", 1)[0]
    verify = next(a for a in make_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices["verify"]
    options = {o for a in verify._actions for o in a.option_strings if a.dest != "help"}
    assert set(re.findall(r"--[a-z][a-z-]*", paragraph)) == options


def test_cli_list_and_export(tmp_path, capsys):
    assert main(["list-suites"]) == 0
    out = capsys.readouterr().out
    assert "reduction-theorem" in out and "peter-weyl" in out
    assert main(["list-suites", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert any(e["name"] == "frame-obstruction" for e in doc)
    path = tmp_path / "su.json"
    assert main(["export", "--algebra", "su_q2", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert doc["name"] == "su_q2" and "hopf" in doc


def test_cli_verify_and_errors(capsys):
    code = main(["verify", "--suite", "quantum-rp2", "--grid-interval", "65", "--seed", "3"])
    assert code == 0
    capsys.readouterr()
    code = main(["verify", "--suite", "nope"])
    err = capsys.readouterr().err
    assert code == 2 and "CONFIG_ERROR" in err
    code = main(["verify", "--suite", "frame-obstruction", "--q", "2"])
    assert code == 1
    capsys.readouterr()
    code = main(["verify", "--suite", "frame-obstruction", "--q", "cbrt1"])
    assert code == 0
    capsys.readouterr()
    code = main(["verify", "--suite", "frame-obstruction", "--q", "pi"])
    assert code == 2


def test_cli_unknown_names_are_config_errors(capsys, tmp_path):
    """An unknown builtin name is a configuration error printed bare (not
    quoted), and an unknown covering-file base names the file."""
    assert main(["verify", "--suite", "hopf-axioms", "--algebra", "no_such_algebra"]) == 2
    assert "CONFIG_ERROR" in capsys.readouterr().err
    assert main(["export", "--algebra", "su_q2_to_u1"]) == 2
    assert capsys.readouterr().err == "CONFIG_ERROR: no presentation document for 'su_q2_to_u1'; nearest match: su_q2\n"
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"base": "toeplitz_z2_smsh", "pieces": [{"kernel": [], "cleaving": {"u": "u"}}]}))
    assert main(["verify", "--suite", "covering", "--covering", str(path)]) == 2
    err = f"CONFIG_ERROR: covering file {path}: unknown builtin 'toeplitz_z2_smsh'; nearest match: toeplitz_z2_smash\n"
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("suite, algebra", [("hopf-axioms", "toeplitz"), ("comodule-axioms", "su_q2")])
def test_cli_algebra_of_the_wrong_kind_is_a_config_error(capsys, suite, algebra):
    assert main(["verify", "--suite", suite, "--algebra", algebra]) == 2
    assert "CONFIG_ERROR" in capsys.readouterr().err


def _refused_settings():
    for suite in [*suites.SUITES, "all"]:
        if suite != "frame-obstruction":
            yield pytest.param(suite, "--q", "cbrt1", id=f"{suite}-q-cbrt1")
        if suite not in ("covering", "transition", "all"):
            yield pytest.param(suite, "--covering", EXAMPLE_COVERING, id=f"{suite}-covering")


@pytest.mark.parametrize("suite, flag, value", list(_refused_settings()))
def test_cli_setting_no_selected_suite_computes_is_a_config_error(capsys, suite, flag, value):
    """q = cbrt1 is computed by frame-obstruction alone, and a covering file
    is read by covering and transition alone: any other selection refuses
    them as it refuses an --algebra it does not check."""
    assert main(["verify", "--suite", suite, flag, value]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("CONFIG_ERROR") and "Traceback" not in err and out == ""


def test_cli_empty_covering_path_is_a_config_error(capsys):
    """An empty path names no file: the suite that reads it refuses it and
    does not check the builtin sphere covering in its place."""
    assert main(["verify", "--suite", "covering", "--covering", ""]) == 2
    assert capsys.readouterr().err.startswith("CONFIG_ERROR: cannot read covering file")


def test_cli_all_reads_a_covering_file(capsys):
    assert main(["verify", "--suite", "all", "--covering", EXAMPLE_COVERING]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["params"]["covering"] == EXAMPLE_COVERING
    assert "covering/validate" in [r["id"] for r in report["records"]]


def test_cli_algebra_restricts_only_the_axiom_suite_that_has_it(capsys):
    assert main(["verify", "--suite", "all", "--algebra", "su_q2", "--grid-interval", "65"]) == 0
    ids = [r["id"] for r in json.loads(capsys.readouterr().out)["records"]]
    assert [i for i in ids if i.startswith("hopf-axioms/")] == ["hopf-axioms/su_q2"]
    assert not [i for i in ids if i.startswith("comodule-axioms/")]
    assert "covering/validate" in ids


def _verify_exit(capsys, argv):
    """Run verify; an argparse usage error exits 2 like a config error does."""
    try:
        code = main(["verify", *argv])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize(
    "suite, flag, value, message",
    [pytest.param("peter-weyl", "--samples", "0", "unrecognized arguments: --samples 0", id="peter-weyl---samples-0"),
     pytest.param("parity-probe", "--trials", "0", "unrecognized arguments: --trials 0", id="parity-probe---trials-0"),
     pytest.param("hopf-axioms", "--q", "0", "CONFIG_ERROR", id="hopf-axioms---q-0")],
)
def test_cli_counts_below_one_are_config_errors(capsys, suite, flag, value, message):
    """--q 0 fails the range check; the sample and trial counts are constants
    now, so --samples and --trials, at any count, are usage errors."""
    code, out, err = _verify_exit(capsys, ["--suite", suite, flag, value])
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("samples", [1, 2, 3])
def test_cli_peter_weyl_at_a_few_samples_reports(capsys, monkeypatch, samples):
    """Every sample falls in the a-patch at these sample counts at the
    default seed, so the c-patch is empty; the suite still reports every
    identity."""
    monkeypatch.setattr(suites, "PETER_WEYL_SAMPLES", samples)
    assert main(["verify", "--suite", "peter-weyl"]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    assert sorted(r["id"] for r in records) == [
        "peter-weyl/cleaving_multiplicative",
        "peter-weyl/line_bundle_equivariance",
        "peter-weyl/zero_identity",
    ]


@pytest.mark.parametrize(
    "suite, flag, value",
    [("sphere-gluing", "--grid-circle", "100"), ("disc-decomposition", "--grid-circle", "0"),
     ("quantum-rp2", "--grid-interval", "1"), ("parity-probe", "--grid-circle", "100")],
)
def test_cli_grids_the_charts_do_not_fit_are_config_errors(capsys, suite, flag, value):
    assert main(["verify", "--suite", suite, flag, value]) == 2
    assert "CONFIG_ERROR" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
def test_cli_tol_not_finite_and_positive_is_a_config_error(capsys, tol):
    """The pass gate is the constant TOL, so no --tol value, these that would
    fail or pass every numeric check included, reaches a suite."""
    code, out, err = _verify_exit(capsys, ["--suite", "sphere-gluing", "--tol", tol])
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: --tol {tol}" in err


def test_cli_internal_key_error_is_not_a_config_error(monkeypatch):
    def broken_suite(cfg):
        return {}["missing"]

    monkeypatch.setitem(suites.SUITES, "covering", (broken_suite, "raises an internal KeyError"))
    with pytest.raises(KeyError, match="missing"):
        main(["verify", "--suite", "covering"])


def test_covering_json_file(tmp_path):
    doc = {
        "name": "smash-file-covering",
        "base": "toeplitz_z2_smash",
        "base_gens": [["s", "ss"], ["s", "ss"]],
        "pieces": [
            {"kernel": [], "cleaving": {"u": "u"}},
            {"kernel": ["1 - s*ss"], "cleaving": {"u": "u"}},
        ],
    }
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(doc))
    cfg = mini_cfg("covering", covering=str(path))
    rep = run_suite(cfg)
    assert rep.passed, [r for r in rep.records if r.status != "pass"]
    cfg = mini_cfg("transition", covering=str(path))
    rep = run_suite(cfg)
    assert rep.passed


def test_one_piece_covering_file_reports(tmp_path, capsys):
    """A covering of one piece has no pair and no T_01: the transition suite
    reports on it instead of ending in an IndexError, and leaves the values
    record undecided instead of passing it unchecked."""
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"base": "toeplitz_z2_smash", "pieces": [{"kernel": [], "cleaving": {"u": "u"}}]}))
    records = run_suite(mini_cfg("transition", covering=str(path))).records
    assert [(r.id, r.status, r.witness) for r in records] == [
        ("transition/laws", "pass", ""),
        ("transition/values", "undecided", "no T_01(u): the covering has one piece"),
    ]
    assert main(["verify", "--suite", "transition", "--covering", str(path)]) == 3


def test_covering_file_over_h_without_u_leaves_values_undecided(tmp_path):
    """Over GL_q(2), which has no generator u, there is no T_01(u): the
    values record is undecided and says why."""
    piece = {"kernel": [], "cleaving": {g: g for g in ("a", "b", "c", "d", "Di")}}
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"base": "plane_gl_smash", "pieces": [piece, piece]}))
    records = {r.id: r for r in run_suite(mini_cfg("transition", covering=str(path))).records}
    assert records["transition/laws"].status == "pass"
    values = records["transition/values"]
    assert (values.status, values.witness) == ("undecided", "no T_01(u): H has no generator u")


def test_covering_file_with_intersecting_kernels(tmp_path):
    """Two pieces sharing the kernel 1 - s*ss: the covering suite's kernel
    certificate rejects the file, and the transition laws still hold, as they
    do not depend on the kernels meeting in zero."""
    doc = {
        "base": "toeplitz_z2_smash",
        "base_gens": [["s", "ss"], ["s", "ss"]],
        "pieces": [{"kernel": ["1 - s*ss"], "cleaving": {"u": "u"}}] * 2,
    }
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(doc))
    records = {r.id: r for r in run_suite(mini_cfg("covering", covering=str(path))).records}
    assert records["covering/validate"].status == "fail"
    assert records["covering/validate"].witness.startswith("FAIL[kernel-intersection @ degree<=2]")
    records = {r.id: r for r in run_suite(mini_cfg("transition", covering=str(path))).records}
    assert records["transition/laws"].status == "pass"


def test_covering_suite_leaves_the_stored_validation_as_it_was(monkeypatch):
    """The covering suite adds its kernel certificate to a new list, not to
    the one ``Trivialisation.validate`` stores: run on one trivialisation
    after the covering suite, with a kernel failure, the transition laws
    still pass."""
    example = Path(__file__).resolve().parents[1] / "scripts" / "example_covering.json"
    triv = suites.load_covering_file(str(example))
    kernel_failure = CheckFailure("kernel-intersection", "degree<=2", "joint rank 0 < 1")
    monkeypatch.setattr(triv.covering, "kernel_intersection_certificate", lambda bound: [kernel_failure])
    monkeypatch.setattr(suites, "_load_trivialisation", lambda cfg: triv)
    records = {r.id: r for r in run_suite(mini_cfg("covering")).records}
    assert records["covering/validate"].witness == repr(kernel_failure)
    records = {r.id: r for r in run_suite(mini_cfg("transition")).records}
    assert records["transition/laws"].status == "pass"
    assert triv.validate() == []


def test_covering_file_without_base_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"pieces": [{"kernel": [], "cleaving": {"u": "u"}}]}))
    with pytest.raises(ConfigError, match="base"):
        run_suite(mini_cfg("covering", covering=str(path)))
    assert main(["verify", "--suite", "covering", "--covering", str(path)]) == 2
    assert "CONFIG_ERROR" in capsys.readouterr().err


_UNIT_PIECE = {"kernel": [], "cleaving": {"u": "u"}}


@pytest.mark.parametrize(
    "doc, match",
    [
        ({"pieces": [{"kernel": ["s**"], "cleaving": {"u": "u"}}]}, "cannot parse"),
        ({"pieces": [{"kernel": [], "cleaving": {"u": "u*"}}]}, "cannot parse"),
        ({"pieces": 7}, "'pieces' must be"),
        ({"pieces": []}, "'pieces' must be"),
        ({"pieces": ["x"]}, "piece 0 is not an object"),
        ({"pieces": [{"kernel": [1], "cleaving": {"u": "u"}}]}, "'kernel' must be"),
        ({"pieces": [_UNIT_PIECE], "base_gens": 5}, "'base_gens' must"),
        ({"pieces": [_UNIT_PIECE], "base_gens": [["zz"]]}, r"base_gens \['zz'\]"),
        ({"pieces": [{"kernel": [], "cleaving": ["u"]}]}, "cleaving table"),
        ({"pieces": [{"kernel": [], "cleaving": {"zz": "u"}}]}, "image for each of"),
        ({"pieces": [{"kernel": [], "cleaving": {"u": "s"}}]}, "not an algebra map"),
        ({"pieces": [{"kernel": ["(s#ss - s#ss) + s"], "cleaving": {"u": "u"}}]}, "legs, expected 2"),
        # a nonzero constant makes its piece zero; with s = 0, ss*s is 0, so 2 - 2*ss*s + 3 is 5
        ({"pieces": [{"kernel": ["ss*s"], "cleaving": {"u": "u"}}]},
         r"the kernel of piece 0 holds a unit: ss\*s reduces to the nonzero constant 1$"),
        ({"pieces": [_UNIT_PIECE, {"kernel": ["s", "2 - 2*ss*s + 3"], "cleaving": {"u": "u"}}]},
         r"the kernel of piece 1 holds a unit: 5 - 2\*ss\*s reduces to the nonzero constant 5$"),
        # a bad number is a parse error, not an arithmetic one
        ({"pieces": [{"kernel": ["1/0"], "cleaving": {"u": "u"}}]}, "cannot parse"),
        ({"pieces": [{"kernel": ["0^-1"], "cleaving": {"u": "u"}}]}, "cannot parse"),
        ({"pieces": [{"kernel": ["(Q-Q)^-1"], "cleaving": {"u": "u"}}]}, "cannot parse"),
        ({"pieces": [{"kernel": ["1" * 4301], "cleaving": {"u": "u"}}]}, "cannot parse"),
        # a power is bounded in its exponent and in its terms
        ({"pieces": [{"kernel": ["s^1001"], "cleaving": {"u": "u"}}]}, "cannot parse.*exponent 1001"),
        ({"pieces": [{"kernel": ["(s+ss)^17"], "cleaving": {"u": "u"}}]}, "cannot parse.*over 100000 terms"),
        # and a nested power in its words' letters and its scalars' bits
        ({"pieces": [{"kernel": ["(s^1000)^300"], "cleaving": {"u": "u"}}]}, "cannot parse.*over 10000 letters"),
        ({"pieces": [{"kernel": ["((2^1000)^1000)^100*s"], "cleaving": {"u": "u"}}]}, "cannot parse.*over 100000 bits"),
        ({"pieces": [{"kernel": ["((Q+1)^100)^10*s"], "cleaving": {"u": "u"}}]}, "cannot parse.*over 100000 bits"),
        # and a power of a polynomial in its coefficients' bits
        ({"pieces": [{"kernel": ["((2^1000*s)^1000)^10"], "cleaving": {"u": "u"}}]}, "cannot parse.*coefficient of over"),
        ({"pieces": [{"kernel": ["(2^1000*s)^1000"], "cleaving": {"u": "u"}}]}, "cannot parse.*coefficient of over"),
    ],
    ids=[
        "kernel", "cleaving", "pieces-not-a-list", "no-pieces", "piece-not-an-object",
        "kernel-not-strings", "base-gens-not-lists", "base-gens-unknown", "cleaving-not-an-object",
        "cleaving-misses-a-generator", "cleaving-not-an-algebra-map", "kernel-tensor-that-cancels",
        "kernel-holding-one", "kernel-holding-a-constant", "kernel-zero-denominator",
        "kernel-negative-power-of-zero", "kernel-negative-power-of-a-zero-constant", "kernel-over-long-literal",
        "kernel-exponent-over-the-bound", "kernel-power-over-the-term-cap", "kernel-power-over-the-word-cap",
        "kernel-integer-power-over-the-scalar-cap", "kernel-q-power-over-the-scalar-cap",
        "kernel-nested-power-over-the-coefficient-cap", "kernel-power-over-the-coefficient-cap",
    ],
)
def test_covering_file_that_does_not_parse_is_a_config_error(tmp_path, capsys, doc, match):
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"base": "toeplitz_z2_smash", **doc}))
    for suite in ("covering", "transition"):
        with pytest.raises(ConfigError, match=match):
            run_suite(mini_cfg(suite, covering=str(path)))
    assert main(["verify", "--suite", "transition", "--covering", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("CONFIG_ERROR") and "Traceback" not in err


@pytest.mark.parametrize(
    "kernel, message",
    [
        # ss*s = 1 puts 1 in the ideal of ["ss"], though it holds no constant:
        # the rule ss -> 0 reduces ss*s -> 1, whose difference is -1 + ss*s
        (["ss"], "the kernel of piece 1 holds a unit: -1 + ss*s reduces to the nonzero constant -1"),
        # s^2 = s makes s idempotent, and ss*s = 1 then forces s = 1
        (["s*s - s"], "the quotient rules of piece 1 conflict: CONFLICT(ss*s^2: s vs 1)"),
        (["s*s"], "the quotient rules of piece 1 conflict: CONFLICT(ss*s^2: s vs 0)"),
        # each first conflict lies past degree 6, within twice the longest
        # left side less one
        (["ss^6"], "the quotient rules of piece 1 conflict: CONFLICT(ss^6*s: 0 vs ss^5)"),
        (["s^6 - s"], "the quotient rules of piece 1 conflict: CONFLICT(ss*s^6: s^5 vs 1)"),
        (["s^7"], "the quotient rules of piece 1 conflict: CONFLICT(ss*s^7: s^6 vs 0)"),
        (["s^3*ss^3 - s*ss"], "the quotient rules of piece 1 conflict: CONFLICT(s^3*ss^3*s: s vs s^3*ss^2)"),
        # s*u -> s takes the central u from anywhere, so its gap words
        # s*x*s*u grow with the bound; only they are cut, at degree 6
        (["s*u - s", "s^12"], "the quotient rules of piece 1 conflict: CONFLICT(ss*s*u: u vs 1)"),
    ],
    ids=[
        "kernel-holding-a-unit",
        "kernel-idempotent-isometry",
        "kernel-nilpotent-isometry",
        "kernel-holding-a-unit-past-degree-6",
        "kernel-idempotent-isometry-past-degree-6",
        "kernel-nilpotent-isometry-past-degree-6",
        "kernel-with-a-degree-6-left-side",
        "kernel-with-a-rule-sharing-a-central-letter",
    ],
)
def test_covering_file_whose_quotient_rules_conflict_is_a_config_error(tmp_path, capsys, kernel, message):
    """A kernel whose quotient rules are not confluent refuses the file with
    the piece and the conflicting word: there a nonzero normal form proves
    nothing, so a pair difference would be no witness.  One in whose ideal
    interreduction reaches a nonzero constant, the extreme conflict, is
    refused with the element that reduces to it; the unit ideal of ``s*s``
    is not reached so and shows as a conflict.  Each shows first at piece 1;
    the pair (0, 1) holds it too."""
    path = tmp_path / "cover.json"
    doc = {"base": "toeplitz_z2_smash", "pieces": [_UNIT_PIECE, {"kernel": kernel, "cleaving": {"u": "u"}}]}
    path.write_text(json.dumps(doc))
    for suite in ("covering", "transition"):
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_suite(mini_cfg(suite, covering=str(path)))
    assert main(["verify", "--suite", "covering", "--covering", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("CONFIG_ERROR") and message in err and "Traceback" not in err


_GL_IDENTITY = {g: g for g in ("a", "b", "c", "d", "Di")}


@pytest.mark.parametrize(
    "kernels, message",
    [
        ([["(1+Q)^-1*x"]],
         "cannot parse '(1+Q)^-1*x': negative power of a scalar that is not a unit: (1 + q) is not a unit c*q^k"),
        # y = x gives (q - 1) x^2 = 0 from y*x = q x*y: x^2 -> 0 would divide by q - 1
        ([["y - x"], []],
         "the kernel of piece 0 needs a non-unit inverse: (-1)/(q)*x*y + y*x reduces to (-1 + q)/(q)*x^2, "
         "whose leading coefficient (-1 + q)/(q) is not a unit c*q^k; no formal-q rule presents it, "
         "read it at a fixed --q"),
    ],
    ids=["kernel-negative-power-of-a-non-unit", "kernel-needing-a-non-unit-inverse"],
)
def test_covering_file_needing_a_non_unit_inverse_is_a_config_error_at_formal_q(tmp_path, capsys, kernels, message):
    """At formal q a covering file whose kernel writes the inverse of a
    non-unit, or whose interreduction needs one, is refused with the element
    that needs it: a rule made by that division would not hold at a root of
    the divisor.  At a fixed --q the same file ends in a report."""
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"base": "plane_gl_smash", "pieces": [{"kernel": k, "cleaving": _GL_IDENTITY} for k in kernels]}))
    for suite in ("covering", "transition"):
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_suite(mini_cfg(suite, covering=str(path)))
    assert main(["verify", "--suite", "covering", "--covering", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("CONFIG_ERROR") and message in err and "Traceback" not in err
    assert main(["verify", "--suite", "covering", "--covering", str(path), "--q", "2"]) in (0, 1, 3)
    assert "Traceback" not in capsys.readouterr().err


def test_covering_file_is_read_at_the_fixed_q(tmp_path, monkeypatch):
    """--q reaches a covering file: its base is built at q, and Q in its
    kernels and cleavings reads as q.  At q = 2 the kernel Q*x - 2*x is zero
    and the cleaving (Q - 1)*a is a, so the file is the base with the
    identity cleaving; at formal q the kernel's leading coefficient q - 2 is
    no unit and the file is refused."""
    path = tmp_path / "cover.json"
    cleaving = {**_GL_IDENTITY, "a": "(Q - 1)*a"}
    path.write_text(json.dumps({"base": "plane_gl_smash", "pieces": [{"kernel": ["Q*x - 2*x"], "cleaving": cleaving}]}))
    builds = []
    build = builtin.build
    monkeypatch.setattr(builtin, "build", lambda name, q="formal": builds.append((name, q)) or build(name, q))
    report = run_suite(mini_cfg("covering", covering=str(path), q=2))
    assert builds == [("plane_gl_smash", 2)]
    assert report.params["q"] == "2" and report.passed
    triv = suites.load_covering_file(str(path), 2)
    assert triv.covering.pieces[0].comodule.system.rules == builtin.plane_gl_smash(2).system.rules
    assert triv.cleavings[0].j.apply_word(("a",)) == NCPoly.gen(triv.covering.pieces[0].comodule.system.alphabet, "a")
    with pytest.raises(ConfigError, match=re.escape("(-2 + q)*x reduces to (-2 + q)*x, whose leading coefficient (-2 + q) is not a unit")):
        suites.load_covering_file(str(path))


def test_formal_q_covering_file_specialises(tmp_path):
    """A covering file that loads at formal q has unit leading coefficients
    in every piece and pair system, so substituting any q0 != 0 keeps each
    left side and leaves no conflict, and gives the systems that reading
    the file at q0 builds."""
    path = tmp_path / "cover.json"
    kernels = [["y^2"], ["x", "y"], []]
    path.write_text(json.dumps({"base": "plane_gl_smash", "pieces": [{"kernel": k, "cleaving": _GL_IDENTITY} for k in kernels]}))

    def systems(triv):
        cov = triv.covering
        return [p.comodule.system for p in cov.pieces] + [d.target.system for _, d in sorted(cov.pairs.items())]

    formal = systems(suites.load_covering_file(str(path)))
    for q0 in (1, -1, 2, Fraction(1, 2), GaussRat(0, 1)):
        at_q0 = systems(suites.load_covering_file(str(path), q0))
        for f, g in zip(formal, at_q0, strict=True):
            want = oracles.substituted_system(f, builtin.q_value(q0))
            assert [r.lhs_word for r in want.rules] == [r.lhs_word for r in f.rules]
            assert not want.check_local_confluence(6).conflicts
            assert want.rules == g.rules, (q0, f.name)


def test_covering_file_too_large_to_check_is_a_config_error(tmp_path, capsys):
    """A kernel word of 10,000 letters overlaps itself in ambiguity words of
    over AMBIGUITY_CAP letters in all, so the file is refused at once rather
    than checked for minutes."""
    path = tmp_path / "cover.json"
    doc = {"base": "toeplitz_z2_smash", "pieces": [{"kernel": ["(s^1000)^10 - s"], "cleaving": {"u": "u"}}]}
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="the quotient rules of piece 0 are too large to check: overlap words exceed"):
        run_suite(mini_cfg("covering", covering=str(path)))
    assert main(["verify", "--suite", "covering", "--covering", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("CONFIG_ERROR") and "Traceback" not in err


def test_covering_file_of_hundreds_of_kernel_words_loads_in_linear_work(tmp_path, monkeypatch):
    """301 kernel words s^a*ss^b and s^a*ss^b*u of one length, none a
    subword of another. Interreduction adds each to the system it grows
    without rebuilding it, and tests only the longer left sides against a
    new one, so it makes about three rules and matches about one word per
    generator: a rebuild per generator would make n^2/2 rules, and testing
    every left side would match n^2/2 words. The file is refused as too
    large to check within the 60 s a covering file is allowed."""
    n = 150
    kernel = ["*".join(["s"] * a + ["ss"] * (n - a)) for a in range(n + 1)]
    kernel += ["*".join(["s"] * a + ["ss"] * (n - 1 - a) + ["u"]) for a in range(n)]
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"base": "toeplitz_z2_smash", "pieces": [{"kernel": kernel, "cleaving": {"u": "u"}}]}))
    calls = Counter()
    for method in ("_make_rule", "_match"):
        def counted(self, *args, _method=method, _orig=getattr(RewriteSystem, method)):
            calls[_method] += 1
            return _orig(self, *args)
        monkeypatch.setattr(RewriteSystem, method, counted)
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="the quotient rules of piece 0 are too large to check"):
        suites.load_covering_file(str(path))
    assert time.perf_counter() - start < 60
    assert calls["_make_rule"] <= 4 * len(kernel) and calls["_match"] <= 2 * len(kernel), calls


def test_verify_all_help_prints_usage_and_runs_nothing(tmp_path):
    """--help prints usage and exits 0; it is not taken as the output directory."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / "verify_all.py"), "--help"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert "usage:" in out.stdout and "outdir" in out.stdout
    assert list(tmp_path.iterdir()) == []


EXACT_SUITES = [name for name in suites.SUITES if name not in (
    "quantum-rp2", "sphere-gluing", "mattprop", "disc-decomposition", "parity-probe", "peter-weyl"
)]


def exact_certificate_counts() -> dict:
    """Run the ten exact suites at formal q and count, from the records'
    certificate ledgers, the runs of each stored certificate on each object:
    each map's relation check (``LinearMap.mismatches``), each Hopf
    algebra's ``check_hopf_axioms``, each comodule-side certificate, and
    the quotient H/J of each builtin Hopf ideal J, by name.  A certificate
    stored earlier in the interpreter would show as a read, so it runs in
    an interpreter of its own."""
    # (id, certificate) -> [object, certificate, runs]; the object stays referenced, so no id is reused
    runs = {}
    for name in EXACT_SUITES:
        report = run_suite(SuiteConfig(suite=name))
        assert report.passed, name
        for c, obj, how in (entry for rec in report.records for entry in rec.certificates):
            runs.setdefault((id(obj), c), [obj, c, 0])[2] += how == "run"
    comodule_side = ("ComoduleAlgebra.check_axioms", "CleavingMap.verify", "ActionData.module_algebra_problems",
                     "Covering.validate", "Trivialisation.validate")
    return {
        "relation_checks": [(obj.name, n) for obj, c, n in runs.values() if c == "LinearMap.mismatches"],
        "axiom_runs": [(obj.name, n) for obj, c, n in runs.values() if c == "check_hopf_axioms"],
        "certificate_runs": [(c, obj.name, n) for obj, c, n in runs.values() if c in comodule_side],
        "quotients": {J.name: sum(n for obj, c, n in runs.values() if c == "HopfIdeal.quotient"
                                  and (obj.hopf.name, obj.name) == (J.hopf.name, J.name))
                      for J in (builtin.u1_mod_z2_ideal(), builtin.gl_mod_det_ideal())},
    }


@pytest.fixture(scope="module")
def exact_counts():
    """``exact_certificate_counts`` in a fresh interpreter, where no
    certificate is stored yet."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    code = "import json, test_suites_cli as t; print(json.dumps(t.exact_certificate_counts()))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.splitlines()[-1])


def test_each_generator_map_has_its_relations_checked_once(exact_counts):
    """``LinearMap.mismatches()`` is computed once per map: no map of the exact
    suites has its relations checked twice (the sphere's pair maps and face
    coaction were checked four times each when every reader recomputed them)."""
    checks = exact_counts["relation_checks"]
    assert len(checks) > 50
    assert [(name, n) for name, n in checks if n != 1] == []


def test_each_hopf_algebra_has_its_axioms_run_once(exact_counts):
    """``check_hopf_axioms`` runs once per Hopf algebra, though the hopf-axioms
    suite and each ``Trivialisation.validate`` ask for it."""
    runs = exact_counts["axiom_runs"]
    assert {"c_z2", "o_u1", "su_q2", "gl_q2", "sl_q2"} <= {name for name, _ in runs}
    assert [(name, n) for name, n in runs if n != 1] == []


def test_each_comodule_certificate_runs_once_per_object(exact_counts):
    """Each comodule-side certificate runs once per object it certifies
    (``rewrite.stored``), though several suites and validations ask for it: when
    each call ran its body, ``toeplitz_z2_smash``'s ``check_axioms`` ran 4
    times, ``j_toeplitz_z2_smash``'s ``verify`` 3 times, and the sphere's
    covering and trivialisation were validated twice each."""
    runs = exact_counts["certificate_runs"]
    assert {c for c, _, _ in runs} == {
        "ComoduleAlgebra.check_axioms", "CleavingMap.verify", "ActionData.module_algebra_problems",
        "Covering.validate", "Trivialisation.validate",
    }
    assert {("ComoduleAlgebra.check_axioms", "toeplitz_z2_smash"), ("CleavingMap.verify", "j_toeplitz_z2_smash"),
            ("Covering.validate", "quantum_sphere_covering")} <= {(c, name) for c, name, _ in runs}
    assert [(c, name, n) for c, name, n in runs if n != 1] == []


def test_each_hopf_ideal_builds_its_quotient_once(exact_counts):
    """A Hopf ideal owns its quotient: the strong-connection and
    reduction-theorem suites both read H/J of ``<u^2-1>`` and ``<D-1>``, and
    one quotient Hopf algebra is built for each."""
    assert exact_counts["quotients"] == {"<u^2-1>": 1, "<D-1>": 1}


def _cli_records(suite: str) -> dict:
    """The records of ``pcomod verify --suite <suite>``'s JSON report, by id,
    from an interpreter of its own."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run([sys.executable, "-m", "pcomod.cli", "verify", "--suite", suite],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    return {r["id"]: r for r in json.loads(out.stdout)["records"]}


def test_records_list_the_certificates_they_run_or_read():
    """Each record lists the stored certificates computed or read back for
    it: in ``verify --suite all`` ``transition/laws`` reads the
    trivialisation's validation that ``covering/validate`` ran, and alone it
    runs it; the canonical form leaves the lists out."""
    validation = ["Trivialisation.validate", "quantum_sphere_trivialisation"]
    records = _cli_records("all")
    assert [*validation, "run"] in records["covering/validate"]["certificates"]
    assert [*validation, "read"] in records["transition/laws"]["certificates"]
    assert [*validation, "run"] in _cli_records("transition")["transition/laws"]["certificates"]
    canonical = json.loads(run_suite(SuiteConfig(suite="all")).canonical_json())
    assert [r["id"] for r in canonical["records"] if "certificates" in r] == []


def test_no_state_leaks_between_suites():
    """Builders hand every suite the same objects, so no suite may change
    them: the exact suites give the same reports run again in reverse order,
    negative controls first, and the builder outputs the mutants copy from
    stay as built."""
    first = [run_suite(SuiteConfig(suite=name)).canonical_json() for name in EXACT_SUITES]
    assert EXACT_SUITES[-1] == "negative-controls"
    again = [run_suite(SuiteConfig(suite=name)).canonical_json() for name in reversed(EXACT_SUITES)]
    assert again[::-1] == first
    # pair (0, 1) still holds the builder's own twisted map, which the mutant
    # edge-map-forgets-twist replaces only in its copy
    pairs = builtin.sphere_covering().covering.pairs
    assert pairs[(0, 1)].map_j is pairs[(1, 2)].map_j and pairs[(0, 1)].map_j.name == "pi_twisted"
    al = builtin.quantum_plane().alphabet
    parsed = {tuple(key.split(",")): parse_poly(e, al) for key, e in builtin.PLANE_ACTION.items()}
    assert builtin.plane_action_table("formal") == parsed


# Records that fail at a legal configuration where the program is not at
# fault (ROADMAP item 15).  Each leaves this table in the change that fixes it.
KNOWN_FAULTS = {
    # item 15: the status is whether the reduction data exists, not whether
    # that equals q^3 = 1, so the record fails at every integer q != 1
    "frame/consistency@q≠1": lambda rec, cfg: (
        isinstance(cfg.q, int) and cfg.q != 1 and rec.id == f"frame/consistency@q={cfg.q}"
    ),
}


@st.composite
def small_configs(draw):
    # mostly legal grids (8 | n_circle), some that run_suite must refuse
    n_circle = draw(st.integers(1, 8).map(lambda k: 8 * k) | st.integers(8, 64))
    return SuiteConfig(
        suite=draw(st.sampled_from([*suites.SUITES, "all"])),
        q=draw(st.sampled_from(["formal", 1, 2, -1, 3])),
        grid=GridConfig(n_circle=n_circle, m_interval=draw(st.integers(2, 33)),
                        seed=draw(st.sampled_from([20130915, 1, 7]))),
    )


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=small_configs())
def test_every_small_config_reports_or_is_a_config_error(cfg):
    """Every legal configuration ends in a report, every other one in a
    ConfigError, and a failing record is a known fault."""
    try:
        report = run_suite(cfg)
    except ConfigError:
        assert cfg.grid.n_circle % 8
        return
    for rec in report.records:
        if rec.status != "pass":
            assert any(known(rec, cfg) for known in KNOWN_FAULTS.values()), (rec.id, rec.status, rec.witness)


# The generators of each base of the covering-file sweep, and of its Hopf
# algebra: the letters of its words.  plane_gl_smash depends on q.
SWEEP_BASES = {
    "toeplitz_z2_smash": (("s", "ss", "u"), ("u",)),
    "toeplitz_u1_smash": (("s", "ss", "u", "ui"), ("u", "ui")),
    "plane_gl_smash": (("a", "b", "d", "x", "y"), ("a", "b", "c", "d", "Di")),
}


def malformed_entries(n: int, identity: dict) -> dict:
    """The faults of a covering file of ``n`` pieces, by name: each sets the
    given keys, and removes those set to None. ``identity`` is the identity
    cleaving of the file's base."""

    def over_the_plane(*kernels):
        return {"base": "plane_gl_smash", "base_gens": None, "pieces": [
            {"kernel": list(k), "cleaving": {g: g for g in SWEEP_BASES["plane_gl_smash"][1]}} for k in kernels
        ]}

    return {
        "base": {"base": "nope"},
        "pieces": {"pieces": []},
        "piece": {"pieces": ["x"]},
        "base_gens": {"base_gens": [[]] * (n + 1)},
        "kernel": {"pieces": [{"kernel": ["s**"], "cleaving": identity}]},
        "cleaving": {"pieces": [{"kernel": [], "cleaving": {"zz": "u"}}]},
        "zero-denominator": {"pieces": [{"kernel": ["1/0"], "cleaving": identity}]},
        "exponent-over-the-bound": {"pieces": [{"kernel": ["s^1001"], "cleaving": identity}]},
        "power-over-the-term-cap": {"pieces": [{"kernel": ["(s+ss)^17"], "cleaving": identity}]},
        "power-over-the-word-cap": {"pieces": [{"kernel": ["(s^1000)^300"], "cleaving": identity}]},
        "integer-power-over-the-scalar-cap": {"pieces": [{"kernel": ["((2^1000)^1000)^100*s"], "cleaving": identity}]},
        "q-power-over-the-scalar-cap": {"pieces": [{"kernel": ["((Q+1)^100)^10*s"], "cleaving": identity}]},
        "nested-power-over-the-coefficient-cap": {"pieces": [{"kernel": ["((2^1000*s)^1000)^10"], "cleaving": identity}]},
        "power-over-the-coefficient-cap": {"pieces": [{"kernel": ["(2^1000*s)^1000"], "cleaving": identity}]},
        "holding-a-unit": {"pieces": [{"kernel": ["-2*s"], "cleaving": identity}]},
        "conflict-past-degree-6-unit": {"pieces": [{"kernel": ["ss^6"], "cleaving": identity}]},
        "conflict-past-degree-6-idempotent": {"pieces": [{"kernel": ["s^6 - s"], "cleaving": identity}]},
        "conflict-past-degree-6-nilpotent": {"pieces": [{"kernel": ["s^7"], "cleaving": identity}]},
        "conflict-of-a-degree-6-rule": {"pieces": [{"kernel": ["s^3*ss^3 - s*ss"], "cleaving": identity}]},
        "conflict-of-a-rule-sharing-a-central-letter": {"pieces": [{"kernel": ["s*u - s", "s^12"], "cleaving": identity}]},
        "ambiguities-over-the-cap": {"pieces": [{"kernel": ["(s^1000)^10 - s"], "cleaving": identity}]},
        "negative-power-of-a-non-unit": over_the_plane(["(1+Q)^-1*x"]),
        "non-unit-leading-coefficient": over_the_plane(["y - x"], []),
    }


MALFORMED = sorted(malformed_entries(1, {}))


def with_fault(doc: dict, fault: str | None) -> dict:
    """``doc`` with the malformed entry ``fault`` applied (None: as it is)."""
    if fault:
        identity = {g: g for g in SWEEP_BASES[doc["base"]][1]}
        doc = {**doc, **malformed_entries(len(doc["pieces"]), identity)[fault]}
    return {k: v for k, v in doc.items() if v is not None}


@st.composite
def covering_files(draw):
    """Small covering files over the two Toeplitz smash products and the
    quantum plane over GL_q(2): kernels and cleavings from words of degree
    <= 2 with coefficients +-1, +-2 and +-Q, and now and then a malformed
    key. Returns the document and the name of its ``malformed_entries``
    entry, or None when it drew no fault."""
    base = draw(st.sampled_from(sorted(SWEEP_BASES)))
    gens, hgens = SWEEP_BASES[base]
    words = st.lists(st.sampled_from(gens), max_size=2).map(lambda w: "*".join(w) or "1")
    terms = st.tuples(st.sampled_from(["-2", "-1", "1", "2", "-Q", "Q"]), words).map("*".join)
    polys = st.lists(terms, min_size=1, max_size=2).map(" + ".join)
    identity = {g: g for g in hgens}
    cleavings = st.just(identity) | st.fixed_dictionaries({g: words for g in hgens})
    pieces = st.lists(
        st.fixed_dictionaries({"kernel": st.lists(polys, max_size=2), "cleaving": cleavings}), min_size=1, max_size=3
    )
    doc = {"base": base, "pieces": draw(pieces)}
    if draw(st.booleans()):
        base_gens = st.sampled_from([g for g in gens if g not in hgens])
        n = len(doc["pieces"])
        doc["base_gens"] = draw(st.lists(st.lists(base_gens, max_size=2), min_size=n, max_size=n))
    fault = draw(st.sampled_from([None] * 6 + MALFORMED))
    return with_fault(doc, fault), fault


def each_fault(test):
    """Run ``test`` on a two-piece file with each malformed entry, besides its
    random draws, which reach any one entry seldom."""
    doc = {"base": "toeplitz_z2_smash", "pieces": [{"kernel": [], "cleaving": {"u": "u"}}] * 2}
    for fault in MALFORMED:
        test = example(drawn=(with_fault(doc, fault), fault))(test)
    return test


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@each_fault
@given(drawn=covering_files())
def test_every_small_covering_file_reports_or_is_a_config_error(tmp_path, drawn):
    """The covering and transition suites end every small covering file in a
    report or a configuration error, what verify exits 2 on; any other
    exception fails the test, and so does a report on a file with a
    malformed entry."""
    doc, fault = drawn
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(doc))
    for suite in ("covering", "transition"):
        try:
            run_suite(mini_cfg(suite, covering=str(path)))
        except (ConfigError, builtin.UnknownNameError):
            continue
        assert fault is None, f"the {suite} suite reported on a file with the fault {fault!r}"


def test_hash_sweep_matches_the_manifest():
    """Every report of the sweep is byte-identical to the one the manifest hashed."""
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / "hash_sweep.py"), "--check"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stdout + out.stderr


def test_bench_record_check_names_what_a_record_lacks(tmp_path):
    """bench_record.py --check (a CI step on the committed files) names what
    an incomplete record lacks."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
    sys.path.insert(0, str(script.parent))
    try:
        import bench_record
    finally:
        sys.path.remove(str(script.parent))
    bad = tmp_path / "BENCH_3.json"
    bad.write_text(json.dumps({"n": 4, "result": {"correct": True}, "detail": {"numeric": {}}}))
    found = bench_record.problems(bad)
    assert "missing key 'tier1_wall_s'" in found
    assert "result lacks 'metrics'" in found
    assert "detail 'numeric' lacks 'machine'" in found
    assert "n = 4 does not match the file name" in found


def test_bench_pairs_compare_reads_the_bound():
    """compare keeps the claim rule and says whether the change's median is
    within the bound of the parent's; BENCHMARK.json gives each bound."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
    path = list(sys.path)
    try:
        sys.path.insert(0, str(script.parent))
        import bench_pairs
    finally:
        sys.path[:] = path
    assert bench_pairs.END_TO_END["wall_s"]["bound"] == 0.25
    parent = [1.0, 1.0, 1.1, 0.9]
    r = bench_pairs.compare(parent, [1.2, 1.3, 1.2, 1.0], 0.25)
    assert r["change"]["median"] == 1.2 and r["within_bound"] and not r["gain"]
    r = bench_pairs.compare(parent, [1.3, 1.3, 1.2, 1.3], 0.25)
    assert not r["within_bound"] and r["wins"] == 0
    r = bench_pairs.compare(parent, [0.5, 0.5, 0.5, 0.5], 0.25)
    assert r["within_bound"] and r["gain"] and r["wins"] == 4 and r["ratio"]["median"] == 0.5


def test_bench_pairs_smoke_run_against_itself():
    """bench_pairs.py with the tree as its own parent: one pair of gated
    numeric passes, a table and a JSON last line."""
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / "bench_pairs.py"), "--parent", str(root),
         "--workload", "numeric", "--pairs", "1", "--seed", "20130915"],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.strip().splitlines()
    assert any(line.startswith("wall_s") for line in lines)
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == {"parent": 0, "change": 0}
    assert (result["workload"], result["seed"], result["pairs"]) == ("numeric", 20130915, 1)
    for metric in ("wall_s", "setup_s", "cpu_s", "peak_rss_mb"):
        r = result["metrics"][metric]
        assert len(r["parent"]["runs"]) == len(r["change"]["runs"]) == 1
        assert r["parent"]["q1"] == r["parent"]["median"] == r["parent"]["q3"] > 0
        assert r["ratio"]["runs"] == [r["change"]["median"] / r["parent"]["median"]]
        assert r["wins"] in (0, 1)
