import json
import os

import pytest

from pcomod import suites
from pcomod.cli import main
from pcomod.numgeom import GridConfig
from pcomod.suites import (
    CheckRecord,
    ConfigError,
    SuiteConfig,
    SuiteReport,
    list_suites,
    run_suite,
)


def mini_cfg(suite, **kw):
    grid = GridConfig(n_circle=720, m_interval=65, seed=7, trials=10)
    return SuiteConfig(suite=suite, degree=kw.pop("degree", 2), grid=grid, trials=10,
                       mc_samples=500, **kw)


def test_run_single_suites():
    for name in ("covering", "transition", "quantum-rp2", "parity-probe"):
        rep = run_suite(mini_cfg(name))
        assert rep.passed, (name, [r for r in rep.records if r.status != "pass"])
        assert rep.exit_code == 0
        assert all(r.claim for r in rep.records)


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


def test_jobs_parallel_matches_serial():
    cfg1 = mini_cfg("all")
    cfg1.suite = "all"
    # restrict to two quick suites by monkeypatching is overkill; compare one suite with jobs
    cfg = mini_cfg("transition", jobs=4)
    rep = run_suite(cfg)
    assert rep.passed


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


def test_cli_unknown_names_are_config_errors(capsys):
    assert main(["verify", "--suite", "hopf-axioms", "--algebra", "no_such_algebra"]) == 2
    assert "CONFIG_ERROR" in capsys.readouterr().err
    assert main(["export", "--algebra", "no_such_algebra"]) == 2
    assert "CONFIG_ERROR" in capsys.readouterr().err


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
