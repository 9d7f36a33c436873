import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pcomod import builtin, suites
from pcomod.cli import main
from pcomod.exprs import parse_poly
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
    grid = GridConfig(n_circle=720, m_interval=65, seed=7)
    return SuiteConfig(suite=suite, grid=grid, **{"degree": 2, "trials": 10, "mc_samples": 500, **kw})


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
    """Neither "jobs" nor "trunc" is a flag; the report keeps both as constants."""
    params = run_suite(mini_cfg("transition")).params
    for key, value in (("jobs", 1), ("trunc", 64)):
        assert params[key] == value
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "transition", f"--{key}", "2"])
        assert exc.value.code == 2
        assert f"--{key}" in capsys.readouterr().err


EXAMPLE_COVERING = str(Path(__file__).resolve().parents[1] / "scripts" / "example_covering.json")
DEFAULT_PARAMS = ["suite", "degree", "q", "grid_circle", "grid_interval", "tol", "trunc", "seed", "trials", "jobs"]


def test_params_name_the_covering_and_the_algebra():
    """A report says which covering file or algebra it checked; a default
    report keeps exactly the keys of the reference reports."""
    builtin_cover = run_suite(SuiteConfig(suite="covering"))
    assert list(builtin_cover.params) == DEFAULT_PARAMS
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


@pytest.mark.parametrize("suite, algebra", [("hopf-axioms", "toeplitz"), ("comodule-axioms", "su_q2")])
def test_cli_algebra_of_the_wrong_kind_is_a_config_error(capsys, suite, algebra):
    assert main(["verify", "--suite", suite, "--algebra", algebra]) == 2
    assert "CONFIG_ERROR" in capsys.readouterr().err


def test_cli_algebra_restricts_only_the_axiom_suite_that_has_it(capsys):
    args = ["--degree", "2", "--trials", "10", "--samples", "500", "--grid-interval", "65"]
    assert main(["verify", "--suite", "all", "--algebra", "su_q2", *args]) == 0
    ids = [r["id"] for r in json.loads(capsys.readouterr().out)["records"]]
    assert [i for i in ids if i.startswith("hopf-axioms/")] == ["hopf-axioms/su_q2"]
    assert not [i for i in ids if i.startswith("comodule-axioms/")]
    assert "covering/validate" in ids


@pytest.mark.parametrize(
    "suite, flag, value",
    [("peter-weyl", "--samples", "0"), ("parity-probe", "--trials", "0"), ("covering", "--degree", "-1"),
     ("covering", "--degree", "0"), ("hopf-axioms", "--q", "0")],
)
def test_cli_counts_below_one_are_config_errors(capsys, suite, flag, value):
    assert main(["verify", "--suite", suite, flag, value]) == 2
    assert "CONFIG_ERROR" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["1", "2", "3"])
def test_cli_peter_weyl_at_a_few_samples_reports(capsys, samples):
    """Every sample falls in the a-patch at these sample counts at the
    default seed, so the c-patch is empty; the suite still reports every
    identity."""
    assert main(["verify", "--suite", "peter-weyl", "--samples", samples]) == 0
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
    """At nan or tol <= 0 every numeric check would fail, at inf every one pass."""
    assert main(["verify", "--suite", "sphere-gluing", "--tol", tol]) == 2
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
    ],
    ids=[
        "kernel", "cleaving", "pieces-not-a-list", "no-pieces", "piece-not-an-object",
        "kernel-not-strings", "base-gens-not-lists", "base-gens-unknown", "cleaving-not-an-object",
        "cleaving-misses-a-generator", "cleaving-not-an-algebra-map", "kernel-tensor-that-cancels",
    ],
)
def test_covering_file_that_does_not_parse_is_a_config_error(tmp_path, capsys, doc, match):
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"base": "toeplitz_z2_smash", **doc}))
    with pytest.raises(ConfigError, match=match):
        run_suite(mini_cfg("transition", covering=str(path)))
    assert main(["verify", "--suite", "transition", "--covering", str(path)]) == 2
    assert "CONFIG_ERROR" in capsys.readouterr().err


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


def test_no_state_leaks_between_suites():
    """Builders hand every suite the same objects, so no suite may change
    them: the exact suites give the same reports run again in reverse order,
    negative controls first, and the builder outputs the mutants copy from
    stay as built."""
    first = [run_suite(SuiteConfig(suite=name)).canonical_json() for name in EXACT_SUITES]
    assert EXACT_SUITES[-1] == "negative-controls"
    again = [run_suite(SuiteConfig(suite=name)).canonical_json() for name in reversed(EXACT_SUITES)]
    assert again[::-1] == first
    assert builtin.sphere_covering().covering.pairs[(0, 1)].map_j.name == "pi^1_0"
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
    # item 15: with k = trials control loops all parities agree with
    # probability about 2^(1-k), so at small trials the record fails by chance
    "parity/control-both-parities": lambda rec, cfg: (
        cfg.trials <= 10 and rec.id == "parity/control-both-parities"
    ),
}


@st.composite
def small_configs(draw):
    # mostly legal grids (8 | n_circle), some that run_suite must refuse
    n_circle = draw(st.integers(1, 8).map(lambda k: 8 * k) | st.integers(8, 64))
    return SuiteConfig(
        suite=draw(st.sampled_from([*suites.SUITES, "all"])),
        degree=draw(st.integers(1, 3)),
        q=draw(st.sampled_from(["formal", 1, 2, -1, 3])),
        grid=GridConfig(n_circle=n_circle, m_interval=draw(st.integers(2, 33)),
                        seed=draw(st.sampled_from([20130915, 1, 7]))),
        trials=draw(st.integers(1, 10)),
        mc_samples=draw(st.integers(1, 5)),
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
