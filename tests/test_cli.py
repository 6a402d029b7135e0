"""Command-line contract: exit codes, artifacts, determinism."""

import argparse
import csv
import filecmp
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from geoflow import cli, fixtures, numdiff
from geoflow.comparison import _GRID


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_meta(out):
    with open(out / "metadata.json") as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader]
    return header, rows


# ------------------------------------------------------------------- chain


def test_chain_small_run(tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, _ = run(["chain", "--n-beads", "3", "--t-plus", "2",
                           "--out", str(out)], capsys)
    assert code == 0
    assert stdout.strip() == "warming-faster"
    header, rows = read_csv(out / "trajectory.csv")
    assert header[:4] == ["t", "F_plus", "F_minus", "delta_F"]
    assert header[4:] == ["a1_plus", "a1_minus", "a2_plus", "a2_minus"]
    delta = np.array([float(r[3]) for r in rows])
    assert delta.min() >= -1e-9
    assert float(rows[0][1]) == pytest.approx(float(rows[0][2]), rel=1e-9)
    # modes.csv is the one record of each mode's rate and verdict
    assert read_meta(out)["verdicts"] == ["warming-faster"]
    header, rows = read_csv(out / "modes.csv")
    assert [r[header.index("mode")] for r in rows] == ["1", "2"]
    assert all(r[header.index("verdict")] == "Curve1Faster" for r in rows)


@pytest.mark.parametrize("n_beads,t_plus", [(4, 1.5), (11, 2)])
def test_chain_deterministic(tmp_path, capsys, n_beads, t_plus):
    for name in ("one", "two"):
        code, stdout, _ = run(["chain", "--n-beads", str(n_beads),
                               "--t-plus", str(t_plus),
                               "--out", str(tmp_path / name)], capsys)
        assert code == 0
        assert stdout.strip() == "warming-faster"
    header, rows = read_csv(tmp_path / "one" / "trajectory.csv")
    assert len(rows) > 100
    assert min(float(r[header.index("delta_F")]) for r in rows) >= -1e-9
    for table in ("trajectory", "coincidences", "modes"):
        assert filecmp.cmp(tmp_path / "one" / f"{table}.csv",
                           tmp_path / "two" / f"{table}.csv", shallow=False)


def test_chain_degenerate_pair_inconclusive(tmp_path, capsys):
    code, stdout, _ = run(["chain", "--n-beads", "2", "--t-plus", "1",
                           "--out", str(tmp_path / "deg")], capsys)
    assert code == 3
    assert stdout.strip() == "inconclusive"
    _, rows = read_csv(tmp_path / "deg" / "trajectory.csv")
    assert len(rows) == _GRID
    assert all(float(r[3]) == 0.0 for r in rows)


def test_chain_rejects_bad_parameters(tmp_path, capsys):
    # config values go through the same finite cast as the flags; at
    # three beads a t_plus from 2.82e102 up overflows the metric's
    # partials to zero
    ini = tmp_path / "inf.ini"
    ini.write_text("[chain]\nt_plus = inf\n")
    for argv in (["chain", "--n-beads", "1"],
                 ["chain", "--t-plus", "0.5"],
                 ["chain", "--n-beads", "x"],
                 ["chain", "--t-plus", "inf"],
                 ["chain", "--t-plus", "nan"],
                 ["chain", "--n-beads", "3", "--t-plus", "3e102"],
                 ["chain", "--n-beads", "3", "--t-plus", "1e154"],
                 ["chain", "--n-beads", "3", "--t-plus", "1e300"],
                 # each curve ends at its own stop: --t-end is unknown
                 ["chain", "--t-end", "5"],
                 ["chain", "--config", str(ini)]):
        code, _, err = run(argv + ["--out", str(tmp_path / "nope")], capsys)
        assert code == 1
        assert "config error" in err
    ini.write_text("[chain]\nt_end = 5\n")
    code, stdout, err = run(["chain", "--config", str(ini),
                             "--out", str(tmp_path / "nope")], capsys)
    assert (code, stdout) == (1, "")
    assert "config error: [chain] t_end: unknown key" in err
    assert not (tmp_path / "nope").exists()


def test_chain_config_file_and_flag_precedence(tmp_path, capsys):
    ini = tmp_path / "chain.ini"
    ini.write_text("# experiment\n"
                   "[run]\n"
                   f"out = {tmp_path / 'from_cfg'}\n"
                   "[chain]\n"
                   "n_beads = 4   ; inline comment\n"
                   "t_plus = 1.5\n")
    code, stdout, _ = run(["chain", "--config", str(ini)], capsys)
    assert code == 0 and stdout.strip() == "warming-faster"
    meta = read_meta(tmp_path / "from_cfg")
    assert meta["config"]["n_beads"] == 4
    assert meta["seed"] is None
    # the race takes no horizon, so none is recorded
    assert sorted(meta["config"]) == ["derived", "n_beads", "t_plus"]

    code, _, _ = run(["chain", "--config", str(ini), "--n-beads", "3",
                      "--out", str(tmp_path / "flagged")], capsys)
    assert code == 0
    assert read_meta(tmp_path / "flagged")["config"]["n_beads"] == 3


# main builds its parser once per process; each test below calls it again


def test_config_defaults_do_not_outlive_their_call(tmp_path, capsys):
    ini = tmp_path / "five.ini"
    ini.write_text("[chain]\nn_beads = 5\n")
    assert run(["chain", "--config", str(ini),
                "--out", str(tmp_path / "cfg")], capsys)[0] == 0
    assert read_meta(tmp_path / "cfg")["config"]["n_beads"] == 5
    assert run(["chain", "--out", str(tmp_path / "plain")], capsys)[0] == 0
    assert read_meta(tmp_path / "plain")["config"]["n_beads"] == 11


def test_help_twice_in_one_process(capsys):
    for argv in (["--help"], ["--help"], ["chain", "--help"],
                 ["chain", "--help"]):
        assert cli.main(argv) == 0
        assert "usage: geoflow" in capsys.readouterr().out


def test_a_config_error_leaves_the_next_call_intact(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[chain]\nn_beads = five\n")
    code, _, err = run(["chain", "--config", str(ini),
                        "--out", str(tmp_path / "bad")], capsys)
    assert code == 1 and "n_beads" in err
    assert run(["chain", "--no-such-flag"], capsys)[0] == 1
    code, stdout, _ = run(["chain", "--n-beads", "3",
                           "--out", str(tmp_path / "good")], capsys)
    assert (code, stdout.strip()) == (0, "warming-faster")
    assert read_meta(tmp_path / "good")["config"]["n_beads"] == 3


def test_a_model_registered_later_is_accepted(tmp_path, capsys, monkeypatch):
    argv = ["compare", "--model", "bowl-again", "--out", str(tmp_path / "r")]
    code, _, err = run(argv, capsys)
    assert code == 1 and "bowl-again" in err
    monkeypatch.setitem(fixtures.COMPARE_MODELS, "bowl-again",
                        fixtures.COMPARE_MODELS["euclidean-quadratic"])
    code, stdout, _ = run(argv, capsys)
    assert (code, stdout.strip()) == (3, "Inconclusive")


def test_config_keys_nothing_reads_are_rejected(tmp_path, capsys):
    # a misspelt key, a key another subcommand owns, a section no
    # subcommand has: each exits 1 naming the section and the key
    cases = {"[chain]\nn_bead = 4\n": "[chain] n_bead",
             "[chain]\ntol = 1e-8\n": "[chain] tol",
             "[compare]\nseed = 3\n": "[compare] seed",
             "[run]\nn_bead = 4\n": "[run] n_bead",
             "[chains]\nn_beads = 4\n": "[chains]"}
    ini = tmp_path / "bad.ini"
    for body, named in cases.items():
        ini.write_text(body)
        code, stdout, err = run(["chain", "--config", str(ini),
                                 "--out", str(tmp_path / "nope")], capsys)
        assert code == 1 and stdout == ""
        assert "config error" in err and named in err
    assert not (tmp_path / "nope").exists()


def test_default_section_is_an_unknown_section(tmp_path, capsys):
    # configparser would fold [DEFAULT] into every section, beating [run]
    # wherever the subcommand's own section exists; it is refused instead
    ini = tmp_path / "default.ini"
    for body in ("[DEFAULT]\nn_beads = 3\n[run]\nn_beads = 4\n[chain]\n",
                 "[DEFAULT]\nn_beads = 3\n[run]\nn_beads = 4\n",
                 "[DEFAULT]\n[chain]\nn_beads = 4\n"):
        ini.write_text(body)
        code, stdout, err = run(["chain", "--config", str(ini),
                                 "--out", str(tmp_path / "nope")], capsys)
        assert code == 1 and stdout == ""
        assert err.startswith("config error: [DEFAULT]: unknown section")
    assert not (tmp_path / "nope").exists()


def test_config_values_are_cast_by_the_flags_types(tmp_path, capsys):
    ini = tmp_path / "cast.ini"
    cases = (("chain", "[chain]\nt_plus = inf\n", "[chain] t_plus"),
             ("chain", "[run]\nn_beads = 4.5\n", "[run] n_beads"),
             ("compare", "[compare]\nmodel = nope\n", "[compare] model"))
    for command, body, named in cases:
        ini.write_text(body)
        code, stdout, err = run([command, "--config", str(ini),
                                 "--out", str(tmp_path / "nope")], capsys)
        assert code == 1 and stdout == ""
        assert err.startswith(f"config error: {named}: cannot parse")
    assert not (tmp_path / "nope").exists()


@pytest.mark.parametrize("value,code,verdict", [
    ("yes", 2, "checks-failed"), ("no", 0, "all-checks-passed")])
def test_config_sets_a_store_true_flag(tmp_path, capsys, value, code,
                                       verdict):
    ini = tmp_path / "neg.ini"
    ini.write_text(f"[verify]\nnegative_control = {value}\n"
                   "suite = straightening\n")
    got = run(["verify", "--config", str(ini),
               "--out", str(tmp_path / "neg")], capsys)
    assert got[:2] == (code, verdict + "\n")
    config = read_meta(tmp_path / "neg")["config"]
    assert config["negative_control"] is (value == "yes")


def test_config_values_are_literal(tmp_path, capsys):
    # a '%' is no interpolation syntax
    out = tmp_path / "run-50%"
    ini = tmp_path / "pct.ini"
    ini.write_text(f"[run]\nout = {out}\n[chain]\nn_beads = 3\n")
    code, stdout, _ = run(["chain", "--config", str(ini)], capsys)
    assert code == 0 and stdout.strip() == "warming-faster"
    assert read_meta(out)["config"]["n_beads"] == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pct.ini",
                                                          "run-50%"]


def test_malformed_config_is_line_anchored(tmp_path, capsys):
    ini = tmp_path / "broken.ini"
    ini.write_text("[chain\nn_beads = 4\n")
    code, _, err = run(["chain", "--config", str(ini)], capsys)
    assert code == 1
    assert "line" in err


def test_missing_config_file(tmp_path, capsys):
    code, _, err = run(["chain", "--config", str(tmp_path / "none.ini")],
                       capsys)
    assert code == 1
    assert "config error" in err


# ----------------------------------------------------------------- compare


def test_compare_default_model_warming_wins(tmp_path, capsys):
    out = tmp_path / "cmp"
    code, stdout, _ = run(["compare", "--out", str(out)], capsys)
    assert code == 0
    assert stdout.strip() == "Curve1Faster"
    header, rows = read_csv(out / "report.csv")
    assert header == ["t", "f1", "f2", "delta_f"]
    assert len(rows) > 100
    # the race takes no connection parameter, so none is recorded
    assert sorted(read_meta(out)["config"]) == [
        "direction1", "direction2", "level", "model", "t_end", "tol"]


@pytest.mark.parametrize("model", list(fixtures.COMPARE_MODELS))
def test_compare_deterministic(tmp_path, capsys, model):
    # the integrated route: two runs of one model write the same bytes
    codes = []
    for name in ("one", "two"):
        code, _, _ = run(["compare", "--model", model,
                          "--out", str(tmp_path / name)], capsys)
        codes.append(code)
    assert codes[0] == codes[1] in (0, 3)
    for table in ("report", "coincidences"):
        assert filecmp.cmp(tmp_path / "one" / f"{table}.csv",
                           tmp_path / "two" / f"{table}.csv", shallow=False)


def test_compare_symmetric_bowl_inconclusive(tmp_path, capsys):
    code, stdout, _ = run(["compare", "--model", "euclidean-quadratic",
                           "--out", str(tmp_path / "sym")], capsys)
    assert code == 3
    assert stdout.strip() == "Inconclusive"
    verdicts = read_meta(tmp_path / "sym")["verdicts"]
    assert any("zero-gap" in v for v in verdicts)


def test_compare_seeds_near_the_chart_edge(tmp_path, capsys):
    code, stdout, err = run(["compare", "--model", "gaussian-mode",
                             "--level", "1", "--out", str(tmp_path / "edge")],
                            capsys)
    assert (code, stdout.strip(), err) == (0, "Curve1Faster", "")


@pytest.mark.parametrize("level", ["1e-10", "1e-14"])
def test_compare_near_the_minimum_ends_in_a_verdict(tmp_path, capsys, level):
    # this close to the minimum the speed gap is roundoff and Illinois
    # alone crawls on 14 and 28 brackets: bisection must close them, so the
    # race ends in a verdict, not in NonConvergenceError (exit 2)
    code, stdout, err = run(["compare", "--model", "gaussian-mode",
                             "--level", level, "--out", str(tmp_path / "low")],
                            capsys)
    assert (code, stdout.strip()) == (3, "Inconclusive")
    assert "Error" not in err


@pytest.mark.parametrize("argv", [
    ["chain", "--n-beads", "3"], ["compare"], ["curvature"],
    ["verify", "--suite", "manifold-core"]])
def test_every_command_records_its_wall_time(tmp_path, capsys, argv):
    # pins the metadata contract: each bundle carries its wall time
    run(argv + ["--out", str(tmp_path / "out")], capsys)
    wall = read_meta(tmp_path / "out")["wall_time_s"]
    assert isinstance(wall, float) and wall > 0.0


def test_compare_accepts_negative_vectors(tmp_path, capsys):
    # "-0.3,0.5" is no plain negative number, so argparse would read it
    # as an option; the "--flag=value" form must keep working alongside
    runs = {"spaced": ["--direction1", "-0.3,0.5", "--direction2", "0.5,-0.3"],
            "joined": ["--direction1=-0.3,0.5", "--direction2=0.5,-0.3"]}
    for name, dirs in runs.items():
        code, stdout, _ = run(["compare", "--model", "euclidean-quadratic",
                               *dirs, "--t-end", "1",
                               "--out", str(tmp_path / name)], capsys)
        assert code == 3 and stdout.strip() == "Inconclusive"
        config = read_meta(tmp_path / name)["config"]
        assert config["direction1"] == [-0.3, 0.5]
        assert config["direction2"] == [0.5, -0.3]
    assert filecmp.cmp(tmp_path / "spaced" / "report.csv",
                       tmp_path / "joined" / "report.csv", shallow=False)


def test_compare_seeds_along_a_tiny_direction(tmp_path, capsys):
    # the direction's norm underflows to 0; it seeds as its unit vector
    code, stdout, err = run(["compare", "--model", "gaussian-mode",
                             "--direction1=-1e-200",
                             "--out", str(tmp_path / "tiny")], capsys)
    assert (code, stdout.strip(), err) == (0, "Curve1Faster", "")
    run(["compare", "--model", "gaussian-mode",
         "--out", str(tmp_path / "default")], capsys)
    assert filecmp.cmp(tmp_path / "tiny" / "report.csv",
                       tmp_path / "default" / "report.csv", shallow=False)
    code, stdout, _ = run(["compare", "--model", "euclidean-quadratic",
                           "--direction1=1e-300,0", "--t-end", "1",
                           "--out", str(tmp_path / "bowl")], capsys)
    assert (code, stdout.strip()) == (3, "Inconclusive")


def test_compare_unreachable_level_is_numerical_failure(tmp_path, capsys):
    code, _, err = run(["compare", "--model", "hessian-exp",
                        "--level", "1e9",
                        "--out", str(tmp_path / "far")], capsys)
    assert code == 2
    assert "numerical failure" in err


def test_memory_error_is_numerical_failure(tmp_path, capsys, monkeypatch):
    # an array too large for the machine is no configuration error; the
    # experiment is stubbed, as a real one at that size would need ~80 GB
    def too_large(*args):
        raise MemoryError("Unable to allocate 80.0 GiB for an array")

    monkeypatch.setattr(cli, "universal_asymmetry_experiment", too_large)
    code, stdout, err = run(["chain", "--n-beads", "5",
                             "--out", str(tmp_path / "oom")], capsys)
    assert code == 2 and stdout == ""
    assert err.splitlines() == ["numerical failure: MemoryError: Unable to "
                                "allocate 80.0 GiB for an array"]
    assert not (tmp_path / "oom").exists()


def test_compare_bad_invocations(tmp_path, capsys):
    cases = (["compare", "--model", "nope"],
             ["compare", "--direction1", "1,0"],
             ["compare", "--direction1", "0"],
             ["compare", "--direction1", "nan,0"],
             ["compare", "--level", "-1"],
             ["compare", "--level", "inf"],
             # the race takes no connection parameter: --lam is unknown
             ["compare", "--lam", "0"],
             ["compare", "--t-end", "0"],
             ["compare", "--t-end", "-1"],
             ["compare", "--tol", "-1"],
             # below 100 eps RK45 would run at its floor while metadata.json
             # recorded the unused value; at 1e300 a step left the chart
             ["compare", "--model", "gaussian-mode", "--tol", "1e-300"],
             ["compare", "--model", "gaussian-mode", "--tol", "2.2e-14"],
             ["compare", "--model", "gaussian-mode", "--tol", "1"],
             ["compare", "--model", "gaussian-mode", "--tol", "1e300"])
    for argv in cases:
        code, _, err = run(argv + ["--out", str(tmp_path / "bad")], capsys)
        assert code == 1
        assert "config error" in err
    ini = tmp_path / "lam.ini"
    for sec in ("compare", "run"):
        ini.write_text(f"[{sec}]\nlam = 0\n")
        code, stdout, err = run(["compare", "--config", str(ini),
                                 "--out", str(tmp_path / "bad")], capsys)
        assert (code, stdout) == (1, "")
        assert "config error" in err and f"[{sec}] lam: unknown key" in err
    assert not (tmp_path / "bad").exists()


def test_compare_runs_at_the_integrators_tolerance_floor(tmp_path, capsys):
    # the smallest tolerance RK45 honours is accepted and recorded as used
    floor = 100.0 * float(np.finfo(float).eps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, _ = run(["compare", "--model", "gaussian-mode",
                               "--tol", repr(floor),
                               "--out", str(tmp_path / "floor")], capsys)
    assert (code, stdout.strip()) == (0, "Curve1Faster")
    assert read_meta(tmp_path / "floor")["config"]["tol"] == floor


def test_compare_dense_output_outside_the_chart_is_a_numerical_failure(
        tmp_path, capsys):
    # at tol 0.5 the interpolant between two in-chart steps leaves the
    # variance half-line; the typed error exits 2, not a traceback
    code, stdout, err = run(["compare", "--model", "gaussian-mode",
                             "--tol", "0.5", "--out", str(tmp_path / "c")],
                            capsys)
    assert (code, stdout) == (2, "")
    assert "numerical failure: DomainExitError" in err


# ------------------------------------------------------------------ verify


def test_verify_single_suite_passes(tmp_path, capsys):
    out = tmp_path / "ver"
    code, stdout, _ = run(["verify", "--suite", "fujiwara-amari",
                           "--out", str(out)], capsys)
    assert code == 0
    assert stdout.strip() == "all-checks-passed"
    header, rows = read_csv(out / "checks.csv")
    assert header == ["suite", "check", "passed", "measured", "tolerance",
                      "detail"]
    assert rows and all(r[0] == "fujiwara-amari" for r in rows)
    assert all(r[2] == "true" for r in rows)


def test_verify_negative_control_fails(tmp_path, capsys):
    code, stdout, _ = run(["verify", "--suite", "straightening",
                           "--negative-control",
                           "--out", str(tmp_path / "neg")], capsys)
    assert code == 2
    assert stdout.strip() == "checks-failed"
    _, rows = read_csv(tmp_path / "neg" / "checks.csv")
    failed = [r[1] for r in rows if r[2] == "false"]
    assert failed == ["closed-form-nonmetricity"]


@pytest.mark.parametrize("suite", ["manifold-core", "gradient-flow",
                                   "fujiwara-amari", "gaussian-chain"])
def test_negative_control_needs_the_straightening_suite(tmp_path, capsys,
                                                        suite):
    # the flipped check is a straightening one: any other suite would
    # pass the control, which could then never fail
    code, stdout, err = run(["verify", "--suite", suite,
                             "--negative-control",
                             "--out", str(tmp_path / "neg")], capsys)
    assert (code, stdout) == (1, "")
    assert err.startswith("config error: --negative-control needs the "
                          "straightening suite")
    assert not (tmp_path / "neg").exists()
    from geoflow import verify
    with pytest.raises(ValueError, match="straightening suite"):
        verify.run_suites(suites=[suite], flip_nonmetricity_sign=True)


def test_verify_seed_config_and_flag_precedence(tmp_path, capsys):
    ini = tmp_path / "verify.ini"
    ini.write_text("[run]\n"
                   "seed = 9\n"
                   f"out = {tmp_path / 'from_cfg'}\n")
    argv = ["verify", "--config", str(ini), "--suite", "manifold-core"]
    code, stdout, _ = run(argv, capsys)
    assert code == 0 and stdout.strip() == "all-checks-passed"
    assert read_meta(tmp_path / "from_cfg")["seed"] == 9

    code, _, _ = run(argv + ["--seed", "3", "--out", str(tmp_path / "flagged")],
                     capsys)
    assert code == 0
    assert read_meta(tmp_path / "flagged")["seed"] == 3


def test_verify_accepts_every_suite_name(tmp_path, capsys, monkeypatch):
    from geoflow import verify

    chosen = []
    monkeypatch.setattr(verify, "run_suites",
                        lambda seed, suites, **kw: chosen.append(suites) or [])
    for name in verify.SUITE_NAMES:
        code, _, _ = run(["verify", "--suite", name,
                          "--out", str(tmp_path / name)], capsys)
        assert code == 0
    assert chosen == [[name] for name in verify.SUITE_NAMES]


def test_verify_rejects_unknown_suite(tmp_path, capsys):
    # by flag or by config, before any suite runs and with no bundle
    ini = tmp_path / "suite.ini"
    ini.write_text("[verify]\nsuite = bogus\n")
    for argv in (["verify", "--suite", "bogus"],
                 ["verify", "--config", str(ini)]):
        code, stdout, err = run(argv + ["--out", str(tmp_path / "x")], capsys)
        assert (code, stdout) == (1, "")
        assert err.startswith("config error: suite 'bogus': expected one of")
    assert not (tmp_path / "x").exists()


def test_verify_rejects_a_negative_seed(tmp_path, capsys):
    # numpy's default_rng([seed, i]) takes no negative entry; the seed is
    # refused as a bad invocation before any suite runs
    ini = tmp_path / "seed.ini"
    ini.write_text("[verify]\nseed = -1\n")
    for argv in (["verify", "--seed", "-1"],
                 ["verify", "--config", str(ini)]):
        code, stdout, err = run(argv + ["--out", str(tmp_path / "x")], capsys)
        assert (code, stdout) == (1, "")
        assert err == "config error: seed must be non-negative\n"
    assert not (tmp_path / "x").exists()


# --------------------------------------------------------------- curvature


def test_curvature_scan_flags_singularity(tmp_path, capsys):
    out = tmp_path / "curv"
    code, _, _ = run(["curvature", "--out", str(out)], capsys)
    assert code == 0
    header, rows = read_csv(out / "curvature.csv")
    assert header == ["a_ratio", "s_closed_form", "s_numeric", "rel_error",
                      "status"]
    assert len(rows) == 25
    by_ratio = {float(r[0]): r for r in rows}
    singular = by_ratio[1.0]
    assert singular[4] == "singular" and singular[1] == "nan"
    at_two = by_ratio[2.0]
    assert float(at_two[1]) == pytest.approx(-6.0, rel=1e-10)
    assert float(at_two[2]) == pytest.approx(-6.0, rel=1e-4)
    at_five = by_ratio[5.0]
    assert abs(float(at_five[1])) < 1e-12
    oks = [r for r in rows if r[4] == "ok"]
    assert len(oks) == 24
    assert max(float(r[3]) for r in oks) < 1e-4


def test_curvature_custom_grid(tmp_path, capsys):
    code, _, _ = run(["curvature", "--grid-start", "2", "--grid-stop", "2",
                      "--grid-points", "1",
                      "--out", str(tmp_path / "c1")], capsys)
    assert code == 0
    _, rows = read_csv(tmp_path / "c1" / "curvature.csv")
    assert len(rows) == 1 and rows[0][4] == "ok"
    # a grid on the singular point alone computes no numeric curvature
    code, _, _ = run(["curvature", "--grid-start", "1", "--grid-stop", "1",
                      "--grid-points", "1",
                      "--out", str(tmp_path / "c5")], capsys)
    assert code == 0
    _, rows = read_csv(tmp_path / "c5" / "curvature.csv")
    assert rows == [["1.000000000000e+00", "nan", "nan", "nan", "singular"]]
    code, _, _ = run(["curvature", "--grid-start", "0",
                      "--out", str(tmp_path / "c2")], capsys)
    assert code == 1
    code, _, err = run(["curvature", "--grid-points", "0",
                        "--out", str(tmp_path / "c6")], capsys)
    assert code == 1 and "grid-points" in err
    code, _, err = run(["curvature", "--grid-stop", "inf",
                        "--out", str(tmp_path / "c4")], capsys)
    assert code == 1 and "config error" in err
    code, _, _ = run(["curvature", "--model", "euclidean-quadratic",
                      "--out", str(tmp_path / "c3")], capsys)
    assert code == 1
    # a cell whose stencil lands on a* (a* = 1 for two beads) is a typed
    # numerical failure, not a traceback
    edge = repr(1.0 / (1.0 - numdiff.STEP_COEFFS))
    code, stdout, err = run(["curvature", "--grid-start", edge,
                             "--grid-stop", edge, "--grid-points", "1",
                             "--out", str(tmp_path / "c7")], capsys)
    assert (code, stdout) == (2, "")
    assert "numerical failure: StepUnderflowError" in err


# ------------------------------------------------------------------- misc


@pytest.mark.parametrize("argv,stub", [
    (["chain", "--n-beads", "3"], "universal_asymmetry_experiment"),
    (["compare"], "compare")])
def test_unwritable_out_is_a_config_error(tmp_path, capsys, monkeypatch,
                                          argv, stub):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    real = getattr(cli, stub)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, stub, counted)
    # an existing file is refused before any computation
    code, stdout, err = run(argv + ["--out", str(taken)], capsys)
    assert (code, stdout, calls) == (1, "", [])
    assert len(err.splitlines()) == 1
    assert err.startswith("config error: ") and "not a directory" in err
    # a path below a file fails only when the bundle is written
    code, stdout, err = run(argv + ["--out", str(taken / "run")], capsys)
    assert (code, stdout, calls) == (1, "", [1])
    assert len(err.splitlines()) == 1
    assert err.startswith("config error: cannot write")
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("command", ["chain", "compare", "verify",
                                     "curvature"])
def test_help_shows_the_declared_defaults(capsys, command):
    assert cli.main([command, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    actions = cli._build_parser().commands[command]._actions
    shown = [a.default for a in actions
             if a.default not in (None, argparse.SUPPRESS) and a.nargs != 0]
    assert "geoflow-out" in shown
    for default in shown:
        assert f"(default {default})" in text


def test_unknown_command_and_flag(tmp_path, capsys):
    assert run(["frobnicate"], capsys)[0] == 1
    assert run(["chain", "--no-such-flag"], capsys)[0] == 1
    # --seed and --tol exist only where they are read
    for argv in (["chain", "--seed", "1"], ["chain", "--tol", "1e-9"],
                 ["compare", "--seed", "1"], ["curvature", "--tol", "1e-9"],
                 ["verify", "--tol", "1e-9"]):
        assert run(argv, capsys)[0] == 1


_POINTWISE_RUN = """
import sys

import numpy as np

import geoflow
from geoflow import cli, fixtures
from geoflow.gaussian_chain import (
    ChainSpec, chain_manifold, mode_plane_manifold, spectrum)
from geoflow.straightening import (
    nonmetricity_tensor, pregeodesic_residual, scalar_curvature,
    straightening_connection)

spect = spectrum(ChainSpec(6))
for (g, f), x in ((chain_manifold(spect), 0.7 * spect.a_star),
                  (mode_plane_manifold(spect, 0),
                   np.array([0.1, 0.7 * spect.a_star[0]]))):
    conn = straightening_connection(g, f, 0.0)
    for value in (pregeodesic_residual(g, f, 0.0, x),
                  nonmetricity_tensor(conn, g, x), scalar_curvature(conn, x)):
        assert np.all(np.isfinite(value))
assert cli.main(["curvature", "--out", sys.argv[1]]) == 0
assert cli.main(["chain", "--n-beads", "3",
                 "--out", sys.argv[1] + "-chain"]) == 0
assert cli.main(["chain", "--help"]) == 0
assert cli.main(["compare", "--tol", "1e-300", "--out", sys.argv[1]]) == 1
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"
          or m in ("geoflow.verify", "configparser")]
assert not loaded, loaded
"""


def test_pointwise_paths_never_load_scipy(tmp_path):
    # scipy is imported where a flow or a Brent solve first runs, the
    # battery by verify alone and configparser by --config alone, so the
    # import, the pointwise geometry, the curvature and chain commands,
    # --help and config errors load none of them; a compare in a fresh
    # process still loads scipy on demand
    proc = subprocess.run(
        [sys.executable, "-c", _POINTWISE_RUN, str(tmp_path / "curv")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run(
        [sys.executable, "-m", "geoflow.cli", "compare", "--model",
         "gaussian-mode", "--out", str(tmp_path / "cmp")],
        capture_output=True, text=True)
    assert (proc.returncode, proc.stdout.strip()) == (0, "Curve1Faster")


def test_entry_point_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "geoflow.cli", "chain", "--n-beads", "3",
         "--t-plus", "1.5", "--out", str(tmp_path / "sp")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "warming-faster"
