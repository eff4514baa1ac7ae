"""End-to-end CLI contract: exit codes, report schema, determinism, CSV."""

import csv
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from brightlab import cli, tomography
from brightlab.body import FAMILIES
from brightlab.lemma_lab import (
    FalsificationReport,
    antipodal_falsification,
    enumerate_candidates,
    find_hypothesis_solutions,
    hypothesis_residual,
    match_candidates,
)

ROOT = Path(__file__).resolve().parents[1]
BALL_3D = {"family": "ball", "params": {"dim": 3, "radius": 1.0}}


def run_python(*args, cwd):
    # the subprocess runs in cwd, so a relative PYTHONPATH would not resolve
    pythonpath = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))},
    )


def run_cli(*args, cwd):
    return run_python("-m", "brightlab.cli", *args, cwd=cwd)


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def mode_of(scenario, key):
    """{"mode": m} for the first mode of ``scenario`` that reads ``key``, or {}."""
    entry = cli._SCENARIOS[scenario]
    if isinstance(entry, cli.Scenario):
        return {}
    return {"mode": next(mode for mode, spec in entry.items() if key in spec.defaults)}


class TestExitCodes:
    def test_passing_scenario_exits_zero(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"scenario": "verify-wedge", "samples": 5})
        proc = run_cli("verify-wedge", "--config", cfg, "--seed", "1", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "[PASS]" in proc.stdout

    def test_failing_check_exits_one_and_still_writes_report(self, tmp_path):
        # scale 0.701 against the pair's 0.7: every grade fails by 4e-3 or more, not by rounding
        cfg = ROOT / "scripts" / "configs" / "verify_wedge_wrong_beta.json"
        argv = ("verify-wedge", "--config", str(cfg), "--seed", "1", "--out", "r.json")
        proc = run_cli(*argv, cwd=tmp_path)
        assert proc.returncode == 1
        assert "[FAIL]" in proc.stdout
        report = json.loads((tmp_path / "r.json").read_text())
        assert all(not c["pass"] for c in report["checks"])

    def test_missing_seed_exits_two(self, tmp_path):
        proc = run_cli("verify-wedge", cwd=tmp_path)
        assert proc.returncode == 2
        assert "seed" in proc.stderr

    def test_malformed_config_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        proc = run_cli("verify-wedge", "--config", str(bad), "--seed", "1", cwd=tmp_path)
        assert proc.returncode == 2
        assert "not valid JSON" in proc.stderr

    def test_unknown_config_key_exits_two(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"sampels": 5})
        proc = run_cli("verify-wedge", "--config", cfg, "--seed", "1", cwd=tmp_path)
        assert proc.returncode == 2
        assert "sampels" in proc.stderr

    def test_scenario_mismatch_exits_two(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"scenario": "brightness"})
        proc = run_cli("verify-wedge", "--config", cfg, "--seed", "1", cwd=tmp_path)
        assert proc.returncode == 2

    def test_invalid_body_document_exits_two(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json", {"body": {"family": "torus", "params": {}}, "num_frames": 2}
        )
        proc = run_cli("brightness", "--config", cfg, "--seed", "1", cwd=tmp_path)
        assert proc.returncode == 2
        assert "torus" in proc.stderr

    @pytest.mark.parametrize(
        "body, key",
        [
            ({"family": "ball", "params": {"dim": 3.7, "radius": 1.0}}, "dim"),
            ({"family": "ball", "params": {"dim": 3, "radius": True}}, "radius"),
            ({"family": "ball", "params": {"dim": 3, "radius": float("nan")}}, "radius"),
            ({"family": "homothet", "params": {"base": BALL_3D, "scale": float("nan")}}, "scale"),
            ({"family": "minkowski_sum", "params": {"parts": [1.0]}}, "parts"),
            ({"family": "ellipsoid", "params": {"shape": [[1, 0, 0], [0, 1], [0, 0, 1]]}}, "shape"),
            (
                {"family": "spheroid", "params": {"axis": [[0, 0, 1]], "equatorial": 1, "polar": 2}},
                "axis",
            ),
        ],
    )
    def test_mistyped_body_document_exits_two(self, tmp_path, body, key):
        config = {"body": body, "base": BALL_3D, "num_frames": 3}
        cfg = write_config(tmp_path / "c.json", config)
        argv = ["--config", cfg, "--seed", "1", "--out", "r.json"]
        proc = run_cli("proportionality", *argv, cwd=tmp_path)
        assert proc.returncode == 2
        assert repr(key) in proc.stderr and repr(body["family"]) in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "r.json").exists()

    def test_unknown_subcommand_exits_two(self, tmp_path):
        proc = run_cli("frobnicate", cwd=tmp_path)
        assert proc.returncode == 2

    def test_cached_parser_carries_nothing_between_calls(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"samples": 4})
        with pytest.raises(SystemExit) as usage:
            cli.main(["verify-wedge", "--seed", "1", "--bogus"])
        assert usage.value.code == 2
        first = ["--config", cfg, "--seed", "3", "--tolerance", "1e-3", "--csv"]
        assert cli.main(["verify-wedge", *first, "--out", str(tmp_path / "a.json")]) == 0
        assert (tmp_path / "a.csv").exists()
        # no seed, tolerance, --csv or out path is left over from the first call
        plain = ["verify-wedge", "--config", cfg]
        assert cli.main(plain) == 2 and "requires an explicit --seed" in capsys.readouterr().err
        assert cli.main([*plain, "--seed", "1", "--out", str(tmp_path / "b.json")]) == 0
        assert not (tmp_path / "b.csv").exists()
        report = json.loads((tmp_path / "b.json").read_text())
        assert report["seed"] == 1 and report["inputs"]["tolerance"] == 1e-8
        assert cli._build_parser.cache_info().currsize == 1
        # the parser is built on the first call, not at import
        code = "import brightlab.cli as cli; assert cli._build_parser.cache_info().currsize == 0"
        proc = run_python("-c", code, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize(
        "scenario, key, value",
        [
            ("verify-wedge", "samples", 2.7),
            ("verify-wedge", "samples", 0),
            ("brightness", "num_frames", True),
            ("lemma-campaign", "trials", "100"),
            ("lemma-campaign", "solutions", -1),
            ("umbilic-search", "budget", 4000.0),
        ],
    )
    def test_count_keys_must_be_positive_integers(self, tmp_path, scenario, key, value):
        cfg = write_config(tmp_path / "c.json", {**mode_of(scenario, key), key: value})
        proc = run_cli(scenario, "--config", cfg, "--seed", "1", cwd=tmp_path)
        assert proc.returncode == 2
        assert repr(key) in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "scenario, config, needle",
        [
            ("lemma-campaign", {"mode": "solver", "a": None}, "'a'"),
            ("proportionality", {"k": 2.5}, "'k'"),
            ("lemma-campaign", {"m_len": 6.5}, "'m_len'"),
            ("brightness", {"nodes": 2.7}, "'nodes'"),
            ("lemma-campaign", {"mode": "solver", "m": 3.0}, "'m'"),
            ("lemma-campaign", {"mode": "solver", "n": True}, "'n'"),
            ("ratio-e48", {"i": 1.5}, "'i'"),
            ("ratio-e48", {"j": "2"}, "'j'"),
            ("verify-wedge", {"grades": [1, 2.5]}, "'grades'"),
            ("verify-wedge", {"grades": 2}, "'grades'"),
            # betas is no verify-wedge key, so any value of it is refused by name
            ("verify-wedge", {"betas": "123"}, "'betas'"),
            ("verify-wedge", {"betas": [True, 0.49, 0.343]}, "'betas'"),
        ],
    )
    def test_integer_keys_and_mistyped_inputs_exit_two(
        self, tmp_path, capsys, scenario, config, needle
    ):
        cfg = write_config(tmp_path / "c.json", config)
        argv = [scenario, "--config", cfg, "--seed", "1", "--out", str(tmp_path / "r.json")]
        assert cli.main(argv) == 2
        assert needle in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario, config, needle",
        [
            ("verify-wedge", {"grades": []}, "'grades' must be a non-empty list"),
            ("brightness", {"num_frames": 1}, "'num_frames' must be an integer >= 2, got 1"),
            ("proportionality", {"num_frames": 1}, "'num_frames' must be an integer >= 2, got 1"),
            ("ratio-e48", {"i": 2, "j": 2}, "grades must differ"),
        ],
    )
    def test_config_that_checks_nothing_exits_two(
        self, tmp_path, capsys, scenario, config, needle
    ):
        # no grade, or one frame compared with itself, would pass with value 0;
        # one grade against itself is no cross-grade check
        cfg = write_config(tmp_path / "c.json", config)
        argv = [scenario, "--config", cfg, "--seed", "1", "--out", str(tmp_path / "r.json")]
        assert cli.main(argv) == 2
        assert needle in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_one_frame_per_grade_is_a_ratio_e48_check(self, tmp_path):
        # ratio-e48 compares two grades, so a single frame still checks something
        cfg = write_config(tmp_path / "c.json", {"num_frames": 1})
        argv = ["ratio-e48", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "r.json")]
        assert cli.main(argv) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert [c["name"] for c in report["checks"]] == ["cross_grade_ratio_defect"]

    @pytest.mark.parametrize(
        "scenario, config",
        [
            ("brightness", {"num_frames": 2}),
            ("proportionality", {"num_frames": 2}),
            ("lemma-campaign", {"mode": "antipodal", "trials": 2}),
            ("lemma-campaign", {"mode": "solver", "solutions": 2}),
        ],
        ids=["brightness", "proportionality", "antipodal", "solver"],
    )
    def test_null_k_refused(self, tmp_path, capsys, scenario, config):
        # every grade is a plain integer, lemma-campaign's in both modes
        out = tmp_path / "r.json"
        cfg = write_config(tmp_path / "c.json", {**config, "k": None})
        argv = [scenario, "--config", cfg, "--seed", "1", "--out", str(out)]
        assert cli.main(argv) == 2
        assert "'k' must be an integer, got None" in capsys.readouterr().err
        assert not out.exists()
        # null nodes means the rule's default
        if scenario != "lemma-campaign":
            write_config(tmp_path / "c.json", {**config, "nodes": None})
            assert cli.main(argv) == 0

    @pytest.mark.parametrize(
        "scenario, config, flags, needle",
        [
            # each mode of lemma-campaign takes its own keys and no key of the other
            ("lemma-campaign", {"a": 1.0}, (), "unknown config key 'a' for scenario "
             "'lemma-campaign' in mode 'antipodal'"),
            ("lemma-campaign", {"mode": "solver", "trials": 100}, (), "unknown config key "
             "'trials' for scenario 'lemma-campaign' in mode 'solver'"),
            ("lemma-campaign", {"mode": "sweep"}, (), "unknown lemma-campaign mode 'sweep' "
             "(expected 'antipodal' or 'solver')"),
            ("lemma-campaign", {"mode": ["solver"]}, (), "unknown lemma-campaign mode ['solver']"),
            # no check of gallery or of antipodal mode reads a tolerance
            ("gallery", {}, ("--tolerance", "3"), "unknown config key 'tolerance' for scenario "
             "'gallery'"),
            ("gallery", {"tolerance": 0.0}, (), "unknown config key 'tolerance'"),
            ("lemma-campaign", {"mode": "antipodal"}, ("--tolerance", "1e-3"),
             "unknown config key 'tolerance' for scenario 'lemma-campaign' in mode 'antipodal'"),
            # gallery draws nothing at random
            ("gallery", {}, ("--seed", "4"), "'gallery' draws nothing at random"),
            ("gallery", {"seed": 4}, (), "'gallery' draws nothing at random"),
            # projection functions have grades 1 ... n - 1, here n = 4
            ("ratio-e48", {"i": 2, "j": 5}, (), "'j' must be a grade 1 ... n - 1 = 3, got 5"),
            ("ratio-e48", {"i": 0, "j": 2}, (), "'i' must be a grade 1 ... n - 1 = 3, got 0"),
            ("proportionality", {"k": -1}, (), "'k' must be a grade 1 ... n - 1 = 3, got -1"),
            ("brightness", {"k": 0}, (), "'k' must be a grade 1 ... n - 1 = 2, got 0"),
            # gallery runs no check, so a check CSV would be a bare header
            ("gallery", {}, ("--csv",), "'gallery' runs no check, so --csv has nothing to write"),
            # one nodes value cannot size the rules of two grades
            ("ratio-e48", {"nodes": 256}, (), "unknown config key 'nodes' for scenario "
             "'ratio-e48'"),
            # the wedge ratios are scale^k, so no per-grade list can override the scale
            ("verify-wedge", {"scale": 0.5, "betas": [0.7, 0.49, 0.343]}, (),
             "unknown config key 'betas' for scenario 'verify-wedge'"),
            # the rule at k = 1 has two directions whatever nodes says
            ("proportionality", {"k": 1, "nodes": 3}, (),
             "the rule at k = 1 is {+1, -1} and takes no nodes, got 3"),
            ("brightness", {"k": 1, "nodes": 3}, (),
             "the rule at k = 1 is {+1, -1} and takes no nodes, got 3"),
        ],
    )
    def test_unread_keys_and_improper_grades_exit_two(
        self, tmp_path, capsys, scenario, config, flags, needle
    ):
        out = tmp_path / "r.json"
        argv = [scenario, "--config", write_config(tmp_path / "c.json", config), "--out", str(out)]
        if scenario != "gallery":
            argv += ["--seed", "1"]
        assert cli.main([*argv, *flags]) == 2
        captured = capsys.readouterr()
        assert needle in captured.err and captured.out == ""
        assert not out.exists() and not out.with_suffix(".csv").exists()

    @pytest.mark.parametrize(
        "scenario, config, key",
        [
            ("verify-wedge", {"tolerance": True}, "tolerance"),
            ("verify-wedge", {"scale": True}, "scale"),
            ("brightness", {"seed": True}, "seed"),
            ("lemma-campaign", {"min_spread": True}, "min_spread"),
            ("lemma-campaign", {"residual_tol": False}, "residual_tol"),
            ("lemma-campaign", {"mode": "solver", "a": True}, "a"),
            ("lemma-campaign", {"mode": "solver", "b": False}, "b"),
        ],
    )
    def test_bools_refused_for_seed_and_float_keys(self, tmp_path, capsys, scenario, config, key):
        cfg = write_config(tmp_path / "c.json", config)
        argv = [scenario, "--config", cfg, "--out", str(tmp_path / "r.json")]
        if key != "seed":
            argv += ["--seed", "1"]
        assert cli.main(argv) == 2
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "scenario, config, key",
        [
            ("lemma-campaign", {"residual_tol": "1e-9"}, "residual_tol"),
            ("lemma-campaign", {"residual_tol": float("nan")}, "residual_tol"),
            ("lemma-campaign", {"min_spread": float("nan")}, "min_spread"),
            ("lemma-campaign", {"mode": "solver", "a": float("nan")}, "a"),
            ("lemma-campaign", {"mode": "solver", "b": float("-inf")}, "b"),
            ("lemma-campaign", {"mode": "solver", "b": 10**400}, "b"),
            ("verify-wedge", {"scale": "0.7"}, "scale"),
            ("verify-wedge", {"tolerance": None}, "tolerance"),
            ("brightness", {"tolerance": float("inf")}, "tolerance"),
        ],
    )
    def test_float_keys_must_be_finite_numbers(self, tmp_path, capsys, scenario, config, key):
        cfg = write_config(tmp_path / "c.json", config)
        argv = [scenario, "--config", cfg, "--seed", "1", "--out", str(tmp_path / "r.json")]
        assert cli.main(argv) == 2
        assert f"{key!r} must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"residual_tol": -1}, "residual_tol"),
            ({"residual_tol": 0.0}, "residual_tol"),
            ({"min_spread": 0}, "min_spread"),
            ({"min_spread": -1e-3}, "min_spread"),
        ],
    )
    def test_campaign_thresholds_that_can_never_fire_exit_two(self, tmp_path, capsys, config, key):
        # a residual_tol <= 0 finds no violation, and a min_spread <= 0 would
        # count a constant vector, the lemma's own conclusion, as one
        cfg = write_config(tmp_path / "c.json", {"mode": "antipodal", "trials": 100, **config})
        argv = ["lemma-campaign", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "r.json")]
        assert cli.main(argv) == 2
        assert f"{key!r} must be positive" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_nan_tolerance_flag_exits_two(self, tmp_path, capsys):
        argv = ["verify-wedge", "--seed", "1", "--tolerance", "nan"]
        assert cli.main([*argv, "--out", str(tmp_path / "r.json")]) == 2
        assert "'tolerance' must be a finite number, got nan" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_unrepresentable_solver_target_exits_two_quietly(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"mode": "solver", "a": 1.0, "b": 1e300})
        argv = ["--config", cfg, "--seed", "1", "--out", "r.json"]
        proc = run_cli("lemma-campaign", *argv, cwd=tmp_path)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
        assert "a = 1.0, b = 1e+300" in lines[0]
        assert not (tmp_path / "r.json").exists()

    def test_overflowing_candidate_target_exits_two_quietly(self, tmp_path):
        # a^m overflows in the candidate enumeration, which runs before the solver
        cfg = write_config(tmp_path / "c.json", {"mode": "solver", "a": 1e300})
        argv = ["--config", cfg, "--seed", "1", "--out", "r.json"]
        proc = run_cli("lemma-campaign", *argv, cwd=tmp_path)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
        assert "a = 1e+300" in lines[0] and "m = 3" in lines[0]
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "r.json").exists()

    def test_oversized_antipodal_grade_exits_two_before_building_tables(self, tmp_path, capsys):
        # C(60, 30) is about 1.2e17 subsets; the campaign refuses the grade
        # before enumerating any of them
        cfg = write_config(tmp_path / "c.json", {"m_len": 60, "k": 30, "trials": 10})
        argv = ["lemma-campaign", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "r.json")]
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code = cli.main(argv)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert "m_len = 60, k = 30" in err and "118264581564861424" in err
        assert elapsed < 0.5 and peak < 1 << 20
        assert not (tmp_path / "r.json").exists()

    def test_infeasible_solver_target_is_a_shortfall_at_once(self, tmp_path):
        # k = 1: x_i + y_i = 2a caps every 3-level sum at (2a)^3 = 8 < 2b
        cfg = write_config(tmp_path / "c.json", {"mode": "solver", "a": 1.0, "b": 1e12})
        argv = ["--config", cfg, "--seed", "1", "--out", "r.json"]
        proc = run_cli("lemma-campaign", *argv, cwd=tmp_path)
        assert proc.returncode == 1, proc.stderr
        report = json.loads((tmp_path / "r.json").read_text())
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        assert failed == ["solution_shortfall"]
        extras = report["extras"]
        assert (extras["solutions_found"], extras["restarts"], extras["gauss_newton_steps"]) == (0, 0, 0)

    def test_shadow_grade_beyond_the_node_budget_exits_two(self, tmp_path):
        # at the default 4096 nodes a k = 8 shadow would get 3 polar nodes per angle;
        # the ball is 9-D, since k = n is refused before any rule is built
        ball = {"family": "ball", "params": {"dim": 9, "radius": 1.0}}
        cfg = write_config(tmp_path / "c.json", {"body": ball, "k": 8, "num_frames": 2})
        proc = run_cli("brightness", "--config", cfg, "--seed", "1", cwd=tmp_path)
        assert proc.returncode == 2
        assert "k = 8" in proc.stderr and "nodes >= 16384, got 4096" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "scenario", ["verify-wedge", "proportionality", "umbilic-search", "ratio-e48"]
    )
    def test_body_base_dimension_mismatch_exits_two(self, tmp_path, scenario):
        ellipsoid_4d = {"family": "ellipsoid", "params": {"shape": np.eye(4).tolist()}}
        ball_5d = {"family": "ball", "params": {"dim": 5, "radius": 1.0}}
        cfg = write_config(tmp_path / "c.json", {"body": ellipsoid_4d, "base": ball_5d})
        proc = run_cli(scenario, "--config", cfg, "--seed", "1", cwd=tmp_path)
        assert proc.returncode == 2
        assert "4-dimensional" in proc.stderr and "5-dimensional" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_campaign_without_eligible_trial_fails_with_strict_json(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"trials": 1000, "min_spread": 5.0})
        proc = run_cli(
            "lemma-campaign", "--config", cfg, "--seed", "1", "--out", "r.json", cwd=tmp_path
        )
        assert proc.returncode == 1

        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        report = json.loads((tmp_path / "r.json").read_text(), parse_constant=refuse)
        extras = report["extras"]
        assert extras["best_residual"] is None and extras["best_gamma"] is None
        assert extras["eligible_trials"] == extras["violations"] == 0
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        assert failed == ["no_eligible_trial"]


class TestReportSchema:
    def test_required_keys_and_uniform_pass_rule(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"samples": 4})
        proc = run_cli(
            "verify-wedge", "--config", cfg, "--seed", "3", "--out", "r.json", cwd=tmp_path
        )
        assert proc.returncode == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["schema"] == 1
        assert report["scenario"] == "verify-wedge"
        assert report["seed"] == 3
        assert isinstance(report["version"], str)
        assert report["wall_time_s"] > 0
        for check in report["checks"]:
            assert set(check) == {"name", "value", "tol", "pass"}
            assert check["pass"] == (check["value"] <= check["tol"])

    def test_determinism_modulo_wall_time(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"samples": 6})
        for name in ("a.json", "b.json"):
            proc = run_cli(
                "verify-wedge", "--config", cfg, "--seed", "9", "--out", name, cwd=tmp_path
            )
            assert proc.returncode == 0
        strip = lambda p: [
            line
            for line in (tmp_path / p).read_text().splitlines()
            if "wall_time_s" not in line
        ]
        assert strip("a.json") == strip("b.json")

    @pytest.mark.parametrize(
        "scenario, config",
        [("brightness", "brightness_k4.json"), ("proportionality", "proportionality.json")],
    )
    def test_reports_do_not_depend_on_the_rule_cache(self, tmp_path, scenario, config):
        # one run on a cleared sphere-rule cache, one on the rule it left behind
        from brightlab.tomography import _cached_rule

        def report(name):
            out = tmp_path / name
            cfg = str(ROOT / "scripts" / "configs" / config)
            assert cli.main([scenario, "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
            return [line for line in out.read_bytes().splitlines() if b"wall_time_s" not in line]

        _cached_rule.cache_clear()
        cold = report("cold.json")
        hits = _cached_rule.cache_info().hits
        assert report("warm.json") == cold
        assert _cached_rule.cache_info().hits > hits

    def test_no_temp_files_left_behind(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"samples": 4})
        run_cli("verify-wedge", "--config", cfg, "--seed", "1", "--out", "r.json", cwd=tmp_path)
        leftovers = [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_report_and_csv_modes_follow_the_umask(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"mode": "antipodal", "trials": 50})
        out = tmp_path / "r.json"
        old = os.umask(0o022)
        try:
            argv = ["lemma-campaign", "--config", cfg, "--seed", "1", "--out", str(out), "--csv"]
            assert cli.main(argv) == 0
        finally:
            os.umask(old)
        for path in (out, out.with_suffix(".csv")):
            assert path.stat().st_mode & 0o777 == 0o644, path.name
        assert not [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"]


def row_by_row_campaign_csv(report) -> bytes:
    """The campaign CSV as ``csv.writer`` writes it from one tuple per trial."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(("trial", "residual", "spread", "violation"))
    eligible = report.rows[:, 1] >= report.min_spread
    hits = (report.rows[:, 0] < report.residual_tol) & eligible
    for idx in range(report.rows.shape[0]):
        writer.writerow(
            (idx, f"{report.rows[idx, 0]:.6e}", f"{report.rows[idx, 1]:.6e}", int(hits[idx]))
        )
    return buffer.getvalue().encode()


def exported_csv(report) -> bytes:
    """The campaign CSV as the CLI streams it."""
    return b"".join(cli._campaign_csv(report))


def sci6_workspace(size: int) -> list:
    return [np.empty(size, dtype) for dtype in cli._SCI6_WORK]


def sci6_fields(values: np.ndarray, work: list) -> tuple[list, np.ndarray]:
    """The '%.6e' bytes of each value as ``_campaign_csv`` gets them: the words
    of ``_sci6_words`` where they are sure and Python's elsewhere; and ``sure``."""
    mantissa, exponent, sure = cli._sci6_words(values, work)
    words = np.hstack([mantissa.view(np.uint8).reshape(-1, 8), exponent.view(np.uint8).reshape(-1, 4)])
    return [row.tobytes() if ok else b"%.6e" % v for row, ok, v in zip(words, sure, values)], sure


def near_ties() -> np.ndarray:
    """Values a 7-digit rounding can get wrong: (K + 1/2) * 10**j with K a 7-digit
    integer, and their neighbours 1, 2 and 3 ulps away."""
    rng = np.random.default_rng(0)
    mantissas = np.concatenate([rng.integers(10**6, 10**7, 50), [10**6, 9999999]]) + 0.5
    ties = np.concatenate([mantissas * 10.0**j for j in range(-106, 94, 5)])
    values = [ties]
    for direction in (np.inf, -np.inf):
        step = ties
        for _ in range(3):
            step = np.nextafter(step, direction)
            values.append(step)
    return np.concatenate(values)


class TestCsvExport:
    @pytest.mark.parametrize("trials", [1, 9, 10, 11, 100, 1001, 10_001])
    def test_campaign_csv_matches_row_by_row_writer(self, trials):
        report = antipodal_falsification(6, 2, trials, seed=trials)
        assert exported_csv(report) == row_by_row_campaign_csv(report)

    def test_python_rows_are_spliced_across_decades(self):
        # rows 9 | 10 and 99 | 100 straddle decades of the trial index, whose
        # slabs are trimmed to different widths
        report = antipodal_falsification(6, 2, 10_000, seed=3)
        odd = {
            0: (0.0, 1.0),
            9: (np.nan, 0.5),
            10: (np.inf, -0.0),
            99: (1e-120, 2.0),
            5000: (9.9999995, 1e-3),  # a near tie
            9999: (0.5, 0.0),
        }
        for row, values in odd.items():
            report.rows[row] = values
        assert exported_csv(report) == row_by_row_campaign_csv(report)

    @pytest.mark.parametrize("trials", [2 * cli._CSV_CHUNK + 1, 100_001])
    def test_python_rows_and_decades_at_chunk_seams(self, trials):
        # Python-path rows on the last row of one chunk and the first of the
        # next; at 100_001 trials the decade edge 10**5 falls inside a chunk
        report = antipodal_falsification(6, 2, trials, seed=trials)
        chunk = cli._CSV_CHUNK
        odd = {
            chunk - 1: (np.nan, 0.5),
            chunk: (np.inf, -0.0),
            2 * chunk - 1: (1e-120, 2.0),
            2 * chunk: (9.9999995, 1e-3),  # a near tie
            99_999: (0.5, 1e-120),
            100_000: (-0.0, np.nan),
        }
        for row, values in odd.items():
            if row < trials:
                report.rows[row] = values
        assert exported_csv(report) == row_by_row_campaign_csv(report)

    @pytest.mark.parametrize("chunk", [1, 7, 10])
    def test_bytes_do_not_depend_on_the_chunk_size(self, monkeypatch, chunk):
        # chunks of 7 rows put the decade edges 10 and 100 inside a chunk and
        # Python-path rows on seams; with 1 or 10 rows every decade edge is a seam
        report = antipodal_falsification(6, 2, 1001, seed=5)
        odd = [(np.nan, 1.0), (0.0, 1.0), (1e-120, 0.5), (np.inf, 2.0), (1.0, -1.0)]
        report.rows[[6, 7, 69, 70, 1000]] = odd
        expected = row_by_row_campaign_csv(report)
        monkeypatch.setattr(cli, "_CSV_CHUNK", chunk)
        assert exported_csv(report) == expected

    def test_export_memory_does_not_grow_with_trials(self):
        report = antipodal_falsification(6, 2, 1_000_000, seed=1)
        tracemalloc.start()
        try:
            size = sum(map(len, cli._campaign_csv(report)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 35 * 10**6  # the whole 36 MB file went by
        assert peak < 16 * 10**6

    def test_streaming_write_is_atomic(self, tmp_path):
        def failing_chunks():
            yield b"trial,residual,spread,violation\r\n"
            raise RuntimeError("formatting failed")

        fresh, old = tmp_path / "fresh.csv", tmp_path / "old.csv"
        old.write_bytes(b"old bytes")
        for path in (fresh, old):
            with pytest.raises(RuntimeError, match="formatting failed"):
                cli._write_atomic(path, failing_chunks())
        assert not fresh.exists()
        assert old.read_bytes() == b"old bytes"
        assert [p.name for p in tmp_path.iterdir()] == ["old.csv"]  # no .tmp left

    @pytest.mark.parametrize("words", [1, 2, 3, 4])
    def test_index_words_are_exact_beyond_eight_digits(self, words):
        # runs of 23 indices across the wraps of every word, up to 10**12
        for start in (0, 7, 9_990, 99_999_990, 10**8 - 3, 10**12 - 11):
            if start + 23 > 10 ** (4 * words):
                continue
            out = np.empty((23, words), "<u4")
            cli._index_words(start, out)
            assert [row.tobytes() for row in out] == [
                b"%0*d" % (4 * words, t) for t in range(start, start + 23)
            ]

    def test_import_builds_no_csv_table(self, tmp_path):
        # the lookup tables are built on the first CSV export, not at import
        code = (
            "import numpy as np, brightlab.cli as cli\n"
            "assert cli._csv_words.cache_info().currsize == 0\n"
            "assert not [n for n, v in vars(cli).items() if isinstance(v, np.ndarray)]\n"
        )
        proc = run_python("-c", code, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_campaign_csv_marks_violations_and_odd_values(self):
        residual_tol, min_spread = 1e-9, 1e-3
        rows = np.array(
            [
                [1e-12, 0.5],  # violation
                [1e-12, np.nextafter(min_spread, 0.0)],  # below min_spread
                [1e-12, min_spread],  # at min_spread: violation
                [residual_tol, 0.5],  # residual not below tol
                [0.0, 1.0],  # violation, zero residual
                [1e-120, 9.9999995],  # three-digit exponent, near tie
                [np.inf, -0.0],
                [np.nan, 1e99],
            ]
        )
        report = FalsificationReport(
            trials=len(rows),
            best_residual=0.0,
            best_x=None,
            best_gamma=float("nan"),
            min_spread=min_spread,
            found_violation=True,
            residual_tol=residual_tol,
            eligible_trials=6,
            violations=3,
            rows=rows,
        )
        data = exported_csv(report)
        assert data == row_by_row_campaign_csv(report)
        flags = [line.rsplit(b",", 1)[1] for line in data.split(b"\r\n")[1:-1]]
        assert flags == [b"1", b"0", b"1", b"0", b"1", b"1", b"0", b"0"]

    def test_float_kernel_matches_percent_format(self):
        rng = np.random.default_rng(1)
        # decade edges, where '%.6e' carries into the next decade: the tie
        # 9.9999995 and its neighbours, and values above it that round up
        ties_at_edges = 9.9999995 * 10.0 ** np.arange(-98, 99)
        edges = np.concatenate([
            ties_at_edges,
            np.nextafter(ties_at_edges, 0.0),
            np.nextafter(ties_at_edges, np.inf),
            np.outer([9.9999997, 9.99999999, np.nextafter(10.0, 0.0)], 10.0 ** np.arange(-98, 99)).ravel(),
        ])
        # within 1e-6 of a .5 tie of the 7-digit mantissa, and just beyond it
        offsets = np.array([-2e-6, -9e-7, -1e-7, 1e-7, 9e-7, 2e-6])
        mantissas = rng.integers(10**6, 10**7, 200) + 0.5
        ties = np.ravel((mantissas[:, None] + offsets) * 10.0 ** rng.integers(-104, 92, (200, 1)))
        # zero, negatives, non-finite values, subnormals and three-digit exponents
        never_sure = [
            0.0, -0.0, -1.5, -1e-300, np.inf, -np.inf, np.nan,
            5e-324, 1e-310, 1e-99, 1e99, 1e-100, 1e100, 1.5e-250, 1.7976931348623157e308,
        ]
        values = np.concatenate(
            [
                [9.9999995, 9.99999e98],
                10.0 ** np.arange(-100, 101),
                near_ties(),
                edges,
                ties,
                never_sure,
                10.0 ** rng.uniform(-90, 90, 20000),
                rng.uniform(0.0, 10.0, 20000),
            ]
        )
        reused = sci6_workspace(len(values) + 7)
        for chunk, work in ((values, sci6_workspace(len(values))), (values[::-1], reused), (values, reused)):
            fields, sure = sci6_fields(chunk, work)
            assert fields == [("%.6e" % v).encode() for v in chunk]
        # the last chunk is ``values`` in a reused workspace
        tail = sure[-40000 - len(never_sure) - len(ties) :]
        assert not tail[: len(ties)].reshape(-1, 6)[:, 1:5].any()  # within 1e-6 of a tie
        assert not tail[len(ties) : -40000].any()
        assert sure[-40000:].mean() > 0.999

    @pytest.mark.parametrize("error", [1e-3, -1e-3])
    def test_float_kernel_survives_an_inexact_log10(self, monkeypatch, error):
        # a log10 off by 1e-3 puts e one off near every power of ten, where the
        # scaled value then falls outside [1e6, 1e7): those values must not be sure
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda x, out: np.add(log10(x, out=out), error, out=out))
        offsets = np.concatenate([-np.geomspace(1e-8, 1e-2, 40), [0.0], np.geomspace(1e-8, 1e-2, 40)])
        values = np.ravel(10.0 ** (np.arange(-50, 51)[:, None] + offsets))
        fields, sure = sci6_fields(values, sci6_workspace(len(values)))
        assert fields == [("%.6e" % v).encode() for v in values]
        assert 0.5 < sure.mean() < 0.95

    def test_checks_csv(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"samples": 4})
        proc = run_cli(
            "verify-wedge",
            "--config",
            cfg,
            "--seed",
            "2",
            "--out",
            "r.json",
            "--csv",
            cwd=tmp_path,
        )
        assert proc.returncode == 0
        lines = (tmp_path / "r.csv").read_text().strip().splitlines()
        assert lines[0] == "name,value,tol,pass"
        assert len(lines) == 4  # three grades

    def test_campaign_csv_has_one_row_per_trial(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"trials": 50})
        proc = run_cli(
            "lemma-campaign",
            "--config",
            cfg,
            "--seed",
            "4",
            "--out",
            "camp.json",
            "--csv",
            cwd=tmp_path,
        )
        assert proc.returncode == 0
        lines = (tmp_path / "camp.csv").read_text().strip().splitlines()
        assert lines[0] == "trial,residual,spread,violation"
        assert len(lines) == 51
        extras = json.loads((tmp_path / "camp.json").read_text())["extras"]
        spreads = antipodal_falsification(6, 2, 50, seed=4).rows[:, 1]
        assert extras["eligible_trials"] == int(np.sum(spreads >= 1e-3))
        assert extras["violations"] == sum(line.endswith(",1") for line in lines[1:]) == 0


class TestScenarios:
    def ratio_e48(self, tmp_path, config, seed):
        cfg = write_config(tmp_path / "c.json", config)
        out = tmp_path / "r.json"
        code = cli.main(["ratio-e48", "--config", cfg, "--seed", str(seed), "--out", str(out)])
        return code, json.loads(out.read_text())

    def test_ratio_e48_homothet_pair_cross_grade_defect_vanishes(self, tmp_path):
        # the default pair, 0.7 E4 + shift against E4: lambda_1 = 0.7, lambda_2 = 0.49
        code, report = self.ratio_e48(tmp_path, {"num_frames": 16}, 6)
        assert code == 0 and report["checks"][0]["value"] < 1e-10
        assert report["extras"]["constants"] == pytest.approx([0.7, 0.49], abs=1e-12)

    def test_ratio_e48_non_homothetic_pair_has_order_one_defect(self, tmp_path):
        ball = {"family": "ball", "params": {"dim": 4, "radius": 1.0}}
        config = {"body": cli._ELLIPSOID_4D, "base": ball, "num_frames": 12}
        code, report = self.ratio_e48(tmp_path, config, 7)
        assert code == 1 and report["checks"][0]["value"] > 0.05

    def test_each_grade_runs_its_own_default_rule(self, tmp_path, monkeypatch):
        # a nodes value sized for one grade is 64x too many or 8x too few
        # directions at another, so every shadow scenario leaves it to the rule
        calls, rule = [], tomography._quadrature_rule
        monkeypatch.setattr(
            tomography, "_quadrature_rule", lambda k, nodes: calls.append((k, nodes)) or rule(k, nodes)
        )
        code, _ = self.ratio_e48(tmp_path, {"i": 2, "j": 3, "num_frames": 2}, 1)
        cfg = write_config(tmp_path / "k3.json", {"k": 3, "num_frames": 2})
        out = str(tmp_path / "k3-report.json")
        assert code == cli.main(["proportionality", "--config", cfg, "--seed", "1", "--out", out]) == 0
        assert calls == [(2, None), (3, None), (3, None)]

    def test_wrong_beta_config_fails_every_grade(self, tmp_path):
        # the shipped pair at scale 0.701, not its 0.7: a negative control
        config = str(ROOT / "scripts" / "configs" / "verify_wedge_wrong_beta.json")
        out = tmp_path / "w.json"
        assert cli.main(["verify-wedge", "--config", config, "--seed", "1", "--out", str(out)]) == 1
        checks = json.loads(out.read_text())["checks"]
        assert [c["name"] for c in checks] == ["wedge_defect_k1", "wedge_defect_k2", "wedge_defect_k3"]
        assert all(not c["pass"] and c["value"] > 1e-4 for c in checks)

    def test_lemma_campaign_solver_mode(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"mode": "solver", "solutions": 4})
        proc = run_cli(
            "lemma-campaign", "--config", cfg, "--seed", "9", "--out", "s.json", cwd=tmp_path
        )
        assert proc.returncode == 0
        report = json.loads((tmp_path / "s.json").read_text())
        assert report["extras"]["solutions_found"] == 4
        # the start that gave the fourth solution, and the steps up to it
        assert report["extras"]["restarts"] >= 4
        assert report["extras"]["gauss_newton_steps"] >= report["extras"]["restarts"]

    def test_solver_csv_matches_per_instance_rows(self, tmp_path):
        config = str(ROOT / "scripts" / "configs" / "lemma_solver.json")
        out = tmp_path / "s.json"
        argv = ["lemma-campaign", "--config", config, "--seed", "1", "--out", str(out), "--csv"]
        assert cli.main(argv) == 0
        doc = json.loads(out.read_text())
        a, b, k, m, n = (doc["inputs"][key] for key in ("a", "b", "k", "m", "n"))
        cands = enumerate_candidates(a, b, k, m, n)
        found = find_hypothesis_solutions(a, b, k, m, n, doc["inputs"]["solutions"], seed=1)
        rows = [("solution", "residual", "worst_candidate_distance")]
        for idx, inst in enumerate(found):
            dist = match_candidates(inst.y, cands)
            rows.append((idx, f"{hypothesis_residual(inst).max():.3e}", f"{dist:.3e}"))
        buffer = io.StringIO()
        csv.writer(buffer).writerows(rows)
        assert out.with_suffix(".csv").read_bytes() == buffer.getvalue().encode()
        worst = max(match_candidates(inst.y, cands) for inst in found)
        assert doc["checks"][0] == {
            "name": "candidate_match_worst", "value": worst, "tol": 1e-6, "pass": True
        }

    def test_solver_report_formats_no_csv_row(self, monkeypatch, tmp_path):
        def refuse(inst):
            raise AssertionError("a CSV row was formatted")

        monkeypatch.setattr(cli, "hypothesis_residual", refuse)
        config = str(ROOT / "scripts" / "configs" / "lemma_solver.json")
        out = tmp_path / "s.json"
        assert cli.main(["lemma-campaign", "--config", config, "--seed", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["extras"]["solutions_found"] == 200
        with pytest.raises(AssertionError, match="a CSV row was formatted"):
            cli.main(["lemma-campaign", "--config", config, "--seed", "1", "--out", str(out), "--csv"])

    def test_gallery_needs_no_seed(self, tmp_path):
        proc = run_cli("gallery", cwd=tmp_path)
        assert proc.returncode == 0
        for family in ("ball", "ellipsoid", "spheroid", "homothet", "erosion"):
            assert family in proc.stdout

    def test_gallery_and_readme_list_every_family(self, tmp_path):
        proc = run_cli("gallery", cwd=tmp_path)
        assert proc.returncode == 0
        readme = (ROOT / "README.md").read_text()
        table = readme.split("## Body families", 1)[1].split("\n## ", 1)[0]
        for name, cls in FAMILIES.items():
            assert f"{name} " in proc.stdout and f" {cls.__name__}(" in proc.stdout
            assert f"| `{name}` | `{cls.__name__}(" in table


# Counts small enough that any scenario runs in milliseconds.  A huge count is
# a valid request for a long run, and so is a huge solver target "a" or "b"
# (its residuals cannot reach the solver's absolute tolerance, so every
# restart runs); the fuzzer gives those keys the other values only.
SMALL_COUNTS = {"samples": 2, "num_frames": 2, "trials": 20, "solutions": 1, "budget": 20}
LONG_WHEN_HUGE = {*SMALL_COUNTS, "a", "b"}
MUTANTS = ["x", [], {}, None, 0, -1, -2.5, 2.5, True, False]
HUGE = [10**12, 1e300]


@st.composite
def mutated_configs(draw):
    scenario = draw(st.sampled_from(sorted(cli._SCENARIOS)))
    entry = cli._SCENARIOS[scenario]
    config = {}
    if isinstance(entry, dict):  # the mode first, then a key of its own
        config["mode"] = draw(st.sampled_from(sorted(entry)))
    spec = cli._spec(scenario, config)
    config.update({k: v for k, v in SMALL_COUNTS.items() if k in spec.defaults})
    if spec.seeded:
        config["seed"] = 1
    value = None
    if spec.defaults:  # gallery has no key
        key = draw(st.sampled_from(sorted(spec.defaults)))
        value = draw(st.sampled_from(MUTANTS + ([] if key in LONG_WHEN_HUGE else HUGE)))
        config[key] = value
    return scenario, config, value


class TestConfigFuzzer:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(case=mutated_configs())
    def test_one_bad_key_never_raises(self, tmp_path, case):
        scenario, config, value = case
        cfg = write_config(tmp_path / "c.json", config)
        code = cli.main([scenario, "--config", cfg, "--out", str(tmp_path / "r.json")])
        # no key takes a bool, the float keys included
        assert code == 2 if isinstance(value, bool) else code in (0, 1, 2)
