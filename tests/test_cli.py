import argparse
import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from feedback_lab import (RealizedPiecewiseLinear, SampledSpec, cli,
                          integrate_sampled, riccati)


def run_cli(args, capsys=None):
    code = cli.main(args)
    return code


MJLS_SPEC = {
    "P": [[0.5, 0.5], [0.5, 0.5]],
    "A": [[[0.0]], [[1.9]]],
    "B": [[[1.0]], [[1.0]]],
}


@pytest.fixture
def mjls_spec_file(tmp_path):
    path = tmp_path / "spec.yaml"
    path.write_text(yaml.safe_dump(MJLS_SPEC))
    return str(path)


# each subcommand's defaults as its run reads them; a key without a
# default stays out of the config
DEFAULTS = {
    "parametric-sweep": {"b": "1.5:6.0:0.5", "seeds": 100, "T": 5000,
                         "unstable_T": 200, "M": 1.0, "theta_mean": 1.0,
                         "noise_var": 1.0},
    "poly-check": {"exponents": "5"},
    "highorder-check": {"L": 1.0, "p": 1},
    "nonparam-duel": {"L": "6", "seeds": 100, "T": 500, "w_bar": 1.0,
                      "mode": "adversary", "n_anchors": 16},
    "sampled-sweep": {"L": "0.5,1.0,2.0", "h": 1.0, "c": 1.0,
                      "samples": 1000, "seeds": 50, "mode": "random"},
    "mjls-solve": {"tol": 1e-10, "max_iter": 10000},
    "mjls-run": {"T": 2000, "seeds": 50},
}
# a value for each key that has no default
UNSET_VALUES = {"unstable_seeds": 7, "eps": 0.2, "escape": 1e3,
                "substeps": 4, "spec": "spec.yaml", "seed": 5}


class TestValueParsing:
    def test_range_inclusive(self):
        assert cli.parse_value_list("1.5:3.0:0.5") == [1.5, 2.0, 2.5, 3.0]

    def test_comma_list(self):
        assert cli.parse_value_list("1,2.5,4") == [1.0, 2.5, 4.0]

    def test_bad_range(self):
        with pytest.raises(cli.CliError):
            cli.parse_value_list("1:2")
        with pytest.raises(cli.CliError):
            cli.parse_value_list("1:2:-0.5")

    def test_range_point_cap(self):
        # counted before the loop: 1e15 points fail without being built
        n = cli.MAX_RANGE_POINTS
        assert len(cli.parse_value_list(f"0:{n - 1}:1")) == n
        for spec in (f"0:{n}:1", "0:1e12:1e-3"):
            with pytest.raises(cli.CliError, match="more than"):
                cli.parse_value_list(spec)


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("bogus: 1\n")
        with pytest.raises(cli.CliError):
            cli.load_config(str(path), "poly-check", {})

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("T: 100\nseeds: 5\n")
        cfg = cli.load_config(str(path), "nonparam-duel", {"T": 250})
        assert cfg["T"] == 250
        assert cfg["seeds"] == 5

    @pytest.mark.parametrize("command", list(DEFAULTS))
    def test_defaults_are_complete(self, command):
        # every default a run reads, with its type, comes from the table
        cfg = cli.load_config(None, command, {})
        assert cfg == DEFAULTS[command]
        assert {k: type(v) for k, v in cfg.items()} == (
            {k: type(v) for k, v in DEFAULTS[command].items()})

    @pytest.mark.parametrize("command", list(DEFAULTS))
    def test_round_trip_idempotent(self, command, tmp_path):
        # the complete config, with a value for every key that has no
        # default as well
        keys = {opt.key for opt in cli.SUBCOMMANDS[command].options}
        cfg = cli.load_config(None, command, {
            k: v for k, v in UNSET_VALUES.items() if k in keys | {"seed"}})
        text = cli.serialize_config(command, cfg)
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        cfg2 = cli.load_config(str(path), command, {})
        assert cfg2 == cfg
        text2 = cli.serialize_config(command, cfg2)
        assert text2 == text

    @pytest.mark.parametrize("command, overrides", [
        ("nonparam-duel", {"mode": "random", "L": "1,6", "seeds": 3,
                           "T": 60}),
        ("mjls-run", {"T": 40, "seeds": 3}),
    ])
    def test_serialized_config_reproduces_run(self, command, overrides,
                                              mjls_spec_file, tmp_path,
                                              monkeypatch):
        # the written config of a run is all it takes to run it again
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        if command == "mjls-run":
            overrides = {**overrides, "spec": mjls_spec_file}
        path = tmp_path / "cfg.yaml"
        path.write_text(cli.serialize_config(command, cli.load_config(
            None, command, {**overrides, "seed": 4})))
        flags = [a for k, v in overrides.items()
                 for a in ("--" + k.replace("_", "-"), str(v))]
        outputs = []
        for argv in (["--seed", "4", command] + flags,
                     ["--config", str(path), command]):
            out = tmp_path / f"out{len(outputs)}"
            assert run_cli(["--out", str(out), "--no-timestamp"] + argv) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outputs[0] == outputs[1]

    def test_wrong_experiment_tag(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("experiment: poly-check\n")
        with pytest.raises(cli.CliError):
            cli.load_config(str(path), "nonparam-duel", {})


class TestSeedResolution:
    def test_env_var_used(self, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "77")
        assert cli.resolve_seed(None, {}) == 77

    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "77")
        assert cli.resolve_seed(5, {}) == 5

    def test_config_fallback(self, monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        assert cli.resolve_seed(None, {"seed": 3}) == 3
        assert cli.resolve_seed(None, {}) == 0

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "xyz")
        with pytest.raises(cli.CliError):
            cli.resolve_seed(None, {})


class TestPolyCheck:
    def test_impossible_message(self, capsys):
        assert run_cli(["poly-check", "--exponents", "5"]) == 0
        out = capsys.readouterr().out
        assert "IMPOSSIBLE" in out
        assert "z~2.5" in out
        assert "-1.25" in out

    def test_not_triggered(self, capsys):
        assert run_cli(["poly-check", "--exponents", "3"]) == 0
        assert "not triggered" in capsys.readouterr().out


class TestHighorderCheck:
    def test_overflowing_product_reads_impossible(self, capsys):
        # p*L = 2e308 overflows; the right side is about 8.8e102
        assert run_cli(["highorder-check", "--L", "1e308", "--p", "2"]) == 0
        assert capsys.readouterr().out == (
            "L=1e+308 p=2: impossible, margin=1e+308\n")

    def test_order_beyond_float_range_gets_a_verdict(self, capsys):
        # the right side reads 1, so the margin is L - 1/2
        p = "1" + "0" * 400
        assert run_cli(["highorder-check", "--L", "2", "--p", p]) == 0
        assert capsys.readouterr().out == (
            f"L=2.0 p={p}: impossible, margin=1.5\n")


class TestExitCodes:
    def test_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "cfg.yaml"
        bad.write_text("nonsense: true\n")
        assert run_cli(["--config", str(bad), "poly-check"]) == 2

    def test_collision_without_force(self, tmp_path, capsys):
        out = str(tmp_path)
        args = ["--out", out, "--no-timestamp", "highorder-check",
                "--L", "1.0", "--p", "1"]
        assert run_cli(args) == 0
        assert run_cli(args) == 2
        assert run_cli(["--force"] + args) == 0

    def test_strict_indeterminate_exit(self, mjls_spec_file, monkeypatch,
                                        capsys):
        def fake_solve(spec, tol=1e-10, max_iter=10000):
            return riccati.SolveResult(riccati.SolveStatus.INDETERMINATE,
                                       None, max_iter, 1.0)

        monkeypatch.setattr(cli.riccati, "solve_coupled_riccati", fake_solve)
        assert run_cli(["--strict", "mjls-solve", "--spec",
                        mjls_spec_file]) == 3
        assert run_cli(["mjls-solve", "--spec", mjls_spec_file]) == 0

    SHORT = ["--T", "10", "--seeds", "2"]
    SAMPLED = ["sampled-sweep", "--samples", "5", "--seeds", "2",
               "--substeps", "2"]

    @pytest.mark.parametrize("argv, message", [
        (["nonparam-duel", "--mode", "random", "--n-anchors", "0"] + SHORT,
         "n_anchors must be at least 1"),
        (["nonparam-duel", "--mode", "random", "--L", "inf"] + SHORT,
         "L must have a finite span"),
        (SAMPLED + ["--L", "inf"], "L must have a finite span"),
        (SAMPLED + ["--c", "inf"], "c must have a finite span"),
        (SAMPLED + ["--L", "1e308", "--c", "1e308"],
         "L must have a finite span"),
        (["nonparam-duel", "--eps", "-1"] + SHORT, "eps must be finite"),
        (["nonparam-duel", "--eps", "0"] + SHORT, "eps must be finite"),
        (["nonparam-duel", "--eps", "nan"] + SHORT, "eps must be finite"),
        (["--every", "0", "poly-check"], "--every must be at least 1"),
        (["poly-check", "--every", "-3"], "--every must be at least 1"),
        (["nonparam-duel", "--L", ""] + SHORT, "value list '' is empty"),
        (["parametric-sweep", "--b", ""] + SHORT, "value list '' is empty"),
        (["nonparam-duel", "--L", "2:1:1"] + SHORT, "is empty"),
        (["nonparam-duel", "--L", "nan:1:1"] + SHORT, "must be finite"),
        (["nonparam-duel", "--L", "0:inf:1"] + SHORT, "must be finite"),
        (["parametric-sweep", "--b", "0:1e12:1e-3"] + SHORT,
         "has more than 10000 points"),
        (["parametric-sweep", "--b", "nan"] + SHORT,
         "growth exponent must be nonnegative and finite"),
        (["highorder-check", "--L", "inf"],
         "slope budget L must be positive and finite"),
        (["parametric-sweep", "--b", "2", "--noise-var", "inf"] + SHORT,
         "variance must be finite and positive"),
        (["parametric-sweep", "--b", "2", "--theta-mean", "inf"] + SHORT,
         "theta_mean must be finite"),
        (["parametric-sweep", "--b", "2", "--theta-mean", "nan"] + SHORT,
         "theta_mean must be finite"),
        (["nonparam-duel", "--mode", "random", "--w-bar", "inf"] + SHORT,
         "w_bar must be finite and positive"),
        (SAMPLED + ["--L", "1", "--h", "inf"], "h must be finite"),
        (["nonparam-duel", "--escape", "nan"] + SHORT,
         "escape must be finite and positive"),
        (["nonparam-duel", "--escape", "-5"] + SHORT,
         "escape must be finite and positive"),
        (["nonparam-duel", "--escape", "inf"] + SHORT,
         "escape must be finite and positive"),
        (["mjls-solve", "--spec", "<spec>", "--tol", "inf"],
         "tolerance must be finite and positive"),
        (["nonparam-duel", "--L", "1", "--w-bar", "1e300"] + SHORT,
         "w_bar must keep the opponent's budget"),
        (["nonparam-duel", "--mode", "random", "--L", "1", "--w-bar",
          "1e300"] + SHORT, "w_bar must keep the opponent's budget"),
        (["nonparam-duel", "--L", "1", "--w-bar", "1e308"] + SHORT,
         "w_bar must keep the opponent's budget"),
        (["parametric-sweep", "--b", "2", "--noise-var", "1e300"] + SHORT,
         "variance must keep the noise step"),
    ], ids=["n_anchors_zero", "member_L_inf", "sampled_L_inf",
            "sampled_c_inf", "sampled_span_overflows", "eps_negative",
            "eps_zero", "eps_nan", "every_zero", "every_negative",
            "empty_L", "empty_b", "empty_range", "range_nan",
            "range_inf", "range_too_many_points", "b_nan", "highorder_L_inf",
            "noise_var_inf", "theta_mean_inf", "theta_mean_nan", "w_bar_inf",
            "sampled_h_inf", "escape_nan", "escape_negative", "escape_inf",
            "tol_inf", "w_bar_beyond_guard", "w_bar_beyond_guard_random",
            "w_bar_overflows_budget", "noise_var_beyond_guard"])
    def test_malformed_input_exits_2(self, argv, message, mjls_spec_file,
                                     capsys):
        argv = [mjls_spec_file if a == "<spec>" else a for a in argv]
        assert run_cli(argv) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, text, key", [
        ("nonparam-duel", "T: .inf\n", "T"),
        ("nonparam-duel", "seed: .inf\n", "seed"),
        ("parametric-sweep", "seeds: 2.9\n", "seeds"),
        ("highorder-check", "p: 1.5\n", "p"),
        ("mjls-solve", "max_iter: -.inf\n", "max_iter"),
        ("nonparam-duel", "n_anchors: true\n", "n_anchors"),
    ], ids=["T_inf", "seed_inf", "seeds_fraction", "p_fraction",
            "max_iter_neg_inf", "n_anchors_bool"])
    def test_config_integers_are_not_truncated(self, command, text, key,
                                               tmp_path, capsys):
        # int() would overflow at inf, truncate 2.9 to 2 and read true as 1
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        assert run_cli(["--config", str(path), command]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: config key {key!r} must be int\n")

    @pytest.mark.parametrize("command", ["nonparam-duel", "sampled-sweep"])
    def test_mode_choices_checked_for_file_values(self, command, tmp_path,
                                                  capsys):
        path = tmp_path / "cfg.yaml"
        path.write_text("mode: bogus\n")
        assert run_cli(["--config", str(path), command]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: mode must be 'adversary' or 'random'\n")


class TestMjlsSolve:
    def test_scalar_fixed_point(self, capsys, tmp_path):
        spec = {"P": [[1.0]], "A": [[[2.0]]], "B": [[[1.0]]]}
        path = tmp_path / "one.yaml"
        path.write_text(yaml.safe_dump(spec))
        assert run_cli(["mjls-solve", "--spec", str(path)]) == 0
        out = capsys.readouterr().out
        assert "verdict: solved" in out
        assert "[[1.]]" in out  # M = identity fixed point
        assert "[[2.]]" in out  # K equals the mode dynamics

    def test_two_mode(self, mjls_spec_file, capsys):
        assert run_cli(["mjls-solve", "--spec", mjls_spec_file]) == 0
        assert "solved" in capsys.readouterr().out

    def test_overflowing_iterate_is_no_solution(self, capsys, tmp_path):
        # a^2 overflows, so the first iterate is inf - inf = NaN
        spec = {"P": [[1.0]], "A": [[[1e200]]], "B": [[[1.0]]]}
        path = tmp_path / "huge.yaml"
        path.write_text(yaml.safe_dump(spec))
        assert run_cli(["mjls-solve", "--spec", str(path)]) == 0
        assert "verdict: no-solution after 1 iterations" in (
            capsys.readouterr().out)

    @staticmethod
    def _overflowing_solve(spec, iterations, tmp_path):
        # B's 1e200 entries overflow S_bb = sum_j B_j' p M_j B_j to inf, a
        # matrix on which LAPACK's SVD can run forever; the pseudo-inverse
        # never hands it one, so the solve ends (in a subprocess with a
        # timeout, so a hang fails here instead of stalling the suite).
        # The inf block inverts to 0, which drops every input whatever the
        # exact map does, so an iterate that settles on it reads
        # indeterminate, with no gains, and exits 3 under --strict
        path = tmp_path / "overflow.yaml"
        path.write_text(yaml.safe_dump(spec))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from feedback_lab.cli import main; "
             "sys.exit(main(sys.argv[1:]))",
             "mjls-solve", "--spec", str(path)],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert (f"verdict: indeterminate after {iterations} iterations\n"
                == proc.stdout)
        assert run_cli(["mjls-solve", "--spec", str(path), "--strict"]) == \
            cli.EXIT_INDETERMINATE

    def test_overflowing_input_block_returns(self, tmp_path):
        spec = {"P": [[0.0794, 0.9206], [0.8645, 0.1355]],
                "A": [[[-0.338, 0.239], [0.174, 0.0]],
                      [[0.0557, -0.0609], [-0.0879, -0.252]]],
                "B": [[[1e-200, 1.379, -0.122], [-1.273, -0.204, -0.946]],
                      [[-1.109, -0.0764, -0.730], [-1e200, 1.549, 1.747]]]}
        self._overflowing_solve(spec, 8, tmp_path)

    def test_overflowing_own_input_is_indeterminate(self, tmp_path):
        # each state has its own input, so the exact map's fixed point is
        # I; with the overflowed input's gain dropped the iterate settles
        # at 4/3 I, which once read solved
        spec = {"P": [[1.0]], "A": [[[0.5, 0.0], [0.0, 0.5]]],
                "B": [[[1e200, 0.0], [0.0, 1.0]]]}
        self._overflowing_solve(spec, 17, tmp_path)

    def test_nan_input_block_exits_2(self, capsys, tmp_path):
        # S_bb's off-diagonal entry is 1e400 - 1e400 = inf - inf = NaN,
        # which the pseudo-inverse rejects as the SVD does
        spec = {"P": [[1.0]], "A": [[[0.5, 0.0], [0.0, 0.5]]],
                "B": [[[1e200, 1e200], [1e200, -1e200]]]}
        path = tmp_path / "nan.yaml"
        path.write_text(yaml.safe_dump(spec))
        assert run_cli(["mjls-solve", "--spec", str(path)]) == cli.EXIT_CONFIG
        assert "error: SVD did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["mjls-solve", "mjls-run"])
    @pytest.mark.parametrize("doc, message", [
        ({"P": [[1.0]], "A": [[[2.0]]], "B": [[[]]]},
         "invalid jump-linear spec"),
        ({"P": [[1.0]], "A": [[[float("nan")]]], "B": [[[1.0]]]},
         "invalid jump-linear spec"),
        ({"P": [[float("nan"), 1.0], [0.5, 0.5]], "A": [[[2.0]], [[1.0]]],
          "B": [[[1.0]], [[1.0]]]}, "invalid jump-linear spec"),
        (dict(MJLS_SPEC, sigma_lo=[1]), "spec key 'sigma_lo' must be a number"),
        (dict(MJLS_SPEC, sigma_lo=None),
         "spec key 'sigma_lo' must be a number"),
        (dict(MJLS_SPEC, sigma_hi="wide"),
         "spec key 'sigma_hi' must be a number"),
        (dict(MJLS_SPEC, A={"a": 1}),
         "spec key 'A' must be an array of numbers"),
        (dict(MJLS_SPEC, B=[[[1.0]], [[1.0, 2.0]]]),
         "spec key 'B' must be an array of numbers"),
        ({"P": [[1.0]], "A": [[0.5]], "B": [[[1.0]]]},
         "invalid jump-linear spec: A must be (N, n, n)"),
    ], ids=["zero_inputs", "nan_A", "nan_P", "sigma_lo_list", "sigma_lo_null",
            "sigma_hi_text", "A_mapping", "B_ragged", "A_2d"])
    def test_invalid_spec_exits_2(self, command, doc, message, capsys,
                                  tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert run_cli([command, "--spec", str(path)]) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err


class TestEmission:
    def test_csv_deterministic_without_timestamp(self, tmp_path, capsys):
        args = ["--no-timestamp", "parametric-sweep", "--b", "1.5,2.0",
                "--seeds", "4", "--T", "300", "--seed", "5"]
        out1 = str(tmp_path / "a")
        out2 = str(tmp_path / "b")
        assert run_cli(["--out", out1] + args) == 0
        assert run_cli(["--out", out2] + args) == 0
        c1 = open(os.path.join(out1, "parametric_sweep.csv"), "rb").read()
        c2 = open(os.path.join(out2, "parametric_sweep.csv"), "rb").read()
        assert c1 == c2

    def test_csv_header_schema_frozen(self, tmp_path, capsys):
        out = str(tmp_path)
        assert run_cli(["--out", out, "--no-timestamp", "parametric-sweep",
                        "--b", "2.0", "--seeds", "2", "--T", "200"]) == 0
        first = open(os.path.join(out, "parametric_sweep.csv")).readline()
        assert first.rstrip("\n") == ("b,blowup_fraction,mean_regret_slope,"
                                      "regret_fit_r2,regime,T,seeds")

    def test_timestamp_header_present_by_default(self, tmp_path, capsys):
        out = str(tmp_path)
        assert run_cli(["--out", out, "highorder-check", "--L", "1.0",
                        "--p", "1"]) == 0
        first = open(os.path.join(out, "highorder_check.csv")).readline()
        assert first.startswith("# generated ")

    def test_json_round_trip(self, tmp_path, capsys):
        out = str(tmp_path)
        assert run_cli(["--out", out, "--format", "json", "--no-timestamp",
                        "nonparam-duel", "--L", "6", "--seeds", "3",
                        "--T", "40"]) == 0
        payload = json.load(open(os.path.join(out, "nonparam_duel.json")))
        assert payload["name"] == "nonparam_duel"
        row = payload["rows"][0]
        table = cli.run_nonparam_duel(
            cli.load_config(None, "nonparam-duel",
                            {"L": "6", "seeds": 3, "T": 40}), 0)[0]
        expect = dict(zip(table["columns"], table["rows"][0]))
        assert row == expect

    @staticmethod
    def _reject_constant(token):
        raise ValueError(f"non-standard JSON token {token}")

    @pytest.mark.parametrize("argv, nulls", [
        (["parametric-sweep", "--b", "2", "--T", "200", "--seeds", "2"],
         {"parametric_sweep.json": ["mean_regret_slope", "regret_fit_r2"]}),
        (["poly-check", "--exponents", "5"], {}),
        (["highorder-check", "--L", "1e308", "--p", "2"], {}),
        (["nonparam-duel", "--L", "6", "--seeds", "2", "--T", "30"], {}),
        (["sampled-sweep", "--mode", "random", "--L", "1", "--samples", "5",
          "--seeds", "2"], {"sampled_sweep.json": ["min_audit_multiplier"]}),
        (["sampled-sweep", "--mode", "adversary", "--L", "8",
          "--samples", "10"], {}),
        (["mjls-solve", "--spec", "<spec>"], {}),
        (["mjls-run", "--spec", "<spec>", "--T", "10", "--seeds", "2"], {}),
    ], ids=["parametric-sweep", "poly-check", "highorder-check",
            "nonparam-duel", "sampled-sweep-random",
            "sampled-sweep-adversary", "mjls-solve", "mjls-run"])
    def test_json_is_strict(self, argv, nulls, mjls_spec_file, tmp_path,
                            capsys):
        # RFC 8259 has no NaN or Infinity; a non-finite value reads null
        out = tmp_path / "out"
        argv = [mjls_spec_file if a == "<spec>" else a for a in argv]
        assert run_cli(["--out", str(out), "--format", "json"] + argv) == 0
        paths = sorted(out.iterdir())
        assert paths and all(p.suffix == ".json" for p in paths)
        for path in paths:
            payload = json.loads(path.read_text(),
                                 parse_constant=self._reject_constant)
            for key in nulls.get(path.name, []):
                assert all(row[key] is None for row in payload["rows"])

    def test_adversary_episode_export(self, tmp_path, capsys):
        out = str(tmp_path)
        assert run_cli(["--out", out, "--no-timestamp", "nonparam-duel",
                        "--L", "6", "--seeds", "2", "--T", "30"]) == 0
        anchors = open(os.path.join(out, "nonparam_duel_anchors.csv")
                       ).read().splitlines()
        assert anchors[0] == "L,seed,x,v"
        assert len(anchors) > 2
        traj = open(os.path.join(out, "nonparam_duel_trajectory.csv")
                    ).read().splitlines()
        assert traj[0] == "L,seed,t,state,input,noise,committed_value"
        # committed anchors replay: every committed (x, v) appears in the
        # anchor dump with the same value
        committed = {}
        for line in anchors[1:]:
            _, _, x, v = line.split(",")
            committed[float(x)] = float(v)
        for line in traj[1:]:
            parts = line.split(",")
            if parts[6]:
                assert committed[float(parts[3])] == float(parts[6])

    def test_every_downsamples(self, tmp_path, capsys, mjls_spec_file):
        out = str(tmp_path)
        assert run_cli(["--out", out, "--no-timestamp", "--every", "10",
                        "mjls-run", "--spec", mjls_spec_file, "--T", "50",
                        "--seeds", "2"]) == 0
        lines = open(os.path.join(out, "mjls_run.csv")).read().splitlines()
        assert len(lines) == 1 + 6  # header + ceil(51/10)

    def test_env_seed_equals_flag_seed(self, tmp_path, capsys, monkeypatch):
        args = ["--no-timestamp", "nonparam-duel", "--L", "6",
                "--seeds", "2", "--T", "30"]
        out1 = str(tmp_path / "env")
        out2 = str(tmp_path / "flag")
        monkeypatch.setenv(cli.SEED_ENV_VAR, "99")
        assert run_cli(["--out", out1] + args) == 0
        monkeypatch.delenv(cli.SEED_ENV_VAR)
        assert run_cli(["--out", out2, "--seed", "99"] + args) == 0
        c1 = open(os.path.join(out1, "nonparam_duel.csv"), "rb").read()
        c2 = open(os.path.join(out2, "nonparam_duel.csv"), "rb").read()
        assert c1 == c2


class TestSampledSweep:
    def test_adversary_mode_reports_multiplier(self, capsys):
        assert run_cli(["sampled-sweep", "--L", "1.0", "--h", "8.0",
                        "--mode", "adversary", "--samples", "14"]) == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0]
        assert "min_audit_multiplier" in header

    def test_random_mode_runs(self, capsys):
        assert run_cli(["sampled-sweep", "--L", "0.5", "--h", "1.0",
                        "--samples", "50", "--seeds", "3"]) == 0
        out = capsys.readouterr().out
        assert "stabilizable" in out

    def test_adversary_export_replays(self, tmp_path):
        # the anchor table with each interval's mode (the left tail's is
        # the lower envelope) is the realized function: the trajectory
        # table's states replay through it bit for bit
        out = str(tmp_path)
        assert run_cli(["--out", out, "--no-timestamp", "sampled-sweep",
                        "--L", "1", "--h", "2", "--mode", "adversary",
                        "--samples", "30"]) == 0
        lines = open(os.path.join(out, "sampled_sweep_anchors.csv")
                     ).read().splitlines()
        assert lines[0] == "L,seed,x,v,mode"
        rows = [line.split(",") for line in lines[1:]]
        f = RealizedPiecewiseLinear(
            np.array([float(r[2]) for r in rows]),
            np.array([float(r[3]) for r in rows]), 1.0,
            modes=[1] + [int(r[4]) for r in rows])
        traj = [line.split(",") for line in open(os.path.join(
            out, "sampled_sweep_trajectory.csv")).read().splitlines()[1:]]
        spec = SampledSpec(L=1.0, c=1.0, h=2.0)
        for now, nxt in zip(traj, traj[1:]):
            assert integrate_sampled(float(now[3]), f, float(now[4]),
                                     spec) == float(nxt[3])

    @pytest.mark.parametrize("mode", ["adversary", "random"])
    def test_substeps_accepted_and_unread(self, mode):
        # the flow is exact, so the integrator resolution is gone
        tables = [cli.run_sampled_sweep(cli.load_config(
            None, "sampled-sweep", {"L": "1", "h": 2.0, "samples": 30,
                                    "seeds": 2, "mode": mode, **extra}), 3)
            for extra in ({}, {"substeps": 1}, {"substeps": 4096})]
        # (repr, as the rows hold NaN)
        assert repr(tables[0]) == repr(tables[1]) == repr(tables[2])


class TestNonparamDuelEscape:
    def run(self, **overrides):
        cfg = cli.load_config(None, "nonparam-duel",
                              {"L": "1", "T": 200, "seeds": 4, **overrides})
        table = cli.run_nonparam_duel(cfg, 0)[0]
        return dict(zip(table["columns"], table["rows"][0]))

    def test_default_threshold_scales_with_w_bar(self):
        # inside the radius the duel stays bounded at every noise scale;
        # the default threshold 1e6 * w_bar reads that at w_bar 1e5 too
        row = self.run(w_bar=1e5)
        assert row["escape_fraction"] == 0.0
        assert row["blowup_fraction"] == 0.0
        assert row["max_sup"] > 1e6

    def test_explicit_threshold_is_absolute(self):
        assert self.run(w_bar=1e5, escape=1e6)["escape_fraction"] == 1.0
        assert self.run(escape=1e6) == self.run()


# (option_strings, dest, type name, choices, help) of every parser
# action; the option table must declare exactly these
GLOBAL_ACTIONS = [
    (("-h", "--help"), "help", None, None, "show this help message and exit"),
    (("--config",), "config", None, None,
     "YAML config file; flags override it"),
    (("--out",), "out", None, None, "output directory for result files"),
    (("--format",), "format", None, ("csv", "json", "both"), None),
    (("--seed",), "seed", "int", None,
     "master seed (overrides $FEEDBACK_LAB_SEED)"),
    (("--force",), "force", None, None, "overwrite existing output files"),
    (("--no-timestamp",), "no_timestamp", None, None,
     "omit the timestamp header from CSV output"),
    (("--every",), "every", "int", None,
     "down-sample emitted rows to every N-th"),
    (("--strict",), "strict", None, None,
     "exit 3 on indeterminate solver verdicts"),
]

SUBCOMMAND_HELP = {
    "parametric-sweep": "blowup fraction and regret growth of the adaptive "
                        "minimum-variance loop across growth exponents; the "
                        "stabilizable/impossible switch sits at b=4",
    "poly-check": "negativity test of the characteristic polynomial attached "
                  "to decreasing regression exponents; a negative value "
                  "inside (1, b_1) certifies impossibility",
    "highorder-check": "closed-form impossibility inequality for "
                       "higher-order Lipschitz uncertainty; at p=1 the "
                       "threshold is 3/2+sqrt(2)",
    "nonparam-duel": "switching nearest-neighbor controller against random "
                     "Lipschitz members or the greedy anchor-committing "
                     "opponent",
    "sampled-sweep": "sampled-data loop across slope budgets: "
                     "certainty-equivalence control against random members, "
                     "or the escape audit against the greedy opponent",
    "mjls-solve": "solve the coupled fixed-point equations whose "
                  "positive-definite solvability decides jump-linear "
                  "stabilizability; prints M_i, K_i, residual and verdict",
    "mjls-run": "Monte Carlo of the jump-linear loop under the solved gain "
                "schedule; emits the mean-square state curve",
}

MODES = ("adversary", "random")
SPEC_HELP = "YAML file with P, A, B"
SUBCOMMAND_ACTIONS = {
    "parametric-sweep": [
        (("--b",), "b", None, None, "exponents, 'lo:hi:step' or comma list"),
        (("--seeds",), "seeds", "int", None, None),
        (("--T",), "T", "int", None, None),
        (("--unstable-T",), "unstable_T", "int", None,
         "horizon used on the impossible side"),
        (("--unstable-seeds",), "unstable_seeds", "int", None, None),
        (("--M",), "M", "float", None, None),
        (("--theta-mean",), "theta_mean", "float", None, None),
        (("--noise-var",), "noise_var", "float", None, None),
    ],
    "poly-check": [
        (("--exponents",), "exponents", None, None, "comma list, decreasing"),
    ],
    "highorder-check": [
        (("--L",), "L", "float", None, None),
        (("--p",), "p", "int", None, None),
    ],
    "nonparam-duel": [
        (("--L",), "L", None, None, "slope budgets, range or comma list"),
        (("--seeds",), "seeds", "int", None, None),
        (("--T",), "T", "int", None, None),
        (("--w-bar",), "w_bar", "float", None, None),
        (("--eps",), "eps", "float", None, None),
        (("--mode",), "mode", None, MODES, None),
        (("--escape",), "escape", "float", None,
         "sup |y| threshold; default 1e6 * w_bar"),
        (("--n-anchors",), "n_anchors", "int", None, None),
    ],
    "sampled-sweep": [
        (("--L",), "L", None, None, "slope bounds, range or comma list"),
        (("--h",), "h", "float", None, None),
        (("--c",), "c", "float", None, None),
        (("--samples",), "samples", "int", None, None),
        (("--substeps",), "substeps", "int", None,
         "accepted and unread: the flow is exact"),
        (("--seeds",), "seeds", "int", None, None),
        (("--mode",), "mode", None, MODES, None),
    ],
    "mjls-solve": [
        (("--spec",), "spec", None, None, SPEC_HELP),
        (("--tol",), "tol", "float", None, None),
        (("--max-iter",), "max_iter", "int", None, None),
    ],
    "mjls-run": [
        (("--spec",), "spec", None, None, SPEC_HELP),
        (("--T",), "T", "int", None, None),
        (("--seeds",), "seeds", "int", None, None),
    ],
}


def _declared(action):
    kind = action.type.__name__ if action.type is not None else None
    return (tuple(action.option_strings), action.dest, kind, action.choices,
            action.help)


class TestParserDeclarations:
    """Pins what argparse is told, not how it formats it: ``--help``
    text varies with the Python version and ``COLUMNS``."""

    @pytest.fixture
    def parts(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        return parser, sub

    def test_global_options(self, parts):
        parser, sub = parts
        assert [_declared(a) for a in parser._actions
                if a is not sub] == GLOBAL_ACTIONS

    def test_subcommands_in_order_with_help(self, parts):
        _, sub = parts
        assert list(sub.choices) == list(SUBCOMMAND_HELP)
        assert {a.dest: a.help for a in sub._choices_actions} == (
            SUBCOMMAND_HELP)

    @pytest.mark.parametrize("command", list(SUBCOMMAND_ACTIONS))
    def test_subcommand_options(self, parts, command):
        _, sub = parts
        actions = sub.choices[command]._actions
        n = len(SUBCOMMAND_ACTIONS[command])
        # -h first, then the experiment's options, then the global
        # options again, defaulting to SUPPRESS so that they cannot
        # clobber values parsed before the subcommand
        assert _declared(actions[0]) == GLOBAL_ACTIONS[0]
        assert [_declared(a) for a in actions[1:n + 1]] == (
            SUBCOMMAND_ACTIONS[command])
        assert [_declared(a) for a in actions[n + 1:]] == GLOBAL_ACTIONS[1:]
        assert all(a.default is argparse.SUPPRESS for a in actions[n + 1:])


# ---------------------------------------------------------------------------
# fuzz: invocations generated from the option table

SPEC, MISSING = "<spec>", "<missing>"
# kind: (values that run, hostile values: each must be rejected, or
# still get a verdict, as an order beyond float range does).  Counts stay
# at most 4, so every run is small, and value lists have at most three
# points.
FUZZ_VALUES = {
    "count": (["1", "4"], ["0", "-3", "x"]),
    "order": (["1", "4"], ["0", "-3", "x", "1" + "0" * 400]),
    "float": (["0.5", "2", "6"], ["0", "-1", "nan", "inf", "1e308", "x"]),
    "list": (["0.5", "2,6", "0.5:1:0.25"],
             ["", "0.5,inf", "1e308", "nan", "x", "1:0:1", "nan:1:1",
              "0:inf:1", "1:2"]),
    "mode": (["adversary", "random"], ["bogus"]),
    "spec": ([SPEC], [MISSING]),
}
# counts that size a run: always given, so that every run stays small
FUZZ_WORK = {"T", "seeds", "samples", "substeps", "unstable_T",
             "unstable_seeds", "max_iter", "n_anchors"}
# the one global option with values to reject, fuzzed like the others
EVERY = cli.Option("every", int)


def _kind(opt):
    if opt.key in ("mode", "spec"):
        return opt.key
    if opt.type is int and opt.key not in FUZZ_WORK:
        return "order"  # an integer that sizes no work: p and every
    return {int: "count", float: "float", str: "list"}[opt.type]


@st.composite
def _invocations(draw):
    name = draw(st.sampled_from(list(cli.SUBCOMMANDS)))
    options = cli.SUBCOMMANDS[name].options + (EVERY,)
    # at most one hostile value, so no earlier check masks
    # the one under test
    bad = draw(st.sampled_from((None,) + options))
    argv = [name]
    for opt in options:
        if not (opt is bad or opt.key in FUZZ_WORK or draw(st.booleans())):
            continue
        good, hostile = FUZZ_VALUES[_kind(opt)]
        argv += ["--" + opt.key.replace("_", "-"),
                 draw(st.sampled_from(hostile if opt is bad else good))]
    if draw(st.booleans()):
        argv.append("--strict")
    return argv


class TestCliFuzz:
    def test_exit_code_is_documented(self, tmp_path):
        spec = tmp_path / "spec.yaml"
        spec.write_text(yaml.safe_dump(MJLS_SPEC))
        paths = {SPEC: str(spec), MISSING: str(tmp_path / "missing.yaml")}
        prefix = ["--out", str(tmp_path / "out"), "--force", "--no-timestamp",
                  "--seed", "1"]

        @settings(max_examples=200, derandomize=True, deadline=None)
        @given(_invocations())
        def check(argv):
            argv = [paths.get(a, a) for a in argv]
            log = io.StringIO()
            try:
                with contextlib.redirect_stdout(log), \
                        contextlib.redirect_stderr(log):
                    code = cli.main(prefix + argv)
            except SystemExit as exc:  # argparse rejects the flags
                code = exc.code
            assert code in (cli.EXIT_OK, cli.EXIT_CONFIG,
                            cli.EXIT_INDETERMINATE), (argv, log.getvalue())

        check()
