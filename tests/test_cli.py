import json
import os

import pytest
import yaml

from feedback_lab import cli, riccati


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

    def test_round_trip_idempotent(self, tmp_path):
        cfg = cli.load_config(None, "nonparam-duel",
                              {"T": 10, "L": "6", "seeds": 3})
        text = cli.serialize_config("nonparam-duel", cfg)
        cfg2 = cli.parse_config_text(text, "nonparam-duel")
        assert cfg2 == cfg
        text2 = cli.serialize_config("nonparam-duel", cfg2)
        assert text2 == text

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

    @pytest.mark.parametrize("command", ["mjls-solve", "mjls-run"])
    @pytest.mark.parametrize("A, B", [([[[2.0]]], [[[]]]),
                                      ([[[float("nan")]]], [[[1.0]]])],
                             ids=["zero_inputs", "nan_A"])
    def test_invalid_spec_exits_2(self, command, A, B, capsys, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"P": [[1.0]], "A": A, "B": B}))
        assert run_cli([command, "--spec", str(path)]) == cli.EXIT_CONFIG
        assert "invalid jump-linear spec" in capsys.readouterr().err


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
