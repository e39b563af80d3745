"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

The deterministic counts and the report digest repeat exactly for a
seed, a held-out seed passes every output check, the per-layer self
times add up to the traced wall time, and the result lines carry exactly
the metrics BENCHMARK.json names.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_program()

import workloads  # noqa: E402
from feedback_lab import sim  # noqa: E402
from tracing import Tracer  # noqa: E402

SEED = 1
HELD_OUT_SEED = 7919
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def traced_pass(name, seed, work):
    wl = workloads.WORKLOADS[name](work, seed)
    wl.write_inputs()
    wl.prepare()
    tracer = Tracer()
    return run.run_pass(wl, tracer), tracer


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_counts_and_digest_repeat_for_a_seed(name, tmp_path):
    first, _ = traced_pass(name, SEED, tmp_path / "a")
    second, _ = traced_pass(name, SEED, tmp_path / "b")
    assert first.counts == second.counts
    assert first.digest == second.digest
    assert first.counts["steps"] > 0


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_held_out_seed_passes_every_output_check(name, tmp_path):
    p, tracer = traced_pass(name, HELD_OUT_SEED, tmp_path)
    assert not p.errors
    assert [label for label, ok in p.checks if not ok] == []
    # the per-layer self times and the benchmark's own share make up the
    # traced wall time, and that share is small
    layers = sum(p.layers.values())
    assert layers <= p.wall_s
    assert p.wall_s - layers < 0.02 * p.wall_s


# Two program defects kept out of the workloads, each pinned on a seed where
# it shows; once one is fixed its test fails, and the operation it covers
# goes back into the workload (Parametric.STABLE_B, LipschitzDuel).

@pytest.mark.xfail(strict=True, reason=(
    "the float64 RLS loop at b = 3.5 overflows on an early transient whose "
    "exact-arithmetic peak stays near 1e30, so criterion 1's stable side "
    "reports a blow-up on this master seed"))
def test_b_3_5_episode_stays_bounded():
    system = sim.ParametricSystem(f=sim.PowerGrowthFn(1.0, 3.5))
    _, verdict = sim.run_episode(system, sim.MvRlsControl(), None, 5000,
                                 sim.episode_seed(492990968, 20))
    assert verdict.outcome is not sim.Outcome.BLOWUP


@pytest.mark.xfail(strict=True, reason=(
    "bounded nonparametric duels commit interval endpoints that differ "
    "from the stored anchor value by one ulp when a state revisits an "
    "anchor, so their stored trajectories do not replay bit for bit"))
def test_bounded_nonparametric_duel_replays_bit_for_bit():
    system = sim.NonparametricSystem(L=2.0, w_bar=1.0, y0_std=1.0)
    traj, _ = sim.run_episode(system, sim.SwitchingControl(),
                              sim.GreedyAdversary(), 500,
                              sim.episode_seed(1, 0))
    assert sim.check_replay(traj)


def test_duel_episodes_replay_bit_for_bit(tmp_path):
    _, tracer = traced_pass("lipschitz", SEED, tmp_path)
    assert len(tracer.duel_episodes) == 3
    assert all(sim.check_replay(traj) for traj in tracer.duel_episodes)


def result_line(args, cwd):
    out = subprocess.run([sys.executable, "perfbench/run.py", *args],
                         cwd=cwd, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_the_declared_metrics(trace, key):
    result = result_line(["--workload", "adaptive", "--seed", str(SEED),
                          "--seconds", "0", "--trace", str(trace)], run.ROOT)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "adaptive", "--seconds", "1"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
