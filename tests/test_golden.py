"""Golden digests: the sha256 of every ``--no-timestamp`` CSV of one small
run of each subcommand that runs an episode kernel over anchor stores,
nearest-neighbour histories or the RLS recurrence.

A change that moves a pin on purpose updates it and states the cause in
CHANGES.md.  The parametric horizons stay below five regret checkpoints,
so the least-squares regret fit (LAPACK) reads NaN and no pinned byte
depends on the linear-algebra build.  ``mjls-run`` and ``mjls-solve``
stay out for the same reason: ``mjls_episode`` multiplies through BLAS
and multi-input solves take LAPACK's SVD, so their bytes can differ
across CPUs and builds until those kernels run in scalar loops.
"""

import hashlib

import pytest

from feedback_lab import cli

SEED = "11"

RUNS = {
    "parametric-sweep": (
        ["parametric-sweep", "--b", "2,3.5,4.5,6", "--seeds", "8",
         "--T", "1000", "--unstable-T", "100"],
        {"parametric_sweep.csv":
         "7a9e6dbfa813ea422910db1565676b242d71460fcfa4abd90a85ff380e6f8d87"}),
    "nonparam-duel-random": (
        ["nonparam-duel", "--mode", "random", "--L", "1,6", "--seeds", "6",
         "--T", "500"],
        {"nonparam_duel.csv":
         "e37f3c35d65ec7579f6d6435636adb44d9ef8b8863d7667bce802a9fca99b16f"}),
    "nonparam-duel-adversary": (
        ["nonparam-duel", "--mode", "adversary", "--L", "2,6", "--seeds", "6",
         "--T", "500"],
        {"nonparam_duel.csv":
         "94246afc7ffd06d46f812b736f2b1071d513c7393dccbbe4688a59cd8f9735ae",
         "nonparam_duel_anchors.csv":
         "fe1a29d42c341af68a0944df9817be6247291d7a04c58a5dbc15565bd531b08f",
         "nonparam_duel_trajectory.csv":
         "e1998942653012eb195538fb6055c790a6aa4000c9bfa03b77e74ef32f07f3f7"}),
    "sampled-sweep-random": (
        ["sampled-sweep", "--mode", "random", "--L", "0.5,2", "--h", "1",
         "--samples", "100", "--substeps", "16", "--seeds", "4"],
        {"sampled_sweep.csv":
         "485848953f04088d4ea47d4a9e67b0848760e6a48bf41b13c1d372329dc2f87d"}),
    "sampled-sweep-adversary": (
        ["sampled-sweep", "--mode", "adversary", "--L", "1,8", "--h", "1",
         "--samples", "40", "--substeps", "16"],
        {"sampled_sweep.csv":
         "86cc268f5d50f2499c9b56416b68a3b6702418b25442d28a73b7141e8d0adadf",
         "sampled_sweep_anchors.csv":
         "6c7f7c5b4e6e715ffba87337fd308e581b3c395893f3dded5e826bd75d8bb700",
         "sampled_sweep_trajectory.csv":
         "c039a082faa9760d25fef6ac9de27be604fc380635aa81fa1cc41d42382b361f"}),
}


@pytest.mark.parametrize("name", RUNS)
def test_csv_bytes_match_the_pins(name, tmp_path):
    argv, pins = RUNS[name]
    code = cli.main(argv + ["--seed", SEED, "--out", str(tmp_path),
                            "--no-timestamp"])
    assert code == cli.EXIT_OK
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.iterdir())}
    assert digests == pins
