"""Golden digests: the sha256 of every ``--no-timestamp`` CSV of one small
run of each subcommand that runs an episode kernel over anchor stores,
nearest-neighbour histories, the RLS recurrence or the jump-linear loop.

A change that moves a pin on purpose updates it and states the cause in
CHANGES.md.  No pinned byte may depend on the linear-algebra build.  One
parametric horizon stays below five regret checkpoints, so its regret
fit reads NaN, and one has five, which the fit's scalar loops (the
normal equations about the means) turn into a slope and r^2.
``mjls-run`` runs a one-state and a two-state spec, each with one input:
the episode kernel, the Riccati solve and its gains all sum in scalar
loops, and at one input the pseudo-inverse is 1/x in closed form.
``mjls-solve`` runs the one-state spec, so its residual column, from
numpy's matrix products, holds one-term products only, and the SVD of a
1 x 1 matrix is its absolute value.  ``mjls-solve`` with more than one
state or input stays out: its residual would take BLAS's small-matrix
products or LAPACK's SVD of a larger matrix.
"""

import hashlib

import pytest
import yaml

from feedback_lab import cli

SEED = "11"
SPECS = {
    # two scalar modes, one contracting and one expanding, both actuated
    "<spec>": {"P": [[0.7, 0.3], [0.4, 0.6]], "A": [[[0.5]], [[1.8]]],
               "B": [[[1.0]], [[0.6]]]},
    # two modes of two states driven through one input; the second mode
    # is unstable open loop
    "<spec2>": {"P": [[0.7, 0.3], [0.4, 0.6]],
                "A": [[[0.6, 0.3], [0.0, 0.9]], [[1.1, 0.0], [0.2, 0.7]]],
                "B": [[[1.0], [0.5]], [[0.0], [1.0]]]},
}

RUNS = {
    "parametric-sweep": (
        ["parametric-sweep", "--b", "2,3.5,4.5,6", "--seeds", "8",
         "--T", "1000", "--unstable-T", "100"],
        {"parametric_sweep.csv":
         "7a9e6dbfa813ea422910db1565676b242d71460fcfa4abd90a85ff380e6f8d87"}),
    "parametric-sweep-fit": (
        ["parametric-sweep", "--b", "2,3.5,4.5,6", "--seeds", "8",
         "--T", "2048", "--unstable-T", "100"],
        {"parametric_sweep.csv":
         "f93e2a6fb0e206ce380da854d543ead477b40a325d7e0d286e0b9216cad924e5"}),
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
         "293b00ebb926ec9121b91fa02c84ef7c321c4ec0db9a584a1518dfc41a00982b"}),
    "sampled-sweep-adversary": (
        ["sampled-sweep", "--mode", "adversary", "--L", "1,8", "--h", "1",
         "--samples", "40", "--substeps", "16"],
        {"sampled_sweep.csv":
         "a4f6c750c47b742d7e2e0ce5783073cf05b1da095956424b96b6a6d86e99368c",
         "sampled_sweep_anchors.csv":
         "d69e257e6711e44160fd0dd4a8ca1574838797f459e8bb8d8e9af9da7d12ff2f",
         "sampled_sweep_trajectory.csv":
         "f6c5cb2cf8cc9b029e0663cae5f0138415f4dbb19580360504e626a0aa5635a2"}),
    "mjls-solve": (
        ["mjls-solve", "--spec", "<spec>"],
        {"mjls_solve.csv":
         "638fb37a966e8e2dcd2b8b1e4debc5a4b15593a682d295c04d1ba2d7523c57bf"}),
    "mjls-run": (
        ["mjls-run", "--spec", "<spec>", "--T", "200", "--seeds", "6"],
        {"mjls_run.csv":
         "7f5f0edd2aba221051a1b5c23411ec5f74cf8c8a4cce90fe4ca03679820135f0"}),
    "mjls-run-two-states": (
        ["mjls-run", "--spec", "<spec2>", "--T", "200", "--seeds", "6"],
        {"mjls_run.csv":
         "17f38b6fc362ee1f240dbe28e41809d5d72e5ace9f6df04efc97180dc428c824"}),
}


@pytest.mark.parametrize("name", RUNS)
def test_csv_bytes_match_the_pins(name, tmp_path):
    argv, pins = RUNS[name]
    paths = {}
    for key, spec in SPECS.items():
        paths[key] = tmp_path / f"spec{len(paths)}.yaml"
        paths[key].write_text(yaml.safe_dump(spec))
    out = tmp_path / "out"
    argv = [str(paths.get(a, a)) for a in argv]
    code = cli.main(argv + ["--seed", SEED, "--out", str(out),
                            "--no-timestamp"])
    assert code == cli.EXIT_OK
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())}
    assert digests == pins
