"""Experiment runner.

Each subcommand binds a config (YAML file and/or flags, flags win) to
one experiment and emits plot-ready CSV/JSON.  Runs are pure functions
of (config, master seed); re-running reproduces byte-identical output
apart from the timestamp header, which ``--no-timestamp`` drops.

Exit codes: 0 success, 2 config/validation error, 3 indeterminate
solver verdict under ``--strict``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np
import yaml

from . import analysis, riccati, sim
from .models import (ConfigurationError, GaussianIID, MarkovChain,
                     MartingaleDiffVector, MjlsSpec, PowerGrowthFn,
                     SampledSpec)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INDETERMINATE = 3

SEED_ENV_VAR = "FEEDBACK_LAB_SEED"
# a lo:hi:step range holds at most this many points, far beyond any sweep;
# it is checked before a point is built
MAX_RANGE_POINTS = 10_000


class CliError(Exception):
    """Configuration or validation failure; maps to exit code 2."""


# ---------------------------------------------------------------------------
# config handling


@dataclass(frozen=True)
class Option:
    """One experiment option.  ``key`` is the config-file key and, with
    ``_`` spelled ``-``, the flag; ``default`` is its value where neither
    the file nor a flag sets it (None: the key stays out of the config).
    Defaults, file values and flags alike are coerced to ``type`` and,
    where ``choices`` is set, checked against it."""

    key: str
    type: type
    default: object = None
    help: str | None = None
    choices: tuple[str, ...] | None = None


@dataclass(frozen=True)
class Subcommand:
    """``run(cfg)`` prints the subcommand's summary and returns the tables
    to emit; ``cfg["seed"]`` is the master seed."""

    run: Callable[[dict], list[dict]]
    help: str
    options: tuple[Option, ...]


def _read_mapping(path: str, kind: str) -> dict:
    """The mapping a YAML config or spec file holds; {} if it is empty."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {kind} file: {exc}")
    except yaml.YAMLError as exc:
        raise CliError(f"malformed {kind} file: {exc}")
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise CliError(f"{kind} file must hold a mapping")
    return raw


def load_config(path: str | None, experiment: str, overrides: dict) -> dict:
    """The complete config of a run: the option rows' defaults, then the
    file, then the flags (a None flag sets nothing).  Unknown keys are
    rejected."""
    options = SUBCOMMANDS[experiment].options + (Option("seed", int, 0),)
    schema = {opt.key: opt for opt in options}
    merged = {opt.key: opt.default for opt in options
              if opt.default is not None}
    layers = []
    if path is not None:
        raw = _read_mapping(path, "config")
        exp = raw.pop("experiment", experiment)
        if exp != experiment:
            raise CliError(
                f"config file is for experiment {exp!r}, not {experiment!r}")
        layers.append(raw)
    layers.append({k: v for k, v in overrides.items() if v is not None})
    for layer in layers:
        for key, value in layer.items():
            if key not in schema:
                raise CliError(f"unknown config key {key!r} for {experiment}")
            merged[key] = value
    for key, value in merged.items():
        opt = schema[key]
        try:
            if opt.type is int and isinstance(value, (bool, float)):
                # int() would truncate 2.9, overflow at inf and read true
                raise TypeError
            merged[key] = opt.type(value)
        except (TypeError, ValueError):
            raise CliError(f"config key {key!r} must be {opt.type.__name__}")
        if opt.choices and merged[key] not in opt.choices:
            raise CliError(f"{key} must be "
                           + " or ".join(repr(c) for c in opt.choices))
    return merged


def serialize_config(experiment: str, cfg: dict) -> str:
    doc = {"experiment": experiment}
    doc.update({k: cfg[k] for k in sorted(cfg)})
    return yaml.safe_dump(doc, sort_keys=False)


def parse_value_list(spec: str) -> list[float]:
    """Parse 'lo:hi:step' (inclusive within 1e-9) or 'a,b,c' floats."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise CliError(f"range must be lo:hi:step, got {spec!r}")
        lo, hi, step = (float(p) for p in parts)
        if not all(math.isfinite(v) for v in (lo, hi, step)):
            raise CliError(f"range bounds and step must be finite: {spec!r}")
        if step <= 0:
            raise CliError("range step must be positive")
        if (hi - lo) / step >= MAX_RANGE_POINTS:
            raise CliError(f"range {spec!r} has more than "
                           f"{MAX_RANGE_POINTS} points")
        vals = []
        k = 0
        while True:
            v = lo + k * step
            if v > hi + 1e-9:
                break
            vals.append(round(v, 12))
            k += 1
    else:
        vals = [float(p) for p in spec.split(",") if p.strip()]
    if not vals:
        raise CliError(f"value list {spec!r} is empty")
    return vals


def _seed_override(flag_seed: int | None) -> int | None:
    """The seed that overrides the config: the flag, else FEEDBACK_LAB_SEED
    (None where neither is set)."""
    env = os.environ.get(SEED_ENV_VAR)
    if flag_seed is not None or env is None:
        return flag_seed
    try:
        return int(env)
    except ValueError:
        raise CliError(f"{SEED_ENV_VAR} must be an integer, got {env!r}")


# ---------------------------------------------------------------------------
# emission


def _out_paths(args: argparse.Namespace, name: str) -> list[str]:
    """The files table ``name`` goes to: one for each format ``--format``
    asks for, under ``--out`` (none without it).  One that exists is
    refused unless ``--force`` is given."""
    if args.out is None:
        return []
    paths = [os.path.join(args.out, f"{name}.{ext}") for ext in ("csv", "json")
             if args.format in (ext, "both")]
    for path in paths:
        if os.path.exists(path) and not args.force:
            raise CliError(f"refusing to overwrite {path} without --force")
    return paths


def _json_value(value):
    # RFC 8259 has no NaN or Infinity: a non-finite number writes as null
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def emit(results: dict, args: argparse.Namespace) -> list[str]:
    """Write one table to <name>.csv and/or <name>.json under ``--out``;
    returns the paths written.

    ``--every`` down-samples only tables flagged as time-indexed
    (trajectories and curves), never sweep summaries.
    """
    name = results["name"]
    columns = results["columns"]
    rows = results["rows"]
    if results.get("downsample", False):
        rows = rows[:: args.every]
    paths = _out_paths(args, name)
    if paths:
        os.makedirs(args.out, exist_ok=True)
    for path in paths:
        if path.endswith(".csv"):
            with open(path, "w", newline="", encoding="utf-8") as fh:
                if not args.no_timestamp:
                    stamp = datetime.now(timezone.utc).isoformat()
                    fh.write(f"# generated {stamp}\n")
                writer = csv.writer(fh)
                writer.writerow(columns)
                writer.writerows(rows)
        else:
            payload = {"name": name, "rows": [
                {c: _json_value(v) for c, v in zip(columns, row)}
                for row in rows]}
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
    return paths


def _print_table(table: dict, limit=25) -> None:
    rows = table["rows"]
    print(",".join(table["columns"]))
    for row in rows[:limit]:
        print(",".join(str(v) for v in row))
    if len(rows) > limit:
        print(f"... ({len(rows) - limit} more rows)")


# ---------------------------------------------------------------------------
# experiments


def run_parametric_sweep(cfg: dict) -> list[dict]:
    bs = parse_value_list(cfg["b"])
    seeds = cfg["seeds"]
    rows = []
    for b in bs:
        verdict = analysis.parametric_regime(b)
        horizon = cfg["T"] if verdict.stabilizable else cfg["unstable_T"]
        n = (seeds if verdict.stabilizable
             else cfg.get("unstable_seeds", seeds))
        system = sim.ParametricSystem(f=PowerGrowthFn(M=cfg["M"], b=b),
                                      noise=GaussianIID(cfg["noise_var"]),
                                      theta_mean=cfg["theta_mean"])
        mc = sim.McConfig(system=system, controller=sim.MvRlsControl(),
                          T=horizon, master_seed=cfg["seed"],
                          checkpoints=sim.default_checkpoints(horizon))
        report = sim.monte_carlo(mc, n)
        try:
            slope, r2 = sim.regret_logfit(report)
        except ValueError:
            slope, r2 = float("nan"), float("nan")
        rows.append([b, report.blowup_fraction, slope, r2, verdict.regime.value,
                     horizon, n])
    table = {"name": "parametric_sweep",
             "columns": ["b", "blowup_fraction", "mean_regret_slope",
                         "regret_fit_r2", "regime", "T", "seeds"],
             "rows": rows}
    _print_table(table)
    return [table]


def run_poly_check(cfg: dict) -> list[dict]:
    exps = parse_value_list(cfg["exponents"])
    poly = analysis.characteristic_poly(exps)
    verdict = analysis.poly_impossible(poly, exps[0])
    if verdict.regime is analysis.Regime.IMPOSSIBLE:
        pz = float(poly(verdict.witness))
        print(f"IMPOSSIBLE, witness z~{verdict.witness:.6g}, P(z)={pz:.6g}")
        rows = [[",".join(f"{e:g}" for e in exps), "impossible",
                 verdict.witness, pz]]
    else:
        print("criterion not triggered")
        rows = [[",".join(f"{e:g}" for e in exps), "not-triggered", "", ""]]
    return [{"name": "poly_check",
             "columns": ["exponents", "verdict", "witness_z", "P_at_witness"],
             "rows": rows}]


def run_highorder_check(cfg: dict) -> list[dict]:
    L, p = cfg["L"], cfg["p"]
    verdict = analysis.highorder_impossible(L, p)
    label = ("impossible" if verdict.regime is analysis.Regime.IMPOSSIBLE
             else "not-triggered")
    flag = " (boundary)" if verdict.boundary else ""
    print(f"L={L} p={p}: {label}{flag}, margin={verdict.witness:.6g}")
    return [{"name": "highorder_check",
             "columns": ["L", "p", "verdict", "boundary", "margin"],
             "rows": [[L, p, label, verdict.boundary, verdict.witness]]}]


def _anchor_table(name: str, label: float, traj, modes=False) -> dict:
    # with modes, each anchor's row also names the envelope (mode) of the
    # interval to its right (the last row's: the right tail's)
    f = traj.realized_f
    rows = [[label, traj.seed, float(x), float(v)] + ([m] if modes else [])
            for x, v, m in zip(f.xs, f.vs, f.modes[1:].tolist())]
    return {"name": f"{name}_anchors",
            "columns": ["L", "seed", "x", "v"] + (["mode"] if modes else []),
            "rows": rows}


def _trajectory_table(name: str, label: float, traj) -> dict:
    rows = []
    committed = traj.committed
    for t in range(traj.states.shape[0]):
        u = float(traj.inputs[t]) if t < traj.inputs.shape[0] else ""
        w = float(traj.noises[t])
        v = (float(committed[t]) if committed is not None
             and t < committed.shape[0] else "")
        rows.append([label, traj.seed, t, float(traj.states[t]), u, w, v])
    return {"name": f"{name}_trajectory",
            "columns": ["L", "seed", "t", "state", "input", "noise",
                        "committed_value"],
            "rows": rows, "downsample": True}


def run_nonparam_duel(cfg: dict) -> list[dict]:
    Ls = parse_value_list(cfg["L"])
    T, seeds, w_bar, mode = cfg["T"], cfg["seeds"], cfg["w_bar"], cfg["mode"]
    seed = cfg["seed"]
    # None means 1e6 * w_bar, so the verdict reads the same at every noise
    # scale; an explicit --escape is absolute
    escape = cfg.get("escape")
    if escape is None:
        escape = 1e6 * w_bar
    elif not 0 < escape < math.inf:
        raise CliError(f"escape must be finite and positive, got {escape}")
    rows = []
    extras = []
    for L in Ls:
        if mode == "adversary":
            system = sim.NonparametricSystem(L=L, w_bar=w_bar, y0_std=1.0)
            adversary = sim.GreedyAdversary()
        else:
            system = sim.NonparametricSystem(
                L=L, w_bar=w_bar, y0_std=1.0,
                member=sim.RandomMember(n_anchors=cfg["n_anchors"]))
            adversary = None
        controller = sim.SwitchingControl(eps=cfg.get("eps"))
        mc = sim.McConfig(system=system, controller=controller,
                          adversary=adversary, T=T, master_seed=seed)
        report = sim.monte_carlo(mc, seeds)
        n_escaped = sum(1 for e in report.episodes
                        if e.sup_abs_state > escape or e.blow_step is not None)
        sups = [e.sup_abs_state for e in report.episodes]
        rows.append([L, mode, seeds, T, n_escaped / seeds,
                     report.blowup_fraction, float(np.median(sups)),
                     float(np.max(sups))])
        if mode == "adversary" and not extras:
            # representative committed function and trajectory, first episode
            traj, _ = sim.run_episode(system, controller, adversary, T,
                                      sim.episode_seed(seed, 0))
            extras = [_anchor_table("nonparam_duel", L, traj),
                      _trajectory_table("nonparam_duel", L, traj)]
    table = {"name": "nonparam_duel",
             "columns": ["L", "mode", "seeds", "T", "escape_fraction",
                         "blowup_fraction", "median_sup", "max_sup"],
             "rows": rows}
    _print_table(table)
    return [table] + extras


def run_sampled_sweep(cfg: dict) -> list[dict]:
    Ls = parse_value_list(cfg["L"])
    h, samples = cfg["h"], cfg["samples"]
    seeds, mode, seed = cfg["seeds"], cfg["mode"], cfg["seed"]
    rows = []
    extras = []
    for L in Ls:
        spec = SampledSpec(L=L, c=cfg["c"], h=h)
        verdict = analysis.sampled_regime(L, h)
        if mode == "adversary":
            system = sim.SampledSystem(spec=spec)
            traj, ep = sim.run_episode(system, sim.SampledCeControl(),
                                       sim.SampledGreedyAdversary(),
                                       T=samples, seed=seed)
            multipliers = sim.growth_rate_audit(traj)
            min_mult = (float(np.min(multipliers[:12]))
                        if multipliers.shape[0] else float("nan"))
            rows.append([L, h, L * h, verdict.regime.value, mode, 1,
                         1.0 if ep.outcome is sim.Outcome.BLOWUP else 0.0,
                         ep.sup_abs_state, min_mult])
            if not extras:
                extras = [_anchor_table("sampled_sweep", L, traj, True),
                          _trajectory_table("sampled_sweep", L, traj)]
        else:
            system = sim.SampledSystem(spec=spec,
                                       member=sim.RandomEnvelopeMember(),
                                       x0_std=1.0)
            mc = sim.McConfig(system=system, controller=sim.SampledCeControl(),
                              T=samples, master_seed=seed)
            report = sim.monte_carlo(mc, seeds)
            sups = [e.sup_abs_state for e in report.episodes]
            rows.append([L, h, L * h, verdict.regime.value, mode, seeds,
                         report.blowup_fraction, float(np.max(sups)),
                         float("nan")])
    table = {"name": "sampled_sweep",
             "columns": ["L", "h", "Lh", "regime", "mode", "seeds",
                         "blowup_fraction", "max_sup", "min_audit_multiplier"],
             "rows": rows}
    _print_table(table)
    return [table] + extras


def _spec_value(raw: dict, key: str, convert, what: str, default=None):
    """``convert`` of the spec file's value at ``key`` (``default`` where it
    has none), failing with a message that names the key."""
    if key not in raw and default is None:
        raise CliError(f"spec file missing key {key!r}")
    try:
        return convert(raw.get(key, default))
    except (TypeError, ValueError):
        raise CliError(f"spec key {key!r} must be {what}")


def load_mjls_spec(path: str) -> MjlsSpec:
    raw = _read_mapping(path, "spec")
    unknown = set(raw) - {"P", "A", "B", "sigma_lo", "sigma_hi"}
    if unknown:
        raise CliError(f"unknown spec keys: {sorted(unknown)}")
    P, A, B = (_spec_value(raw, key, lambda v: np.asarray(v, dtype=float),
                           "an array of numbers") for key in ("P", "A", "B"))
    if A.ndim != 3:
        raise CliError("invalid jump-linear spec: A must be (N, n, n)")
    n = A.shape[1]
    lo = _spec_value(raw, "sigma_lo", float, "a number", 1.0)
    hi = _spec_value(raw, "sigma_hi", float, "a number", n * 1.0)
    try:
        noise = MartingaleDiffVector(sigma_lo=lo, sigma_hi=hi, dim=n)
        return MjlsSpec(chain=MarkovChain(P), A=A, B=B, noise=noise)
    except (ValueError, ConfigurationError) as exc:
        raise CliError(f"invalid jump-linear spec: {exc}")


def _mjls_spec(cfg: dict, command: str) -> MjlsSpec:
    if not cfg.get("spec"):
        raise CliError(f"{command} needs --spec FILE")
    return load_mjls_spec(cfg["spec"])


def run_mjls_solve(cfg: dict) -> list[dict]:
    spec = _mjls_spec(cfg, "mjls-solve")
    result = riccati.solve_coupled_riccati(spec, tol=cfg["tol"],
                                           max_iter=cfg["max_iter"])
    print(f"verdict: {result.status.value} after {result.iterations} iterations")
    rows = []
    if result.solution is not None:
        sol = result.solution
        print(f"residual: {sol.residual:.3e}")
        for i in range(spec.n_modes):
            print(f"M_{i + 1} =\n{sol.Ms[i]}")
            print(f"K_{i + 1} =\n{sol.Ks[i]}")
            rows.append([i + 1, json.dumps(sol.Ms[i].tolist()),
                         json.dumps(sol.Ks[i].tolist()), sol.residual])
    indeterminate = result.status is riccati.SolveStatus.INDETERMINATE
    return [{"name": "mjls_solve",
             "columns": ["mode", "M", "K", "residual"],
             "rows": rows, "indeterminate": indeterminate}]


def run_mjls_run(cfg: dict) -> list[dict]:
    spec = _mjls_spec(cfg, "mjls-run")
    result = riccati.solve_coupled_riccati(spec)
    indeterminate = result.status is riccati.SolveStatus.INDETERMINATE
    if result.solution is None:
        print(f"no gain schedule: solver verdict {result.status.value}")
        controller = sim.ZeroControl()
    else:
        controller = sim.MjlsGainControl(result.solution)
    system = sim.MjlsSystem(spec=spec, x0=tuple([0.0] * spec.n_states))
    mc = sim.McConfig(system=system, controller=controller, T=cfg["T"],
                      master_seed=cfg["seed"], collect_curve=True)
    report = sim.monte_carlo(mc, cfg["seeds"])
    rows = []
    if report.mean_sq_curve is not None:
        for t, v in enumerate(report.mean_sq_curve):
            rows.append([t, float(v)])
    print(f"blowup_fraction: {report.blowup_fraction}")
    if report.mean_sq_curve is not None:
        print(f"final mean square: {report.mean_sq_curve[-1]:.6g}")
    table = {"name": "mjls_run",
             "columns": ["t", "mean_sq_state"],
             "rows": rows, "downsample": True,
             "indeterminate": indeterminate}
    _print_table(table)
    return [table]


# ---------------------------------------------------------------------------
# subcommands: one row per option


_MODES = ("adversary", "random")

SUBCOMMANDS = {
    "parametric-sweep": Subcommand(
        run_parametric_sweep,
        "blowup fraction and regret growth of the adaptive minimum-variance "
        "loop across growth exponents; the stabilizable/impossible switch "
        "sits at b=4",
        (Option("b", str, "1.5:6.0:0.5",
                "exponents, 'lo:hi:step' or comma list"),
         Option("seeds", int, 100),
         Option("T", int, 5000),
         Option("unstable_T", int, 200, "horizon used on the impossible side"),
         Option("unstable_seeds", int),  # None: seeds
         Option("M", float, 1.0),
         Option("theta_mean", float, sim.ParametricSystem.theta_mean),
         Option("noise_var", float, GaussianIID.variance))),
    "poly-check": Subcommand(
        run_poly_check,
        "negativity test of the characteristic polynomial attached to "
        "decreasing regression exponents; a negative value inside (1, b_1) "
        "certifies impossibility",
        (Option("exponents", str, "5", "comma list, decreasing"),)),
    "highorder-check": Subcommand(
        run_highorder_check,
        "closed-form impossibility inequality for higher-order Lipschitz "
        "uncertainty; at p=1 the threshold is 3/2+sqrt(2)",
        (Option("L", float, 1.0),
         Option("p", int, 1))),
    "nonparam-duel": Subcommand(
        run_nonparam_duel,
        "switching nearest-neighbor controller against random Lipschitz "
        "members or the greedy anchor-committing opponent",
        (Option("L", str, "6", "slope budgets, range or comma list"),
         Option("seeds", int, 100),
         Option("T", int, 500),
         Option("w_bar", float, sim.NonparametricSystem.w_bar),
         Option("eps", float),  # None: sim.SwitchingControl's 0.1 * w_bar
         Option("mode", str, "adversary", choices=_MODES),
         Option("escape", float,
                help="sup |y| threshold; default 1e6 * w_bar"),
         Option("n_anchors", int, sim.RandomMember.n_anchors))),
    "sampled-sweep": Subcommand(
        run_sampled_sweep,
        "sampled-data loop across slope budgets: certainty-equivalence "
        "control against random members, or the escape audit against the "
        "greedy opponent",
        (Option("L", str, "0.5,1.0,2.0", "slope bounds, range or comma list"),
         Option("h", float, 1.0),
         Option("c", float, 1.0),
         Option("samples", int, 1000),
         Option("substeps", int,
                help="accepted and unread: the flow is exact"),
         Option("seeds", int, 50),
         Option("mode", str, "random", choices=_MODES))),
    "mjls-solve": Subcommand(
        run_mjls_solve,
        "solve the coupled fixed-point equations whose positive-definite "
        "solvability decides jump-linear stabilizability; prints M_i, K_i, "
        "residual and verdict",
        (Option("spec", str, help="YAML file with P, A, B"),
         Option("tol", float, riccati.DEFAULT_TOL),
         Option("max_iter", int, riccati.DEFAULT_MAX_ITER))),
    "mjls-run": Subcommand(
        run_mjls_run,
        "Monte Carlo of the jump-linear loop under the solved gain schedule; "
        "emits the mean-square state curve",
        (Option("spec", str, help="YAML file with P, A, B"),
         Option("T", int, 2000),
         Option("seeds", int, 50))),
}


# ---------------------------------------------------------------------------
# argument parsing


def _add_global_options(parser: argparse.ArgumentParser,
                        suppress: bool) -> None:
    # registered on the top-level parser and again on every subparser so
    # the flags work in either position; the subparser copies default to
    # SUPPRESS so they cannot clobber values parsed before the subcommand
    def dflt(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--config", default=dflt(None),
                        help="YAML config file; flags override it")
    parser.add_argument("--out", default=dflt(None),
                        help="output directory for result files")
    parser.add_argument("--format", choices=("csv", "json", "both"),
                        default=dflt("csv"))
    parser.add_argument("--seed", type=int, default=dflt(None),
                        help=f"master seed (overrides ${SEED_ENV_VAR})")
    parser.add_argument("--force", action="store_true", default=dflt(False),
                        help="overwrite existing output files")
    parser.add_argument("--no-timestamp", action="store_true",
                        default=dflt(False),
                        help="omit the timestamp header from CSV output")
    parser.add_argument("--every", type=int, default=dflt(1),
                        help="down-sample emitted rows to every N-th")
    parser.add_argument("--strict", action="store_true", default=dflt(False),
                        help="exit 3 on indeterminate solver verdicts")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: built from the static option table
    at the first call and shared by every later ``main``; parsing keeps
    its state in the namespace it returns, not in the parser."""
    parser = argparse.ArgumentParser(
        prog="feedback-lab",
        description="Simulation laboratory for the capability and limits "
                    "of feedback under structural uncertainty.")
    _add_global_options(parser, suppress=False)
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, command in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for opt in command.options:
            # strings need no converter
            p.add_argument("--" + opt.key.replace("_", "-"),
                           type=None if opt.type is str else opt.type,
                           choices=opt.choices, help=opt.help)
        _add_global_options(p, suppress=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = SUBCOMMANDS[args.experiment]
    try:
        overrides = {opt.key: getattr(args, opt.key)
                     for opt in command.options}
        overrides["seed"] = _seed_override(args.seed)
        cfg = load_config(args.config, args.experiment, overrides)
        if args.every < 1:
            raise CliError(f"--every must be at least 1, got {args.every}")
        # the main table, named after the command, is refused before the
        # run; every table is refused before the first one is written
        _out_paths(args, args.experiment.replace("-", "_"))
        tables = command.run(cfg)
        for table in tables:
            _out_paths(args, table["name"])
        for table in tables:
            for path in emit(table, args):
                print(f"wrote {path}")
        if args.strict and any(t.get("indeterminate") for t in tables):
            return EXIT_INDETERMINATE
        return EXIT_OK
    except (CliError, ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
