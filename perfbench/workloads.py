"""The benchmark workloads, built from scaled-down acceptance criteria.

Each part below is one criterion.  A workload writes its input files (one YAML config per CLI invocation,
plus a jump-linear spec), runs one pass of calls into ``feedback_lab``
and then checks the pass's outputs against the paper's verdicts.  The
workload seed reaches the program only as the CLI ``--seed``; everything
else in a pass is fixed, so a seed fixes the outputs and the counts.

Every call goes through a module attribute (``cli.main``,
``riccati.solve_coupled_riccati``) looked up at call time, so the traced
run sees the same path as the untraced one.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from feedback_lab import analysis, cli, riccati
from feedback_lab.models import MarkovChain, MartingaleDiffVector, MjlsSpec

# fixed 3-mode, 3-state jump-linear spec for ``mjls-run``: a contracting
# mode, an expanding rotation and a mode with an unstable axis, all fully
# actuated, on a sticky chain; its gain schedule keeps every episode bounded
_C, _S = 0.7648, 0.6442
MJLS_SPEC = {
    "P": [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
    "A": [[[0.5, 0.1, 0.0], [0.0, 0.4, 0.1], [0.0, 0.0, 0.3]],
          [[1.2 * _C, -1.2 * _S, 0.0], [1.2 * _S, 1.2 * _C, 0.0],
           [0.0, 0.0, 0.9]],
          [[1.5, 0.2, 0.0], [0.0, 0.3, 0.1], [0.0, 0.0, -0.8]]],
    "B": [np.eye(3).tolist()] * 3,
}

# criterion 6's grid: A = (0, delta), B = 1, symmetric switching p12
GRID_DELTAS = np.linspace(0.0, 3.0, 20)
GRID_P12 = [(k + 0.5) / 20.0 for k in range(20)]
GRID_BAND = 0.05


@dataclass
class PassRecord:
    """What one pass returned: per-invocation exit codes and stdout, and
    the raw results of direct solver calls."""

    codes: dict[str, int | None] = field(default_factory=dict)
    stdout: dict[str, str] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    grid: list = field(default_factory=list)


@dataclass(frozen=True)
class Invocation:
    name: str
    experiment: str
    config: dict


class Workload:
    name = ""
    why = ""
    invocations: tuple[Invocation, ...] = ()

    def __init__(self, work: Path, seed: int):
        self.work = Path(work)
        self.seed = seed
        self.out = self.work / "out"

    # -- inputs ------------------------------------------------------------

    def config_path(self, inv: Invocation) -> Path:
        return self.work / "inputs" / f"{inv.name}.yaml"

    def write_inputs(self) -> None:
        (self.work / "inputs").mkdir(parents=True, exist_ok=True)
        for inv in self.invocations:
            doc = {"experiment": inv.experiment, **self.config_of(inv)}
            self.config_path(inv).write_text(yaml.safe_dump(doc),
                                             encoding="utf-8")

    def config_of(self, inv: Invocation) -> dict:
        return dict(inv.config)

    def prepare(self) -> None:
        """Build in-memory inputs; runs once, outside any timed region."""

    # -- one pass ----------------------------------------------------------

    def argv(self, inv: Invocation) -> list[str]:
        return [inv.experiment, "--config", str(self.config_path(inv)),
                "--seed", str(self.seed), "--out", str(self.out / inv.name),
                "--no-timestamp"]

    def invoke(self, inv: Invocation, rec: PassRecord, tracer=None) -> None:
        if tracer is not None and inv.config.get("mode") == "adversary":
            tracer.capture_next_duel()
        buf = io.StringIO()
        code = None
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(self.argv(inv))
        except Exception:  # a raising invocation is a failed operation
            rec.errors.append(f"{inv.name}: {traceback.format_exc()}")
        rec.codes[inv.name] = code
        rec.stdout[inv.name] = buf.getvalue()

    def calls(self, rec: PassRecord, tracer=None):
        """The pass as a sequence of calls, each timed on its own."""
        return [lambda inv=inv: self.invoke(inv, rec, tracer)
                for inv in self.invocations]

    # -- checks ------------------------------------------------------------

    def read_rows(self, inv: Invocation, table: str) -> list[dict]:
        path = self.out / inv.name / f"{table}.csv"
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))

    def check(self, rec: PassRecord) -> list[tuple[str, bool]]:
        """One (label, ok) per operation: each invocation, then each
        verdict the paper fixes."""
        results = [(f"{inv.name} exits 0", rec.codes.get(inv.name) == 0)
                   for inv in self.invocations]
        for label, verdict in self.verdicts(rec):
            try:
                ok = bool(verdict())
            except (OSError, KeyError, ValueError, IndexError):
                ok = False
            results.append((label, ok))
        return results

    def verdicts(self, rec: PassRecord):
        return []

    def write_tables(self, rec: PassRecord) -> None:
        """Write the results of direct calls next to the emitted files."""

    def digest(self, rec: PassRecord) -> str:
        """sha256 over every emitted file, in path order."""
        self.write_tables(rec)
        h = hashlib.sha256()
        for path in sorted(p for p in self.out.rglob("*") if p.is_file()):
            h.update(path.relative_to(self.out).as_posix().encode())
            h.update(path.read_bytes())
        return h.hexdigest()


# criterion 1's exponents, 1.5:6.0:0.5 without 3.5: at b = 3.5 the float64
# RLS loop overflows on about 1 episode in 1 100 (an early transient whose
# exact-arithmetic peak is near 1e30 reaches 1e101 through cancellation,
# and y**b then overflows), so its "never blows up" verdict fails on about
# one master seed in eleven; test_perfbench.py pins that defect
STABLE_B = (1.5, 2.0, 2.5, 3.0)
IMPOSSIBLE_B = (4.0, 4.5, 5.0, 5.5, 6.0)


class Parametric(Workload):
    """Criterion 1: 5 400 RLS episodes; the stable half is bound by the
    kernel, the impossible half by per-episode overhead in ``sim``."""

    # one invocation per exponent: the same episodes as one sweep over the
    # exponents (each gets its own Monte Carlo from the master seed), in
    # calls short enough to time one by one
    invocations = tuple(
        Invocation(f"b{b}", "parametric-sweep", {
            "b": str(b), "T": 5000, "seeds": 100,
            "unstable_T": 200, "unstable_seeds": 1000})
        for b in STABLE_B + IMPOSSIBLE_B)

    def blowup_fraction(self, b: float) -> float:
        inv = next(i for i in self.invocations if i.name == f"b{b}")
        return float(self.read_rows(inv, "parametric_sweep")[0]
                     ["blowup_fraction"])

    def verdicts(self, rec):
        out = []
        for b in STABLE_B:
            out.append((f"b={b} never blows up",
                        lambda b=b: self.blowup_fraction(b) == 0.0))
        for b in (4.5, 5.0, 5.5, 6.0):
            out.append((f"b={b} blows up in over 2%",
                        lambda b=b: self.blowup_fraction(b) > 0.02))
        return out


class LipschitzFixed(Workload):
    """Criteria 4-5 on random members: nearest-neighbour and McShane scans
    over stores that are only read."""

    invocations = (
        Invocation("random_duel", "nonparam-duel", {
            "L": "2", "T": 10000, "seeds": 10, "mode": "random"}),
        Invocation("random_sampled", "sampled-sweep", {
            "L": "1", "h": 0.5, "samples": 1000, "substeps": 64,
            "seeds": 1, "mode": "random"}),
    )

    def verdicts(self, rec):
        duel = lambda: self.read_rows(self.invocations[0], "nonparam_duel")[0]
        sampled = lambda: self.read_rows(self.invocations[1],
                                         "sampled_sweep")[0]
        return [
            ("L=2 random members: nothing escapes",
             lambda: float(duel()["escape_fraction"]) == 0.0),
            ("L=2 random members: bounded",
             lambda: float(duel()["blowup_fraction"]) == 0.0),
            ("h=0.5 random member: bounded",
             lambda: float(sampled()["blowup_fraction"]) == 0.0),
        ]


class LipschitzDuel(Workload):
    """Criteria 4-5 against the greedy opponents: an anchor commit at every
    step, and MB-sized anchor and trajectory tables.

    The bounded nonparametric duel (L 2, T 5 000) is left out: its stored
    trajectory fails to replay bit for bit on most master seeds, because
    ``nonparam_duel`` commits a feasible-interval endpoint one ulp off the
    anchor value that replay evaluates; test_perfbench.py pins that defect.
    The bounded sampled duel (h 1) grows its store at every step instead.
    """

    invocations = (
        Invocation("duel_escape", "nonparam-duel", {
            "L": "6", "T": 500, "seeds": 100, "mode": "adversary"}),
        Invocation("sampled_escape", "sampled-sweep", {
            "L": "1", "h": 8.0, "samples": 48, "mode": "adversary"}),
        Invocation("sampled_bounded", "sampled-sweep", {
            "L": "1", "h": 1.0, "samples": 100, "mode": "adversary"}),
    )

    def verdicts(self, rec):
        def row(i, table):
            return lambda: self.read_rows(self.invocations[i], table)[0]
        esc = row(0, "nonparam_duel")
        s_esc, s_bnd = row(1, "sampled_sweep"), row(2, "sampled_sweep")
        L, h = 1.0, 8.0
        return [
            ("L=6 duel: at least 95% escape",
             lambda: float(esc()["escape_fraction"]) >= 0.95),
            ("h=8 audit blows up",
             lambda: float(s_esc()["blowup_fraction"]) == 1.0),
            ("h=8 audit: minimum multiplier >= 0.95 L h / 2",
             lambda: float(s_esc()["min_audit_multiplier"])
             >= 0.95 * L * h / 2.0),
            ("h=1 duel: bounded",
             lambda: float(s_bnd()["blowup_fraction"]) == 0.0),
        ]


class JumpLinear(Workload):
    """Criterion 6's 20 x 20 coupled-equation grid, then ``mjls-run`` on a
    3-mode, 3-state spec: the Riccati solver and the vector-state kernel."""

    invocations = (Invocation("mjls_run", "mjls-run", {
        "T": 2000, "seeds": 20}),)

    def config_of(self, inv):
        return {**inv.config, "spec": str(self.spec_path)}

    @property
    def spec_path(self) -> Path:
        return self.work / "inputs" / "mjls_spec.yaml"

    def write_inputs(self):
        (self.work / "inputs").mkdir(parents=True, exist_ok=True)
        self.spec_path.write_text(yaml.safe_dump(MJLS_SPEC), encoding="utf-8")
        super().write_inputs()

    def prepare(self):
        self.grid = []
        chains = {p12: MarkovChain(np.array([[1 - p12, p12], [p12, 1 - p12]]))
                  for p12 in GRID_P12}
        for delta in GRID_DELTAS:
            for p12 in GRID_P12:
                spec = MjlsSpec(chain=chains[p12],
                                A=np.array([[[0.0]], [[delta]]]),
                                B=np.ones((2, 1, 1)),
                                noise=MartingaleDiffVector(1.0, 1.0, 1))
                self.grid.append((float(delta), p12, spec))

    def solve(self, delta, p12, spec, rec):
        try:
            rec.grid.append(riccati.solve_coupled_riccati(spec))
        except Exception:  # a raising solve is a failed verdict check
            rec.errors.append(f"grid {delta},{p12}: {traceback.format_exc()}")
            rec.grid.append(None)

    def calls(self, rec, tracer=None):
        # one call per grid row of 20 solves
        rows = [self.grid[i:i + len(GRID_P12)]
                for i in range(0, len(self.grid), len(GRID_P12))]
        return [lambda row=row: [self.solve(*g, rec) for g in row]
                for row in rows] + super().calls(rec, tracer)

    def verdicts(self, rec):
        out = []
        for (delta, p12, _), res in zip(self.grid, rec.grid):
            out.append((f"grid delta={delta:.4f} p12={p12}",
                        lambda d=delta, p=p12, r=res: _grid_ok(d, p, r)))
        text = lambda: rec.stdout["mjls_run"]
        out.append(("mjls-run: gain schedule found",
                    lambda: "no gain schedule" not in text()))
        out.append(("mjls-run: never blows up",
                    lambda: "blowup_fraction: 0.0\n" in text()))
        return out

    def write_tables(self, rec):
        # the grid's verdicts and fixed points are report bytes too
        grid_dir = self.out / "grid"
        grid_dir.mkdir(parents=True, exist_ok=True)
        with open(grid_dir / "grid.csv", "w", newline="",
                  encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["delta", "p12", "status", "iterations", "Ms"])
            for (delta, p12, _), res in zip(self.grid, rec.grid):
                if res is None:
                    writer.writerow([repr(delta), repr(p12), "error", "", ""])
                    continue
                ms = ("" if res.solution is None
                      else res.solution.Ms.tobytes().hex())
                writer.writerow([repr(delta), repr(p12), res.status.value,
                                 res.iterations, ms])


def _grid_ok(delta, p12, res) -> bool:
    """Outside |cp - 1| < 0.05 the solver must agree with the closed-form
    two-mode test; inside the band any verdict, indeterminate included,
    is accepted."""
    if res is None:
        return False
    cp = delta ** 2 * (1 - p12) * p12
    if abs(cp - 1.0) < GRID_BAND:
        return True
    if res.status is riccati.SolveStatus.INDETERMINATE:
        return False
    want = analysis.scalar_mjls_stabilizable(0.0, delta, p12)
    solved = res.status is riccati.SolveStatus.SOLVED
    return solved == (want.regime is analysis.Regime.STABILIZABLE)


class Combined(Workload):
    """Parts run one after another in a pass, sharing the work directory."""

    parts: tuple[type[Workload], ...] = ()

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.members = [part(work, seed) for part in self.parts]

    def write_inputs(self):
        for m in self.members:
            m.write_inputs()

    def prepare(self):
        for m in self.members:
            m.prepare()

    def calls(self, rec, tracer=None):
        return [c for m in self.members for c in m.calls(rec, tracer)]

    def check(self, rec):
        return [c for m in self.members for c in m.check(rec)]

    def write_tables(self, rec):
        for m in self.members:
            m.write_tables(rec)


class AdaptiveLoops(Combined):
    name = "adaptive"
    why = ("criteria 1 and 6: RLS and jump-linear episode kernels, "
           "per-episode overhead in sim, and the Riccati solver; no anchor "
           "stores")
    parts = (Parametric, JumpLinear)


class Lipschitz(Combined):
    name = "lipschitz"
    why = ("criteria 4-5 on random members and against the greedy opponents: "
           "anchor stores only read, and grown every step; MB-sized tables")
    parts = (LipschitzFixed, LipschitzDuel)


WORKLOADS = {w.name: w for w in (AdaptiveLoops, Lipschitz)}
