"""Spans around the public calls of each feedback_lab layer.

The call chain ``cli.main -> sim.monte_carlo -> sim.run_episode ->
kernels.*`` (and ``riccati.solve_coupled_riccati -> kernels.riccati_solve``)
looks every callee up as a module attribute at call time, so replacing
those attributes with timing wrappers traces the program without editing
it.  A span's self time is its duration minus the time its child spans
cover; the wrappers keep one child-time accumulator per open span.

Counts come from the values the calls return (steps, committed anchors,
solver statuses, emitted rows and bytes), so they are measured where the
work happens and repeat exactly for a given seed.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

KERNELS = ("parametric_episode", "nonparam_fixed", "nonparam_duel",
           "sampled_fixed", "sampled_duel", "mjls_episode", "riccati_solve")
DUEL_KERNELS = ("nonparam_duel", "sampled_duel")
STATUSES = ("solved", "no_solution", "indeterminate")


@dataclass
class Span:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    steps: int = 0
    anchors: int = 0
    rows: int = 0
    bytes: int = 0
    seeds: int = 0


def _kernel_steps(name, args, out):
    """Work units of one kernel call: transitions, sample periods or
    fixed-point iterations; a blown-up episode counts up to its blow step."""
    if name == "riccati_solve":
        return int(out[2])
    blow = int(out[-1])
    return blow if blow >= 0 else out[0].shape[0] - 1


class Tracer:
    """Collects spans and counts for one pass of a workload at a time."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.episode_s: list[float] = []
        self.statuses = dict.fromkeys(STATUSES, 0)
        self.duel_episodes: list = []
        self._capture_duel = False
        self._stack = [0.0]

    def reset(self):
        self.spans = {}
        self.episode_s = []
        self.statuses = dict.fromkeys(STATUSES, 0)
        self.duel_episodes = []
        self._stack[:] = [0.0]

    def span(self, name: str) -> Span:
        return self.spans.setdefault(name, Span())

    def capture_next_duel(self):
        """Keep the trajectory of the next adversarial ``run_episode``
        call: the first one inside a duel invocation is its episode 0."""
        self._capture_duel = True

    def _wrap(self, name, fn, after=None):
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = stack.pop()
                stack[-1] += dur
                sp = self.span(name)
                sp.calls += 1
                sp.s += dur
                sp.self_s += dur - child
            if after is not None:
                after(sp, dur, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _after_kernel(self, name):
        def after(sp, dur, args, kwargs, out):
            sp.steps += _kernel_steps(name, args, out)
            if name in DUEL_KERNELS:
                sp.anchors += int(out[-2])
        return after

    def _after_episode(self, sp, dur, args, kwargs, out):
        self.episode_s.append(dur)
        adversary = args[2] if len(args) > 2 else kwargs.get("adversary")
        if self._capture_duel and adversary is not None:
            self.duel_episodes.append(out[0])
            self._capture_duel = False

    def _after_monte_carlo(self, sp, dur, args, kwargs, out):
        sp.seeds += int(args[1] if len(args) > 1 else kwargs["n_seeds"])

    def _after_solve(self, sp, dur, args, kwargs, out):
        self.statuses[out.status.name.lower()] += 1

    def _after_emit(self, sp, dur, args, kwargs, out):
        sp.rows += len(args[0]["rows"])
        sp.bytes += sum(os.path.getsize(p) for p in out)

    @contextmanager
    def installed(self):
        """Replace the layer entry points with traced wrappers, restoring
        the originals on exit."""
        from feedback_lab import cli, kernels, riccati, sim
        targets = [(cli, "main", None), (cli, "emit", self._after_emit),
                   (sim, "monte_carlo", self._after_monte_carlo),
                   (sim, "run_episode", self._after_episode),
                   (riccati, "solve_coupled_riccati", self._after_solve)]
        targets += [(kernels, k, self._after_kernel(k)) for k in KERNELS]
        saved = []
        try:
            for module, attr, after in targets:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
                setattr(module, attr, self._wrap(name, fn, after))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    # -- summaries ---------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        """Self time per layer; with the benchmark's own share they sum to
        the traced wall time."""
        def self_of(*names):
            return sum(self.spans[n].self_s for n in names if n in self.spans)
        return {
            "cli": self_of("cli.main", "cli.emit"),
            "sim": self_of("sim.monte_carlo", "sim.run_episode"),
            "riccati": self_of("riccati.solve_coupled_riccati"),
            "kernels": self_of(*(f"kernels.{k}" for k in KERNELS)),
        }

    def counts(self) -> dict[str, int]:
        """The deterministic counts of the pass."""
        out = {}
        for k in KERNELS:
            sp = self.spans.get(f"kernels.{k}", Span())
            out[f"kernels.{k}.calls"] = sp.calls
            out[f"kernels.{k}.steps"] = sp.steps
            if k in DUEL_KERNELS:
                out[f"kernels.{k}.anchors"] = sp.anchors
        for name in ("cli.main", "sim.monte_carlo", "sim.run_episode",
                     "riccati.solve_coupled_riccati"):
            out[f"{name}.calls"] = self.spans.get(name, Span()).calls
        out["sim.monte_carlo.seeds"] = self.spans.get("sim.monte_carlo",
                                                      Span()).seeds
        emit = self.spans.get("cli.emit", Span())
        out["cli.emit.rows"] = emit.rows
        out["cli.emit.bytes"] = emit.bytes
        for status, n in self.statuses.items():
            out[f"riccati.solve_coupled_riccati.{status}"] = n
        out["steps"] = sum(out[f"kernels.{k}.steps"] for k in KERNELS)
        return out
