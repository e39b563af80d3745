"""feedback-lab benchmark: time to the paper's verdicts, end to end and
layer by layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Load model: one process, one client, closed loop.  Each call into the
program starts only after the previous one returned; no threads are
added and the BLAS pools are pinned to one thread.  A run

1. times ``setup_s``: whole runs of ``fresh_setup.py`` (fresh interpreter,
   ``import feedback_lab``, ``kernels.warm_up()``, input files), median of
   several;
2. runs one traced warm-up pass, which fixes the deterministic counts
   (steps, episodes, solver iterations, anchors, emitted rows and bytes)
   and the report digest for the seed;
3. repeats passes for ``--seconds``: untraced ones give the end-to-end
   metrics; with ``--trace 1`` traced passes alternate with them and give
   the per-layer metrics.

A pass is a fixed sequence of calls (CLI invocations and direct solver
calls), each timed on its own, with a short fixed reference loop run
before the first call and after each call.  On a shared machine a core's speed drifts by tens of percent over
spans of seconds to minutes, and the reference loop slows with it: a
call's time divided by the mean of the reference times just before and
after it is close to constant.  ``wall_s`` sums, over the calls of one
pass, the median of that ratio over the run's untraced passes, times
``REF_NOMINAL_S``; it reads as seconds on a core on which the reference
loop takes ``REF_NOMINAL_S``.  Each pass's plain wall time and the raw
call and reference times go to the run record.

Every pass is checked against the paper's verdicts and against the
warm-up pass's digest and counts; a check is one operation, and so is
each CLI invocation.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
environment stamp, the counts and the digest go to the lines before it
and to ``perfbench/.work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
SETUP_REPEATS = 7
# the reference loop's time on the 2-vCPU x86_64 host (AVX512, Python 3.11,
# numpy 2.4) the benchmark was defined on, median over a minute
REF_NOMINAL_S = 0.02
REF_ITERATIONS = 32000
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("adaptive", "lipschitz")

# pinned before numpy is imported here or in any child process
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"


@dataclass
class Pass:
    wall_s: float
    call_s: list
    ref_s: list
    checks: list
    digest: str
    errors: list
    counts: dict | None = None
    spans: dict | None = None
    layers: dict | None = None
    episode_s: list = field(default_factory=list)


def import_program():
    """Import feedback_lab from this checkout's ``src`` and nowhere else."""
    if not (SRC / "feedback_lab" / "__init__.py").is_file():
        raise ImportError(f"no feedback_lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import feedback_lab
    if Path(feedback_lab.__file__).resolve().parent != SRC / "feedback_lab":
        raise ImportError(f"feedback_lab resolved to {feedback_lab.__file__}")
    return feedback_lab


def git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "feedback_lab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment_stamp(fl, workload: str, seed: int) -> dict:
    import numpy as np
    from feedback_lab import _accel
    config = np.__config__.CONFIG
    return {
        "backend": fl.backend_name(),
        "has_numba": _accel.HAS_NUMBA,
        "FEEDBACK_LAB_NUMBA": os.environ.get("FEEDBACK_LAB_NUMBA"),
        "numpy": np.__version__,
        "simd": config.get("SIMD Extensions"),
        "blas": config.get("Build Dependencies", {}).get("blas", {}).get(
            "name"),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "package_version": fl.__version__,
        "workload": workload,
        "seed": seed,
    }


def measure_setup(workload: str, seed: int, work: Path) -> float:
    """Median wall time of fresh-interpreter set-ups."""
    times = []
    for i in range(SETUP_REPEATS):
        target = work / f"setup{i}"
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH_DIR / "fresh_setup.py"),
                        workload, str(seed), str(target)],
                       check=True, timeout=120)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(target)
    return statistics.median(times)


def reference_s() -> float:
    """Time of a fixed loop of the program's kind of work: interpreted
    float arithmetic with a small numpy reduction every eighth step."""
    import numpy as np
    anchors = np.arange(16.0)
    x = 0.1
    t0 = time.perf_counter()
    for i in range(REF_ITERATIONS):
        x = x * 1.0000001 + 1e-9
        if i % 8 == 0:
            x += float(np.abs(anchors - x).min()) * 1e-12
    return time.perf_counter() - t0


def scaled_wall(passes: list[Pass]) -> float:
    """Time to the verdicts on the reference scale: per call, the median
    over the passes of its time over the adjacent reference time, summed
    over the calls of one pass, times ``REF_NOMINAL_S``."""
    per_call = zip(zip(*(p.call_s for p in passes)),
                   zip(*(p.ref_s for p in passes)))
    return REF_NOMINAL_S * sum(
        statistics.median(c / r for c, r in zip(calls, refs))
        for calls, refs in per_call)


def run_pass(wl, tracer=None) -> Pass:
    """One pass, each call timed on its own between two reference loops;
    the pass's wall time is the time spent in its calls."""
    from workloads import PassRecord
    shutil.rmtree(wl.out, ignore_errors=True)
    rec = PassRecord()
    if tracer is not None:
        tracer.reset()
    call_s, ref_s = [], []
    with tracer.installed() if tracer is not None else nullcontext():
        before = reference_s()
        for call in wl.calls(rec, tracer):
            t1 = time.perf_counter()
            call()
            call_s.append(time.perf_counter() - t1)
            after = reference_s()
            ref_s.append((before + after) / 2)
            before = after
    p = Pass(wall_s=sum(call_s), call_s=call_s, ref_s=ref_s,
             checks=wl.check(rec), digest=wl.digest(rec), errors=rec.errors)
    if tracer is not None:
        p.counts = tracer.counts()
        p.spans = {k: vars(v).copy() for k, v in tracer.spans.items()}
        p.layers = tracer.layer_self_s()
        p.episode_s = list(tracer.episode_s)
    return p


def replay_duels(sim, tracer) -> tuple[list, float]:
    """Episode 0 of each duel in the traced warm-up pass must replay bit
    for bit; returns the checks and the time ``sim.check_replay`` took."""
    checks, spent = [], 0.0
    for i, traj in enumerate(tracer.duel_episodes):
        t0 = time.perf_counter()
        ok = sim.check_replay(traj)
        spent += time.perf_counter() - t0
        checks.append((f"duel {i} episode 0 replays bit for bit", ok))
    return checks, spent


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def tail_percentile(durations: list[float]) -> tuple[float, float, float, int]:
    """(p50, highest percentile with at least ten samples beyond it, that
    percentile, samples beyond it), times in ms; below 100 samples the
    tail is p50, and the count beyond it says how thin it is."""
    import numpy as np
    if not durations:
        return 0.0, 0.0, 50.0, 0
    d = np.asarray(durations) * 1e3
    pct = next((q for q in (99.99, 99.9, 99.0, 90.0)
                if d.size * (1.0 - q / 100.0) >= 10), 50.0)
    tail = float(np.percentile(d, pct))
    return (float(np.percentile(d, 50)), tail, pct,
            int(np.count_nonzero(d > tail)))


def per_layer_metrics(traced: list[Pass], untraced_wall: float,
                      replay_s: float, n_replays: int) -> dict:
    """Per-pass means over the traced passes; the deterministic counts are
    the same in every pass."""
    from tracing import KERNELS, DUEL_KERNELS
    counts = traced[0].counts

    def span_mean(name, key):
        return _mean([p.spans.get(name, {}).get(key, 0.0) for p in traced])

    m = {}
    for k in KERNELS:
        name = f"kernels.{k}"
        s = span_mean(name, "s")
        steps = counts[f"{name}.steps"]
        m[f"{name}.calls"] = (counts[f"{name}.calls"], "count")
        m[f"{name}.s"] = (s, "s")
        m[f"{name}.steps"] = (steps, "count")
        m[f"{name}.ns_per_step"] = (_ratio(s, steps, 1e9), "ns")
        if k in DUEL_KERNELS:
            m[f"{name}.anchors"] = (counts[f"{name}.anchors"], "count")
    m["kernels.riccati_solve.iterations"] = (
        counts["kernels.riccati_solve.steps"], "count")
    m["kernels.riccati_solve.us_per_iter"] = (
        _ratio(span_mean("kernels.riccati_solve", "s"),
               counts["kernels.riccati_solve.steps"], 1e6), "us")

    episodes = counts["sim.run_episode.calls"]
    ep_self = span_mean("sim.run_episode", "self_s")
    p50, tail, pct, beyond = tail_percentile(
        [d for p in traced for d in p.episode_s])
    m["sim.run_episode.calls"] = (episodes, "count")
    m["sim.run_episode.self_s"] = (ep_self, "s")
    m["sim.run_episode.self_us_per_episode"] = (
        _ratio(ep_self, episodes, 1e6), "us")
    m["sim.run_episode.p50_ms"] = (p50, "ms")
    m["sim.run_episode.tail_ms"] = (tail, "ms")
    m["sim.run_episode.tail_pct"] = (pct, "%")
    m["sim.run_episode.tail_beyond"] = (beyond, "count")
    seeds = counts["sim.monte_carlo.seeds"]
    mc_self = span_mean("sim.monte_carlo", "self_s")
    m["sim.monte_carlo.calls"] = (counts["sim.monte_carlo.calls"], "count")
    m["sim.monte_carlo.self_s"] = (mc_self, "s")
    m["sim.monte_carlo.self_us_per_seed"] = (_ratio(mc_self, seeds, 1e6),
                                             "us")
    m["sim.monte_carlo.episodes_per_s"] = (
        _ratio(seeds, span_mean("sim.monte_carlo", "s")), "1/s")
    m["sim.check_replay.calls"] = (n_replays, "count")
    m["sim.check_replay.s"] = (replay_s, "s")

    solve = "riccati.solve_coupled_riccati"
    m[f"{solve}.calls"] = (counts[f"{solve}.calls"], "count")
    m[f"{solve}.self_s"] = (span_mean(solve, "self_s"), "s")
    for status in ("solved", "no_solution", "indeterminate"):
        m[f"{solve}.{status}"] = (counts[f"{solve}.{status}"], "count")

    m["cli.main.calls"] = (counts["cli.main.calls"], "count")
    m["cli.main.self_s"] = (span_mean("cli.main", "self_s"), "s")
    m["cli.emit.s"] = (span_mean("cli.emit", "s"), "s")
    m["cli.emit.rows"] = (counts["cli.emit.rows"], "count")
    m["cli.emit.bytes"] = (counts["cli.emit.bytes"], "count")

    traced_wall = _mean([p.wall_s for p in traced])
    layer_sum = 0.0
    for layer in ("cli", "sim", "riccati", "kernels"):
        value = _mean([p.layers[layer] for p in traced])
        layer_sum += value
        m[f"layer.{layer}.self_s"] = (value, "s")
    m["layer.bench.self_s"] = (traced_wall - layer_sum, "s")
    m["trace.wall_s"] = (traced_wall, "s")
    # the same estimator on both sides
    m["trace.overhead_s"] = (scaled_wall(traced) - untraced_wall, "s")
    m["trace.passes"] = (len(traced), "count")
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    try:
        fl = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from feedback_lab import kernels, sim
    import workloads
    from tracing import Tracer

    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        stamp = environment_stamp(fl, name, seed)
        print("stamp " + json.dumps(stamp, sort_keys=True))
        setup_s = measure_setup(name, seed, work)

        kernels.warm_up()
        wl = workloads.WORKLOADS[name](work, seed)
        wl.write_inputs()
        wl.prepare()
        tracer = Tracer()
        warm = run_pass(wl, tracer)
        replay_checks, replay_s = replay_duels(sim, tracer)

        # passes until the next one would end past --seconds; at least one
        # untraced pass, and with --trace 1 at least one traced pass
        untraced, traced = [], []
        start = time.perf_counter()
        while True:
            if trace and len(traced) < len(untraced):
                traced.append(run_pass(wl, tracer))
            else:
                untraced.append(run_pass(wl))
            elapsed = time.perf_counter() - start
            per_pass = elapsed / (len(untraced) + len(traced))
            if (elapsed + per_pass > seconds
                    and (traced or not trace)):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = [warm] + untraced + traced
    checks = [c for p in passes for c in p.checks] + replay_checks
    for i, p in enumerate(passes[1:], 1):
        checks.append((f"pass {i} reproduces the warm-up digest",
                       p.digest == warm.digest))
        if p.counts is not None:
            checks.append((f"pass {i} reproduces the warm-up counts",
                           p.counts == warm.counts))
    failed = [label for label, ok in checks if not ok]
    errors = [e for p in passes for e in p.errors]
    for label in failed[:20]:
        print(f"FAILED check: {label}", file=sys.stderr)
    for err in errors[:5]:
        print(err, file=sys.stderr)

    wall_s = scaled_wall(untraced)
    if trace:
        metrics = per_layer_metrics(traced, wall_s, replay_s,
                                    len(replay_checks))
    else:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "steps_per_s": (warm.counts["steps"] / wall_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    record = {
        "stamp": stamp, "seconds": seconds, "trace": int(trace),
        "digest": warm.digest, "counts": warm.counts,
        "untraced_walls_s": [p.wall_s for p in untraced],
        "traced_walls_s": [p.wall_s for p in traced],
        "call_s": [p.call_s for p in untraced],
        "ref_s": [p.ref_s for p in untraced],
        "failed_checks": failed,
        "failed_fraction": len(failed) / len(checks),
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(f"digest sha256 {warm.digest}")
    print("counts " + json.dumps(warm.counts, sort_keys=True))
    print(f"passes untraced={len(untraced)} traced={len(traced)}")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    print(f"failed_fraction = {len(failed)}/{len(checks)}")
    print(json.dumps({
        "correct": not failed, "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; prints each metric by name with
    its unit, then one combined JSON line."""
    attempted = failed = 0
    metrics = {}
    rows = []
    for name in WORKLOAD_NAMES:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            print(f"error: workload {name} exited {out.returncode}",
                  file=sys.stderr)
            return out.returncode
        result = json.loads(out.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        rows.append((name, result))
        for key, val in result["metrics"].items():
            metrics[f"{name}.{key}"] = val
    for name, result in rows:
        print(f"[{name}] failed_fraction = "
              f"{result['failed']}/{result['attempted']}")
        for key, val in result["metrics"].items():
            print(f"[{name}] {key} = {val['value']:.6g} {val['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="feedback-lab benchmark (see the module docstring)")
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run; default: run_seconds "
                             "from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
