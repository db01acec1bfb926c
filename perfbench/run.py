"""geopf benchmark: seeded closed-loop planning workloads.

Run from the repository root:

    python3 perfbench/run.py --stall-exit 0.01 --workload static_geopf \
        --seed 0 --seconds 35 --trace 0

Each trial makes the same public calls, in the same order, as the harness's
``geopf bench`` worker (``geopf.bench._run_one``): ``scenes.generate``,
``PlannerSpec.build``, ``sim.run_trial(keep_states=False, stall_speed=...)``
with the workload's step cap, ``bench.compute_metrics`` and
``planner.obstacle_count``.  One process runs one trial at a time (a closed
loop with a single client).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends a third of
the run untraced, runs the same trials again traced, and prints the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object.  See README.md in this directory.
"""

import argparse
import dataclasses
import hashlib
import itertools
import json
import math
from pathlib import Path
import resource
import statistics
import sys
import time
import traceback
from typing import NamedTuple

import numpy as np

from spans import (
    KERNEL_TYPES,
    LAYERS,
    Tracer,
    layer_report,
    patched,
    replay_us,
    wrapper_cost,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

# Host speed.  On the reference host (2-core x86-64 VM, Python 3.11, numpy
# 2.4) the same trial took anywhere from 1x to 1.9x its fastest time, as the
# CPU flipped between two speeds every 0.1-20 s.  Every step therefore also
# times a fixed probe loop, and step times are divided by the probe's
# slowdown: the rolling median of its time over SPEED_WINDOW steps relative
# to SPEED_NOMINAL_S, the probe's time on the reference host at its faster
# speed.  The reported times read as that host at that speed.
SPEED_LOOPS = 24
SPEED_NOMINAL_S = 1.45e-6
SPEED_WINDOW = 31
# Tolerance of the contact checks on a collision verdict (metres).
CONTACT_TOL = 1e-9


class Workload(NamedTuple):
    classes: tuple
    kinds: tuple
    maze: bool
    # Step budget of one trial (SimParams.max_steps).  A full trial runs up
    # to 20k steps and a scene's step cost varies several-fold with its
    # obstacles, so runs of a few full trials disagree by seed; capped
    # trials let one run cover 40-350 scenes.
    max_steps: int


WORKLOADS = {
    "static_geopf": Workload(("line_hard", "plane_hard", "complex"), ("geopf",), True, 2500),
    "dynamic_geopf": Workload(("dynamic_hard",), ("geopf",), False, 50),
    "sphere_baselines": Workload(("plane_easy",), ("pf", "cf"), False, 400),
}
# Printed for the reader but not gated.  The rates are counts of verdicts,
# which the fingerprint already pins, and either can be 0.  The 99th
# percentile step is set by a run's two or three heaviest scenes and the
# host's stalls, and spread past any allowed bound over seeds; the 95th
# percentile is gated instead.
REPORTED_ONLY = {"end_to_end": ("step_us_p99", "success_rate", "error_rate"), "per_layer": ()}


class Trial(NamedTuple):
    scene: str  # scene class value, or "maze" for maze_scene()
    seed: int
    kind: str  # planner kind


class TrialResult(NamedTuple):
    trial: Trial
    error: str | None
    verdict: tuple = ()  # (kind, obstacle id, step)
    path_length: float = 0.0
    success: bool = False
    n_obstacles: int = 0
    # Times below are divided by the trial's host slowdown; loop_s is not.
    setup_s: float = 0.0  # scenes.generate plus planner.prepare
    samples: np.ndarray = np.zeros(0)  # full wall time of each step (s)
    force_times: np.ndarray = np.zeros(0)  # the record's force+integration times (s)
    wall_s: float = 0.0  # the whole trial, generate to obstacle_count
    loop_s: float = 0.0  # first step stamp to the end of run_trial, as measured
    slowdown: float = 1.0  # median host slowdown over the trial's steps
    contact_ok: bool = True

    @property
    def steps(self):
        return len(self.samples)

    def fingerprint(self):
        """Everything about the trial that must be bit-identical across runs."""
        return (*self.trial, self.error, *self.verdict, self.path_length.hex(), self.steps)


def import_geopf():
    """Import geopf from this checkout's ``src`` and nowhere else."""
    if not (SRC / "geopf" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no geopf sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import geopf

    if Path(geopf.__file__).resolve().parent != (SRC / "geopf").resolve():
        raise SystemExit(f"perfbench: geopf imported from {geopf.__file__}, not {SRC}")
    return geopf


def trial_list(workload, seed):
    """The workload's trials from its first seed, without end.

    Consecutive scene seeds, each run on every class and planner kind of the
    workload; the static workload starts with the fixed maze.
    """
    spec = WORKLOADS[workload]
    if spec.maze:
        yield Trial("maze", 0, "geopf")
    for s in itertools.count(seed):
        for c in spec.classes:
            for k in spec.kinds:
                yield Trial(c, s, k)


def make_scene(geopf, trial):
    """The trial's scene, exactly as ``scenes.generate`` returns it."""
    if trial.scene == "maze":
        return geopf.maze_scene()
    return geopf.generate(geopf.SceneClass(trial.scene), trial.seed)


def speed_probe():
    """Fixed work whose time tracks the host's current speed."""
    x = 1.0
    for _ in range(SPEED_LOOPS):
        x = x * 1.0000001 + 1e-9
    return x


def stamp_steps(scene, stamps, probes):
    """Put a step-stamp wrapper on the scene instance's primitives_at_step.

    The simulator calls it first in every step, so one perf_counter stamp
    per step index marks the step boundaries; the wrapper then times the
    speed probe.  A step that pierces a rectangle also asks for the next
    index; :func:`step_samples` folds that stamp into the last step.
    """
    inner = scene.primitives_at_step
    perf = time.perf_counter
    last = [-1]

    def primitives_at_step(step):
        if step > last[0]:
            last[0] = step
            t = perf()
            stamps.append(t)
            speed_probe()
            probes.append(perf() - t)
        return inner(step)

    scene.primitives_at_step = primitives_at_step


def step_samples(stamps, probes, t_end, record, goal_kind):
    """Wall time of each executed step, probe time excluded, and the host
    slowdown during each step.

    Every executed step records one force time except the final goal step,
    which stops before force evaluation; stamps beyond that count come from
    a crossing step's look-ahead and belong to the last step.
    """
    n = len(record.step_times) + (record.verdict.kind is goal_kind)
    probe = np.array(probes)
    samples = np.diff(np.array(stamps[:n] + [t_end])) - probe[:n]
    samples[-1] -= probe[n:].sum()
    half = SPEED_WINDOW // 2
    windows = np.lib.stride_tricks.sliding_window_view(
        np.pad(probe[:n], half, mode="edge"), 2 * half + 1
    )
    return samples, np.median(windows, axis=1) / SPEED_NOMINAL_S


def contact_ok(geopf, scene, record, params):
    """Check a verdict against the geometry of the final state."""
    verdict = record.verdict
    pos = record.states[-1].position
    if verdict.kind is geopf.VerdictKind.REACHED_GOAL:
        return math.dist(pos, scene.goal) <= params.goal_radius
    if verdict.kind is geopf.VerdictKind.TIMEOUT:
        return verdict.step <= params.max_steps
    kind, index = verdict.obstacle_id.rstrip("]").split("[")
    index = int(index)
    if kind == "boundary":
        return geopf.distance(pos, scene.boundary[index]) <= CONTACT_TOL
    # A pierced rectangle is found on the step before the recorded state.
    steps = {verdict.step, max(verdict.step - 1, 0)}
    return any(
        geopf.distance(pos, scene.primitives_at_step(s)[index]) <= CONTACT_TOL for s in steps
    )


def run_one(geopf, trial, stall_speed, max_steps, tracer=None):
    """Run one trial as ``geopf bench`` does, capped at ``max_steps``, and
    time its set-up and steps.

    A trial that raises, or whose scene fails to generate, is returned with
    its error so that the workload goes on.
    """
    perf = time.perf_counter
    generate = make_scene
    compute_metrics = geopf.compute_metrics
    if tracer:
        generate = tracer.wrap("scenes.generate", generate)
        compute_metrics = tracer.wrap("bench.compute_metrics", compute_metrics)
    stamps, probes, prepare_s = [], [], []
    try:
        t0 = perf()
        scene = generate(geopf, trial)
        generate_s = perf() - t0
        planner = geopf.PlannerSpec(trial.kind).build()
        if tracer:
            tracer.wrap_planner(planner)
            tracer.wrap_scene(scene)
        prepare = planner.prepare

        def timed_prepare(s):
            t0 = perf()
            ctx = prepare(s)
            prepare_s.append(perf() - t0)
            return ctx

        planner.prepare = timed_prepare
        stamp_steps(scene, stamps, probes)
        params = dataclasses.replace(scene.sim, max_steps=max_steps)
        try:
            record = geopf.run_trial(
                scene, planner, params, keep_states=False, stall_speed=stall_speed
            )
            t_end = perf()
        finally:
            del scene.primitives_at_step
        metrics = compute_metrics(record, scene)
        n_obstacles = planner.obstacle_count(scene)
        wall_s = perf() - t0
    except Exception as exc:  # the workload must survive one bad trial
        print(
            f"trial {trial} raised: {traceback.format_exception_only(exc)[-1].strip()}",
            file=sys.stderr,
        )
        return TrialResult(trial, type(exc).__name__)
    samples, slow = step_samples(stamps, probes, t_end, record, geopf.VerdictKind.REACHED_GOAL)
    slowdown = float(np.median(slow))
    verdict = record.verdict
    return TrialResult(
        trial,
        None,
        (verdict.kind.value, verdict.obstacle_id, verdict.step),
        record.path_length,
        metrics.success,
        n_obstacles,
        (generate_s + sum(prepare_s)) / slowdown,
        samples / slow,
        np.array(record.step_times) / slow[: len(record.step_times)],
        (wall_s - sum(probes)) / slowdown,
        float(samples.sum()),
        slowdown,
        contact_ok(geopf, scene, record, params),
    )


def run_pass(geopf, workload, trials, stall_speed, seconds=math.inf, tracer=None):
    """Run trials one at a time until ``seconds`` have passed; the trial in
    flight then finishes."""
    max_steps = WORKLOADS[workload].max_steps
    results = []
    t0 = time.perf_counter()
    for trial in trials:
        if tracer:
            tracer.begin_trial()
        results.append(run_one(geopf, trial, stall_speed, max_steps, tracer))
        if time.perf_counter() - t0 >= seconds:
            break
    return results


def fingerprint(results):
    digest = hashlib.sha256(repr([r.fingerprint() for r in results]).encode())
    return digest.hexdigest()[:16]


def steps_per_s(results):
    """Simulated steps over the time inside the step loops."""
    done = [r for r in results if r.error is None]
    return sum(r.steps for r in done) / sum(r.samples.sum() for r in done)


def end_to_end(results):
    """The end-to-end metrics of one untraced pass."""
    done = [r for r in results if r.error is None]
    wall_s = sum(r.wall_s for r in done)
    samples = np.concatenate([r.samples for r in done])
    forces = np.concatenate([r.force_times for r in done])
    return {
        "setup_s": (statistics.median(r.setup_s for r in done), "s"),
        "trials_per_s": (len(done) / wall_s, "1/s"),
        "steps_per_s": (steps_per_s(results), "1/s"),
        "step_us_p50": (1e6 * float(np.percentile(samples, 50)), "us"),
        "step_us_p95": (1e6 * float(np.percentile(samples, 95)), "us"),
        "step_us_p99": (1e6 * float(np.percentile(samples, 99)), "us"),
        "force_us_p50": (1e6 * float(np.median(forces)), "us"),
        "success_rate": (sum(r.success for r in done) / len(results), "fraction"),
        "error_rate": ((len(results) - len(done)) / len(results), "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(geopf, untraced, traced, tracer, rep):
    """The per-layer metrics of a traced pass (see README.md)."""
    steps = max(rep.steps, 1)
    us = rep.call_us
    calls = rep.calls
    sphere_trials = [r for r in traced if r.error is None and r.trial.kind != "geopf"]
    metrics = {
        "scenes.generate_us": (us["scenes.generate"], "us"),
        "scenes.primitives_at_step_us": (us["scenes.primitives_at_step"], "us"),
        "scenes.rebuilt_per_step": (tracer.rebuilt / steps, "count"),
    }
    kernel_calls = 0
    for kind in KERNEL_TYPES:
        label = f"queries.kernel.{kind}"
        kernel_calls += calls.get(label, 0)
        metrics[f"queries.kernel_us.{kind}"] = (
            replay_us(getattr(geopf.queries, f"_{kind}_kernel"), tracer.samples.get(label)),
            "us",
        )
    metrics.update(
        {
            "queries.kernel_calls_per_step": (kernel_calls / steps, "count"),
            "sim.crossing_us": (us["sim.crossing"], "us"),
            "sim.crossing_calls_per_step": (calls["sim.crossing"] / steps, "count"),
            "sim.integrate_us": (us["sim.integrate"], "us"),
            "sim.self_us_per_step": (1e6 * rep.sim_self_s / steps, "us"),
            "planners.prepare_us": (us["planners.prepare"], "us"),
            "planners.update_us": (us["planners.update"], "us"),
            "planners.force_us": (us["planners.force"], "us"),
            "planners.terms_per_force": (
                calls["forces.obstacle_term"] / max(calls["planners.force"], 1),
                "count",
            ),
            "planners.cull_ratio": (
                calls["forces.obstacle_term"] / rep.cull_attempts if rep.cull_attempts else 0.0,
                "fraction",
            ),
            "forces.obstacle_term_us": (
                replay_us(
                    geopf.forces.obstacle_force_term, tracer.samples.get("forces.obstacle_term")
                ),
                "us",
            ),
            "forces.wall_terms_us": (us["forces.wall_terms"], "us"),
            "baselines.spheres": (
                statistics.fmean(r.n_obstacles for r in sphere_trials) if sphere_trials else 0.0,
                "count",
            ),
            "baselines.spherize_us": (us["baselines.spherize"], "us"),
            "baselines.sphere_terms_us": (us["baselines.sphere_terms"], "us"),
            "baselines.cf_terms_us": (us["baselines.cf_terms"], "us"),
            "bench.compute_metrics_us": (us["bench.compute_metrics"], "us"),
            "bench.obstacle_count_us": (us["bench.obstacle_count"], "us"),
        }
    )
    for layer in LAYERS:
        metrics[f"share.{layer}"] = (rep.layer_self_s[layer] / rep.loop_s, "fraction")
    metrics["trace.overhead"] = (steps_per_s(traced) / steps_per_s(untraced), "ratio")
    return metrics


def print_share_table(tracer, untraced, traced, cost, rep):
    """Self time per layer as a share of the step, per scene class and
    planner kind of the traced pass, and how much of the untraced step the
    layers account for once the wrappers' own cost is removed."""
    accounted = steps_per_s(untraced) / steps_per_s(traced) * rep.loop_s / rep.traced_loop_s
    print(
        f"wrapper cost {1e9 * cost[0]:.0f} ns inside + {1e9 * cost[1]:.0f} ns outside a span, "
        f"{1 - rep.loop_s / rep.traced_loop_s:.3f} of the traced step; the layers account "
        f"for {accounted:.3f} of the untraced step"
    )
    print("layer self time / step: " + " ".join(f"{layer:>9s}" for layer in LAYERS))
    for group in dict.fromkeys((r.trial.scene, r.trial.kind) for r in traced):
        part = layer_report(
            tracer, traced, lambda r: (r.trial.scene, r.trial.kind) == group, cost
        )
        if part.steps:
            shares = " ".join(f"{part.layer_self_s[layer] / part.loop_s:9.3f}" for layer in LAYERS)
            label = f"{group[0]}/{group[1]} ({1e6 * part.loop_s / part.steps:.0f} us/step)"
            print(f"  {label:38s} {shares}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="first scene seed")
    parser.add_argument("--seconds", type=float, required=True, help="run length (s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--stall-exit", type=float, required=True, help="early-timeout stall speed (m/s)"
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    geopf = import_geopf()

    trials = trial_list(args.workload, args.seed)
    print(f"workload {args.workload}: first seed {args.seed}, stall exit {args.stall_exit} m/s")
    if args.trace:
        # About a third of the run untraced, then the same trials traced.
        untraced = run_pass(geopf, args.workload, trials, args.stall_exit, args.seconds / 3)
        tracer = Tracer()
        with patched(tracer):
            results = run_pass(
                geopf, args.workload, [r.trial for r in untraced], args.stall_exit, tracer=tracer
            )
        same = fingerprint(untraced) == fingerprint(results)
        print(f"fingerprint untraced {fingerprint(untraced)} traced {fingerprint(results)}")
        cost = wrapper_cost()
        rep = layer_report(tracer, results, cost=cost)
        metrics = per_layer(geopf, untraced, results, tracer, rep)
        print_share_table(tracer, untraced, results, cost, rep)
        tracer.save(TRACE_DIR / f"spans-{args.workload}.npz")
    else:
        results = run_pass(geopf, args.workload, trials, args.stall_exit, args.seconds)
        # Trials are bit-deterministic apart from timings: run the first
        # one again and compare.
        again = run_pass(geopf, args.workload, [results[0].trial], args.stall_exit)
        same = again[0].fingerprint() == results[0].fingerprint()
        print(f"fingerprint {fingerprint(results)}; rerun of the first trial agrees: {same}")
        metrics = end_to_end(results)
    done = [r for r in results if r.error is None]
    slow = [r.slowdown for r in done]
    print(
        f"{len(results)} trials, {sum(r.steps for r in done)} steps; host slowdown "
        f"median {statistics.median(slow):.3f}, range {min(slow):.3f}-{max(slow):.3f}"
    )

    failed = sum(r.error is not None for r in results)
    contacts = all(r.contact_ok for r in results)
    if not contacts:
        print("a verdict disagrees with the final state's geometry")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")

    gated = json.loads((ROOT / "BENCHMARK.json").read_text())
    keys = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in gated[keys]]
    result = {
        "correct": bool(same and contacts),
        "attempted": len(results),
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
