"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
from pathlib import Path
import sys
import time

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402

geopf = run.import_geopf()

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def corridor_scene(obstacles=(), goal=(0.0, 0.5, 0.0), seed=3):
    return geopf.Scene(
        start=(0.0, 1.0, 0.0),
        goal=goal,
        obstacles=[geopf.Obstacle(p) for p in obstacles],
        boundary=geopf.corridor_boundary(-1.2, 1.2),
        seed=seed,
    )


def wall_across_path(y):
    c = np.array
    return geopf.RectPlane(
        c((-0.3, y, -0.3)), c((0.3, y, -0.3)), c((0.3, y, 0.3)), c((-0.3, y, 0.3))
    )


class StraightPlanner:
    """Pushes straight at the goal and ignores every obstacle."""

    def prepare(self, scene):
        return tuple(float(v) for v in scene.goal)

    def update(self, ctx, prims):
        pass

    def force(self, ctx, rx, ry, rz, vx, vy, vz, rng):
        return ctx[0] - rx, ctx[1] - ry, ctx[2] - rz

    def obstacle_count(self, scene):
        return len(scene.obstacles)


def run_main(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--stall-exit", "0.01", *argv]) == 0
    lines = out.getvalue().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    lines, result = run_main(
        "--workload", "static_geopf", "--seed", "0", "--seconds", "1", "--trace", str(trace)
    )
    names = [m["name"] for m in BENCHMARK[key]]
    assert list(result["metrics"]) == names
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for name in names:
        metric = result["metrics"][name]
        assert metric["unit"] == next(m["unit"] for m in BENCHMARK[key] if m["name"] == name)
        assert np.isfinite(metric["value"])
    printed = {line.split(" = ")[0] for line in lines if " = " in line}
    assert printed == set(names) | set(run.REPORTED_ONLY[key])


def test_every_workload_is_declared():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_raising_trial_counts_as_error_and_workload_goes_on(monkeypatch):
    # A start on a segment makes the first distance query raise.
    on_start = geopf.Segment(np.array((-0.2, 1.0, 0.0)), np.array((0.2, 1.0, 0.0)))
    scenes = {"bad": corridor_scene([on_start]), "good": corridor_scene()}
    monkeypatch.setattr(run, "make_scene", lambda _geopf, trial: scenes[trial.scene])
    trials = [run.Trial("bad", 0, "geopf"), run.Trial("good", 0, "geopf")]

    results = run.run_pass(geopf, "static_geopf", trials, 0.01)

    assert results[0].error == "DegenerateVector"
    assert results[1].error is None and results[1].success
    metrics = run.end_to_end(results)
    assert metrics["error_rate"][0] == 0.5
    assert metrics["success_rate"][0] == 0.5


@pytest.mark.parametrize("crossing", [False, True])
def test_one_step_sample_per_step_index(crossing):
    scene = corridor_scene([wall_across_path(0.75003)] if crossing else [])
    stamps, probes = [], []
    run.stamp_steps(scene, stamps, probes)
    record = geopf.run_trial(scene, StraightPlanner(), keep_states=False)
    t_end = time.perf_counter()
    samples, slowdown = run.step_samples(
        stamps, probes, t_end, record, geopf.VerdictKind.REACHED_GOAL
    )

    verdict = record.verdict
    if crossing:
        assert (verdict.kind, verdict.obstacle_id) == (geopf.VerdictKind.COLLISION, "obstacle[0]")
        # The crossing step looks one index ahead; that stamp is not a step.
        assert len(stamps) == verdict.step + 1
        assert len(samples) == verdict.step
    else:
        assert verdict.kind is geopf.VerdictKind.REACHED_GOAL
        assert len(samples) == len(stamps) == verdict.step + 1
    assert len(slowdown) == len(samples)
    assert len(probes) == len(stamps)
    assert sum(samples) + sum(probes) == pytest.approx(t_end - stamps[0])
    assert all(s > 0.0 for s in samples) and all(s > 0.0 for s in slowdown)


def test_tracing_changes_no_result_and_restores_patched_names():
    trials = [run.Trial("maze", 0, "geopf"), run.Trial("plane_easy", 1, "pf")]
    before = (geopf.sim._kernel_for, geopf.sim._crossing, geopf.planners.obstacle_force_term)

    untraced = run.run_pass(geopf, "static_geopf", trials, 0.01)
    tracer = spans.Tracer()
    with spans.patched(tracer):
        traced = run.run_pass(geopf, "static_geopf", trials, 0.01, tracer=tracer)

    assert before == (geopf.sim._kernel_for, geopf.sim._crossing, geopf.planners.obstacle_force_term)
    assert run.fingerprint(untraced) == run.fingerprint(traced)
    report = spans.layer_report(tracer, traced)
    assert sum(report.layer_self_s.values()) == pytest.approx(report.loop_s)
    assert report.sim_self_s > 0.0
    assert report.calls["planners.force"] == sum(len(r.force_times) for r in traced)
