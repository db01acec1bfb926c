"""Benchmark harness: recorded metrics against a replay, suite aggregation
and report files."""

import dataclasses
import json
import math

import pytest

from geopf import (
    GeoPFPlanner,
    PlannerSpec,
    SceneClass,
    SimParams,
    SphereCFPlanner,
    SpherePFPlanner,
    SpherizationParams,
    VerdictKind,
    compute_metrics,
    distance,
    generate,
    run_suite,
    run_trial,
    write_csv,
    write_json,
)
from geopf.bench import CSV_HEADER


def _replayed(record, scene):
    """Per-state obstacle distances at the recorded positions: one fresh
    ``distance`` call per obstacle of the state's ``primitives_at_step``
    view, on its base primitive at the position minus its offset, as the
    simulator measures."""
    for s in record.states:
        x, y, z = s.position
        placed = scene.primitives_at_step(s.step)
        yield [
            distance((x - ox, y - oy, z - oz), prim)
            for prim, (ox, oy, oz) in zip(placed.base, placed.offsets)
        ]


def _replayed_aggregates(record, scene):
    """Minimum, mean and count of the replayed distances, summed per state
    as the simulator does; the mean is per (state, obstacle) pair."""
    replayed = list(_replayed(record, scene))
    total = 0.0
    for dists in replayed:
        total += math.fsum(dists)
    count = sum(len(dists) for dists in replayed)
    return min(min(dists) for dists in replayed), total / count, count


def test_replayed_aggregates_match_the_recorded_ones():
    scene = generate(SceneClass.COMPLEX, 1)
    record = run_trial(scene, params=dataclasses.replace(scene.sim, max_steps=300))
    assert record.dist_count > 0
    recorded = compute_metrics(record, scene)
    min_dist, avg_dist, count = _replayed_aggregates(record, scene)
    assert count == record.dist_count
    assert min_dist == pytest.approx(record.min_dist, abs=1e-9)
    assert avg_dist == pytest.approx(recorded.avg_dist, abs=1e-9)
    assert recorded.path_length == record.path_length


def test_replayed_aggregates_of_drifting_obstacles_are_the_recorded_ones():
    # The replay queries each base primitive at the same offsets as the
    # simulator, so the aggregates agree to the bit.
    scene = generate(SceneClass.DYNAMIC_HARD, 2)
    assert any(obs.drift is not None for obs in scene.obstacles)
    record = run_trial(scene, params=dataclasses.replace(scene.sim, max_steps=150))
    assert record.dist_count > 0
    recorded = compute_metrics(record, scene)
    min_dist, avg_dist, count = _replayed_aggregates(record, scene)
    assert count == record.dist_count
    assert min_dist == recorded.min_dist
    assert avg_dist == recorded.avg_dist
    assert [min(dists) for dists in _replayed(record, scene)] == [
        s.min_dist for s in record.states
    ]


def test_replay_recomputes_path_length():
    scene = generate(SceneClass.LINE_EASY, 0)
    record = run_trial(scene, params=SimParams(max_steps=200))
    positions = [s.position for s in record.states]
    path = math.fsum(math.dist(p, q) for p, q in zip(positions, positions[1:]))
    assert compute_metrics(record, scene).path_length == record.path_length
    assert path == pytest.approx(record.path_length, rel=1e-12)


def test_the_full_step_covers_the_force_only_step():
    scene = generate(SceneClass.LINE_EASY, 0)
    record = run_trial(scene, params=SimParams(max_steps=200))
    assert record.verdict.kind is VerdictKind.TIMEOUT
    # Every step evaluated a force, and the loop's time holds those times.
    assert len(record.step_times) == 201
    metrics = compute_metrics(record, scene)
    assert metrics.full_step == 1e3 * record.full_step_time
    assert metrics.full_step > metrics.ct_per_step


def _without_step_times(report):
    doc = dataclasses.asdict(report)
    for name in ("ct_step_ms", "full_step_ms"):
        doc["stats"].pop(name)
        doc.pop(f"{name}_median")
    for trial in doc["trial_metrics"]:
        trial.pop("ct_per_step")
        trial.pop("full_step")
    return doc


@pytest.mark.parametrize("kind", ["rrt", "GeoPF", ""])
def test_planner_spec_rejects_an_unknown_kind(kind):
    with pytest.raises(ValueError, match="unknown planner kind"):
        PlannerSpec(kind).build()


def test_planner_spec_builds_each_kind_with_its_parameters():
    assert type(PlannerSpec("geopf").build()) is GeoPFPlanner
    assert PlannerSpec("geopf", correction=False).build().correction is False
    for kind, cls in (("pf", SpherePFPlanner), ("cf", SphereCFPlanner)):
        planner = PlannerSpec(kind, rsp=0.02, ksp=0.5).build()
        assert type(planner) is cls
        assert planner.params == SpherizationParams(radius=0.02, k_rep=0.5)


def test_worker_pool_gives_the_serial_report():
    spec = PlannerSpec("geopf")
    kw = dict(stall_speed=0.01)
    serial = run_suite("line_easy", spec, 2, seed0=3, workers=1, **kw)
    pooled = run_suite("line_easy", spec, 2, seed0=3, workers=2, **kw)
    assert serial.trials == 2
    assert _without_step_times(serial) == _without_step_times(pooled)


def test_csv_has_the_header_and_one_row_per_suite(tmp_path):
    first = run_suite("line_easy", PlannerSpec("geopf"), 1, stall_speed=0.01, workers=1)
    reports = [first, dataclasses.replace(first, seed_start=1, seed_end=1)]
    path = tmp_path / "bench.csv"
    write_csv(reports, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    # The full step follows the force-only step, mean, std and median each.
    assert (
        "ct_step_ms_mean,ct_step_ms_std,ct_step_ms_median,"
        "full_step_ms_mean,full_step_ms_std,full_step_ms_median,path_len_mean"
    ) in CSV_HEADER
    assert len(lines) == 3
    for line, report in zip(lines[1:], reports):
        cells = line.split(",")
        assert len(cells) == len(CSV_HEADER.split(","))
        assert cells[:2] == ["line_easy", "geopf"]
        assert cells[-2:] == [str(report.seed_start), str(report.seed_end)]


def test_json_mirror_keys(tmp_path):
    spec = PlannerSpec("pf", rsp=0.1)
    report = run_suite("line_easy", spec, 1, stall_speed=0.01, workers=1)
    path = tmp_path / "bench.json"
    write_json(report, path)
    doc = json.loads(path.read_text())
    assert set(doc) == {
        "scene_class",
        "planner",
        "rsp",
        "ksp",
        "trials",
        "excluded",
        "success_rate",
        "seed_start",
        "seed_end",
        "stats",
        "ct_step_ms_median",
        "full_step_ms_median",
        "trials_detail",
    }
    assert set(doc["stats"]) == {
        "n_obs",
        "steps",
        "ct_step_ms",
        "full_step_ms",
        "path_len",
        "min_dist",
        "avg_dist",
    }
    assert [set(t) for t in doc["trials_detail"]] == [
        {
            "seed",
            "success",
            "steps",
            "ct_per_step",
            "full_step",
            "path_length",
            "min_dist",
            "avg_dist",
        }
    ]
    assert (doc["planner"], doc["rsp"], doc["ksp"]) == ("pf(0.1,1)", 0.1, 1.0)
