"""Benchmark harness: metric replay, suite aggregation and report files."""

import dataclasses
import json
import math

import pytest

from geopf import (
    PlannerSpec,
    SceneClass,
    SimParams,
    compute_metrics,
    generate,
    run_suite,
    run_trial,
    write_csv,
    write_json,
)
from geopf.bench import CSV_HEADER


def test_replayed_aggregates_match_the_recorded_ones():
    scene = generate(SceneClass.COMPLEX, 1)
    record = run_trial(scene, params=dataclasses.replace(scene.sim, max_steps=300))
    assert record.dist_count > 0
    recorded = compute_metrics(record, scene)
    synthetic = dataclasses.replace(record, min_dist=math.inf, dist_sum=0.0, dist_count=0)
    replayed = compute_metrics(synthetic, scene)
    assert replayed.min_dist == pytest.approx(record.min_dist, abs=1e-9)
    assert replayed.avg_dist == pytest.approx(recorded.avg_dist, abs=1e-9)
    assert replayed.path_length == recorded.path_length


def test_replay_recomputes_path_length():
    scene = generate(SceneClass.LINE_EASY, 0)
    record = run_trial(scene, params=SimParams(max_steps=200))
    synthetic = dataclasses.replace(record, path_length=0.0)
    assert compute_metrics(synthetic, scene).path_length == pytest.approx(
        record.path_length, rel=1e-12
    )


def _without_step_times(report):
    doc = dataclasses.asdict(report)
    doc["stats"].pop("ct_step_ms")
    doc.pop("ct_step_ms_median")
    for trial in doc["trial_metrics"]:
        trial.pop("ct_per_step")
    return doc


def test_worker_pool_gives_the_serial_report():
    spec = PlannerSpec("geopf")
    kw = dict(stall_speed=0.01, collect_trials=True)
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
    assert len(lines) == 3
    for line, report in zip(lines[1:], reports):
        cells = line.split(",")
        assert len(cells) == len(CSV_HEADER.split(","))
        assert cells[:2] == ["line_easy", "geopf"]
        assert cells[-2:] == [str(report.seed_start), str(report.seed_end)]


def test_json_mirror_keys(tmp_path):
    spec = PlannerSpec("pf", rsp=0.1)
    report = run_suite("line_easy", spec, 1, stall_speed=0.01, collect_trials=True, workers=1)
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
        "trials_detail",
    }
    assert set(doc["stats"]) == {"n_obs", "steps", "ct_step_ms", "path_len", "min_dist", "avg_dist"}
    assert [set(t) for t in doc["trials_detail"]] == [
        {"seed", "success", "steps", "ct_per_step", "path_length", "min_dist", "avg_dist"}
    ]
    assert (doc["planner"], doc["rsp"], doc["ksp"]) == ("pf(0.1,1)", 0.1, 1.0)
