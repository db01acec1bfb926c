"""Golden verdicts: capped trials of fixed scenes end as they always have.

Each row is (scene, planner, verdict kind, obstacle id, step, path length,
minimum obstacle distance), the last two to 9 significant digits.  GeoPF
trials are capped at 1000 steps, where most trajectories have already been
deflected by obstacles, and PF/CF trials at 300; trials of the slow drifting
classes are capped at 150 steps under every planner, where the pinned
minimum distance follows the drifting obstacles.  The maze runs to its
collision; the maze class has that geometry for every seed, so it has one
seeded row.  A refactor that changes any row changes a trajectory and
must say so.
"""

import dataclasses

import pytest

from geopf import PlannerSpec, SceneClass, generate, maze_scene, run_trial

CAPS = {"maze_scene": 2500, "dynamic_easy": 150, "dynamic_hard": 150, "pf": 300, "cf": 300}

GOLDEN = [
    ('maze_scene', 'geopf', 'collision', 'obstacle[5]', 2442, 1.27235082, 0.0),
    ('line_easy/0', 'geopf', 'timeout', None, 1000, 0.487394881, 0.285961523),
    ('line_easy/1', 'geopf', 'timeout', None, 1000, 0.450895818, 0.245482479),
    ('line_easy/2', 'geopf', 'timeout', None, 1000, 0.487656749, 0.274714812),
    ('line_hard/0', 'geopf', 'timeout', None, 1000, 0.339827626, 0.230571901),
    ('line_hard/1', 'geopf', 'timeout', None, 1000, 0.424862374, 0.233950575),
    ('line_hard/2', 'geopf', 'timeout', None, 1000, 0.407409069, 0.151391225),
    ('plane_easy/0', 'geopf', 'timeout', None, 1000, 0.438937167, 0.230894173),
    ('plane_easy/0', 'pf', 'timeout', None, 300, 0.131947256, 0.397652246),
    ('plane_easy/0', 'cf', 'timeout', None, 300, 0.131947256, 0.397652246),
    ('plane_easy/1', 'geopf', 'timeout', None, 1000, 0.482779618, 0.254157547),
    ('plane_easy/1', 'pf', 'timeout', None, 300, 0.131947256, 0.566970773),
    ('plane_easy/1', 'cf', 'timeout', None, 300, 0.131947256, 0.566970773),
    ('plane_easy/2', 'geopf', 'timeout', None, 1000, 0.49012932, 0.346079049),
    ('plane_easy/2', 'pf', 'timeout', None, 300, 0.131947256, 0.696792164),
    ('plane_easy/2', 'cf', 'timeout', None, 300, 0.131947256, 0.696792164),
    ('plane_easy_longer/0', 'geopf', 'timeout', None, 1000, 0.439309895, 0.231087378),
    ('plane_easy_longer/1', 'geopf', 'timeout', None, 1000, 0.482780671, 0.25416201),
    ('plane_easy_longer/2', 'geopf', 'timeout', None, 1000, 0.49012932, 0.346079049),
    ('plane_hard/0', 'geopf', 'timeout', None, 1000, 0.378536894, 0.238066395),
    ('plane_hard/1', 'geopf', 'timeout', None, 1000, 0.458108972, 0.217592515),
    ('plane_hard/2', 'geopf', 'timeout', None, 1000, 0.456950188, 0.267393382),
    ('plane_hard_longer/0', 'geopf', 'timeout', None, 1000, 0.379646848, 0.238259899),
    ('plane_hard_longer/1', 'geopf', 'timeout', None, 1000, 0.458165887, 0.21770997),
    ('plane_hard_longer/2', 'geopf', 'timeout', None, 1000, 0.457073689, 0.267441951),
    ('maze/0', 'geopf', 'timeout', None, 1000, 0.49012932, 0.300054612),
    ('complex/0', 'geopf', 'timeout', None, 1000, 0.483202547, 0.279414565),
    ('complex/1', 'geopf', 'timeout', None, 1000, 0.452047506, 0.24076475),
    ('complex/2', 'geopf', 'timeout', None, 1000, 0.429162165, 0.243373031),
    ('dynamic_easy/0', 'geopf', 'timeout', None, 150, 0.046391528, 0.449956858),
    ('dynamic_easy/0', 'pf', 'timeout', None, 150, 0.046391528, 0.449956858),
    ('dynamic_easy/0', 'cf', 'timeout', None, 150, 0.046391528, 0.449956858),
    ('dynamic_easy/1', 'geopf', 'timeout', None, 150, 0.046391528, 0.591646095),
    ('dynamic_easy/2', 'geopf', 'timeout', None, 150, 0.046391528, 0.594883998),
    ('dynamic_hard/0', 'geopf', 'timeout', None, 150, 0.046391528, 0.758018343),
    ('dynamic_hard/0', 'pf', 'timeout', None, 150, 0.046391528, 0.758018343),
    ('dynamic_hard/0', 'cf', 'timeout', None, 150, 0.046391528, 0.758018343),
    ('dynamic_hard/1', 'geopf', 'timeout', None, 150, 0.046391528, 0.494803392),
    ('dynamic_hard/2', 'geopf', 'timeout', None, 150, 0.046391528, 0.499056192),
]


@pytest.mark.parametrize("row", GOLDEN, ids=[f"{r[0]}-{r[1]}" for r in GOLDEN])
def test_golden_verdict(row):
    label, kind, verdict_kind, obstacle_id, step, path_length, min_dist = row
    if label == "maze_scene":
        scene, cap = maze_scene(), CAPS[label]
    else:
        scene_class, seed = label.split("/")
        scene = generate(SceneClass(scene_class), int(seed))
        cap = CAPS.get(scene_class, CAPS.get(kind, 1000))
    params = dataclasses.replace(scene.sim, max_steps=cap)
    record = run_trial(scene, PlannerSpec(kind).build(), params, keep_states=False)
    verdict = record.verdict
    assert (verdict.kind.value, verdict.obstacle_id, verdict.step) == (
        verdict_kind,
        obstacle_id,
        step,
    )
    assert record.path_length == pytest.approx(path_length, rel=1e-8)
    assert record.min_dist == pytest.approx(min_dist, rel=1e-8)
