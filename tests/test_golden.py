"""Golden verdicts: capped trials of fixed scenes end as they always have.

Each row is (scene, planner, verdict kind, obstacle id, step, path length,
minimum obstacle distance), the last two to 9 significant digits.  Every
row is capped past the robot's first approach to an obstacle, so that it
pins the obstacle repulsion as well as attraction, walls and integration.
GeoPF trials are capped at 1000 steps, except plane_easy/2 and
plane_easy_longer/2, which first come within the activation radius later
and run 3000 steps.  PF/CF trials and trials of the slow drifting classes
are capped at 1500 steps.  The maze runs to its collision; the maze class
has that geometry for every seed, so it has one seeded row, which must
reproduce ``maze_scene``'s collision.  A refactor that changes any row
changes a trajectory and must say so.
"""

import dataclasses

import pytest

from geopf import PlannerSpec, SceneClass, generate, maze_scene, run_trial

# Step caps by planner kind, then by row label, then by scene class; 1000
# for the rest.
CAPS = {
    "pf": 1500,
    "cf": 1500,
    "maze_scene": 2500,
    "maze/0": 2500,
    "plane_easy/2": 3000,
    "plane_easy_longer/2": 3000,
    "dynamic_easy": 1500,
    "dynamic_hard": 1500,
}

GOLDEN = [
    ('maze_scene', 'geopf', 'collision', 'obstacle[5]', 2442, 1.27235082, 0.0),
    ('line_easy/0', 'geopf', 'timeout', None, 1000, 0.487394881, 0.285961523),
    ('line_easy/1', 'geopf', 'timeout', None, 1000, 0.450895818, 0.245482479),
    ('line_easy/2', 'geopf', 'timeout', None, 1000, 0.487656749, 0.274714812),
    ('line_hard/0', 'geopf', 'timeout', None, 1000, 0.339827626, 0.230571901),
    ('line_hard/1', 'geopf', 'timeout', None, 1000, 0.424862374, 0.233950575),
    ('line_hard/2', 'geopf', 'timeout', None, 1000, 0.407409069, 0.151391225),
    ('plane_easy/0', 'geopf', 'timeout', None, 1000, 0.438937167, 0.230894173),
    ('plane_easy/0', 'pf', 'timeout', None, 1500, 0.532673452, 0.303552689),
    ('plane_easy/0', 'cf', 'timeout', None, 1500, 0.52962476, 0.302360061),
    ('plane_easy/1', 'geopf', 'timeout', None, 1000, 0.482779618, 0.254157547),
    ('plane_easy/1', 'pf', 'timeout', None, 1500, 0.629047343, 0.305351338),
    ('plane_easy/1', 'cf', 'timeout', None, 1500, 0.628617605, 0.304683319),
    ('plane_easy/2', 'geopf', 'timeout', None, 3000, 1.33468591, 0.138819549),
    ('plane_easy/2', 'pf', 'timeout', None, 1500, 0.624729617, 0.30702725),
    ('plane_easy/2', 'cf', 'timeout', None, 1500, 0.630343836, 0.306030567),
    ('plane_easy_longer/0', 'geopf', 'timeout', None, 1000, 0.439309895, 0.231087378),
    ('plane_easy_longer/1', 'geopf', 'timeout', None, 1000, 0.482780671, 0.25416201),
    ('plane_easy_longer/2', 'geopf', 'timeout', None, 3000, 1.34759908, 0.139570811),
    ('plane_hard/0', 'geopf', 'timeout', None, 1000, 0.378536894, 0.238066395),
    ('plane_hard/1', 'geopf', 'timeout', None, 1000, 0.458108972, 0.217592515),
    ('plane_hard/2', 'geopf', 'timeout', None, 1000, 0.456950188, 0.267393382),
    ('plane_hard_longer/0', 'geopf', 'timeout', None, 1000, 0.379646848, 0.238259899),
    ('plane_hard_longer/1', 'geopf', 'timeout', None, 1000, 0.458165887, 0.21770997),
    ('plane_hard_longer/2', 'geopf', 'timeout', None, 1000, 0.457073689, 0.267441951),
    ('maze/0', 'geopf', 'collision', 'obstacle[5]', 2442, 1.27235082, 0.0),
    ('complex/0', 'geopf', 'timeout', None, 1000, 0.483202547, 0.279414565),
    ('complex/1', 'geopf', 'timeout', None, 1000, 0.452047506, 0.24076475),
    ('complex/2', 'geopf', 'timeout', None, 1000, 0.429162165, 0.243373031),
    ('dynamic_easy/0', 'geopf', 'timeout', None, 1500, 0.570148848, 0.119405065),
    ('dynamic_easy/0', 'pf', 'timeout', None, 1500, 0.384440772, 0.305857223),
    ('dynamic_easy/0', 'cf', 'timeout', None, 1500, 0.271647226, 0.303912708),
    ('dynamic_easy/1', 'geopf', 'timeout', None, 1500, 0.678886419, 0.187268835),
    ('dynamic_easy/2', 'geopf', 'timeout', None, 1500, 0.573229061, 0.14101328),
    ('dynamic_hard/0', 'geopf', 'timeout', None, 1500, 0.650743213, 0.232832487),
    ('dynamic_hard/0', 'pf', 'timeout', None, 1500, 0.618737471, 0.306340403),
    ('dynamic_hard/0', 'cf', 'timeout', None, 1500, 0.64066669, 0.305816008),
    ('dynamic_hard/1', 'geopf', 'timeout', None, 1500, 0.661895881, 0.244769146),
    ('dynamic_hard/2', 'geopf', 'timeout', None, 1500, 0.577870802, 0.184736577),
]


@pytest.mark.parametrize("row", GOLDEN, ids=[f"{r[0]}-{r[1]}" for r in GOLDEN])
def test_golden_verdict(row):
    label, kind, verdict_kind, obstacle_id, step, path_length, min_dist = row
    if label == "maze_scene":
        scene, scene_class = maze_scene(), label
    else:
        scene_class, seed = label.split("/")
        scene = generate(SceneClass(scene_class), int(seed))
    cap = next((CAPS[key] for key in (kind, label, scene_class) if key in CAPS), 1000)
    params = dataclasses.replace(scene.sim, max_steps=cap)
    planner = PlannerSpec(kind).build()
    record = run_trial(scene, planner, params, keep_states=False)
    verdict = record.verdict
    assert (verdict.kind.value, verdict.obstacle_id, verdict.step) == (
        verdict_kind,
        obstacle_id,
        step,
    )
    assert record.path_length == pytest.approx(path_length, rel=1e-8)
    assert record.min_dist == pytest.approx(min_dist, rel=1e-8)

    # The row reaches the obstacles.  A cloud sphere acts within the
    # activation radius of its surface, and its centre lies on the
    # primitive, so a PF/CF row can only have felt one if the primitive came
    # within the activation radius plus the sphere radius.  That bound is a
    # necessary condition, not a sufficient one.
    act = scene.gains.activation_radius
    if kind == "geopf":
        assert record.min_dist < act
    else:
        assert record.min_dist < act + planner.params.radius
