"""Scene generation, drift, maze construction and serialization."""

import dataclasses
import json
import math

import numpy as np
import pytest
from conftest import rect_distance_frame
from scipy import ndimage

from geopf import (
    Gains,
    GenerationFailure,
    Obstacle,
    RectPlane,
    Scene,
    SceneClass,
    SceneSchemaError,
    Segment,
    SimParams,
    Sphere,
    corridor_boundary,
    distance,
    generate,
    load_scene,
    maze_scene,
    save_scene,
    translated,
)
from geopf.scenes import MIN_CLEARANCE, _drift_offset, document_to_scene, scene_to_document


def doc_bytes(scene):
    return json.dumps(scene_to_document(scene), indent=2)


# -- generation ---------------------------------------------------------------


def test_line_easy_counts_and_types():
    for seed in range(20):
        scene = generate(SceneClass.LINE_EASY, seed)
        assert 5 <= len(scene.obstacles) <= 10
        assert all(isinstance(o.primitive, Segment) for o in scene.obstacles)


def test_generator_deterministic():
    a = generate(SceneClass.COMPLEX, 123)
    b = generate(SceneClass.COMPLEX, 123)
    assert doc_bytes(a) == doc_bytes(b)


def test_different_seeds_differ():
    a = generate(SceneClass.LINE_EASY, 1)
    b = generate(SceneClass.LINE_EASY, 2)
    assert doc_bytes(a) != doc_bytes(b)


def test_start_goal_clearance_invariant():
    for scene_class in (SceneClass.LINE_HARD, SceneClass.PLANE_HARD, SceneClass.COMPLEX):
        for seed in range(15):
            scene = generate(scene_class, seed)
            for obs in scene.obstacles:
                assert distance(scene.start, obs.primitive) >= MIN_CLEARANCE
                assert distance(scene.goal, obs.primitive) >= MIN_CLEARANCE


def test_class_count_statistics():
    # Means of the per-class obstacle counts within 5% of the uniform mean.
    expected = {
        SceneClass.LINE_EASY: 7.5,
        SceneClass.LINE_HARD: 30.0,
        SceneClass.PLANE_EASY: 5.0,
        SceneClass.PLANE_HARD: 25.0,
    }
    for scene_class, mean in expected.items():
        counts = [len(generate(scene_class, seed).obstacles) for seed in range(500)]
        assert abs(np.mean(counts) - mean) <= 0.05 * mean, scene_class


def test_longer_variant_moves_goal():
    near = generate(SceneClass.PLANE_EASY, 7)
    far = generate(SceneClass.PLANE_EASY_LONGER, 7)
    d_near = np.linalg.norm(np.subtract(near.goal, near.start))
    d_far = np.linalg.norm(np.subtract(far.goal, far.start))
    assert d_far == pytest.approx(1.5 * d_near)


def test_complex_composition():
    from geopf import Cube, Cylinder

    for seed in range(10):
        scene = generate(SceneClass.COMPLEX, seed)
        kinds = [type(o.primitive).__name__ for o in scene.obstacles]
        assert 5 <= kinds.count("Segment") <= 10
        assert 2 <= kinds.count("RectPlane") <= 5
        assert 2 <= kinds.count("Cube") + kinds.count("Cylinder") <= 3


def test_dynamic_fraction_and_speed():
    for seed in range(20):
        scene = generate(SceneClass.DYNAMIC_EASY, seed)
        n = len(scene.obstacles)
        dyn = [o for o in scene.obstacles if o.drift is not None]
        assert len(dyn) == round(n / 3)
        for o in dyn:
            assert float(np.linalg.norm(o.drift)) <= 0.05 + 1e-12
        speeds = [float(np.linalg.norm(o.drift)) for o in dyn]
        assert scene._drift_speed == pytest.approx(max(speeds, default=0.0), rel=1e-15)
    scene = generate(SceneClass.DYNAMIC_HARD, 3)
    n = len(scene.obstacles)
    assert 10 <= n <= 20
    assert sum(o.drift is not None for o in scene.obstacles) == round(n / 2)


def test_dynamic_containment_over_horizon():
    for seed in range(5):
        scene = generate(SceneClass.DYNAMIC_HARD, seed)
        lo, hi = map(np.asarray, scene.drift_bounds)
        horizon = (scene.sim.max_steps + 1) * scene.sim.dt
        for t in np.linspace(0.0, horizon, 200):
            for i, obs in enumerate(scene.obstacles):
                if obs.drift is None:
                    continue
                off = _drift_offset(scene._drifts[i], float(t))
                cx, cy, cz, r = obs.primitive.bounding_sphere
                c = np.array([cx, cy, cz]) + np.array(off)
                assert np.all(c - r >= lo - 1e-9)
                assert np.all(c + r <= hi + 1e-9)


def test_drift_is_continuous_and_starts_at_base():
    scene = generate(SceneClass.DYNAMIC_EASY, 11)
    i = next(i for i, o in enumerate(scene.obstacles) if o.drift is not None)
    assert _drift_offset(scene._drifts[i], 0.0) == (0.0, 0.0, 0.0)
    speed = float(np.linalg.norm(scene.obstacles[i].drift))
    prev = np.zeros(3)
    for t in np.linspace(0.0, 60.0, 600):
        off = np.array(_drift_offset(scene._drifts[i], float(t)))
        assert np.linalg.norm(off - prev) <= speed * 0.1003 + 1e-9
        prev = off


def test_static_scene_prims_shared():
    scene = generate(SceneClass.LINE_EASY, 5)
    placed = scene.primitives_at_step(0)
    assert placed is scene.primitives_at_step(100)
    assert (placed.time, scene._drift_speed) == (0.0, 0.0)
    assert all(p is obs.primitive for p, obs in zip(placed, scene.obstacles))


def test_placed_obstacles_match_translated_primitives():
    scene = generate(SceneClass.DYNAMIC_HARD, 4)
    dt = scene.sim.dt
    for s in (0, 1, 37, 5000):
        placed = scene.primitives_at_step(s)
        assert placed.time == (s + 1) * dt
        assert len(placed) == len(scene.obstacles)
        for i, obs in enumerate(scene.obstacles):
            assert placed.base[i] is obs.primitive
            drift = scene._drifts.get(i)
            offset = (0.0, 0.0, 0.0) if drift is None else _drift_offset(drift, (s + 1) * dt)
            assert placed.offsets[i] == offset
            expected = translated(obs.primitive, offset)
            got = placed[i]
            assert type(got) is type(expected)
            for f in dataclasses.fields(expected):
                assert np.array_equal(getattr(got, f.name), getattr(expected, f.name))


@pytest.mark.parametrize("scene_class", list(SceneClass))
def test_bodies_hold_one_plain_tuple_per_obstacle_then_per_wall(scene_class):
    scene = generate(scene_class, 3)
    act, k_rep = scene.gains.activation_radius, scene.gains.k_rep
    prims = [obs.primitive for obs in scene.obstacles] + list(scene.boundary)
    assert len(scene.bodies) == len(prims)
    for row, prim in zip(scene.bodies, prims):
        assert type(row) is tuple
        cx, cy, cz, r = prim.bounding_sphere
        assert row[0] is prim
        assert row[2:] == (k_rep, cx, cy, cz, (act + r) ** 2, isinstance(prim, RectPlane))


def test_generation_failure_is_reported():
    # An impossible class configuration cannot be triggered through the
    # public classes, so drive the rejection counter directly.
    from geopf import scenes as sc

    old = sc.MAX_REJECTIONS
    sc.MAX_REJECTIONS = 1
    try:
        with pytest.raises(GenerationFailure):
            # Dense hard class rejects at least once almost surely.
            for seed in range(50):
                generate(SceneClass.PLANE_HARD, seed)
    finally:
        sc.MAX_REJECTIONS = old


# -- maze -------------------------------------------------------------------


def test_maze_straight_line_blocked():
    scene = maze_scene()
    start = np.asarray(scene.start)
    goal = np.asarray(scene.goal)
    blocked = False
    for obs in scene.obstacles:
        prim = obs.primitive
        ts = np.linspace(0.0, 1.0, 2001)
        pts = start[None, :] + ts[:, None] * (goal - start)[None, :]
        if rect_distance_frame(pts, prim).min() < 1e-3:
            blocked = True
    assert blocked


def test_maze_has_collision_free_path():
    # Flood-fill reachability on a 0.01 m grid, blocking cells within 0.015 m
    # of any rectangle (adjacent free cells can then never straddle a wall).
    scene = maze_scene()
    res = 0.01
    xs = np.arange(-0.48, 0.4801, res)
    ys = np.arange(-1.18, 1.1801, res)
    zs = np.arange(-0.48, 0.4801, res)
    gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    free = np.ones(len(pts), dtype=bool)
    for obs in scene.obstacles:
        free &= rect_distance_frame(pts, obs.primitive) >= 1.5 * res
    free = free.reshape(gx.shape)
    labels, _ = ndimage.label(free, structure=ndimage.generate_binary_structure(3, 1))

    def cell(p):
        return (
            int(round((p[0] - xs[0]) / res)),
            int(round((p[1] - ys[0]) / res)),
            int(round((p[2] - zs[0]) / res)),
        )

    start_lbl = labels[cell(scene.start)]
    goal_lbl = labels[cell(scene.goal)]
    assert start_lbl != 0 and goal_lbl != 0
    assert start_lbl == goal_lbl


def test_maze_roundtrip_bytes(tmp_path):
    scene = maze_scene()
    p1 = tmp_path / "maze1.json"
    p2 = tmp_path / "maze2.json"
    save_scene(scene, p1)
    save_scene(load_scene(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


# -- scene files --------------------------------------------------------------


def test_roundtrip_identity_many_scenes(tmp_path):
    classes = [
        SceneClass.LINE_EASY,
        SceneClass.PLANE_EASY,
        SceneClass.COMPLEX,
        SceneClass.DYNAMIC_EASY,
        SceneClass.DYNAMIC_HARD,
    ]
    count = 0
    for scene_class in classes:
        for seed in range(20):
            scene = generate(scene_class, seed)
            path = tmp_path / f"{scene_class.value}_{seed}.json"
            save_scene(scene, path)
            again = load_scene(path)
            assert doc_bytes(scene) == doc_bytes(again)
            count += 1
    assert count == 100


def test_missing_goal_is_named(tmp_path):
    scene = generate(SceneClass.LINE_EASY, 0)
    doc = scene_to_document(scene)
    del doc["goal"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SceneSchemaError) as exc:
        load_scene(path)
    assert exc.value.field == "goal"


def test_unknown_field_rejected(tmp_path):
    scene = generate(SceneClass.LINE_EASY, 0)
    doc = scene_to_document(scene)
    doc["foo"] = 1
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SceneSchemaError) as exc:
        load_scene(path)
    assert exc.value.field == "foo"


def test_unknown_obstacle_field_rejected(tmp_path):
    scene = generate(SceneClass.LINE_EASY, 0)
    doc = scene_to_document(scene)
    doc["obstacles"][0]["color"] = "red"
    path = tmp_path / "legacy2.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SceneSchemaError) as exc:
        load_scene(path)
    assert "obstacles[0]" in str(exc.value.field)


def test_malformed_json_line_diagnostic(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "format": "geopf-scene-v1",\n  broken\n}')
    with pytest.raises(SceneSchemaError) as exc:
        load_scene(path)
    assert "line 3" in str(exc.value)


def test_invalid_primitive_geometry_rejected(tmp_path):
    scene = generate(SceneClass.LINE_EASY, 0)
    doc = scene_to_document(scene)
    doc["obstacles"][0] = {"type": "segment", "p1": [0, 0, 0], "p2": [0, 0, 0]}
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SceneSchemaError):
        load_scene(path)



@pytest.mark.parametrize(
    "path, value, field",
    [
        (("obstacles", 0, "p1"), [0.0, 0.0], "obstacles[0].p1"),
        (("gains", "k_rep"), "high", "gains.k_rep"),
        (("sim", "max_steps"), 1.5, "sim.max_steps"),
        (("seed",), -1, "seed"),
        (("obstacles", 0, "drift"), [0, "x", 0], "obstacles[0].drift"),
        (("start",), [10**400, 1, 0], "start"),
        (("gains", "k_rep"), 10**400, "gains.k_rep"),
    ],
    ids=["obstacle_point", "gain", "sim_param", "negative_seed", "drift", "huge_start", "huge_gain"],
)
def test_bad_field_is_reported_at_its_own_path(path, value, field):
    doc = scene_to_document(generate(SceneClass.LINE_EASY, 0))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(SceneSchemaError) as exc:
        document_to_scene(doc)
    assert exc.value.field == field
    assert str(exc.value).count("(field:") == 1


def test_drift_without_drift_bounds_is_rejected():
    scene = generate(SceneClass.DYNAMIC_EASY, 0)
    i = next(i for i, obs in enumerate(scene.obstacles) if obs.drift is not None)
    doc = scene_to_document(scene)
    doc["drift_bounds"] = None
    with pytest.raises(SceneSchemaError) as exc:
        document_to_scene(doc)
    assert exc.value.field == f"obstacles[{i}].drift"
    with pytest.raises(ValueError, match="drift_bounds"):
        dataclasses.replace(scene, drift_bounds=None)


def _drifting_scene(prim, bound):
    return Scene(
        start=(0, -0.5, 0),
        goal=(0, 0.5, 0),
        obstacles=[Obstacle(prim, drift=(0.01, 0.0, 0.0))],
        boundary=[],
        drift_bounds=((-bound,) * 3, (bound,) * 3),
    )


def test_drift_outside_its_bounds_is_rejected():
    # Centre 0.3 m past the bounds: the fold would move it 0.40 m in one step.
    with pytest.raises(ValueError, match="drift_bounds"):
        _drifting_scene(Segment((0.4, -0.05, 0), (0.4, 0.05, 0)), 0.1)
    # Wider than its bounds: the fold range is empty, so it would never move.
    with pytest.raises(ValueError, match="drift_bounds"):
        _drifting_scene(Segment((-0.15, 0, 0), (0.15, 0, 0)), 0.1)
    moving = _drifting_scene(Segment((-0.05, 0, 0), (0.05, 0, 0)), 0.1)
    assert moving.primitives_at_step(0).offsets[0] != (0.0, 0.0, 0.0)


def test_drift_outside_its_bounds_is_a_schema_error_at_the_drift():
    scene = generate(SceneClass.DYNAMIC_HARD, 0)
    i = next(i for i, obs in enumerate(scene.obstacles) if obs.drift is not None)
    doc = scene_to_document(scene)
    doc["drift_bounds"] = [[-0.01, -0.01, -0.01], [0.01, 0.01, 0.01]]
    with pytest.raises(SceneSchemaError, match="drift_bounds") as exc:
        document_to_scene(doc)
    assert exc.value.field == f"obstacles[{i}].drift"


def _three_obstacles(drifts, drift_bounds=None, seed=0):
    """A scene with segments at x = -0.2, 0 and 0.2 and the given drifts."""
    return Scene(
        start=(0, 1, 0),
        goal=(0, -1, 0),
        obstacles=[
            Obstacle(Segment((x, -0.05, 0), (x, 0.05, 0)), drift=drift)
            for x, drift in zip((-0.2, 0.0, 0.2), drifts)
        ],
        boundary=[],
        seed=seed,
        drift_bounds=drift_bounds,
    )


_DRIFT = (0.01, 0.0, 0.0)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"drifts": (None, None, None), "seed": -1}, "seed"),
        ({"drifts": (None, _DRIFT, _DRIFT)}, "obstacles[1].drift"),
        (
            {"drifts": (_DRIFT, _DRIFT, _DRIFT), "drift_bounds": ((-0.15,) * 3, (0.3,) * 3)},
            "obstacles[0].drift",
        ),
        (
            {"drifts": (None, _DRIFT, _DRIFT), "drift_bounds": ((-0.1,) * 3, (0.1,) * 3)},
            "obstacles[2].drift",
        ),
    ],
    ids=["seed", "drift_without_bounds", "first_outside_bounds", "later_outside_bounds"],
)
def test_scene_names_the_field_of_a_bad_seed_or_drift(kwargs, field):
    with pytest.raises(SceneSchemaError) as exc:
        _three_obstacles(**kwargs)
    assert isinstance(exc.value, ValueError)
    assert exc.value.field == field
    assert str(exc.value).count("(field:") == 1


@pytest.mark.parametrize("key, value", [("seed", -1), ("drift_bounds", None)])
def test_a_document_reports_its_obstacles_before_seed_and_drift(key, value):
    # The seed's range and the drift rules are the Scene's, checked once the
    # obstacles are read, so a bad obstacle in the same document comes first.
    scene = generate(SceneClass.DYNAMIC_EASY, 0)
    first_drift = next(i for i, obs in enumerate(scene.obstacles) if obs.drift is not None)
    doc = scene_to_document(scene)
    doc[key] = value
    with pytest.raises(SceneSchemaError) as exc:
        document_to_scene(doc)
    assert exc.value.field == ("seed" if key == "seed" else f"obstacles[{first_drift}].drift")
    last = len(doc["obstacles"]) - 1
    doc["obstacles"][last]["gain"] = -1.0
    with pytest.raises(SceneSchemaError) as exc:
        document_to_scene(doc)
    assert exc.value.field == f"obstacles[{last}]"


_NEW_VALUES = {
    "start": (0, 0.5, 0),
    "goal": (0, -0.5, 0),
    "obstacles": [],
    "boundary": [],
    "gains": Gains(k_rep=5.0),
    "sim": SimParams(dt=0.001),
    "seed": 7,
    "scene_class": "other",
    "drift_bounds": ((-1,) * 3, (1,) * 3),
}


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Scene)])
def test_a_built_scene_rejects_a_changed_field(name):
    scene = generate(SceneClass.DYNAMIC_EASY, 0)
    before = scene_to_document(scene)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(scene, name, _NEW_VALUES[name])
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(scene, name)
    assert scene_to_document(scene) == before
    changed = dataclasses.replace(scene, **{name: _NEW_VALUES[name]})
    assert getattr(changed, name) is not getattr(scene, name)


def test_a_built_scene_keeps_its_obstacles_and_walls():
    scene = generate(SceneClass.LINE_EASY, 0)
    assert type(scene.obstacles) is tuple and type(scene.boundary) is tuple
    with pytest.raises(AttributeError):
        scene.obstacles.append(Obstacle(Sphere((0, 0.3, 0), 0.1)))
    with pytest.raises(AttributeError):
        scene.boundary.append(scene.boundary[0])
    assert len(scene.bodies) == len(scene.obstacles) + len(scene.boundary)


def test_a_built_scene_still_takes_a_step_view_of_its_own():
    # Instrumentation wraps the step view per instance and takes it off again.
    scene = generate(SceneClass.DYNAMIC_EASY, 0)
    inner = scene.primitives_at_step
    scene.primitives_at_step = lambda step: inner(step + 1)
    assert scene.primitives_at_step(0).offsets == inner(1).offsets
    del scene.primitives_at_step
    assert scene.primitives_at_step(0).offsets == inner(0).offsets


def test_a_wall_that_is_not_a_rectangle_is_rejected():
    walls = corridor_boundary(-1.2, 1.2)
    walls[1] = Sphere((0.5, 0, 0), 0.1)
    with pytest.raises(ValueError, match=r"^boundary\[1\] must be a RectPlane, got Sphere$"):
        Scene(start=(0, 1, 0), goal=(0, -1, 0), obstacles=[], boundary=walls)
