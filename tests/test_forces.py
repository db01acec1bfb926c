"""Force generation: attraction, repulsion, corrections, aggregation."""

import math

import numpy as np
import pytest

from geopf import (
    ClosestFeature,
    CollisionSignal,
    Cylinder,
    D_MIN,
    FeatureKind,
    Gains,
    GeoPFPlanner,
    Obstacle,
    RectPlane,
    Scene,
    SceneClass,
    Sphere,
    attractive_force,
    cylinder_cap_correction,
    generate,
    plane_force_with_correction,
    repulsive_force,
    resultant_force,
)
from geopf.seeding import trial_rng

GAINS = Gains(k_attr=1.0, k_rep=0.1, activation_radius=1.0)

# Wall in the x-z plane at y = 0, corners (+-1, 0, +-1).
WALL = RectPlane((1, 0, 1), (-1, 0, 1), (-1, 0, -1), (1, 0, -1))


def scene_of(obstacles, boundary=(), gains=GAINS, seed=0):
    return Scene(
        start=(0, 1, 0),
        goal=(0, -1, 0),
        obstacles=[o if isinstance(o, Obstacle) else Obstacle(o) for o in obstacles],
        boundary=list(boundary),
        gains=gains,
        seed=seed,
    )


# -- attraction --------------------------------------------------------------


def test_attractive_force_example():
    f = attractive_force((0, 1, 0), (0, -1, 0), GAINS)
    assert np.allclose(f, (0, -1, 0))


def test_attractive_force_at_goal():
    assert np.allclose(attractive_force((1, 2, 3), (1, 2, 3), GAINS), (0, 0, 0))


def test_attractive_force_scaling():
    g = Gains(k_attr=0.1, k_rep=0.1, activation_radius=1.0)
    f = attractive_force((1, 0, 0), (0, 0, 0), g)
    assert np.allclose(f, (-0.1, 0, 0))


# -- repulsion ---------------------------------------------------------------


def _feature(d, direction=(1, 0, 0)):
    direction = np.asarray(direction, dtype=float)
    return ClosestFeature(
        distance=d,
        direction=direction,
        foot=np.zeros(3),
        feature=FeatureKind.ORTHOGONAL,
    )


def test_repulsive_inverse_distance():
    f = repulsive_force(_feature(0.5), k=0.1, activation=1.0)
    assert np.allclose(f, (0.2, 0, 0))


def test_repulsive_zero_beyond_activation():
    assert np.allclose(repulsive_force(_feature(2.0), 0.1, 1.0), (0, 0, 0))


def test_repulsive_clamped_near_contact():
    f = repulsive_force(_feature(1e-6), 0.1, 1.0)
    assert np.linalg.norm(f) == pytest.approx(0.1 / D_MIN)  # magnitude 1000


def test_repulsive_penetration_signals():
    with pytest.raises(CollisionSignal):
        repulsive_force(_feature(-0.01), 0.1, 1.0)


def test_repulsive_monotone_in_distance():
    mags = [
        float(np.linalg.norm(repulsive_force(_feature(d), 0.1, 1.0)))
        for d in np.linspace(2 * D_MIN, 0.99, 50)
    ]
    assert all(a >= b for a, b in zip(mags, mags[1:]))


# -- plane trap correction -----------------------------------------------

# Wide activation so the unit-distance examples stay active.
CORR_GAINS = Gains(k_attr=1.0, k_rep=0.1, activation_radius=2.0)


def test_plane_correction_redirects_toward_nearest_edge():
    # Robot above the wall at x = +0.5, goal straight across: the robot-goal
    # line pierces the wall, so the force turns parallel, toward the x = +1
    # edge, with the ordinary k/d magnitude (d = 1).
    robot = (0.5, 1.0, 0.0)
    goal = (0.5, -1.0, 0.0)
    f = plane_force_with_correction(robot, goal, WALL, CORR_GAINS, rng=trial_rng(0))
    assert np.allclose(f, (0.1, 0, 0), atol=1e-12)


def test_plane_correction_sign_flips_past_midline():
    # Mirrored: nearest edge is x = -1 and the raw parallel direction points
    # to the far edge, so the sign rule flips it.
    robot = (-0.5, 1.0, 0.0)
    goal = (-0.5, -1.0, 0.0)
    f = plane_force_with_correction(robot, goal, WALL, CORR_GAINS, rng=trial_rng(0))
    assert np.allclose(f, (-0.1, 0, 0), atol=1e-12)


def test_plane_correction_inert_when_line_misses():
    # Goal shifted sideways so the robot-goal line pierces the supporting
    # plane outside the rectangle: ordinary (side) repulsion applies.
    robot = (0.5, 1.0, 1.8)
    goal = (0.5, -1.0, 1.8)
    f = plane_force_with_correction(robot, goal, WALL, CORR_GAINS, rng=trial_rng(0))
    from geopf import plane_closest

    cf = plane_closest(robot, WALL)
    expected = (0.1 / cf.distance) * np.asarray(cf.direction)
    assert np.allclose(f, expected)


def test_plane_correction_inert_when_goal_on_same_side():
    # No crossing: both endpoints above the wall.
    f = plane_force_with_correction((0.5, 1.0, 0), (0.5, 2.0, 0), WALL, CORR_GAINS)
    assert np.allclose(f, (0, 0.1, 0))


def test_plane_correction_orthogonal_to_normal():
    rng = trial_rng(7)
    for _ in range(50):
        robot = np.array([rng.uniform(-0.9, 0.9), rng.uniform(0.05, 0.9), rng.uniform(-0.9, 0.9)])
        goal = np.array([rng.uniform(-0.9, 0.9), -rng.uniform(0.05, 0.9), rng.uniform(-0.9, 0.9)])
        f = plane_force_with_correction(robot, goal, WALL, CORR_GAINS, rng=rng)
        # Either corrected (parallel to the wall) or plain repulsion; the
        # corrected case must be orthogonal to the normal within 1e-9.
        n = WALL.normal
        if abs(float(f @ n)) > 1e-9:
            continue  # plain repulsion case
        assert np.linalg.norm(f) > 0


def test_plane_correction_symmetric_tiebreak_deterministic():
    # Dead-center approach: both parallel edges tie; the RNG nudge picks one,
    # and the same seed picks the same edge.
    robot = (0.0, 0.5, 0.0)
    goal = (0.0, -1.0, 0.0)
    f1 = plane_force_with_correction(robot, goal, WALL, CORR_GAINS, rng=trial_rng(42))
    f2 = plane_force_with_correction(robot, goal, WALL, CORR_GAINS, rng=trial_rng(42))
    assert np.array_equal(f1, f2)
    assert np.linalg.norm(f1) == pytest.approx(0.1 / 0.5)
    assert abs(float(f1 @ WALL.normal)) < 1e-9


# -- cylinder cap correction ------------------------------------------------


CYL = Cylinder((0, 0, 0), (0, 0, 2), 0.5)


def test_cap_correction_lateral_when_goal_below():
    # Above the top cap with the goal underneath: intersection at the cap
    # center (inside), so the force turns lateral toward the rim.
    f = cylinder_cap_correction((0, 0, 3), (0, 0, -3), CYL, CORR_GAINS, rng=trial_rng(3))
    assert np.linalg.norm(f) == pytest.approx(0.1 / 1.0)
    assert abs(f[2]) < 1e-9  # perpendicular to the axis


def test_cap_correction_inert_when_goal_above():
    f = cylinder_cap_correction((0, 0, 3), (0, 0, 5), CYL, CORR_GAINS, rng=trial_rng(3))
    assert np.allclose(f, (0, 0, 0.1))


def test_cap_correction_inert_when_intersection_outside_disc():
    # Goal below but far to the side: the line crosses the cap plane well
    # outside the disc, so plain axial repulsion applies.
    f = cylinder_cap_correction((0.2, 0, 3), (4.0, 0, -3), CYL, CORR_GAINS, rng=trial_rng(3))
    assert np.allclose(f, (0, 0, 0.1))


# -- resultant ---------------------------------------------------------------


def test_resultant_attraction_only():
    bd = resultant_force((0, 1, 0), (0, -1, 0), scene_of([]))
    assert np.allclose(bd.resultant, (0, -1, 0))
    assert bd.per_obstacle == []


def test_resultant_gating_far_obstacle():
    far = Sphere((100, 0, 0), 0.5)
    scene = scene_of([far])
    bd = resultant_force((0, 1, 0), (0, -1, 0), scene)
    assert np.array_equal(bd.resultant, bd.attractive)


def test_resultant_hand_summed_example():
    scene = scene_of([Sphere((0, 0, 0), 0.1)])
    bd = resultant_force((0, 0.3, 0), (0, -1, 0), scene)
    assert np.allclose(bd.resultant, (0, -0.5, 0))
    assert np.allclose(bd.attractive, (0, -1, 0))
    assert np.allclose(bd.per_obstacle[0][1], (0, 0.5, 0))


def test_resultant_superposition_bitexact():
    rng = trial_rng(11)
    scene = scene_of(
        [Sphere((0.05, 0.4, 0.1), 0.1), Sphere((-0.2, 0.1, 0.0), 0.15)],
        boundary=[RectPlane((1, -1, -1), (1, 1, -1), (1, 1, 1), (1, -1, 1))],
    )
    bd = resultant_force((0, 0.65, 0), (0, -1, 0), scene, rng=rng)
    total = bd.attractive
    for _, term in bd.per_obstacle:
        total = total + term
    total = total + bd.boundary
    assert np.array_equal(total, bd.resultant)
    assert len(bd.per_obstacle) == 2


def test_resultant_collision_signal_carries_id():
    scene = scene_of([Sphere((0, 0, 0), 0.2), Sphere((0, 0.5, 0), 0.2)])
    with pytest.raises(CollisionSignal) as exc:
        resultant_force((0, 0.45, 0), (0, -1, 0), scene)
    assert exc.value.obstacle_id == "obstacle[1]"


def test_resultant_direction_away_from_foot():
    # Repulsion points from the closest point toward the robot except in
    # correction branches.
    from geopf import closest_feature

    rng = trial_rng(5)
    prims = [Sphere((0.1, 0.2, -0.1), 0.1), Sphere((-0.2, -0.3, 0.2), 0.12)]
    scene = scene_of(prims)
    for _ in range(50):
        robot = rng.uniform(-0.6, 0.6, size=3)
        try:
            bd = resultant_force(robot, (0, -1, 0), scene, rng=rng)
        except CollisionSignal:
            continue
        for oid, term in bd.per_obstacle:
            idx = int(oid.split("[")[1].rstrip("]"))
            cf = closest_feature(robot, prims[idx])
            away = robot - cf.foot
            assert float(term @ away) >= 0


def test_resultant_correction_trigger_lateral_kick():
    # Symmetric wall dead ahead: without correction the resultant vanishes at
    # the balance point on the axis; with correction the lateral component is
    # at least k/d there.
    gains = Gains(k_attr=1.0, k_rep=0.1, activation_radius=0.5)
    scene = scene_of([WALL], gains=gains)
    robot = (0.0, 0.1, 0.0)  # k/d = 1 = k_attr at d = 0.1: exact balance
    goal = (0.0, -1.0, 0.0)
    bd_off = resultant_force(robot, goal, scene, rng=trial_rng(1), correction=False)
    assert np.linalg.norm(bd_off.resultant) < 1e-9
    bd_on = resultant_force(robot, goal, scene, rng=trial_rng(1), correction=True)
    lateral = np.array([bd_on.resultant[0], 0.0, bd_on.resultant[2]])
    assert np.linalg.norm(lateral) >= 0.1 / 0.1 - 1e-9


@pytest.mark.parametrize("scene_class", ["complex", "plane_hard", "line_hard", "dynamic_hard"])
def test_resultant_is_the_planner_force_bit_for_bit(scene_class):
    # The breakdown must report the force the simulator integrates, at
    # positions spread around the obstacles of seeded scenes.
    def outcome(fn):
        try:
            return [v.hex() for v in fn()]
        except CollisionSignal as exc:
            return exc.obstacle_id

    compared = 0
    for seed in range(3):
        scene = generate(SceneClass(scene_class), seed)
        act = scene.gains.activation_radius
        centers = [obs.primitive.bounding_sphere for obs in scene.obstacles]
        pick = np.random.default_rng(seed)
        for n in range(90):
            cx, cy, cz, r = centers[n % len(centers)]
            robot = np.array((cx, cy, cz)) + pick.uniform(-1, 1, 3) * (r + act)
            for correction in (True, False):
                planner = GeoPFPlanner(correction)
                ctx = planner.prepare(scene)
                got = outcome(
                    lambda: resultant_force(
                        robot, scene.goal, scene, rng=trial_rng(n), correction=correction
                    ).resultant
                )
                want = outcome(lambda: planner.force(ctx, *robot.tolist(), 0, 0, 0, trial_rng(n)))
                assert got == want
                compared += not isinstance(want, str)
    assert compared >= 450
