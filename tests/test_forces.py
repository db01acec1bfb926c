"""Force generation: attraction, repulsion, corrections, aggregation."""

import math

import numpy as np
import pytest

from geopf import (
    Cylinder,
    D_MIN,
    Gains,
    GeoPFPlanner,
    Obstacle,
    RectPlane,
    Scene,
    SceneClass,
    Sphere,
    closest_feature,
    generate,
    resultant_force,
)
from geopf.forces import obstacle_force_term
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


def term(robot, goal, prim, gains=GAINS, rng=None, correction=True):
    """``obstacle_force_term`` of one primitive as a vector, with gain
    ``gains.k_rep``."""
    fx, fy, fz, _ = obstacle_force_term(
        *np.asarray(robot, dtype=float).tolist(),
        *np.asarray(goal, dtype=float).tolist(),
        prim,
        gains.k_rep,
        gains.activation_radius,
        rng,
        correction,
    )
    return np.array((fx, fy, fz))


# -- attraction --------------------------------------------------------------


def test_attractive_force_example():
    f = resultant_force((0, 1, 0), (0, -1, 0), scene_of([])).attractive
    assert np.allclose(f, (0, -1, 0))


def test_attractive_force_at_goal():
    f = resultant_force((1, 2, 3), (1, 2, 3), scene_of([])).attractive
    assert np.allclose(f, (0, 0, 0))


def test_attractive_force_scaling():
    g = Gains(k_attr=0.1, k_rep=0.1, activation_radius=1.0)
    f = resultant_force((1, 0, 0), (0, 0, 0), scene_of([], gains=g)).attractive
    assert np.allclose(f, (-0.1, 0, 0))


# -- repulsion ---------------------------------------------------------------


def _repulsion(d):
    """The wall's repulsion at (0, d, 0), where its closest feature lies at
    distance d along +y."""
    return term((0, d, 0), (0, 2, 0), WALL, correction=False)


def test_repulsive_inverse_distance():
    assert np.allclose(_repulsion(0.5), (0, 0.2, 0))


def test_repulsive_zero_beyond_activation():
    assert np.allclose(_repulsion(2.0), (0, 0, 0))


def test_repulsive_clamped_near_contact():
    f = _repulsion(1e-6)
    assert np.linalg.norm(f) == pytest.approx(0.1 / D_MIN)  # magnitude 1000


def test_repulsive_penetration_is_a_zero_term():
    # Inside a volume the term is zero, and the breakdown lists it: the
    # planner leaves the contact to the simulator.
    ball = Sphere((0, 0, 0), 0.5)
    inside = obstacle_force_term(0.0, 0.1, 0.0, 0.0, 2.0, 0.0, ball, 0.1, 1.0, None, True)
    assert inside == (0.0, 0.0, 0.0, -0.4)
    bd = resultant_force((0, 0.1, 0), (0, 2, 0), scene_of([ball]))
    assert [(label, term.tolist()) for label, term in bd.per_obstacle] == [
        ("obstacle[0]", [0.0, 0.0, 0.0])
    ]
    assert np.array_equal(bd.resultant, bd.attractive)


def test_repulsive_monotone_in_distance():
    mags = [float(np.linalg.norm(_repulsion(d))) for d in np.linspace(2 * D_MIN, 0.99, 50)]
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
    f = term(robot, goal, WALL, CORR_GAINS, rng=trial_rng(0))
    assert np.allclose(f, (0.1, 0, 0), atol=1e-12)


def test_plane_correction_sign_flips_past_midline():
    # Mirrored: nearest edge is x = -1 and the raw parallel direction points
    # to the far edge, so the sign rule flips it.
    robot = (-0.5, 1.0, 0.0)
    goal = (-0.5, -1.0, 0.0)
    f = term(robot, goal, WALL, CORR_GAINS, rng=trial_rng(0))
    assert np.allclose(f, (-0.1, 0, 0), atol=1e-12)


def test_plane_correction_inert_when_line_misses():
    # Goal shifted sideways so the robot-goal line pierces the supporting
    # plane outside the rectangle: ordinary (side) repulsion applies.
    robot = (0.5, 1.0, 1.8)
    goal = (0.5, -1.0, 1.8)
    f = term(robot, goal, WALL, CORR_GAINS, rng=trial_rng(0))
    cf = closest_feature(robot, WALL)
    expected = (0.1 / cf.distance) * np.asarray(cf.direction)
    assert np.allclose(f, expected)


def test_plane_correction_inert_when_goal_on_same_side():
    # No crossing: both endpoints above the wall.
    f = term((0.5, 1.0, 0), (0.5, 2.0, 0), WALL, CORR_GAINS)
    assert np.allclose(f, (0, 0.1, 0))


def test_plane_correction_orthogonal_to_normal():
    rng = trial_rng(7)
    for _ in range(50):
        robot = np.array([rng.uniform(-0.9, 0.9), rng.uniform(0.05, 0.9), rng.uniform(-0.9, 0.9)])
        goal = np.array([rng.uniform(-0.9, 0.9), -rng.uniform(0.05, 0.9), rng.uniform(-0.9, 0.9)])
        f = term(robot, goal, WALL, CORR_GAINS, rng=rng)
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
    f1 = term(robot, goal, WALL, CORR_GAINS, rng=trial_rng(42))
    f2 = term(robot, goal, WALL, CORR_GAINS, rng=trial_rng(42))
    assert np.array_equal(f1, f2)
    assert np.linalg.norm(f1) == pytest.approx(0.1 / 0.5)
    assert abs(float(f1 @ WALL.normal)) < 1e-9


# -- cylinder cap correction ------------------------------------------------


CYL = Cylinder((0, 0, 0), (0, 0, 2), 0.5)


def test_cap_correction_lateral_when_goal_below():
    # Above the top cap with the goal underneath: intersection at the cap
    # center (inside), so the force turns lateral toward the rim.
    f = term((0, 0, 3), (0, 0, -3), CYL, CORR_GAINS, rng=trial_rng(3))
    assert np.linalg.norm(f) == pytest.approx(0.1 / 1.0)
    assert abs(f[2]) < 1e-9  # perpendicular to the axis


@pytest.mark.parametrize(
    "x, y, z, goal_z",
    [(0.2, 0.1, 3, -3), (-0.05, 0.3, 3, -3), (0.4, -0.25, 3, -3), (0.1, -0.2, -1, 5)],
)
def test_cap_correction_turns_radially_toward_the_rim(x, y, z, goal_z):
    # Off the axis, one unit beyond a cap, with the goal across the cylinder:
    # the stretch passes through the cap disk, and the force turns to the
    # radial direction, toward the nearest rim point, with magnitude k/d
    # (d = 1).  No RNG is drawn.
    rng = trial_rng(3)
    state = rng.bit_generator.state
    f = term((x, y, z), (x, y, goal_z), CYL, CORR_GAINS, rng=rng)
    radial = np.array((x, y, 0.0)) / math.hypot(x, y)
    assert np.allclose(f, 0.1 * radial, rtol=0.0, atol=1e-15)
    assert rng.bit_generator.state == state


def test_cap_correction_inert_when_goal_above():
    f = term((0, 0, 3), (0, 0, 5), CYL, CORR_GAINS, rng=trial_rng(3))
    assert np.allclose(f, (0, 0, 0.1))


def test_cap_correction_inert_when_intersection_outside_disc():
    # Goal below but far to the side: the line crosses the cap plane well
    # outside the disc, so plain axial repulsion applies.
    f = term((0.2, 0, 3), (4.0, 0, -3), CYL, CORR_GAINS, rng=trial_rng(3))
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


def test_a_gain_override_sets_its_own_term_and_its_neighbour_keeps_k_rep():
    near, other = Sphere((0.0, 0.0, 0.0), 0.1), Sphere((0.3, 0.1, 0.0), 0.05)
    robot, goal = (0.0, 0.3, 0.0), (0.0, -1.0, 0.0)
    bd = resultant_force(robot, goal, scene_of([Obstacle(near, gain=0.7), other]))
    overridden = Gains(k_attr=1.0, k_rep=0.7, activation_radius=1.0)
    want = [
        ("obstacle[0]", term(robot, goal, near, overridden)),
        ("obstacle[1]", term(robot, goal, other)),
    ]
    assert [(label, list(map(float.hex, t))) for label, t in bd.per_obstacle] == [
        (label, list(map(float.hex, t))) for label, t in want
    ]


def test_resultant_direction_away_from_foot():
    # Repulsion points from the closest point toward the robot except in
    # correction branches.
    rng = trial_rng(5)
    prims = [Sphere((0.1, 0.2, -0.1), 0.1), Sphere((-0.2, -0.3, 0.2), 0.12)]
    scene = scene_of(prims)
    for _ in range(50):
        robot = rng.uniform(-0.6, 0.6, size=3)
        bd = resultant_force(robot, (0, -1, 0), scene, rng=rng)
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
    # positions spread around the obstacles of seeded scenes, a few of them
    # in contact.
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
                got = resultant_force(
                    robot, scene.goal, scene, rng=trial_rng(n), correction=correction
                ).resultant
                want = planner.force(ctx, *robot.tolist(), 0, 0, 0, trial_rng(n))
                assert list(map(float.hex, got)) == list(map(float.hex, want))
