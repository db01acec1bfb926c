"""Integrator and trial-loop behavior."""

import math

import numpy as np
import pytest

from geopf import (
    DegenerateVector,
    Gains,
    GeoPFPlanner,
    Obstacle,
    RectPlane,
    Scene,
    SimParams,
    Segment,
    Sphere,
    VerdictKind,
    build_planner,
    corridor_boundary,
    integrate_step,
    run_trial,
    trajectory_lines,
    write_trajectory,
)


def empty_scene(goal=(0, -1, 0), boundary=False, **sim_kw):
    return Scene(
        start=(0, 1, 0),
        goal=goal,
        obstacles=[],
        boundary=corridor_boundary(-1.2, 1.2) if boundary else [],
        gains=Gains(),
        sim=SimParams(**sim_kw),
        seed=1,
    )


# -- integrate_step -----------------------------------------------------------


def test_step_from_rest():
    params = SimParams(mass=1.0, dt=0.1, damping=0.0, max_speed=100.0)
    p, v = integrate_step((0, 0, 0), (0, 0, 0), (1, 0, 0), params)
    assert np.allclose(p, (0.005, 0, 0))
    assert np.allclose(v, (0.1, 0, 0))


def test_step_ballistic():
    params = SimParams(dt=0.1, damping=0.0, max_speed=100.0)
    p, v = integrate_step((0, 0, 0), (1, 0, 0), (0, 0, 0), params)
    assert np.allclose(p, (0.1, 0, 0))
    assert np.allclose(v, (1, 0, 0))


def test_step_damping():
    params = SimParams(dt=0.01, damping=5.0, max_speed=100.0)
    _, v = integrate_step((0, 0, 0), (1, 0, 0), (0, 0, 0), params)
    assert np.allclose(v, (0.95, 0, 0))


def test_step_speed_clamp():
    params = SimParams(dt=1.0, damping=0.0, max_speed=0.5)
    _, v = integrate_step((0, 0, 0), (0, 0, 0), (10, 0, 0), params)
    assert np.linalg.norm(v) == pytest.approx(0.5)


def test_position_uses_preupdate_velocity():
    # p' = p + dt^2/2 a + dt v with the old v, even when v' gets clamped.
    params = SimParams(dt=0.5, damping=0.0, max_speed=0.1)
    p, v = integrate_step((0, 0, 0), (1, 0, 0), (4, 0, 0), params)
    assert np.allclose(p, (0.5 * 0.25 * 4 + 0.5 * 1.0, 0, 0))
    assert np.linalg.norm(v) == pytest.approx(0.1)


# -- free flight --------------------------------------------------------------


def test_free_flight_matches_closed_form():
    # Without obstacles and damping the discrete update telescopes to the
    # uniformly accelerated trajectory exactly.
    scene = empty_scene(goal=(0, -100, 0), damping=0.0, max_speed=1e9, max_steps=1000)
    record = run_trial(scene)
    a = np.array([0.0, -1.0, 0.0])  # k_attr = 1, mass = 1, straight pull
    dt = scene.sim.dt
    p0 = np.array([0.0, 1.0, 0.0])
    for s in record.states:
        t = s.step * dt
        expected = p0 + 0.5 * a * t * t
        assert np.linalg.norm(np.array(s.position) - expected) < 1e-9
        expected_v = a * t
        assert np.linalg.norm(np.array(s.velocity) - expected_v) < 1e-9
    assert record.verdict.kind is VerdictKind.TIMEOUT
    assert record.states[-1].step == 1000


# -- trials -------------------------------------------------------------------


def test_empty_scene_reaches_goal_straight():
    scene = empty_scene(boundary=True)
    record = run_trial(scene)
    assert record.verdict.kind is VerdictKind.REACHED_GOAL
    # Straight 2 m transit, stopped inside the goal ball.
    assert abs(record.path_length - 2.0) <= 4 * scene.sim.goal_radius
    final = np.array(record.states[-1].position)
    assert np.linalg.norm(final - np.array([0, -1, 0])) <= scene.sim.goal_radius


def test_unreachable_goal_never_succeeds():
    # Goal fully enclosed by a tight sphere shell around it.
    shell = Sphere((0, -1, 0), 0.2)
    scene = Scene(
        start=(0, 1, 0),
        goal=(0, -1, 0),
        obstacles=[Obstacle(shell)],
        boundary=[],
        gains=Gains(),
        sim=SimParams(max_steps=4000),
        seed=3,
    )
    record = run_trial(scene)
    assert record.verdict.kind in (VerdictKind.TIMEOUT, VerdictKind.COLLISION)


def test_determinism_bit_identical():
    scene = demo_scene(seed=9)
    r1 = run_trial(scene)
    r2 = run_trial(scene)
    assert r1.verdict == r2.verdict
    assert len(r1.states) == len(r2.states)
    for a, b in zip(r1.states, r2.states):
        assert a == b  # exact tuple equality, bit-for-bit
    assert r1.path_length == r2.path_length
    assert r1.min_dist == r2.min_dist
    assert r1.dist_sum == r2.dist_sum


def demo_scene(seed=9):
    return Scene(
        start=(0, 1, 0),
        goal=(0, -1, 0),
        obstacles=[
            Obstacle(Sphere((0.05, 0.3, 0.0), 0.12)),
            Obstacle(RectPlane((0.3, -0.2, 0.25), (-0.3, -0.2, 0.25),
                               (-0.3, -0.2, -0.25), (0.3, -0.2, -0.25))),
        ],
        boundary=corridor_boundary(-1.2, 1.2),
        gains=Gains(),
        sim=SimParams(),
        seed=seed,
    )


def test_speed_bound_holds():
    record = run_trial(demo_scene())
    cap = SimParams().max_speed
    for s in record.states:
        assert math.sqrt(sum(v * v for v in s.velocity)) <= cap + 1e-12


def test_verdict_soundness():
    record = run_trial(demo_scene())
    if record.verdict.kind is VerdictKind.REACHED_GOAL:
        final = np.array(record.states[-1].position)
        assert np.linalg.norm(final - [0, -1, 0]) <= 0.02
    if record.verdict.kind is VerdictKind.COLLISION:
        assert record.states[-1].min_dist <= 0.0


def test_collision_on_plane_crossing():
    # Ballistic robot driven through a wall by a huge attraction: the swept
    # check must flag the crossing even though sampled distances stay > 0.
    wall = RectPlane((0.5, 0.0, 0.5), (-0.5, 0.0, 0.5), (-0.5, 0.0, -0.5), (0.5, 0.0, -0.5))
    scene = Scene(
        start=(0, 0.4, 0),
        goal=(0, -1, 0),
        obstacles=[Obstacle(wall, gain=1e-6)],  # negligible repulsion
        boundary=[],
        gains=Gains(k_attr=5.0),
        sim=SimParams(max_speed=5.0, damping=0.0, dt=0.01, max_steps=500),
        seed=0,
    )
    record = run_trial(scene)
    assert record.verdict.kind is VerdictKind.COLLISION
    assert record.verdict.obstacle_id == "obstacle[0]"
    assert record.states[-1].min_dist == 0.0
    # The recorded crossing point sits on the wall plane.
    assert abs(record.states[-1].position[1]) < 1e-9


def test_stall_exit_times_out_early():
    # Symmetric wall without correction: the robot stalls in front of it.
    wall = RectPlane((1, 0, 1), (-1, 0, 1), (-1, 0, -1), (1, 0, -1))
    scene = Scene(
        start=(0, 1, 0), goal=(0, -1, 0),
        obstacles=[Obstacle(wall)],
        boundary=[],
        gains=Gains(),
        sim=SimParams(max_steps=20000),
        seed=0,
    )
    record = run_trial(scene, GeoPFPlanner(correction=False), stall_speed=1e-4)
    assert record.verdict.kind is VerdictKind.TIMEOUT
    assert record.states[-1].step < 20000


# A segment whose far end the side-vertex branch once divided by zero at.
SEG_A = (0.27, -0.46, -0.92)
SEG_B = (-0.97, 0.63, 0.83)
DEGENERATE_STARTS = {
    "segment_interior": (Segment(SEG_A, SEG_B), tuple((a + b) / 2 for a, b in zip(SEG_A, SEG_B))),
    "segment_end": (Segment(SEG_A, SEG_B), SEG_B),
    "point_sphere_center": (Sphere((0.1, 0.2, 0.3), 0.0), (0.1, 0.2, 0.3)),
}


@pytest.mark.parametrize("kind", ["geopf", "pf"])
@pytest.mark.parametrize("case", sorted(DEGENERATE_STARTS))
def test_degenerate_start_raises_degenerate_vector(case, kind):
    # A start with no repulsion direction is reported as such, never as a
    # division by zero or a NaN distance.
    prim, start = DEGENERATE_STARTS[case]
    scene = Scene(
        start=start,
        goal=(1.5, 1.5, 1.5),
        obstacles=[Obstacle(Sphere((3, 3, 3), 0.1)), Obstacle(prim)],
        boundary=[],
        gains=Gains(),
        sim=SimParams(max_steps=50),
        seed=0,
    )
    with pytest.raises(DegenerateVector):
        run_trial(scene, build_planner(kind))


def test_keep_states_false_keeps_aggregates():
    scene = demo_scene()
    full = run_trial(scene)
    lean = run_trial(scene, keep_states=False)
    assert len(lean.states) == 1
    assert lean.verdict == full.verdict
    assert lean.path_length == full.path_length
    assert lean.min_dist == full.min_dist
    assert lean.dist_sum == full.dist_sum
    assert lean.dist_count == full.dist_count


# -- trajectory export --------------------------------------------------------


def test_trajectory_export_format(tmp_path):
    scene = empty_scene()
    record = run_trial(scene)
    lines = list(trajectory_lines(record))
    assert lines[0] == "step,px,py,pz,vx,vy,vz,fx,fy,fz,min_dist"
    first = lines[1].split(",")
    assert first[0] == "0"
    assert len(first) == 11
    # 9 significant digits
    assert first[2] == "1"
    path = tmp_path / "traj.csv"
    write_trajectory(record, path)
    on_disk = path.read_text().splitlines()
    assert on_disk == lines


def test_trajectory_values_have_9_signif_digits():
    scene = empty_scene()
    record = run_trial(scene)
    row = list(trajectory_lines(record))[10].split(",")
    # A freshly accelerating robot has a long fractional part: the formatter
    # must keep exactly 9 significant digits.
    assert row[2] == f"{record.states[9].position[1]:.9g}"
