"""Integrator and trial-loop behavior."""

import dataclasses
import math

import numpy as np
import pytest
from conftest import random_primitive, rect_edges

from geopf import (
    Cube,
    Cylinder,
    DegenerateVector,
    Gains,
    GeoPFPlanner,
    Obstacle,
    PlannerSpec,
    RectPlane,
    Scene,
    SceneClass,
    SimParams,
    Segment,
    Sphere,
    TrajState,
    Verdict,
    VerdictKind,
    corridor_boundary,
    distance,
    generate,
    integrate_step,
    maze_scene,
    run_trial,
    trajectory_lines,
    translated,
    write_trajectory,
)
from geopf import forces, primitives, scenes, sim
from geopf.primitives import DEGENERACY_EPS, SKIN
from geopf.queries import _kernel_for, _plane_offset
from geopf.scenes import document_to_scene, scene_to_document
from geopf.sim import _crossing


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


# Starts already in contact, found by distance: (start, spheres, verdict id,
# final min_dist).  Wall x = +0.5 is corridor_boundary's boundary[1].
CONTACT_STARTS = {
    # Inside both; obstacle[1] is the deeper.
    "two_spheres": ((0, 0, 0), [Sphere((0.1, 0, 0), 0.2), Sphere((0, 0.01, 0), 0.3)],
                    "obstacle[1]", -0.29),
    "wall": ((0.5, 0, 0), [Sphere((0, 0.5, 0), 0.1)], "boundary[1]", math.sqrt(0.5) - 0.1),
    # On the wall and inside the sphere: the obstacle comes first.
    "sphere_and_wall": ((0.5, 0, 0), [Sphere((0.5, 0.05, 0), 0.1)], "obstacle[0]", -0.05),
}


def contact_scene(case):
    start, spheres, _, _ = CONTACT_STARTS[case]
    return Scene(
        start=start,
        goal=(0, -1, 0),
        obstacles=[Obstacle(s) for s in spheres],
        boundary=corridor_boundary(-1.2, 1.2),
        seed=0,
    )


@pytest.mark.parametrize("kind", ["geopf", "pf", "cf"])
@pytest.mark.parametrize("case", sorted(CONTACT_STARTS))
def test_contact_by_distance_names_the_nearest_body(case, kind):
    start, _, obstacle_id, min_dist = CONTACT_STARTS[case]
    scene = contact_scene(case)
    record = run_trial(scene, PlannerSpec(kind).build())
    assert record.verdict == Verdict(VerdictKind.COLLISION, obstacle_id, 0)
    final = record.states[-1]
    assert final.min_dist == pytest.approx(min_dist, abs=1e-12)
    # The contact state records the force the planner returned.
    planner = PlannerSpec(kind).build()
    ctx = planner.prepare(scene)
    planner.update(ctx, scene.primitives_at_step(0))
    assert final.force == planner.force(ctx, *map(float, start), 0.0, 0.0, 0.0, None)


class _FallingPlanner:
    """A constant force, by default a unit pull along -y, that feels no
    obstacle; its context has no distance slots."""

    def __init__(self, force=(0.0, -1.0, 0.0)):
        self.fx, self.fy, self.fz = force

    def prepare(self, scene):
        return None

    def update(self, ctx, placed):
        pass

    def force(self, ctx, rx, ry, rz, vx, vy, vz, rng):
        return self.fx, self.fy, self.fz


@pytest.mark.parametrize("role", ["obstacle", "boundary"])
def test_crossing_at_the_end_of_the_moves_reach_is_found(role):
    """A rectangle 1e-11 m short of where a move ends, so nearly a whole move
    away from its start, still ends the trial at the crossing."""

    def scene(walls):
        return Scene(
            start=(0, 0.4, 0),
            goal=(0, -1, 0),
            obstacles=[Obstacle(w) for w in walls] if role == "obstacle" else [],
            boundary=walls if role == "boundary" else [],
            gains=Gains(),
            sim=SimParams(max_speed=5.0, damping=0.0, dt=0.01, max_steps=60),
            seed=0,
        )

    free = run_trial(scene([]), _FallingPlanner())
    k = 40
    y = free.states[k + 1].position[1] + 1e-11
    wall = RectPlane((0.5, y, 0.5), (-0.5, y, 0.5), (-0.5, y, -0.5), (0.5, y, -0.5))
    move = free.states[k].position[1] - free.states[k + 1].position[1]
    assert free.states[k].position[1] - y > move - 2e-11
    record = run_trial(scene([wall]), _FallingPlanner())
    assert record.verdict == Verdict(VerdictKind.COLLISION, f"{role}[0]", k + 1)
    assert record.states[-1].position[1] == pytest.approx(y, abs=1e-15)


@pytest.mark.parametrize("role", ["obstacle", "boundary"])
def test_crossing_of_a_skewed_rectangle_is_found(role):
    """A rectangle whose corners are off a right angle by nearly
    ``ORTHO_TOL`` (``RectPlane`` accepts it).  The move from (-1e-4, 0.5,
    1e-9) to (1e-12, 0.5, -1e-18) crosses its plane at x = 9e-13, which the
    frame test of ``_crossing`` puts inside.  The kernel measures the
    rectangle the same orthonormal frame spans, so it puts the start 1e-12 m
    within the move's length, and the trial ends at the crossing."""
    rect = RectPlane((0, 0, 0), (1, 0, 0), (1 + 9e-10, 1, 0), (9e-10, 1, 0))
    p, q = (-1e-4, 0.5, 1e-9), (1e-12, 0.5, -1e-18)
    move = math.dist(p, q)
    assert _kernel_for(rect)(*p, rect)[0] == pytest.approx(move - 1e-12, abs=1e-14)
    assert _crossing(*p, *q, rect) is not None
    scene = Scene(
        start=p,
        goal=(0, -1, 0),
        obstacles=[Obstacle(rect)] if role == "obstacle" else [],
        boundary=[rect] if role == "boundary" else [],
        # With dt = 1, no damping and no velocity, the first move is half the
        # force: exactly q - p before it is added to p.
        sim=SimParams(dt=1.0, damping=0.0, max_speed=1.0, max_steps=3),
        seed=0,
    )
    force = tuple(2.0 * (b - a) for a, b in zip(p, q))
    record = run_trial(scene, _FallingPlanner(force))
    assert record.verdict == Verdict(VerdictKind.COLLISION, f"{role}[0]", 1)
    assert record.states[0].position == p
    assert record.states[-1].position[0] == pytest.approx(9e-13, abs=1e-15)


@pytest.mark.parametrize("at", ["start", "crossing"])
@pytest.mark.parametrize("k", range(4))
def test_a_collision_is_named_by_its_bodys_row(k, at):
    """Bodies 0 and 1 are obstacle rectangles and 2 and 3 walls; only body k
    lies across the fall, through its start (contact by distance) or below
    it (a crossing)."""
    y = 0.4 if at == "start" else 0.0

    def rect(x):
        corners = [(x + 0.5, 0.5), (x - 0.5, 0.5), (x - 0.5, -0.5), (x + 0.5, -0.5)]
        return RectPlane(*((cx, y, cz) for cx, cz in corners))

    rects = [rect(0.0 if j == k else 2.0) for j in range(4)]
    scene = Scene(
        start=(0, 0.4, 0),
        goal=(0, -1, 0),
        obstacles=[Obstacle(r) for r in rects[:2]],
        boundary=rects[2:],
        sim=SimParams(max_speed=5.0, damping=0.0, dt=0.01, max_steps=200),
        seed=0,
    )
    verdict = run_trial(scene, _FallingPlanner()).verdict
    assert verdict.kind is VerdictKind.COLLISION
    assert verdict.obstacle_id == scene.bodies[k][1]
    assert verdict.obstacle_id == ("obstacle[0]", "obstacle[1]", "boundary[0]", "boundary[1]")[k]


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


@pytest.mark.parametrize("stall_speed", [math.nan, -1.0, 0.0])
def test_a_stall_speed_that_is_not_positive_is_rejected(stall_speed):
    # Each of these once turned the stall exit off without a word.
    with pytest.raises(ValueError, match=r"^stall_speed must be finite and > 0"):
        run_trial(generate(SceneClass.LINE_EASY, 0), stall_speed=stall_speed)


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
        run_trial(scene, PlannerSpec(kind).build())


def _fall_through_a_wall():
    """A boundary wall across the fall of ``_FallingPlanner``, at y = 0."""
    wall = RectPlane((0.5, 0.0, 0.5), (-0.5, 0.0, 0.5), (-0.5, 0.0, -0.5), (0.5, 0.0, -0.5))
    return Scene(
        start=(0, 0.4, 0),
        goal=(0, -1, 0),
        obstacles=[],
        boundary=[wall],
        sim=SimParams(max_speed=5.0, damping=0.0, dt=0.01, max_steps=200),
        seed=0,
    )


def _falling_onto_a_sphere():
    """A sphere across the fall of ``_FallingPlanner``, entered by distance."""
    scene = _fall_through_a_wall()
    return dataclasses.replace(scene, obstacles=[Obstacle(Sphere((0, 0, 0), 0.1))], boundary=[])


def _fall_through_an_obstacle():
    """The wall of ``_fall_through_a_wall`` as an obstacle rectangle."""
    scene = _fall_through_a_wall()
    return dataclasses.replace(scene, obstacles=[Obstacle(scene.boundary[0])], boundary=[])


def _sliding_onto_a_wall():
    """A wall in the plane x = 0.5 that the fall of ``_FallingPlanner`` from
    (0.5, 1, 0) slides into along its plane, at a distance of exactly zero."""
    wall = RectPlane((0.5, 0.5, 0.5), (0.5, -0.5, 0.5), (0.5, -0.5, -0.5), (0.5, 0.5, -0.5))
    return dataclasses.replace(_fall_through_a_wall(), start=(0.5, 1.0, 0.0), boundary=[wall])


def _stalling_scene():
    """A symmetric wall that GeoPF without correction stalls in front of."""
    wall = RectPlane((1, 0, 1), (-1, 0, 1), (-1, 0, -1), (1, 0, -1))
    return Scene(start=(0, 1, 0), goal=(0, -1, 0), obstacles=[Obstacle(wall)], boundary=[])


# One trial per way to end: (scene, planner, params, stall speed, verdict kind
# and body).
KEEP_STATES_TRIALS = {
    "goal": (demo_scene, GeoPFPlanner, None, None, (VerdictKind.REACHED_GOAL, None)),
    "obstacle_touch": (
        _falling_onto_a_sphere, _FallingPlanner, None, None, (VerdictKind.COLLISION, "obstacle[0]")
    ),
    "wall_touch": (
        _sliding_onto_a_wall, _FallingPlanner, None, None, (VerdictKind.COLLISION, "boundary[0]")
    ),
    "obstacle_crossing": (
        _fall_through_an_obstacle, _FallingPlanner, None, None,
        (VerdictKind.COLLISION, "obstacle[0]"),
    ),
    "wall_crossing": (
        _fall_through_a_wall, _FallingPlanner, None, None, (VerdictKind.COLLISION, "boundary[0]")
    ),
    "step_cap": (
        demo_scene, GeoPFPlanner, SimParams(max_steps=300), None, (VerdictKind.TIMEOUT, None)
    ),
    "stall": (
        _stalling_scene, lambda: GeoPFPlanner(correction=False), None, 1e-4,
        (VerdictKind.TIMEOUT, None),
    ),
}


@pytest.mark.parametrize("ending", sorted(KEEP_STATES_TRIALS))
def test_keep_states_false_ends_on_the_last_state_and_keeps_the_aggregates(ending, monkeypatch):
    """Without ``keep_states`` a trial builds one state, once, and it is the
    last state of the same trial with ``keep_states``; the verdict and the
    aggregates are the same, whichever way the trial ends."""
    make_scene, make_planner, params, stall_speed, (kind, body) = KEEP_STATES_TRIALS[ending]
    scene = make_scene()
    full = run_trial(scene, make_planner(), params, stall_speed=stall_speed)
    built = []
    monkeypatch.setattr(sim, "TrajState", lambda *a: built.append(a) or TrajState(*a))
    lean = run_trial(scene, make_planner(), params, keep_states=False, stall_speed=stall_speed)
    assert (full.verdict.kind, full.verdict.obstacle_id) == (kind, body)
    assert len(full.states) > 1
    # A trial that ends at the goal or at a crossing records a zero force.
    assert (full.states[-1].force == (0.0, 0.0, 0.0)) == (
        ending in ("goal", "obstacle_crossing", "wall_crossing")
    )
    assert len(built) == 1
    assert lean.states == [full.states[-1]]
    assert lean.verdict == full.verdict
    assert len(lean.step_times) == len(full.step_times)
    for name in ("path_length", "min_dist", "dist_sum", "dist_count"):
        assert getattr(lean, name) == getattr(full, name), name
    if ending == "stall":
        assert full.verdict.step < scene.sim.max_steps


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


def test_crossing_is_translation_invariant():
    """A crossing found on shifted endpoints, shifted back, is the crossing
    of the translated rectangle."""
    rng = np.random.default_rng(11)
    hits = 0
    for _ in range(50):
        base = random_primitive(rng, "plane")
        n = np.array(base._n)
        for _ in range(20):
            o = rng.uniform(-0.5, 0.5, size=3)
            moved = translated(base, o)
            c = np.array(moved.bounding_sphere[:3])
            p = c + rng.uniform(0.01, 0.1) * n + rng.uniform(-0.15, 0.15, size=3)
            q = c - rng.uniform(0.01, 0.1) * n + rng.uniform(-0.15, 0.15, size=3)
            direct = _crossing(*p, *q, moved)
            shifted = _crossing(*(p - o), *(q - o), base)
            assert (direct is None) == (shifted is None)
            if direct is not None:
                hits += 1
                assert np.allclose(np.array(shifted) + o, direct, rtol=0.0, atol=1e-12)
    assert hits >= 100


def _move_length(px, py, pz, qx, qy, qz):
    """The move length as ``run_trial`` computes it."""
    return math.sqrt((qx - px) ** 2 + (qy - py) ** 2 + (qz - pz) ** 2)


def test_crossing_hits_lie_within_the_moves_reach():
    """Every rectangle that ``_crossing`` finds pierced lies, by its kernel
    distance from the move's start, within the move's length plus
    ``DEGENERACY_EPS``: ``run_trial``'s crossing skip drops no crossing.

    Moves of 1e-6 to 1e-3 m, on drifting rectangles, pierce the interior,
    graze an edge or a corner, or start within 1e-9 m of the limit (straight
    through the plane, ending just past it)."""
    rng = np.random.default_rng(12)
    hits = dict.fromkeys(("interior", "edge", "corner", "limit"), 0)
    at_limit = 0
    for _ in range(300):
        base = random_primitive(rng, "plane")
        kernel = _kernel_for(base)
        v1, n = np.array(base.v1), np.array(base._n)
        e1, e2 = rect_edges(base)[:2]
        u1, u2 = np.array(e1._u), np.array(e2._u)
        o = rng.uniform(-0.5, 0.5, size=3)
        for case in hits:
            m = 10.0 ** rng.uniform(-6, -3)
            s, t = rng.uniform(0, e1.length), rng.uniform(0, e2.length)
            if case == "edge":
                if rng.random() < 0.5:
                    s = rng.choice((0.0, e1.length))
                else:
                    t = rng.choice((0.0, e2.length))
            elif case == "corner":
                s, t = rng.choice((0.0, e1.length)), rng.choice((0.0, e2.length))
            target = v1 + s * u1 + t * u2 + o
            side = rng.choice((-1.0, 1.0))
            if case == "limit":
                p = target + side * (m - rng.uniform(0.0, 1e-9)) * n
                q = p - side * m * n
            else:
                # From nearly parallel to the plane to straight through it.
                lateral = rng.normal(size=3)
                lateral -= (lateral @ n) * n
                lateral /= np.linalg.norm(lateral)
                tilt = 10.0 ** rng.uniform(-3, 0)
                step = -side * tilt * n + math.sqrt(1.0 - tilt * tilt) * lateral
                p = target - rng.uniform(0.0, 1.0) * m * step
                q = p + m * step
            (px, py, pz), (qx, qy, qz), (ox, oy, oz) = p.tolist(), q.tolist(), o.tolist()
            hit = _crossing(px - ox, py - oy, pz - oz, qx - ox, qy - oy, qz - oz, base)
            if hit is None:
                continue
            hits[case] += 1
            move = _move_length(px, py, pz, qx, qy, qz)
            d = kernel(px - ox, py - oy, pz - oz, base)[0]
            assert d <= move + DEGENERACY_EPS, (case, d - move)
            at_limit += d > move - 1e-9
    assert min(hits.values()) >= 100, hits
    assert at_limit >= 100


def test_step_loop_tests_crossings_only_within_reach(monkeypatch):
    """``_crossing`` runs only for the rectangles and walls that the step's
    distances put within the move's reach: its length plus
    ``DEGENERACY_EPS``.  The maze's trial runs it 117 times before it ends
    on its contact at step 2442."""
    scene = maze_scene()
    crossing = sim._crossing
    reached = []

    def checked(px, py, pz, qx, qy, qz, plane):
        d = _kernel_for(plane)(px, py, pz, plane)[0]
        reached.append(d <= _move_length(px, py, pz, qx, qy, qz) + DEGENERACY_EPS)
        return crossing(px, py, pz, qx, qy, qz, plane)

    monkeypatch.setattr(sim, "_crossing", checked)
    record = run_trial(scene, keep_states=False)
    assert record.verdict == Verdict(VerdictKind.COLLISION, "obstacle[5]", 2442)
    assert len(reached) == 117 and all(reached)


def test_walls_are_measured_only_within_the_moves_reach(monkeypatch):
    """A wall whose plane lies beyond the move's reach can be neither touched
    nor crossed, so the step loop runs no kernel for it.  On dynamic_hard
    seed 0 every wall plane stays far beyond the reach for 50 steps."""
    scene = generate(SceneClass.DYNAMIC_HARD, 0)
    walls = {id(wall) for wall in scene.boundary}
    wall_calls = [0]
    kernel_for = sim._kernel_for

    def counting_kernel_for(prim):
        kern = kernel_for(prim)
        if id(prim) not in walls:
            return kern

        def counted(*args):
            wall_calls[0] += 1
            return kern(*args)

        return counted

    monkeypatch.setattr(sim, "_kernel_for", counting_kernel_for)
    record = run_trial(scene, params=dataclasses.replace(scene.sim, max_steps=50))
    assert record.verdict == Verdict(VerdictKind.TIMEOUT, step=50)
    assert len(scene.boundary) == 6
    states = record.states
    longest_move = max(math.dist(a.position, b.position) for a, b in zip(states, states[1:]))
    nearest_plane = min(
        abs(_plane_offset(*s.position, wall)) for s in states for wall in scene.boundary
    )
    assert nearest_plane > 100 * longest_move
    assert wall_calls[0] == 0


@pytest.mark.parametrize(
    "pull",
    [
        pytest.param((1.0, 0.2, 0.1), id="side"),
        pytest.param((0.6, 0.1, 0.8), id="corner"),
        pytest.param((0.1, -1.0, 0.3), id="end"),
    ],
)
def test_the_wall_candidate_list_misses_no_wall(pull):
    """A long trial pulled into the corridor walls, far past many rebuilds
    of the step loop's wall list, ends where the walls' own distances say:
    no recorded state lies on a wall and no move between them crosses one,
    until the last move, which crosses the first wall whose crossing point
    the last state records."""
    scene = Scene(
        start=(0, 0, 0),
        goal=(-0.4, 0.9, -0.4),
        obstacles=[],
        boundary=corridor_boundary(-1.2, 1.2),
        seed=0,
    )
    record = run_trial(scene, _FallingPlanner(pull))
    states, walls = record.states, scene.boundary
    assert record.path_length > 8 * SKIN
    *kept, last = states
    assert all(distance(s.position, wall) > 0.0 for s in kept for wall in walls)
    for a, b in zip(kept, kept[1:]):
        assert all(_crossing(*a.position, *b.position, wall) is None for wall in walls)
    before, verdict = kept[-1], record.verdict
    assert verdict.kind is VerdictKind.COLLISION and verdict.step == last.step == before.step + 1
    # The crossing is found from the last kept state's own move.
    (nx, ny, nz), _ = integrate_step(before.position, before.velocity, before.force, scene.sim)
    hits = [_crossing(*before.position, nx, ny, nz, wall) for wall in walls]
    j = next(i for i, hit in enumerate(hits) if hit is not None)
    assert verdict.obstacle_id == f"boundary[{j}]"
    assert last.position == hits[j]
    assert distance(last.position, walls[j]) < 1e-12


@pytest.mark.parametrize(
    "scene_class, seed, max_steps",
    [
        pytest.param("complex", 2, 1500, id="static-complex-2"),
        pytest.param("dynamic_hard", 2, 1500, id="drift-dynamic_hard-2"),
    ],
)
def test_recorded_distances_reuse_the_force_distances(scene_class, seed, max_steps, monkeypatch):
    """The distances a trial records equal fresh kernel calls bit for bit,
    for every obstacle on every step, and the simulator's kernel calls fall
    by exactly the number of distances ``force`` wrote."""
    scene = generate(SceneClass(scene_class), seed)
    assert any(obs.drift is not None for obs in scene.obstacles) == (scene_class == "dynamic_hard")
    params = dataclasses.replace(scene.sim, max_steps=max_steps)
    kernel_calls = [0]
    checked = [0]
    kernel_for, distances = sim._kernel_for, sim._distances

    def counting_kernel_for(prim):
        kern = kernel_for(prim)

        def counted(*args):
            kernel_calls[0] += 1
            return kern(*args)

        return counted

    def checked_distances(kernels, x, y, z, placed, known=None):
        dists = distances(kernels, x, y, z, placed, known)
        fresh = [
            _kernel_for(prim)(x - ox, y - oy, z - oz, prim)[0]
            for prim, (ox, oy, oz) in zip(placed.base, placed.offsets)
        ]
        assert list(map(float.hex, dists)) == list(map(float.hex, fresh))
        checked[0] += len(dists)
        return dists

    monkeypatch.setattr(sim, "_kernel_for", counting_kernel_for)
    monkeypatch.setattr(sim, "_distances", checked_distances)

    def run(reuse):
        """The trial, its sim-side kernel calls and the distances force
        wrote; without ``reuse`` the written distances are dropped."""
        planner = GeoPFPlanner()
        force = planner.force
        written = [0]

        def force_then_count(ctx, *args):
            try:
                return force(ctx, *args)
            finally:
                written[0] += sum(d is not None for d in ctx.dists)
                if not reuse:
                    ctx.dists = [None] * len(ctx.dists)

        planner.force = force_then_count
        kernel_calls[0] = checked[0] = 0
        record = run_trial(scene, planner, params, keep_states=False)
        assert checked[0] == record.dist_count
        return record, kernel_calls[0], written[0]

    reused, reused_calls, written = run(True)
    fresh, fresh_calls, _ = run(False)
    assert written > 0
    assert fresh_calls - reused_calls == written
    assert reused.verdict == fresh.verdict
    assert reused.states == fresh.states
    assert [float.hex(getattr(reused, f)) for f in ("path_length", "min_dist", "dist_sum")] == [
        float.hex(getattr(fresh, f)) for f in ("path_length", "min_dist", "dist_sum")
    ]


@pytest.mark.parametrize(
    "kind, scene_class, seed, max_steps",
    [
        *(pytest.param(kind, "dynamic_hard", 0, 50, id=kind) for kind in ("geopf", "pf", "cf")),
        # The robot passes within the activation radius of cylinder caps.
        pytest.param("geopf", "complex", 2, 3000, id="geopf-complex-2"),
    ],
)
def test_step_loop_builds_no_primitives(kind, scene_class, seed, max_steps, monkeypatch):
    """After prepare, no primitive is built or translated in the step loop:
    drifting obstacles are queried at an offset, and the cap trap correction
    works on the cylinder's own records.  The scene is rebuilt from its
    document, so no query ran on its primitives before the scene's own
    set-up."""
    scene = document_to_scene(scene_to_document(generate(SceneClass(scene_class), seed)))
    assert any(obs.drift is not None for obs in scene.obstacles) == (scene_class == "dynamic_hard")
    planner = PlannerSpec(kind).build()
    counting = [False]
    built = []
    cap_corrections = []
    cap_correction = forces._cap_correction
    monkeypatch.setattr(
        forces, "_cap_correction", lambda *a: cap_corrections.append(a) or cap_correction(*a)
    )

    def counted(fn):
        def wrapper(*args, **kwargs):
            if counting[0]:
                built.append(fn.__qualname__)
            return fn(*args, **kwargs)

        return wrapper

    for cls in (Sphere, Segment, RectPlane, Cube, Cylinder):
        monkeypatch.setattr(cls, "__post_init__", counted(cls.__post_init__))
    monkeypatch.setattr(primitives, "translated", counted(primitives.translated))
    monkeypatch.setattr(scenes, "translated", counted(scenes.translated))
    prepare = planner.prepare

    def prepare_then_count(s):
        ctx = prepare(s)
        counting[0] = True
        return ctx

    planner.prepare = prepare_then_count
    params = SimParams(max_steps=max_steps)
    record = run_trial(scene, planner, params, keep_states=False)
    assert record.verdict.step == max_steps  # the whole budget ran
    assert built == []
    assert (len(cap_corrections) > 0) == (scene_class == "complex")
