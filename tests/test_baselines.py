"""Spherization and the PF / CF baseline force laws."""

import gc
import math
import weakref

import numpy as np
import pytest
from conftest import cube_faces, random_primitive, sample_surface

from geopf import (
    Cube,
    Cylinder,
    Gains,
    Obstacle,
    PlannerSpec,
    RectPlane,
    Scene,
    SceneClass,
    Segment,
    Sphere,
    SpherizationParams,
    closest_feature,
    generate,
)
from geopf import planners
from geopf.baselines import CF_VELOCITY_EPS, _dedup, sphere_cloud
from geopf.forces import D_MIN, _attraction
from geopf.planners import _wall_terms
from geopf.primitives import axis_frame, norm3

GAINS = Gains(k_attr=1.0, k_rep=0.1, activation_radius=1.0)


# -- spherization -------------------------------------------------------------


@pytest.mark.parametrize("field", ["radius", "k_rep"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_spherization_params_reject_non_positive_or_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        SpherizationParams(**{field: value})


def test_segment_sphere_count_fine():
    seg = Segment((0, 0, 0), (0.36, 0, 0))
    spheres = sphere_cloud(seg, SpherizationParams(radius=0.01))
    assert len(spheres) == 19  # ceil(L / 2r) + 1


def test_segment_sphere_count_coarse():
    seg = Segment((0, 0, 0), (0.36, 0, 0))
    spheres = sphere_cloud(seg, SpherizationParams(radius=0.05))
    assert len(spheres) == 5


def test_plane_grid_count():
    plane = RectPlane((0, 0, 0), (0.2, 0, 0), (0.2, 0.2, 0), (0, 0.2, 0))
    spheres = sphere_cloud(plane, SpherizationParams(radius=0.01))
    assert len(spheres) == 121  # 11 x 11


def test_plane_count_quadruples_when_radius_halves():
    plane = RectPlane((0, 0, 0), (0.2, 0, 0), (0.2, 0.2, 0), (0, 0.2, 0))
    n1 = len(sphere_cloud(plane, SpherizationParams(radius=0.01)))
    n2 = len(sphere_cloud(plane, SpherizationParams(radius=0.005)))
    assert abs(n2 / n1 - 4.0) <= 0.4  # 4 +- 10%


def test_sphere_passthrough():
    s = Sphere((1, 2, 3), 0.2)
    assert sphere_cloud(s, SpherizationParams()) == [(1.0, 2.0, 3.0, 0.2)]


def test_cube_faces_dedup_shared_edges():
    cube = Cube((0, 0, 0), (0.1, 0, 0), (0.1, 0.1, 0), (0, 0.1, 0),
                (0, 0, 0.1), (0.1, 0, 0.1), (0.1, 0.1, 0.1), (0, 0.1, 0.1))
    spheres = sphere_cloud(cube, SpherizationParams(radius=0.01))
    pts = {tuple(np.round(s[:3], 9)) for s in spheres}
    assert len(pts) == len(spheres)  # no duplicates survive
    # 6 faces of 6x6 minus shared edges/corners: full 6x6x6 grid minus the
    # 4x4x4 interior.
    assert len(spheres) == 6**3 - 4**3


def test_spherization_coverage(rng):
    params = SpherizationParams(radius=0.02)
    for kind in ("segment", "plane", "cube", "cylinder"):
        prim = random_primitive(rng, kind)
        centers = np.array([s[:3] for s in sphere_cloud(prim, params)])
        surface = sample_surface(prim, 0.005)
        idx = rng.choice(len(surface), size=min(2500, len(surface)), replace=False)
        for p in surface[idx]:
            d = np.linalg.norm(centers - p, axis=1).min()
            assert d <= params.radius * math.sqrt(2) + 1e-9, (kind, p, d)


def test_sphere_counts_scale_with_size():
    # Theta(L / r) for segments, Theta(A / r^2) for rectangles.
    seg1 = Segment((0, 0, 0), (0.2, 0, 0))
    seg2 = Segment((0, 0, 0), (0.4, 0, 0))
    p = SpherizationParams(radius=0.005)
    assert len(sphere_cloud(seg2, p)) == pytest.approx(2 * len(sphere_cloud(seg1, p)), rel=0.1)
    r1 = RectPlane((0, 0, 0), (0.2, 0, 0), (0.2, 0.2, 0), (0, 0.2, 0))
    r2 = RectPlane((0, 0, 0), (0.4, 0, 0), (0.4, 0.4, 0), (0, 0.4, 0))
    assert len(sphere_cloud(r2, p)) == pytest.approx(4 * len(sphere_cloud(r1, p)), rel=0.1)


def _numpy_cloud(prim, params):
    """Reference spherization on numpy 3-vectors, one array per point; the
    float-record builder must reproduce its records bit for bit."""
    r = params.radius
    pitch = 2.0 * r

    def count(e):
        return max(int(math.ceil(norm3(*e.tolist()) / pitch)), 1) + 1

    def line(p1, p2):
        p1, p2 = np.asarray(p1), np.asarray(p2)
        n = count(p2 - p1)
        return [p1 + (i / (n - 1)) * (p2 - p1) for i in range(n)]

    def grid(v1, v2, v4):
        origin, e1, e2 = np.asarray(v1), np.subtract(v2, v1), np.subtract(v4, v1)
        n1, n2 = count(e1), count(e2)
        return [
            origin + (i / (n1 - 1)) * e1 + (j / (n2 - 1)) * e2
            for i in range(n1)
            for j in range(n2)
        ]

    def dedup(points):
        seen = {}
        for p in points:  # round() on numpy floats rounds as np.round does
            seen.setdefault((round(p[0], 9), round(p[1], 9), round(p[2], 9)), p)
        return list(seen.values())

    if isinstance(prim, Sphere):
        return [(*prim.center, prim.radius)]
    if isinstance(prim, Segment):
        pts = line(prim.p1, prim.p2)
    elif isinstance(prim, RectPlane):
        pts = grid(prim.v1, prim.v2, prim.v4)
    elif isinstance(prim, Cube):
        pts = dedup([p for f in cube_faces(prim) for p in grid(f.v1, f.v2, f.v4)])
    else:
        b1, b2 = map(np.array, axis_frame(prim._axis))
        R = prim.radius

        def circle(rho):
            m = max(int(math.ceil(math.pi * rho / r)), 3)
            angles = (2.0 * math.pi * i / m for i in range(m))
            return [rho * (math.cos(a) * b1 + math.sin(a) * b2) for a in angles]

        pts = [c + d for c in line(prim.a1, prim.a2) for d in circle(R)]
        radii, rho = [], pitch
        while rho < R:
            radii.append(rho)
            rho += pitch
        for cap in map(np.asarray, (prim.a1, prim.a2)):
            pts.append(cap.copy())
            pts.extend(cap + d for rho in radii + [R] for d in circle(rho))
        pts = dedup(pts)
    return [(*p.tolist(), r) for p in pts]


def _hand_built_primitives():
    rng = np.random.default_rng(17)
    prims = [
        # 0.34 m long: its length reads 0.3400000000000001, one ulp above 17
        # pitches of 0.02, so it gets 19 spheres, not 18.
        Segment((0.73, 0.72, 0.32), (0.89, 0.9, 0.08)),
        Cube((0, 0, 0), (0.1, 0, 0), (0.1, 0.1, 0), (0, 0.1, 0),
             (0, 0, 0.1), (0.1, 0, 0.1), (0.1, 0.1, 0.1), (0, 0.1, 0.1)),
        Cylinder((0, 0, 0), (0, 0, 0.2), 0.05),
        Cylinder((0.1, -0.2, 0.3), (0.1, -0.2, 0.3 + 1e-3), 0.004),
    ]
    for _ in range(20):
        prims.append(random_primitive(rng, "cube"))
        prims.append(random_primitive(rng, "cylinder"))
    return prims


def test_sphere_cloud_matches_reference_and_spherize_bit_for_bit():
    # ``planners.spherize``, the name ``prepare`` builds each obstacle's
    # block with, must give these same records.
    default, fine = SpherizationParams(), SpherizationParams(radius=0.0037)
    cases = [(prim, p) for prim in _hand_built_primitives() for p in (default, fine)]
    for scene_class in SceneClass:
        for seed in range(4):
            scene = generate(scene_class, seed)
            cases.extend((obs.primitive, default) for obs in scene.obstacles)
            blocks = PlannerSpec("pf").build().prepare(scene).cloud
            assert blocks == [sphere_cloud(obs.primitive, default) for obs in scene.obstacles]
    for prim, params in cases:
        records = sphere_cloud(prim, params)
        assert [tuple(map(float.hex, rec)) for rec in records] == [
            tuple(map(float.hex, rec)) for rec in _numpy_cloud(prim, params)
        ], prim
        assert planners.spherize(prim, params) == records
        assert all(type(x) is float for rec in records for x in rec)


def test_box_and_cylinder_dedup_rounds_as_numpy():
    # Python's round puts 2.5e-9 and the next float both at 3e-9; numpy's
    # rounding, which has always decided the duplicates, keeps them apart.
    x, y = 2.5e-9, math.nextafter(2.5e-9, 1.0)
    records = [(x, 0.0, 0.0, 0.01), (y, 0.0, 0.0, 0.01)]
    assert round(x, 9) == round(y, 9)
    assert _dedup(records) == records


@pytest.mark.parametrize("kind", ["pf", "cf"])
def test_obstacle_count_is_the_prepared_cloud_size(kind):
    scene = generate(SceneClass.COMPLEX, 1)
    assert all(obs.drift is None for obs in scene.obstacles)
    planner = PlannerSpec(kind).build()
    cloud = planner.prepare(scene).cloud
    assert planner.obstacle_count(scene) == sum(map(len, cloud))


@pytest.mark.parametrize("kind", ["pf", "cf"])
def test_obstacle_count_of_the_prepared_scene_builds_no_cloud(kind, monkeypatch):
    scene, other = generate(SceneClass.COMPLEX, 1), generate(SceneClass.PLANE_EASY, 0)
    fresh = PlannerSpec(kind).build().obstacle_count(other)
    planner = PlannerSpec(kind).build()
    cloud = planner.prepare(scene).cloud
    calls = []
    inner = planners.spherize
    monkeypatch.setattr(planners, "spherize", lambda *a: calls.append(a) or inner(*a))
    assert planner.obstacle_count(scene) == sum(map(len, cloud))
    assert calls == []
    # Any other scene, an equal copy included, has its clouds built to count.
    assert planner.obstacle_count(other) == fresh
    assert len(calls) == len(other.obstacles)
    # The planner keeps no reference that holds the prepared scene alive.
    prepared = weakref.ref(scene)
    del scene
    gc.collect()
    assert prepared() is None


# -- drift as offsets -----------------------------------------------------------


def _shifted_near(rx, ry, rz, scene, params, placed, act):
    """``(dx, dy, dz, wn, d)`` of every sphere nearer than ``act``: each
    obstacle's base cloud, in scene order, measured from the robot minus
    the obstacle's offset."""
    for obs, (ox, oy, oz) in zip(scene.obstacles, placed.offsets):
        sx, sy, sz = rx - ox, ry - oy, rz - oz
        for cx, cy, cz, r in sphere_cloud(obs.primitive, params):
            dx, dy, dz = sx - cx, sy - cy, sz - cz
            wn = math.sqrt(dx * dx + dy * dy + dz * dz)
            d = wn - r
            if d < act and wn > 1e-12:
                yield dx, dy, dz, wn, d


def _translated_near(rx, ry, rz, scene, params, placed, act):
    """The same spheres with each centre translated by its obstacle's offset
    (``c + o``, the cloud rebuilt for the step), measured from the robot."""
    for obs, (ox, oy, oz) in zip(scene.obstacles, placed.offsets):
        for cx, cy, cz, r in sphere_cloud(obs.primitive, params):
            dx, dy, dz = rx - (cx + ox), ry - (cy + oy), rz - (cz + oz)
            wn = math.sqrt(dx * dx + dy * dy + dz * dz)
            d = wn - r
            if d < act and wn > 1e-12:
                yield dx, dy, dz, wn, d


def _reference_pf(near, k):
    fx = fy = fz = 0.0
    for dx, dy, dz, wn, d in near:
        scale = (k / max(d, D_MIN)) / wn
        fx += dx * scale
        fy += dy * scale
        fz += dz * scale
    return fx, fy, fz


def _reference_cf(near, vx, vy, vz, k):
    fx = fy = fz = 0.0
    moving = vx * vx + vy * vy + vz * vz >= CF_VELOCITY_EPS * CF_VELOCITY_EPS
    for dx, dy, dz, wn, d in near:
        mag = k / max(d, D_MIN)
        bx, by, bz = dy * vz - dz * vy, dz * vx - dx * vz, dx * vy - dy * vx
        bn = math.sqrt(bx * bx + by * by + bz * bz)
        if moving and bn > 1e-12:
            bx, by, bz = bx / bn, by / bn, bz / bn
            tx, ty, tz = vy * bz - vz * by, vz * bx - vx * bz, vx * by - vy * bx
            tn = math.sqrt(tx * tx + ty * ty + tz * tz)
            if tn > 1e-12:
                fx, fy, fz = fx + tx * (mag / tn), fy + ty * (mag / tn), fz + tz * (mag / tn)
                continue
        fx, fy, fz = fx + dx * (mag / wn), fy + dy * (mag / wn), fz + dz * (mag / wn)
    return fx, fy, fz


def _robots_near_drifting_spheres(scene, params, placed):
    """Points a few centimetres from translated spheres of each drifting
    obstacle, inside the activation radius of many spheres."""
    for i, obs in enumerate(scene.obstacles):
        if obs.drift is not None:
            ox, oy, oz = placed.offsets[i]
            cx, cy, cz, r = sphere_cloud(obs.primitive, params)[0]
            yield cx + ox + 0.031, cy + oy - 0.022, cz + oz + 0.017


# Relative bound between a cloud force and the same force with every centre
# translated: ``(r - o) - c`` and ``r - (c + o)`` differ by a rounding or two
# per coordinate, about 1e-16 m, against sphere distances of centimetres.
TRANSLATED_REL_TOL = 1e-12


@pytest.mark.parametrize("velocity", [(0.0, 0.0, 0.0), (0.3, -0.2, 0.1)])
def test_cloud_forces_under_drift_query_each_block_at_the_robot_minus_its_offset(velocity):
    # Bit for bit: the base cloud in scene order at the robot minus each
    # obstacle's offset.  Within TRANSLATED_REL_TOL: the cloud translated by
    # the offsets, which moves the same spheres to the same places.
    scene = generate(SceneClass.DYNAMIC_HARD, 2)
    assert any(obs.drift is not None for obs in scene.obstacles)
    pf, cf = PlannerSpec("pf").build(), PlannerSpec("cf").build()
    params = pf.params
    k = params.k_rep
    vx, vy, vz = velocity
    ctxs = [(pf, pf.prepare(scene)), (cf, cf.prepare(scene))]
    active = 0
    worst = 0.0
    for step in (0, 1, 250, 999, 4321):
        placed = scene.primitives_at_step(step)
        for rx, ry, rz in _robots_near_drifting_spheres(scene, params, placed):
            fx, fy, fz = _attraction(rx, ry, rz, *map(float, scene.goal), scene.gains.k_attr)
            for planner, ctx in ctxs:
                planner.update(ctx, placed)
                wall = _wall_terms(ctx, rx, ry, rz, False)
                near = [
                    list(f(rx, ry, rz, scene, params, placed, ctx.act))
                    for f in (_shifted_near, _translated_near)
                ]
                if planner is pf:
                    terms, moved = (_reference_pf(n, k) for n in near)
                else:
                    terms, moved = (_reference_cf(n, vx, vy, vz, k) for n in near)
                expected = tuple(a + t + w for a, t, w in zip((fx, fy, fz), terms, wall))
                got = planner.force(ctx, rx, ry, rz, vx, vy, vz, None)
                assert list(map(float.hex, got)) == list(map(float.hex, expected))
                active += terms != (0.0, 0.0, 0.0)
                scale = math.hypot(*terms)
                worst = max(worst, math.dist(terms, moved) / scale if scale else 0.0)
    assert active >= 40
    assert worst <= TRANSLATED_REL_TOL, f"largest relative difference {worst:.3g}"


def test_update_keeps_the_cloud_and_takes_the_offsets():
    scene = generate(SceneClass.DYNAMIC_HARD, 2)
    drifting = [i for i, obs in enumerate(scene.obstacles) if obs.drift is not None]
    assert drifting and len(drifting) < len(scene.obstacles)
    planner = PlannerSpec("pf").build()
    ctx = planner.prepare(scene)
    cloud = ctx.cloud
    snapshot = [list(records) for records in cloud]
    # One block per obstacle, in scene order, static and drifting alike.
    assert snapshot == [sphere_cloud(obs.primitive, planner.params) for obs in scene.obstacles]
    placed = scene.primitives_at_step(500)
    planner.update(ctx, placed)
    assert ctx.cloud is cloud
    assert [list(records) for records in ctx.cloud] == snapshot
    assert ctx.offsets is placed.offsets
    assert all(ctx.offsets[i] != (0.0, 0.0, 0.0) for i in drifting)


# -- PF and CF on scenes of spheres ---------------------------------------------


def _cloud_force(kind, goal, spheres, gains=GAINS):
    """The PF or CF planner's force, as a function of the robot and its
    velocity, on a wall-free scene of ``spheres`` that repel with
    ``gains.k_rep``.  A sphere is its own one-record cloud."""
    planner = PlannerSpec(kind, ksp=gains.k_rep).build()
    scene = Scene(
        start=(0, 0, 0),
        goal=goal,
        obstacles=[Obstacle(s) for s in spheres],
        boundary=[],
        gains=gains,
    )
    ctx = planner.prepare(scene)

    def force(robot, velocity=(0, 0, 0)):
        r = np.asarray(robot, dtype=float).tolist()
        v = np.asarray(velocity, dtype=float).tolist()
        return np.array(planner.force(ctx, *r, *v, None))

    return force


@pytest.mark.parametrize("kind", ["pf", "cf"])
def test_a_sphere_around_the_robot_pushes_radially_at_the_clamp(kind):
    # Inside a sphere (d < 0) the repulsion runs from the centre to the
    # robot at k / D_MIN; a sphere whose centre is within 1e-12 m of the
    # robot gives no direction and is skipped.
    goal = (0, -1, 0)
    around = Sphere((0.005, 0, 0), 0.01)  # d = -0.005, radial direction -x
    f = _cloud_force(kind, goal, [around])((0, 0, 0))
    push = f - np.array((0.0, -1.0, 0.0))
    assert np.linalg.norm(push) == pytest.approx(GAINS.k_rep / D_MIN, rel=1e-12)
    assert push[0] < 0.0 and push[1] == 0.0 and push[2] == 0.0
    for centred in (Sphere((0, 0, 0), 0.02), Sphere((1e-13, 0, 0), 0.02)):
        assert (_cloud_force(kind, goal, [centred])((0, 0, 0)) == (0.0, -1.0, 0.0)).all()
        assert (_cloud_force(kind, goal, [centred, around])((0, 0, 0)) == f).all()


def test_pf_single_sphere_matches_geometric_repulsion():
    s = Sphere((0, 0, 0), 0.1)
    robot = (0, 0.3, 0)
    goal = (0, -1, 0)
    f = _cloud_force("pf", goal, [s])(robot)
    cf = closest_feature(robot, s)
    expected = np.array([0.0, -1.0, 0.0]) + (GAINS.k_rep / cf.distance) * cf.direction
    assert np.allclose(f, expected)


def test_pf_symmetric_pair_cancels_laterally():
    spheres = [Sphere((0.2, 0, 0), 0.05), Sphere((-0.2, 0, 0), 0.05)]
    f = _cloud_force("pf", (0, -1, 0), spheres)((0, 0.5, 0))
    assert abs(f[0]) < 1e-12
    assert abs(f[2]) < 1e-12


def test_pf_trap_equilibrium_on_axis():
    # Dense sphere wall between start and goal: solve the 1-D balance
    # k_attr = sum k/d_i on the approach axis, then verify the resultant
    # vanishes there.  The activation radius covers the whole wall in the
    # bisection range, so no gating jumps interrupt the balance curve.
    gains = Gains(k_attr=1.0, k_rep=8e-4, activation_radius=2.0)
    spheres = [
        Sphere((x, 0.0, z), 0.01)
        for x in np.arange(-0.3, 0.3001, 0.02)
        for z in np.arange(-0.3, 0.3001, 0.02)
    ]
    pf = _cloud_force("pf", (0, -1, 0), spheres, gains)

    def axial(y):
        return float(pf((0, y, 0))[1])

    lo, hi = 0.05, 0.9
    assert axial(lo) > 0 and axial(hi) < 0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if axial(mid) > 0:
            lo = mid
        else:
            hi = mid
    y_star = 0.5 * (lo + hi)
    f = pf((0, y_star, 0))
    assert np.linalg.norm(f) < 1e-6  # axial balance; lateral zero by symmetry


# -- CF -----------------------------------------------------------------------


def test_cf_deflects_sideways():
    # Moving +x past a sphere offset +y: the circulatory term pushes -y and
    # stays orthogonal to the velocity.
    s = Sphere((0, 0.5, 0), 0.1)
    robot = (0, 0, 0)
    v = (1.0, 0, 0)
    goal = (100, 0, 0)  # attraction along +x only
    f = _cloud_force("cf", goal, [s])(robot, v)
    tangential = f - np.array([1.0, 0, 0])
    assert tangential[1] < 0
    assert abs(float(tangential @ np.array(v))) < 1e-9


def test_cf_zero_velocity_reduces_to_pf():
    spheres = [Sphere((0.1, 0.2, 0.0), 0.05), Sphere((-0.2, 0.3, 0.1), 0.08)]
    robot = (0, 0, 0)
    goal = (0, -1, 0)
    f_cf = _cloud_force("cf", goal, spheres)(robot, (0, 0, 0))
    f_pf = _cloud_force("pf", goal, spheres)(robot)
    assert (f_cf == f_pf).all()


def test_cf_tangential_does_no_work(rng):
    for _ in range(50):
        spheres = [Sphere(rng.uniform(-0.4, 0.4, size=3), rng.uniform(0.02, 0.1))]
        robot = rng.uniform(-0.5, 0.5, size=3)
        v = rng.uniform(-0.5, 0.5, size=3)
        goal = rng.uniform(-1, 1, size=3)
        d = np.linalg.norm(robot - spheres[0].center) - spheres[0].radius
        if d <= 1e-3 or np.linalg.norm(v) < 1e-5:
            continue
        f = _cloud_force("cf", goal, spheres)(robot, v)
        f_pf_attr = _cloud_force("cf", goal, [])(robot, v)  # attraction only
        tang = f - f_pf_attr
        if np.linalg.norm(tang) == 0.0:
            continue  # sphere beyond activation
        assert abs(float(tang @ v)) < 1e-9 * max(1.0, np.linalg.norm(tang) * np.linalg.norm(v))


def test_cf_degenerate_cross_falls_back_to_radial():
    # Velocity parallel to the robot-center line: radial repulsion.
    s = Sphere((0, 0.5, 0), 0.1)
    f = _cloud_force("cf", (0, -2, 0), [s])((0, 0, 0), (0, -1.0, 0))
    # attraction (0,-1,0) + radial k/d * (0,-1,0)
    assert abs(f[0]) < 1e-12 and abs(f[2]) < 1e-12
    assert f[1] < -1.0
