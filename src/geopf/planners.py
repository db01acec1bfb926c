"""Planner adapters used by the simulator and the benchmark harness.

Each planner prepares a per-scene context, receives the current obstacle
primitives before every step, and produces the resultant force as plain
floats (this call is the timed region of a simulation step).  Every
resultant is summed left to right as attraction, then the obstacle terms,
then the boundary walls.  The geometric planner works directly on the
primitives and its ``force`` is the one loop that sums a GeoPF resultant;
:func:`resultant_force` runs it and keeps the terms.  The baseline planners
work on the spherized cloud.  All planners feel the same boundary-wall
repulsion.
"""

import numpy as np

from . import forces
from .baselines import SpherizationParams, _cf_terms, _sphere_terms, spherize
from .errors import CollisionSignal
from .forces import ForceBreakdown, _attraction, obstacle_force_term
from .primitives import RectPlane, as_vec3
from .queries import _plane_offset


class _Ctx:
    """Mutable per-trial planner state."""

    __slots__ = (
        "goal",
        "k_attr",
        "k_rep",
        "act",
        "walls",
        "prims",
        "gains_per_obstacle",
        "cull_thresholds",
        "is_plane",
        "base_prims",
        "static_flat",
        "dynamic_blocks",
        "flat",
    )


def _scene_ctx(scene):
    """Context fields every planner shares: goal, gains, walls, primitives."""
    ctx = _Ctx()
    ctx.goal = tuple(float(v) for v in scene.goal)
    ctx.k_attr = scene.gains.k_attr
    ctx.k_rep = scene.gains.k_rep
    ctx.act = scene.gains.activation_radius
    ctx.walls = list(scene.boundary)
    for wall in ctx.walls:
        wall._n, wall._vs  # warm caches outside the timed region
    ctx.prims = [obs.primitive for obs in scene.obstacles]
    return ctx


def _wall_terms(ctx, rx, ry, rz, rng, correction):
    """Boundary-wall repulsion; raises CollisionSignal on wall contact."""
    gx, gy, gz = ctx.goal
    wx = wy = wz = 0.0
    act = ctx.act
    for j, wall in enumerate(ctx.walls):
        off = _plane_offset(rx, ry, rz, wall)
        if off >= act or off <= -act:
            continue
        # Called through its home module: this module's name is the
        # obstacle loop's, which the benchmark's tracer counts per obstacle.
        fx, fy, fz, d = forces.obstacle_force_term(
            rx, ry, rz, gx, gy, gz, wall, ctx.k_rep, act, rng, correction
        )
        if d <= 0.0:
            raise CollisionSignal(f"boundary[{j}]", d)
        wx += fx
        wy += fy
        wz += fz
    return wx, wy, wz


class GeoPFPlanner:
    """Closed-form geometric planner: one closest-feature query per primitive."""

    name = "geopf"

    def __init__(self, correction: bool = True):
        self.correction = correction

    def prepare(self, scene):
        ctx = _scene_ctx(scene)
        ctx.gains_per_obstacle = [
            scene.gains.k_rep if obs.gain is None else obs.gain
            for obs in scene.obstacles
        ]
        # Bounding-sphere culling: skip primitives whose bounding sphere is
        # provably beyond the activation radius.  Radii survive translation.
        ctx.cull_thresholds = [
            (ctx.act + obs.primitive.bounding_sphere[3]) ** 2 for obs in scene.obstacles
        ]
        ctx.is_plane = [isinstance(obs.primitive, RectPlane) for obs in scene.obstacles]
        return ctx

    def update(self, ctx, prims):
        ctx.prims = prims

    def obstacle_count(self, scene) -> int:
        return len(scene.obstacles)

    def force(self, ctx, rx, ry, rz, vx, vy, vz, rng, terms=None):
        """Resultant force at the robot position.

        When ``terms`` is a list, it receives ``(label, fx, fy, fz)`` for the
        attraction, for each obstacle within its activation radius, and for
        the summed boundary walls, in summation order.

        Raises:
            CollisionSignal: on contact with an obstacle or a wall.
            DegenerateVector: when the robot lies on a segment, its end, a
                cylinder rim or a point sphere's centre, where the repulsion
                has no direction.
        """
        gx, gy, gz = ctx.goal
        fx, fy, fz = _attraction(rx, ry, rz, gx, gy, gz, ctx.k_attr)
        if terms is not None:
            terms.append(("attractive", fx, fy, fz))
        act = ctx.act
        correction = self.correction
        for i, prim in enumerate(ctx.prims):
            bx, by, bz, _ = prim.bounding_sphere
            dx, dy, dz = rx - bx, ry - by, rz - bz
            if dx * dx + dy * dy + dz * dz >= ctx.cull_thresholds[i]:
                continue
            if ctx.is_plane[i]:
                off = _plane_offset(rx, ry, rz, prim)
                if off >= act or off <= -act:
                    continue
            tx, ty, tz, d = obstacle_force_term(
                rx, ry, rz, gx, gy, gz, prim, ctx.gains_per_obstacle[i], act, rng, correction
            )
            if d <= 0.0:
                raise CollisionSignal(f"obstacle[{i}]", d)
            fx += tx
            fy += ty
            fz += tz
            if terms is not None and d < act:
                terms.append((f"obstacle[{i}]", tx, ty, tz))
        wx, wy, wz = _wall_terms(ctx, rx, ry, rz, rng, correction)
        if terms is not None:
            terms.append(("boundary", wx, wy, wz))
        return fx + wx, fy + wy, fz + wz


def resultant_force(robot, goal, scene, rng=None, correction=True) -> ForceBreakdown:
    """Attractive, per-obstacle and boundary forces of a scene, and their sum.

    Runs :meth:`GeoPFPlanner.force`, so the resultant is bit-for-bit the one
    the simulator integrates.  Obstacles are evaluated in scene order,
    boundary walls last; the breakdown lists one term per obstacle within
    its activation radius.

    Raises:
        CollisionSignal: when any obstacle or wall is touched or penetrated,
            carrying its identifier.
    """
    planner = GeoPFPlanner(correction)
    ctx = planner.prepare(scene)
    ctx.goal = tuple(as_vec3(goal).tolist())
    rx, ry, rz = as_vec3(robot).tolist()
    terms = []
    resultant = planner.force(ctx, rx, ry, rz, 0.0, 0.0, 0.0, rng, terms)
    (_, *attractive), *per_obstacle, (_, *boundary) = terms
    return ForceBreakdown(
        attractive=np.array(attractive),
        per_obstacle=[(label, np.array(term)) for label, *term in per_obstacle],
        boundary=np.array(boundary),
        resultant=np.array(resultant),
    )


class _SphereCloudPlanner:
    """Shared machinery of the spherized baselines."""

    def __init__(self, params: SpherizationParams | None = None):
        self.params = params or SpherizationParams()

    def prepare(self, scene):
        ctx = _scene_ctx(scene)
        ctx.base_prims = ctx.prims
        static_flat = []
        dynamic_blocks = []
        for i, obs in enumerate(scene.obstacles):
            flat = []
            for s in spherize(obs.primitive, self.params):
                cx, cy, cz = s._c
                flat.extend((cx, cy, cz, s.radius))
            if obs.drift is None:
                static_flat.extend(flat)
            else:
                dynamic_blocks.append((i, flat))
        ctx.static_flat = static_flat
        ctx.dynamic_blocks = dynamic_blocks
        ctx.flat = static_flat if not dynamic_blocks else None
        return ctx

    def update(self, ctx, prims):
        ctx.prims = prims
        if not ctx.dynamic_blocks:
            return
        # Drifting primitives translate rigidly, so their spheres translate
        # by the offset between current and base bounding centers.
        flat = list(ctx.static_flat)
        for i, base in ctx.dynamic_blocks:
            b = ctx.base_prims[i].bounding_sphere
            c = prims[i].bounding_sphere
            ox, oy, oz = c[0] - b[0], c[1] - b[1], c[2] - b[2]
            for j in range(0, len(base), 4):
                flat.extend((base[j] + ox, base[j + 1] + oy, base[j + 2] + oz, base[j + 3]))
        ctx.flat = flat

    def obstacle_count(self, scene) -> int:
        return sum(len(spherize(obs.primitive, self.params)) for obs in scene.obstacles)


class SpherePFPlanner(_SphereCloudPlanner):
    """Standard potential field over the spherized obstacles."""

    name = "pf"

    def force(self, ctx, rx, ry, rz, vx, vy, vz, rng):
        fx, fy, fz = _attraction(rx, ry, rz, *ctx.goal, ctx.k_attr)
        tx, ty, tz = _sphere_terms(
            rx, ry, rz, ctx.flat, self.params.k_rep, ctx.act, "clamp"
        )
        wx, wy, wz = _wall_terms(ctx, rx, ry, rz, rng, False)
        return fx + tx + wx, fy + ty + wy, fz + tz + wz


class SphereCFPlanner(_SphereCloudPlanner):
    """Circulatory field over the spherized obstacles."""

    name = "cf"

    def force(self, ctx, rx, ry, rz, vx, vy, vz, rng):
        fx, fy, fz = _attraction(rx, ry, rz, *ctx.goal, ctx.k_attr)
        tx, ty, tz = _cf_terms(
            rx, ry, rz, vx, vy, vz, ctx.flat, self.params.k_rep, ctx.act, "clamp"
        )
        wx, wy, wz = _wall_terms(ctx, rx, ry, rz, rng, False)
        return fx + tx + wx, fy + ty + wy, fz + tz + wz


PLANNER_KINDS = ("geopf", "pf", "cf")


def build_planner(kind: str, rsp: float = 0.01, ksp: float = 1.0, correction: bool = True):
    """Construct a planner from its harness identifier."""
    if kind == "geopf":
        return GeoPFPlanner(correction=correction)
    params = SpherizationParams(radius=rsp, k_rep=ksp)
    if kind == "pf":
        return SpherePFPlanner(params)
    if kind == "cf":
        return SphereCFPlanner(params)
    raise ValueError(f"unknown planner kind: {kind!r} (expected one of {PLANNER_KINDS})")
