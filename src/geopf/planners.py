"""Planner adapters used by the simulator and the benchmark harness.

Each planner prepares a per-scene context from the obstacles' rows of
``scene.bodies``.  Before every step its one shared ``update`` takes the
step's rigid offsets, one per obstacle, and their obstacle time from the
scene's ``primitives_at_step`` view and allocates the step's empty distance
slots (below), and nothing else.  ``force`` then produces the resultant as
plain floats (this call is the timed region of a simulation step).  Every
resultant is summed left to right as attraction, then the obstacle terms,
then the boundary walls.  The geometric planner queries each row's primitive
at the robot minus its obstacle's offset, and its ``force`` is the one loop
that sums a GeoPF resultant; :func:`resultant_force` runs it and keeps the
terms.  The baseline planners hold one block of sphere records per obstacle,
in scene order, and query each block the same way, at the robot minus its
obstacle's offset.  All planners feel the same boundary-wall repulsion.

Every context also holds ``dists``, one slot per obstacle, which ``update``
empties (all None) before each step.  GeoPF's ``force`` writes into slot i
the distance its obstacle term measured for obstacle i, so the simulator's
distance instrumentation takes it instead of querying the obstacle again.
Culled obstacles keep None; the sphere-cloud planners write nothing.

Candidate lists.  GeoPF's obstacle loop and every planner's wall loop run
over a candidate list that the context keeps between steps, not over every
body.  A list is built at one robot position r_a and obstacle time t_a: it
keeps each obstacle whose bounding centre lies within its cull distance
plus ``SKIN`` of r_a minus the obstacle's offset at t_a, and each wall whose
plane offset from r_a is below the activation radius plus ``SKIN``.  It
stays valid while |r - r_a| + V |t - t_a| < ``SKIN`` less a rounding guard,
with V the scene's largest drift speed (0 for a static scene) and t the
time of the offsets ``update`` last took; walls do not drift, so their list
checks the first term alone.  Time is read off the view, never counted in
calls, since callers may visit steps in any order.  Every reader checks
validity first and rebuilds a stale list at the robot it is given, so
``_wall_terms`` stays exact when called on its own.  No bit moves: a body
that passes the per-step cull at (r, t) lies within its cull distance plus
the distance that r minus its offset moved since (r_a, t_a), so it is in
the list; each entry in the list still runs the per-step tests, in scene
order, so the same terms are summed in the same order and the same
``ctx.dists`` slots are written.

No planner draws a random number.  Each planner's ``force`` still takes a
trailing positional ``rng``, which it ignores and ``run_trial`` passes as
None: the benchmark's stub planner (``perfbench/test_perfbench.py``) has
that signature, and the argument goes with the next change to the
benchmark.

No planner decides contact.  A touched or penetrated obstacle or wall adds
a zero term (``obstacle_force_term``), ``force`` returns the sum as usual,
and the simulator reads contact off its own distances.  The one exception
``force`` raises is ``DegenerateVector``.
"""

import math
import weakref

import numpy as np

from . import forces
from .baselines import SpherizationParams, _cf_terms, _sphere_terms
# Imported as ``spherize``: the benchmark's tracer patches that name to time set-up.
from .baselines import sphere_cloud as spherize
from .forces import ForceBreakdown, _attraction, obstacle_force_term
from .primitives import _REACH, SKIN, as_vec3
from .queries import _plane_offset
from .scenes import ZERO_OFFSET


class _Ctx:
    """Mutable per-trial planner state."""

    __slots__ = (
        "goal",
        "k_attr",
        "k_rep",
        "act",
        "walls",
        "obstacles",
        "offsets",
        "time",
        "drift_speed",
        "dists",
        "cloud",
        "near_walls",
        "wall_anchor",
        "near_obstacles",
        "obstacle_anchor",
    )


def _scene_ctx(scene):
    """Context fields every planner shares: goal, gains, walls, obstacle
    rows, one zero offset and one empty distance slot per obstacle at time
    0, the scene's drift speed, and candidate lists due for a rebuild."""
    ctx = _Ctx()
    ctx.goal = scene.goal
    ctx.k_attr = scene.gains.k_attr
    ctx.k_rep = scene.gains.k_rep
    ctx.act = scene.gains.activation_radius
    ctx.walls = list(scene.boundary)
    ctx.obstacles = scene.bodies[: len(scene.obstacles)]
    ctx.offsets = [ZERO_OFFSET] * len(scene.obstacles)
    ctx.time = 0.0
    ctx.drift_speed = scene._drift_speed
    ctx.dists = [None] * len(scene.obstacles)
    ctx.wall_anchor = (math.inf, 0.0, 0.0)
    ctx.obstacle_anchor = (math.inf, 0.0, 0.0, 0.0)
    return ctx


def _near_walls(ctx, rx, ry, rz):
    """The walls whose plane offset from the robot can be below the
    activation radius, in scene order.

    Rebuilt once the robot is ``_REACH`` or more from where the list was
    built: a plane offset changes by at most the robot's move.
    """
    ax, ay, az = ctx.wall_anchor
    if not math.hypot(rx - ax, ry - ay, rz - az) < _REACH:
        reach = ctx.act + SKIN
        ctx.near_walls = [
            wall for wall in ctx.walls if not abs(_plane_offset(rx, ry, rz, wall)) >= reach
        ]
        ctx.wall_anchor = (rx, ry, rz)
    return ctx.near_walls


def _near_obstacles(ctx, rx, ry, rz):
    """``(i, row)`` for each obstacle whose bounding centre can be within its
    cull distance of the robot minus its offset, in scene order.

    Rebuilt once the robot's move plus the scene's drift speed times the
    obstacle time passed since the list was built reaches ``_REACH``: the
    robot minus an offset moves by at most that sum.
    """
    ax, ay, az, at = ctx.obstacle_anchor
    t = ctx.time
    if not math.hypot(rx - ax, ry - ay, rz - az) + ctx.drift_speed * abs(t - at) < _REACH:
        offsets = ctx.offsets
        near = []
        for i, row in enumerate(ctx.obstacles):
            _, _, _, bx, by, bz, threshold, _ = row
            ox, oy, oz = offsets[i]
            dx, dy, dz = rx - ox - bx, ry - oy - by, rz - oz - bz
            reach = math.sqrt(threshold) + SKIN
            if not dx * dx + dy * dy + dz * dz >= reach * reach:
                near.append((i, row))
        ctx.near_obstacles = near
        ctx.obstacle_anchor = (rx, ry, rz, t)
    return ctx.near_obstacles


def _wall_terms(ctx, rx, ry, rz, correction):
    """Boundary-wall repulsion; a touched wall adds a zero term."""
    gx, gy, gz = ctx.goal
    wx = wy = wz = 0.0
    act = ctx.act
    for wall in _near_walls(ctx, rx, ry, rz):
        off = _plane_offset(rx, ry, rz, wall)
        if off >= act or off <= -act:
            continue
        # Called through its home module: this module's name is the
        # obstacle loop's, which the benchmark's tracer counts per obstacle.
        fx, fy, fz, _ = forces.obstacle_force_term(
            rx, ry, rz, gx, gy, gz, wall, ctx.k_rep, act, correction
        )
        wx += fx
        wy += fy
        wz += fz
    return wx, wy, wz


class _Planner:
    """Every planner prepares its obstacles at their base position and sees
    drift as one rigid offset per obstacle."""

    def update(self, ctx, placed):
        """Take the step's obstacle offsets and their time from ``placed``,
        a ``Scene.primitives_at_step`` view over the scene's base primitives,
        and empty the distance slots."""
        ctx.offsets = placed.offsets
        ctx.time = placed.time
        ctx.dists = [None] * len(placed.offsets)


class GeoPFPlanner(_Planner):
    """Closed-form geometric planner: one closest-feature query per primitive."""

    def __init__(self, correction: bool = True):
        self.correction = correction

    def prepare(self, scene):
        return _scene_ctx(scene)

    def obstacle_count(self, scene) -> int:
        return len(scene.obstacles)

    def force(self, ctx, rx, ry, rz, vx, vy, vz, rng, terms=None):
        """Resultant force at the robot position.

        When ``terms`` is a list, it receives ``(label, fx, fy, fz)`` for the
        attraction, for each obstacle within its activation radius, and for
        the summed boundary walls, in summation order.  Each obstacle term's
        distance goes into ``ctx.dists``.  A touched obstacle or wall adds a
        zero term; the simulator decides contact.  ``rng`` is ignored (see
        the module docstring).

        Raises:
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
        offsets = ctx.offsets
        dists = ctx.dists
        # Each candidate obstacle is queried at its base position, with the
        # robot and the goal shifted by minus its offset.
        for i, (prim, label, k, bx, by, bz, threshold, is_plane) in _near_obstacles(
            ctx, rx, ry, rz
        ):
            ox, oy, oz = offsets[i]
            sx, sy, sz = rx - ox, ry - oy, rz - oz
            dx, dy, dz = sx - bx, sy - by, sz - bz
            if dx * dx + dy * dy + dz * dz >= threshold:
                continue
            if is_plane:
                off = _plane_offset(sx, sy, sz, prim)
                if off >= act or off <= -act:
                    continue
            tx, ty, tz, d = obstacle_force_term(
                sx, sy, sz, gx - ox, gy - oy, gz - oz, prim, k, act, correction
            )
            dists[i] = d
            fx += tx
            fy += ty
            fz += tz
            if terms is not None and d < act:
                terms.append((label, tx, ty, tz))
        wx, wy, wz = _wall_terms(ctx, rx, ry, rz, correction)
        if terms is not None:
            terms.append(("boundary", wx, wy, wz))
        return fx + wx, fy + wy, fz + wz


def resultant_force(robot, goal, scene, correction=True) -> ForceBreakdown:
    """Attractive, per-obstacle and boundary forces of a scene, and their sum.

    Runs :meth:`GeoPFPlanner.force`, so the resultant is bit-for-bit the one
    the simulator integrates.  Obstacles are evaluated in scene order,
    boundary walls last; the breakdown lists one term per obstacle within
    its activation radius, a zero term for a touched or penetrated one.
    The trap correction draws nothing: a tie between rectangle edges goes
    to the lower-numbered edge, and on a cylinder's axis the cap correction
    turns along ``axis_frame(axis)[0]``, so the same arguments give the
    same bits.

    Raises:
        DegenerateVector: when the robot lies on a segment, its end, a
            cylinder rim or a point sphere's centre.
    """
    planner = GeoPFPlanner(correction)
    ctx = planner.prepare(scene)
    ctx.goal = as_vec3(goal)
    rx, ry, rz = as_vec3(robot)
    terms = []
    resultant = planner.force(ctx, rx, ry, rz, 0.0, 0.0, 0.0, None, terms)
    (_, *attractive), *per_obstacle, (_, *boundary) = terms
    return ForceBreakdown(
        attractive=np.array(attractive),
        per_obstacle=[(label, np.array(term)) for label, *term in per_obstacle],
        boundary=np.array(boundary),
        resultant=np.array(resultant),
    )


class _SphereCloudPlanner(_Planner):
    """Shared machinery of the spherized baselines."""

    def __init__(self, params: SpherizationParams | None = None):
        self.params = params or SpherizationParams()
        # A weak reference to the scene ``prepare`` last built a cloud for,
        # and that cloud's size.  Weak, so that the planner keeps no scene
        # alive.
        self._prepared = (None, 0)

    def prepare(self, scene):
        """One block of sphere records per obstacle, at its base position,
        in scene order."""
        ctx = _scene_ctx(scene)
        ctx.cloud = [spherize(obs.primitive, self.params) for obs in scene.obstacles]
        self._prepared = (weakref.ref(scene), sum(map(len, ctx.cloud)))
        return ctx

    def obstacle_count(self, scene) -> int:
        """Spheres in the scene's cloud; the scene ``prepare`` last built is
        counted without building its cloud again."""
        prepared, count = self._prepared
        if prepared is not None and prepared() is scene:
            return count
        return sum(len(spherize(obs.primitive, self.params)) for obs in scene.obstacles)


class SpherePFPlanner(_SphereCloudPlanner):
    """Standard potential field over the spherized obstacles."""

    def force(self, ctx, rx, ry, rz, vx, vy, vz, rng):
        fx, fy, fz = _attraction(rx, ry, rz, *ctx.goal, ctx.k_attr)
        tx, ty, tz = _sphere_terms(rx, ry, rz, ctx.cloud, ctx.offsets, self.params.k_rep, ctx.act)
        wx, wy, wz = _wall_terms(ctx, rx, ry, rz, False)
        return fx + tx + wx, fy + ty + wy, fz + tz + wz


class SphereCFPlanner(_SphereCloudPlanner):
    """Circulatory field over the spherized obstacles."""

    def force(self, ctx, rx, ry, rz, vx, vy, vz, rng):
        fx, fy, fz = _attraction(rx, ry, rz, *ctx.goal, ctx.k_attr)
        tx, ty, tz = _cf_terms(
            rx, ry, rz, vx, vy, vz, ctx.cloud, ctx.offsets, self.params.k_rep, ctx.act
        )
        wx, wy, wz = _wall_terms(ctx, rx, ry, rz, False)
        return fx + tx + wx, fy + ty + wy, fz + tz + wz
