"""Point-robot simulation under the resultant force field.

The robot is a damped double integrator: ``a = F/m - damping * v``, velocity
is updated explicitly and clamped to a speed limit, and the position update
uses the pre-update velocity:

    v' = clamp(v + dt * a),    p' = p + dt^2/2 * a + dt * v

A trial integrates until the goal ball is reached, an obstacle or boundary
wall is touched (including zero-thickness rectangles crossed between steps),
or the step budget runs out.  Per-step wall time covers force evaluation and
integration only; distance instrumentation, recording and collision checks
run outside the timed region.  Two more stamps, around the step loop, give
the mean full step.

Contact is decided here alone, from the signed distance: a body of
``scene.bodies`` at a distance of at most zero is touched, and its row names
it (see ``run_trial``).  A planner adds a zero term for a touched body, and
the contact state records the force it returned.

Each step starts from ``scene.primitives_at_step``: the scene's base
primitives plus one rigid offset per obstacle.  Distance is invariant under
translation, so every query runs the base primitive's kernel at the point
minus the obstacle's offset, and crossing points are shifted back; no
primitive is built inside the step loop.

Each obstacle is measured once per step.  The geometric planner's
``force`` leaves in ``ctx.dists`` the distance it measured for every
obstacle it did not cull, and the instrumentation after the force call
takes those values instead of querying again: each is the same kernel at
the same shifted point, so the recorded distances keep every bit.  The
contact test starts from their minimum.  The crossing test then skips every
rectangle and wall farther from the move's start than the move's reach, its
length plus ``DEGENERACY_EPS`` for rounding: a pierced rectangle lies within
the move's length.

A wall is measured only when it can be touched or crossed.  A rectangle is
never nearer than its supporting plane, so a wall whose plane lies beyond
the move's reach can be neither.  The step loop keeps a candidate list of
walls, the neighbour list of Verlet (Phys. Rev. 159, 98, 1967) with the
planners' ``SKIN``: built at a robot position, it holds every wall whose
plane lies within the step's reach plus ``SKIN`` of it, and it is rebuilt
once the robot's move since then, plus the growth of the reach, comes to
``SKIN`` less a rounding guard.  Only a listed wall has its plane offset
taken, and its kernel runs only when that plane is within the reach.  The
corridor walls lie beyond the reach on almost every step, so most steps
read no wall at all.
"""

from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
import math
import time
from typing import NamedTuple

from .primitives import _REACH, DEGENERACY_EPS, SKIN, RectPlane, positive, positive_int
from .queries import _kernel_for, _pierce, _plane_contains, _plane_offset

# With a stall speed set, a trial times out after this many slow steps in a row.
STALL_WINDOW = 500


@dataclass(frozen=True)
class SimParams:
    """Integration and termination parameters."""

    mass: float = 1.0
    dt: float = 0.002
    damping: float = 4.0
    max_speed: float = 0.5
    goal_radius: float = 0.02
    max_steps: int = 20000

    def __post_init__(self):
        for name in ("mass", "dt", "max_speed", "goal_radius"):
            object.__setattr__(self, name, positive(getattr(self, name), name))
        object.__setattr__(self, "damping", positive(self.damping, "damping", zero_ok=True))
        object.__setattr__(self, "max_steps", positive_int(self.max_steps, "max_steps"))


class VerdictKind(Enum):
    REACHED_GOAL = "reached_goal"
    COLLISION = "collision"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    obstacle_id: str | None = None
    step: int | None = None


class TrajState(NamedTuple):
    """One recorded simulation state (positions as plain float tuples)."""

    step: int
    position: tuple
    velocity: tuple
    force: tuple
    min_dist: float


@dataclass
class TrajectoryRecord:
    """Recorded trajectory plus verdict and per-trial aggregates.

    ``step_times`` holds the per-step force+integration wall times in seconds
    (the force-only time) and ``full_step_time`` the mean wall time of a
    whole step, the step loop's time over its steps; these two are the
    fields excluded from determinism guarantees.  The distance aggregates
    cover every (step, obstacle) pair seen during the run.
    """

    states: list
    verdict: Verdict
    path_length: float = 0.0
    min_dist: float = math.inf
    dist_sum: float = 0.0
    dist_count: int = 0
    step_times: list = field(default_factory=list)
    full_step_time: float = math.nan


def integrate_step(position, velocity, force, params: SimParams):
    """One explicit integration step; returns (position', velocity')."""
    px, py, pz = position
    vx, vy, vz = velocity
    fx, fy, fz = force
    inv_m = 1.0 / params.mass
    c = params.damping
    ax = fx * inv_m - c * vx
    ay = fy * inv_m - c * vy
    az = fz * inv_m - c * vz
    dt = params.dt
    half = 0.5 * dt * dt
    npx = px + half * ax + dt * vx
    npy = py + half * ay + dt * vy
    npz = pz + half * az + dt * vz
    nvx = vx + dt * ax
    nvy = vy + dt * ay
    nvz = vz + dt * az
    speed = math.sqrt(nvx * nvx + nvy * nvy + nvz * nvz)
    if speed > params.max_speed:
        scale = params.max_speed / speed
        nvx *= scale
        nvy *= scale
        nvz *= scale
    return (npx, npy, npz), (nvx, nvy, nvz)


def _distances(kernels, x, y, z, placed, known=None):
    """Distance from (x, y, z) to each obstacle of a ``primitives_at_step``
    view: the base primitive's kernel at the point minus its offset.

    ``known``, when given, holds one slot per obstacle; a slot that is not
    None is that obstacle's distance at this point and is taken as it is.
    """
    if known is None:
        known = repeat(None)
    return [
        kern(x - ox, y - oy, z - oz, prim)[0] if d is None else d
        for d, kern, prim, (ox, oy, oz) in zip(known, kernels, placed.base, placed.offsets)
    ]


def _crossing(px, py, pz, qx, qy, qz, plane: RectPlane):
    """Whether the straight move p -> q pierces the closed rectangle.

    Returns the crossing point, or None.  The move must cross the supporting
    plane strictly (``queries._pierce``), and the crossing point must pass
    the rectangle's frame test (``queries._plane_contains``).  Both ends are
    measured against the same plane instance, so quasi-static motion within
    one step is fine.
    """
    frame = plane._frame
    hit = _pierce(px, py, pz, qx, qy, qz, frame)
    if hit is None:
        return None
    cx, cy, cz = hit
    return hit if _plane_contains(cx, cy, cz, frame) else None


def run_trial(
    scene,
    planner=None,
    params: SimParams | None = None,
    *,
    keep_states: bool = True,
    stall_speed: float | None = None,
) -> TrajectoryRecord:
    """Simulate one trial of a planner on a scene.

    Args:
        scene: the scene to run (provides start/goal, obstacles, walls,
            gains and sim params).
        planner: planner instance; default is the geometric planner.
        params: overrides ``scene.sim`` when given.
        keep_states: when False no state is built per step: the record
            holds one state, the final one, built once at the end and equal
            to the last state of the same trial run with True.  The verdict
            and the aggregates still cover the full run.
        stall_speed: optional early-timeout threshold, a speed checked by
            ``positive``; the trial ends with a timeout verdict once the
            speed stays below it for ``STALL_WINDOW`` consecutive steps.

    Returns:
        TrajectoryRecord with one state per step and the termination verdict.
        Deterministic for fixed (scene, planner, params) except step_times
        and full_step_time.

    Raises:
        DegenerateVector: when the robot lies on a segment, its end, a
            cylinder rim or a point sphere's centre.

    After each force call the contact test takes the minimum of the step's
    obstacle distances, which the instrumentation already took, and then
    the walls within the move's reach (below), in scene order; at or below
    zero the trial ends at that body, labelled ``obstacle[i]`` or
    ``boundary[j]``, the first in that order on a tie.  Walls are
    rectangles, whose distance is never negative, so this is the deepest
    obstacle touched, or else the first wall touched.  A body's row is
    looked up only when it is touched.  Then one loop looks for a crossing,
    over the obstacle rectangles and then the walls within the reach.

    The walls come from a candidate list kept across steps.  Built at the
    robot position r_a on a step of reach m_a, it holds, in scene order,
    every wall whose plane offset from r_a is below m_a + ``SKIN``; it is
    rebuilt unless |r - r_a| + m < m_a + ``SKIN`` less the planners'
    rounding guard, for the step's robot r and reach m.  The list is exact:
    a plane offset changes by at most the robot's move, so a wall off a
    valid list has a plane offset above m plus the guard.  Its distance,
    never below its plane offset, is then above zero, so the wall is not
    touched, and above the reach, so it cannot be crossed; it could affect
    neither test.  Each listed wall is then measured by its plane offset
    first, and its kernel runs only when that offset is at most the reach,
    by the same argument.  The verdict, its step and its label are
    therefore those of the true distances of every wall.

    The distances recorded after a force call reuse the ones the planner
    left in ``ctx.dists``, when its context has that field, and query only
    the other obstacles; the goal step and a crossing point are measured
    afresh.  A pierced rectangle lies within the move's length, so
    ``_crossing`` runs only for the rectangles and walls whose distance at
    the move's start is at most the reach, the move's length m +
    ``DEGENERACY_EPS``.
    """
    stall_speed = None if stall_speed is None else positive(stall_speed, "stall_speed")
    if planner is None:
        from .planners import GeoPFPlanner

        planner = GeoPFPlanner()
    params = scene.sim if params is None else params
    ctx = planner.prepare(scene)

    px, py, pz = scene.start
    vx = vy = vz = 0.0
    gx, gy, gz = scene.goal
    goal_r2 = params.goal_radius * params.goal_radius

    bodies, n = scene.bodies, len(scene.obstacles)
    kernels = [_kernel_for(prim) for prim, *_ in bodies[:n]]
    walls = [(j, _kernel_for(prim), prim) for j, (prim, *_) in enumerate(bodies[n:], n)]
    obstacle_rects = [(k, prim) for k, (prim, *_, is_rect) in enumerate(bodies[:n]) if is_rect]
    near_walls, wall_anchor, wall_limit = [], (math.inf, 0.0, 0.0), 0.0

    record = TrajectoryRecord(states=[], verdict=Verdict(VerdictKind.TIMEOUT))
    states = record.states
    perf = time.perf_counter
    stall_count = 0

    def instrument(x, y, z, placed, known=None):
        dists = _distances(kernels, x, y, z, placed, known)
        if dists:
            md = min(dists)
            record.dist_sum += math.fsum(dists)
            record.dist_count += len(dists)
            if md < record.min_dist:
                record.min_dist = md
        else:
            md = math.inf
        return dists, md

    step_index = 0
    loop_start = perf()
    while True:
        placed = scene.primitives_at_step(step_index)
        planner.update(ctx, placed)

        # Goal test happens before force evaluation.
        dgx, dgy, dgz = px - gx, py - gy, pz - gz
        if dgx * dgx + dgy * dgy + dgz * dgz <= goal_r2:
            _, md = instrument(px, py, pz, placed)
            states.append(TrajState(step_index, (px, py, pz), (vx, vy, vz), (0.0, 0.0, 0.0), md))
            record.verdict = Verdict(VerdictKind.REACHED_GOAL, step=step_index)
            break

        t0 = perf()
        fx, fy, fz = planner.force(ctx, px, py, pz, vx, vy, vz, None)
        (nx, ny, nz), (nvx, nvy, nvz) = integrate_step(
            (px, py, pz), (vx, vy, vz), (fx, fy, fz), params
        )
        t1 = perf()
        record.step_times.append(t1 - t0)

        dists, md = instrument(px, py, pz, placed, getattr(ctx, "dists", None))
        if keep_states:
            states.append(TrajState(step_index, (px, py, pz), (vx, vy, vz), (fx, fy, fz), md))

        move = math.sqrt((nx - px) ** 2 + (ny - py) ** 2 + (nz - pz) ** 2)
        reach = move + DEGENERACY_EPS
        # The wall candidate list (see above), rebuilt once the robot's move
        # since it was built, plus the reach, comes to its limit.
        ax, ay, az = wall_anchor
        if not math.hypot(px - ax, py - ay, pz - az) + reach < wall_limit:
            cutoff = reach + SKIN
            near_walls = [w for w in walls if not abs(_plane_offset(px, py, pz, w[2])) >= cutoff]
            wall_anchor, wall_limit = (px, py, pz), reach + _REACH
        # Contact: the nearest body at a distance of at most zero, the first
        # in body order on a tie.  Walls follow the obstacles and are never
        # at a negative distance.  ``reached`` keeps the walls that can be
        # touched or crossed.
        touched = dists.index(md) if md <= 0.0 else None
        reached = []
        for j, kern, wall in near_walls:
            if not abs(_plane_offset(px, py, pz, wall)) > reach:
                d = kern(px, py, pz, wall)[0]
                if d <= reach:
                    reached.append((j, wall))
                    if d <= 0.0 and touched is None:
                        touched = j
        if touched is not None:
            record.verdict = Verdict(VerdictKind.COLLISION, bodies[touched][1], step_index)
            break

        if step_index >= params.max_steps:
            record.verdict = Verdict(VerdictKind.TIMEOUT, step=step_index)
            break

        # Zero-thickness rectangles can be crossed between steps; treat a
        # pierced rectangle (obstacle or wall) as a contact at distance zero.
        # Only rectangles within the move's reach can be pierced.
        crossed = None
        for k, rect in obstacle_rects:
            if dists[k] > reach:
                continue
            ox, oy, oz = placed.offsets[k]
            hit = _crossing(px - ox, py - oy, pz - oz, nx - ox, ny - oy, nz - oz, rect)
            if hit is not None:
                crossed = k
                cx, cy, cz = hit[0] + ox, hit[1] + oy, hit[2] + oz
                break
        else:
            for j, wall in reached:
                hit = _crossing(px, py, pz, nx, ny, nz, wall)
                if hit is not None:
                    crossed = j
                    cx, cy, cz = hit
                    break
        if crossed is not None:
            next_placed = scene.primitives_at_step(step_index + 1)
            _, md = instrument(cx, cy, cz, next_placed)
            if crossed < n:
                md = 0.0
                record.min_dist = min(record.min_dist, 0.0)
            states.append(
                TrajState(step_index + 1, (cx, cy, cz), (nvx, nvy, nvz), (0.0, 0.0, 0.0), md)
            )
            record.path_length += math.sqrt(
                (cx - px) ** 2 + (cy - py) ** 2 + (cz - pz) ** 2
            )
            record.verdict = Verdict(VerdictKind.COLLISION, bodies[crossed][1], step_index + 1)
            break

        record.path_length += move

        # The stall test reads the new velocity before the state advances, so
        # that a stalled trial ends on this step's state.
        if stall_speed is not None:
            if math.sqrt(nvx * nvx + nvy * nvy + nvz * nvz) < stall_speed:
                stall_count += 1
                if stall_count >= STALL_WINDOW:
                    record.verdict = Verdict(VerdictKind.TIMEOUT, step=step_index)
                    break
            else:
                stall_count = 0

        px, py, pz, vx, vy, vz = nx, ny, nz, nvx, nvy, nvz
        step_index += 1

    record.full_step_time = (perf() - loop_start) / (step_index + 1)
    if not states:
        # Without keep_states a trial that ended on a contact, the step cap or
        # a stall has kept no state: its final state is this step's.
        states.append(TrajState(step_index, (px, py, pz), (vx, vy, vz), (fx, fy, fz), md))
    return record


TRAJECTORY_HEADER = "step,px,py,pz,vx,vy,vz,fx,fy,fz,min_dist"


def trajectory_lines(record: TrajectoryRecord):
    """Yield the line-delimited trajectory export (header + one row per state).

    Values are formatted with 9 significant digits.
    """
    yield TRAJECTORY_HEADER
    for s in record.states:
        vals = [*s.position, *s.velocity, *s.force, s.min_dist]
        yield f"{s.step}," + ",".join(f"{v:.9g}" for v in vals)


def write_trajectory(record: TrajectoryRecord, path):
    """Write the trajectory export to a file."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in trajectory_lines(record):
            fh.write(line + "\n")
