"""Point-robot simulation under the resultant force field.

The robot is a damped double integrator: ``a = F/m - damping * v``, velocity
is updated explicitly and clamped to a speed limit, and the position update
uses the pre-update velocity:

    v' = clamp(v + dt * a),    p' = p + dt^2/2 * a + dt * v

A trial integrates until the goal ball is reached, an obstacle or boundary
wall is touched (including zero-thickness rectangles crossed between steps),
or the step budget runs out.  Per-step wall time covers force evaluation and
integration only; distance instrumentation, recording and collision checks
run outside the timed region.
"""

from dataclasses import dataclass, field
from enum import Enum
import math
import time
from typing import NamedTuple

from .errors import CollisionSignal
from .primitives import RectPlane
from .queries import _kernel_for, _plane_inside_kernel, _plane_offset
from .seeding import trial_rng

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
        if self.mass <= 0 or self.dt <= 0:
            raise ValueError("mass and dt must be > 0")
        if self.damping < 0:
            raise ValueError("damping must be >= 0")
        if self.max_speed <= 0:
            raise ValueError("max_speed must be > 0")
        if self.goal_radius <= 0:
            raise ValueError("goal_radius must be > 0")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


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
    and is the only field excluded from determinism guarantees.  The distance
    aggregates cover every (step, obstacle) pair seen during the run.
    """

    states: list
    verdict: Verdict
    path_length: float = 0.0
    min_dist: float = math.inf
    dist_sum: float = 0.0
    dist_count: int = 0
    step_times: list = field(default_factory=list)


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


def _crossing(px, py, pz, qx, qy, qz, plane: RectPlane):
    """Whether the straight move p -> q pierces the rectangle's interior.

    Returns the crossing point, or None.  Both offsets are measured against
    the same plane instance, so quasi-static motion within one step is fine.
    """
    o0 = _plane_offset(px, py, pz, plane)
    o1 = _plane_offset(qx, qy, qz, plane)
    if o0 == 0.0 or o1 == 0.0 or (o0 > 0.0) == (o1 > 0.0):
        return None
    t = o0 / (o0 - o1)
    cx = px + t * (qx - px)
    cy = py + t * (qy - py)
    cz = pz + t * (qz - pz)
    if _plane_inside_kernel(cx, cy, cz, plane):
        return (cx, cy, cz)
    return None


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
            gains, sim params and the seed for the trial RNG).
        planner: planner instance; default is the geometric planner.
        params: overrides ``scene.sim`` when given.
        keep_states: when False only the final state is retained (the
            aggregates still cover the full run).
        stall_speed: optional early-timeout threshold; the trial ends with a
            timeout verdict once the speed stays below it for
            ``STALL_WINDOW`` consecutive steps.

    Returns:
        TrajectoryRecord with one state per step and the termination verdict.
        Deterministic for fixed (scene, planner, params) except step_times.
    """
    if planner is None:
        from .planners import GeoPFPlanner

        planner = GeoPFPlanner()
    params = scene.sim if params is None else params
    rng = trial_rng(scene.seed)
    ctx = planner.prepare(scene)

    px, py, pz = (float(v) for v in scene.start)
    vx = vy = vz = 0.0
    gx, gy, gz = (float(v) for v in scene.goal)
    goal_r2 = params.goal_radius * params.goal_radius

    kernels = [_kernel_for(obs.primitive) for obs in scene.obstacles]
    walls = list(scene.boundary)
    wall_kernels = [_kernel_for(w) for w in walls]

    record = TrajectoryRecord(states=[], verdict=Verdict(VerdictKind.TIMEOUT))
    states = record.states
    perf = time.perf_counter
    stall_count = 0

    def push(state):
        if keep_states:
            states.append(state)
        else:
            states[:] = [state]

    def instrument(x, y, z, prims):
        dists = [kern(x, y, z, p)[0] for kern, p in zip(kernels, prims)]
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
    while True:
        prims = scene.primitives_at_step(step_index)
        planner.update(ctx, prims)

        # Goal test happens before force evaluation.
        dgx, dgy, dgz = px - gx, py - gy, pz - gz
        if dgx * dgx + dgy * dgy + dgz * dgz <= goal_r2:
            _, md = instrument(px, py, pz, prims)
            push(TrajState(step_index, (px, py, pz), (vx, vy, vz), (0.0, 0.0, 0.0), md))
            record.verdict = Verdict(VerdictKind.REACHED_GOAL, step=step_index)
            break

        signal = None
        t0 = perf()
        try:
            fx, fy, fz = planner.force(ctx, px, py, pz, vx, vy, vz, rng)
            (nx, ny, nz), (nvx, nvy, nvz) = integrate_step(
                (px, py, pz), (vx, vy, vz), (fx, fy, fz), params
            )
        except CollisionSignal as cs:
            signal = cs
            fx = fy = fz = 0.0
            nx, ny, nz, nvx, nvy, nvz = px, py, pz, vx, vy, vz
        t1 = perf()
        record.step_times.append(t1 - t0)

        dists, md = instrument(px, py, pz, prims)
        push(TrajState(step_index, (px, py, pz), (vx, vy, vz), (fx, fy, fz), md))

        if md <= 0.0:
            worst = min(range(len(dists)), key=lambda i: dists[i])
            record.verdict = Verdict(
                VerdictKind.COLLISION, f"obstacle[{worst}]", step_index
            )
            break
        wall_hit = None
        for j, (kern, wall) in enumerate(zip(wall_kernels, walls)):
            if kern(px, py, pz, wall)[0] <= 0.0:
                wall_hit = j
                break
        if wall_hit is not None:
            record.verdict = Verdict(
                VerdictKind.COLLISION, f"boundary[{wall_hit}]", step_index
            )
            break
        if signal is not None:
            record.verdict = Verdict(VerdictKind.COLLISION, signal.obstacle_id, step_index)
            break

        if step_index >= params.max_steps:
            record.verdict = Verdict(VerdictKind.TIMEOUT, step=step_index)
            break

        # Zero-thickness rectangles can be crossed between steps; treat a
        # pierced rectangle (obstacle or wall) as a contact at distance zero.
        crossed = None
        for i, prim in enumerate(prims):
            if isinstance(prim, RectPlane):
                hit = _crossing(px, py, pz, nx, ny, nz, prim)
                if hit is not None:
                    crossed = (f"obstacle[{i}]", i, hit)
                    break
        if crossed is None:
            for j, wall in enumerate(walls):
                hit = _crossing(px, py, pz, nx, ny, nz, wall)
                if hit is not None:
                    crossed = (f"boundary[{j}]", None, hit)
                    break
        if crossed is not None:
            obstacle_id, obs_idx, (cx, cy, cz) = crossed
            next_prims = scene.primitives_at_step(step_index + 1)
            dists, md = instrument(cx, cy, cz, next_prims)
            if obs_idx is not None:
                md = 0.0
                record.min_dist = min(record.min_dist, 0.0)
            push(
                TrajState(
                    step_index + 1,
                    (cx, cy, cz),
                    (nvx, nvy, nvz),
                    (0.0, 0.0, 0.0),
                    md,
                )
            )
            record.path_length += math.sqrt(
                (cx - px) ** 2 + (cy - py) ** 2 + (cz - pz) ** 2
            )
            record.verdict = Verdict(VerdictKind.COLLISION, obstacle_id, step_index + 1)
            break

        record.path_length += math.sqrt(
            (nx - px) ** 2 + (ny - py) ** 2 + (nz - pz) ** 2
        )
        px, py, pz, vx, vy, vz = nx, ny, nz, nvx, nvy, nvz

        if stall_speed is not None:
            if math.sqrt(vx * vx + vy * vy + vz * vz) < stall_speed:
                stall_count += 1
                if stall_count >= STALL_WINDOW:
                    record.verdict = Verdict(VerdictKind.TIMEOUT, step=step_index)
                    break
            else:
                stall_count = 0

        step_index += 1

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
