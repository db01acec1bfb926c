"""Attractive and repulsive force terms from closest features.

Attraction has constant magnitude ``k_attr`` toward the goal
(:func:`_attraction`).  Repulsion is inverse-distance, ``F = k / d`` along
the closest feature's direction, active only below the activation radius
and clamped to ``k / D_MIN`` near contact.  One function computes the
repulsion of any primitive, obstacle or boundary wall:
:func:`obstacle_force_term`.  Rectangles, box faces and cylinder caps add a
trap correction: when the straight robot-goal stretch pierces the
obstacle, the repulsion turns parallel to the surface toward the nearest
edge so that attraction cannot cancel it.

Everything here works on plain floats over the scalar kernels of
:mod:`geopf.queries`; the public functions wrap the same code in numpy
vectors.  The resultant of a scene is summed by the geometric planner
(:mod:`geopf.planners`), which also provides :func:`resultant_force`.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import CollisionSignal
from .primitives import DEGENERACY_EPS, Cylinder, RectPlane, as_vec3, unit3
from .queries import (
    ClosestFeature,
    FeatureKind,
    _cube_kernel,
    _cylinder_kernel,
    _kernel_for,
    _plane_inside_kernel,
    _plane_kernel,
    _segment_kernel,
)

# Repulsion magnitude is clamped to k / D_MIN below this distance.
D_MIN = 1e-4
# Two feature distances within this margin count as an exact tie.
TIE_EPS = 1e-12
# Magnitude of the random nudge used to break exact ties.
TIE_NOISE = 1e-9


@dataclass(frozen=True)
class Gains:
    """Planner gains: goal attraction, default repulsion, activation radius."""

    k_attr: float = 1.0
    k_rep: float = 0.1
    activation_radius: float = 0.3

    def __post_init__(self):
        for name in ("k_attr", "k_rep", "activation_radius"):
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            if value <= 0:
                raise ValueError(f"{name} must be > 0, got {value}")


@dataclass(frozen=True)
class ForceBreakdown:
    """Resultant force and its terms.

    ``resultant`` equals ``attractive``, plus the per-obstacle terms in list
    order, plus ``boundary``, summed left to right -- bit-for-bit.
    """

    attractive: np.ndarray
    per_obstacle: list
    boundary: np.ndarray
    resultant: np.ndarray


def _attraction(rx, ry, rz, gx, gy, gz, k_attr):
    """Scalar pull toward the goal: k_attr * unit(goal - robot), or zero on
    the goal (termination is handled before force evaluation)."""
    dx, dy, dz = gx - rx, gy - ry, gz - rz
    n = math.sqrt(dx * dx + dy * dy + dz * dz)
    if n <= DEGENERACY_EPS:
        return 0.0, 0.0, 0.0
    s = k_attr / n
    return s * dx, s * dy, s * dz


def attractive_force(robot, goal, gains: Gains) -> np.ndarray:
    """Constant-magnitude pull toward the goal: k_attr * unit(goal - robot).

    Returns the zero vector when the robot sits on the goal.
    """
    return np.array(_attraction(*as_vec3(robot).tolist(), *as_vec3(goal).tolist(), gains.k_attr))


def repulsive_force(feature: ClosestFeature, k: float, activation: float) -> np.ndarray:
    """Inverse-distance repulsion along the feature direction.

    Zero at or beyond the activation radius; magnitude clamped to
    ``k / D_MIN`` near contact.

    Raises:
        CollisionSignal: when the feature distance is <= 0 (penetration is
            expected to be handled upstream).
    """
    d = feature.distance
    if d <= 0.0:
        raise CollisionSignal(None, d)
    if d >= activation:
        return np.zeros(3)
    return (k / max(d, D_MIN)) * feature.direction


# ---------------------------------------------------------------------------
# Trap-correction heuristic
# ---------------------------------------------------------------------------


def _nearest_edge(rx, ry, rz, plane: RectPlane, rng):
    """Index and query result of the rectangle edge nearest to the robot.

    Exact ties (within TIE_EPS) are broken by nudging the evaluation point by
    TIE_NOISE toward an RNG-chosen corner and re-measuring.
    """
    results = [_segment_kernel(rx, ry, rz, e) for e in plane.edges]
    order = sorted(range(4), key=lambda i: results[i][0])
    if results[order[1]][0] - results[order[0]][0] >= TIE_EPS or rng is None:
        return order[0], results[order[0]]
    vx, vy, vz = plane._vs[int(rng.integers(0, 4))]
    dx, dy, dz = vx - rx, vy - ry, vz - rz
    m = math.sqrt(dx * dx + dy * dy + dz * dz)
    if m <= DEGENERACY_EPS:
        return order[0], results[order[0]]
    nx = rx + TIE_NOISE * dx / m
    ny = ry + TIE_NOISE * dy / m
    nz = rz + TIE_NOISE * dz / m
    nudged = [_segment_kernel(nx, ny, nz, e) for e in plane.edges]
    k = min(range(4), key=lambda i: nudged[i][0])
    return k, results[k]


def _correction_direction(rx, ry, rz, gx, gy, gz, plane: RectPlane, disk, rng):
    """Surface-parallel corrected direction, or None when no trap is present.

    The robot-goal stretch must pierce the supporting plane inside the
    rectangle (``disk`` None) or inside the disk ``(center, radius)``; the
    returned unit direction is parallel to the surface, perpendicular to the
    nearest edge, signed toward it.
    """
    nx, ny, nz = plane._n
    v1x, v1y, v1z = plane._vs[0]
    off = (rx - v1x) * nx + (ry - v1y) * ny + (rz - v1z) * nz
    dxg, dyg, dzg = rx - gx, ry - gy, rz - gz
    glen = math.sqrt(dxg * dxg + dyg * dyg + dzg * dzg)
    if glen <= DEGENERACY_EPS:
        return None
    ux, uy, uz = dxg / glen, dyg / glen, dzg / glen  # unit goal -> robot
    denom = ux * nx + uy * ny + uz * nz
    if abs(denom) < 1e-9:
        return None  # line parallel to the plane
    d_inter = off / denom
    if d_inter <= 0.0 or d_inter > glen:
        return None  # the plane is not between robot and goal
    px, py, pz = rx - d_inter * ux, ry - d_inter * uy, rz - d_inter * uz
    if disk is None:
        if not _plane_inside_kernel(px, py, pz, plane):
            return None
    else:
        (ccx, ccy, ccz), rr = disk
        dx, dy, dz = px - ccx, py - ccy, pz - ccz
        if not dx * dx + dy * dy + dz * dz <= rr * rr:
            return None
    k, edge_res = _nearest_edge(rx, ry, rz, plane, rng)
    ex, ey, ez = plane.edges[k]._u
    cx = ny * ez - nz * ey
    cy = nz * ex - nx * ez
    cz = nx * ey - ny * ex
    # Robot-to-edge direction decides the sign toward the nearest edge.
    tx, ty, tz = edge_res[4] - rx, edge_res[5] - ry, edge_res[6] - rz
    s = cx * tx + cy * ty + cz * tz
    if s < 0.0:
        return (-cx, -cy, -cz)
    return (cx, cy, cz)


def _cap_square(cyl: Cylinder, kind: FeatureKind, rx, ry, rz, rng):
    """Inscribed square spanning the cap facing the robot.

    The square's corners sit on the cap rim along the radial direction to the
    robot and its in-plane perpendicular; for an on-axis robot the radial
    direction is drawn from the RNG (or a fixed fallback axis).
    """
    ux, uy, uz = cyl._axis
    if kind is FeatureKind.CAP_TOP:
        ccx, ccy, ccz = cyl._p2
    else:
        ccx, ccy, ccz = cyl._p1
    wx, wy, wz = rx - ccx, ry - ccy, rz - ccz
    t = wx * ux + wy * uy + wz * uz
    qx, qy, qz = wx - t * ux, wy - t * uy, wz - t * uz
    qn = math.sqrt(qx * qx + qy * qy + qz * qz)
    if qn <= DEGENERACY_EPS:
        # Radial direction undefined: pick one in the cap plane.
        seed = (1.0, 0.0, 0.0) if abs(ux) < 0.9 else (0.0, 1.0, 0.0)
        bx, by, bz = seed
        dot = bx * ux + by * uy + bz * uz
        b1 = unit3(bx - dot * ux, by - dot * uy, bz - dot * uz)
        b2 = (
            uy * b1[2] - uz * b1[1],
            uz * b1[0] - ux * b1[2],
            ux * b1[1] - uy * b1[0],
        )
        ang = float(rng.uniform(0.0, 2.0 * math.pi)) if rng is not None else 0.0
        ca, sa = math.cos(ang), math.sin(ang)
        nq = (
            ca * b1[0] + sa * b2[0],
            ca * b1[1] + sa * b2[1],
            ca * b1[2] + sa * b2[2],
        )
    else:
        nq = (qx / qn, qy / qn, qz / qn)
    # In-plane direction perpendicular to nq.
    na = (
        uy * nq[2] - uz * nq[1],
        uz * nq[0] - ux * nq[2],
        ux * nq[1] - uy * nq[0],
    )
    r = cyl.radius
    c = np.array((ccx, ccy, ccz))
    e1 = c + r * np.array(na)
    e2 = c + r * np.array(nq)
    e3 = c - r * np.array(na)
    e4 = c - r * np.array(nq)
    return RectPlane(e1, e2, e3, e4), (ccx, ccy, ccz)


_CAPS = (FeatureKind.CAP_TOP, FeatureKind.CAP_BOTTOM)


def _trap(kernel, prim, kind, index, rx, ry, rz, rng):
    """Rectangle whose piercing triggers the trap correction, or None.

    Returns ``(rect, disk)``.  A rectangle's trap is the rectangle itself, a
    box's is the face realizing a FACE feature, and a cylinder's is the
    inscribed square of the cap realizing a cap feature.  ``disk`` is None
    when the piercing point must lie inside ``rect``; for a cap it is the
    ``(center, radius)`` of the cap disk the point must lie in instead.
    """
    if kernel is _plane_kernel:
        return prim, None
    if kernel is _cube_kernel and kind is FeatureKind.FACE:
        return prim.faces[index[0] - 1], None
    if kernel is _cylinder_kernel and kind in _CAPS:
        square, center = _cap_square(prim, kind, rx, ry, rz, rng)
        return square, (center, prim.radius)
    return None


def obstacle_force_term(rx, ry, rz, gx, gy, gz, prim, k, activation, rng, correction):
    """Scalar repulsion of one primitive, obstacle or boundary wall.

    Returns (fx, fy, fz, distance).  The force is zero at or beyond the
    activation radius and at a non-positive distance (the caller reacts to
    contact).  Otherwise it has magnitude ``k / max(d, D_MIN)`` along the
    closest feature's direction, or, with ``correction`` on and the
    robot-goal stretch piercing the primitive's trap rectangle, along the
    surface-parallel corrected direction.
    """
    kernel = _kernel_for(prim)
    kern = kernel(rx, ry, rz, prim)
    d = kern[0]
    if d <= 0.0 or d >= activation:
        return 0.0, 0.0, 0.0, d
    ux, uy, uz = kern[1], kern[2], kern[3]
    if correction:
        trap = _trap(kernel, prim, kern[7], kern[8], rx, ry, rz, rng)
        if trap is not None:
            corr = _correction_direction(rx, ry, rz, gx, gy, gz, trap[0], trap[1], rng)
            if corr is not None:
                ux, uy, uz = corr
    mag = k / max(d, D_MIN)
    return mag * ux, mag * uy, mag * uz, d


def _term_vector(robot, goal, prim, gains: Gains, rng, k, correction) -> np.ndarray:
    rx, ry, rz = as_vec3(robot).tolist()
    gx, gy, gz = as_vec3(goal).tolist()
    krep = gains.k_rep if k is None else float(k)
    fx, fy, fz, d = obstacle_force_term(
        rx, ry, rz, gx, gy, gz, prim, krep, gains.activation_radius, rng, correction
    )
    if d <= 0.0:
        raise CollisionSignal(None, d)
    return np.array((fx, fy, fz))


def plane_force_with_correction(
    robot, goal, plane: RectPlane, gains: Gains, rng=None, k=None, correction=True
) -> np.ndarray:
    """Repulsive force of a rectangle including the trap correction.

    When the robot-goal stretch pierces the rectangle's interior, the force
    direction is replaced by the surface-parallel direction toward the
    nearest edge (magnitude still k/d); otherwise the ordinary orthogonal or
    side repulsion applies.

    Raises:
        CollisionSignal: when the robot touches the rectangle.
    """
    return _term_vector(robot, goal, plane, gains, rng, k, correction)


def cylinder_cap_correction(
    robot, goal, cyl: Cylinder, gains: Gains, rng=None, k=None
) -> np.ndarray:
    """Repulsive force of a cylinder with the circular-cap trap correction.

    Applies when the closest feature is a cap: the cap is spanned by an
    inscribed square whose rim corners face the robot, the rectangle
    correction logic runs against it, and the piercing test uses the radial
    distance from the cap center instead of the four-indicator test.

    Raises:
        CollisionSignal: when the robot touches the cylinder.
    """
    return _term_vector(robot, goal, cyl, gains, rng, k, True)
