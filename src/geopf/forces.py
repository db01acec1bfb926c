"""Attractive and repulsive force terms from closest features.

Attraction has constant magnitude ``k_attr`` toward the goal
(:func:`_attraction`).  Repulsion is inverse-distance, ``F = k / d`` along
the closest feature's direction, active only below the activation radius and
clamped to ``k / D_MIN`` near contact (:func:`_repulsion`, shared with the
sphere-cloud baselines).  One function computes the repulsion of any
primitive, obstacle or boundary wall: :func:`obstacle_force_term`.
Rectangles, box faces and cylinder caps add a trap correction: when the
straight robot-goal stretch pierces the obstacle, the repulsion turns
parallel to the surface so that attraction cannot cancel it -- toward the
nearest edge of a rectangle or box face, and radially toward the nearest rim
point of a cap.  One routine finds the piercing point (``queries._pierce``);
a rectangle tests it in its own frame (``queries._plane_contains``) and a
cap by its distance from the cap centre.

Everything here works on plain floats over the scalar kernels of
:mod:`geopf.queries`.  The resultant of a scene is summed by the geometric
planner (:mod:`geopf.planners`), which also provides :func:`resultant_force`.
"""

from dataclasses import dataclass, fields
import math

import numpy as np

from .primitives import DEGENERACY_EPS, Cylinder, RectPlane, axis_frame, positive
from .queries import (
    _CAP_BOTTOM,
    _CAP_TOP,
    _FACE,
    _KERNELS,
    _cube_kernel,
    _cylinder_kernel,
    _pierce,
    _plane_contains,
    _plane_frame,
    _plane_kernel,
    _plane_offset,
)

# Repulsion magnitude is clamped to k / D_MIN below this distance.
D_MIN = 1e-4


def _repulsion(k: float, d: float) -> float:
    """Repulsion magnitude ``k / max(d, D_MIN)`` at distance ``d``."""
    return k / max(d, D_MIN)


@dataclass(frozen=True)
class Gains:
    """Planner gains: goal attraction, default repulsion, activation radius."""

    k_attr: float = 1.0
    k_rep: float = 0.1
    activation_radius: float = 0.3

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, positive(getattr(self, f.name), f.name))


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


# ---------------------------------------------------------------------------
# Trap-correction heuristic
# ---------------------------------------------------------------------------


def _nearest_edge(rx, ry, rz, plane: RectPlane):
    """Index of the rectangle edge nearest to the robot, and the robot's
    side of it.

    Edge k runs from corner k + 1 to corner k + 2 (1-based, corner 4 to
    corner 1 for k = 3).  With h the robot's plane offset, (s, t) its foot's
    frame coordinates (the arithmetic of ``queries._plane_kernel``) and
    e_s, e_t the excess of s and t outside [0, L1] and [0, L2], the four
    distances are sqrt(h^2 + (t^2 + e_s^2)), sqrt(h^2 + ((s - L1)^2 + e_t^2)),
    sqrt(h^2 + ((t - L2)^2 + e_s^2)) and sqrt(h^2 + (s^2 + e_t^2)), the exact
    distances, up to rounding, to the edges of the rectangle that the
    orthonormal frame spans, each to the point the edge's clamp gives.  The
    inner parentheses make the two edges through a corner measure the same
    float, as their segment queries do; a tie goes to the lower-numbered
    edge.  The side is t, L1 - s, L2 - t or s for edge k: below zero when
    the foot lies beyond the edge's line, away from the rectangle.
    """
    h = _plane_offset(rx, ry, rz, plane)
    nx, ny, nz = plane._n
    s, t = _plane_frame(rx - h * nx, ry - h * ny, rz - h * nz, plane)
    l1, l2 = plane._frame[6], plane._frame[10]
    a, b = s - l1, t - l2
    es, et = max(-s, a, 0.0), max(-t, b, 0.0)
    hh, ee, ff = h * h, es * es, et * et
    d = (
        math.sqrt(hh + (t * t + ee)),
        math.sqrt(hh + (a * a + ff)),
        math.sqrt(hh + (b * b + ee)),
        math.sqrt(hh + (s * s + ff)),
    )
    k = min(range(4), key=d.__getitem__)
    return k, (t, l1 - s, l2 - t, s)[k]


def _rect_correction(rx, ry, rz, gx, gy, gz, plane: RectPlane):
    """Surface-parallel corrected direction of a rectangle, or None when the
    robot-goal stretch does not pierce it.

    The returned unit direction is the outward in-plane normal of the
    nearest edge k, read off the orthonormal frame (``RectPlane._frame``) as
    -u2, u1, u2 or -u1 for k = 0..3, which is n x u_k for u_k the edge's
    unit direction, and is flipped when the robot's foot lies beyond the
    edge's line (``_nearest_edge``'s side below zero).
    """
    hit = _pierce(rx, ry, rz, gx, gy, gz, plane.v1, plane._n)
    if hit is None:
        return None
    px, py, pz = hit
    if not _plane_contains(px, py, pz, plane):
        return None
    k, side = _nearest_edge(rx, ry, rz, plane)
    _, _, _, _, _, _, _, ax, ay, az, _, bx, by, bz = plane._frame
    if side < 0.0:
        k ^= 2  # the opposite edge's outward normal is the flipped one
    return ((-bx, -by, -bz), (ax, ay, az), (bx, by, bz), (-ax, -ay, -az))[k]


def _cap_correction(rx, ry, rz, gx, gy, gz, cyl: Cylinder, kind):
    """Surface-parallel corrected direction over a cylinder cap, or None
    when the robot-goal stretch does not pierce the cap disk.

    It applies when the closest feature is the cap ``kind``.  The direction
    is the unit radial direction from the axis to the robot, which points at
    the rim point nearest to the robot; the repulsion keeps its magnitude
    k/d.  On the axis the direction is undefined, and the first in-plane
    axis of ``axis_frame`` (angle 0) is used instead.
    """
    center = cyl.a2 if kind is _CAP_TOP else cyl.a1
    axis = cyl._axis
    hit = _pierce(rx, ry, rz, gx, gy, gz, center, axis)
    if hit is None:
        return None
    ccx, ccy, ccz = center
    dx, dy, dz = hit[0] - ccx, hit[1] - ccy, hit[2] - ccz
    R = cyl.radius
    if not dx * dx + dy * dy + dz * dz <= R * R:
        return None
    ux, uy, uz = axis
    wx, wy, wz = rx - ccx, ry - ccy, rz - ccz
    t = wx * ux + wy * uy + wz * uz
    qx, qy, qz = wx - t * ux, wy - t * uy, wz - t * uz
    qn = math.sqrt(qx * qx + qy * qy + qz * qz)
    if qn > DEGENERACY_EPS:
        return (qx / qn, qy / qn, qz / qn)
    return axis_frame(axis)[0]


_CAPS = (_CAP_TOP, _CAP_BOTTOM)


def _correction_direction(kernel, prim, kind, index, rx, ry, rz, gx, gy, gz):
    """Trap-corrected direction of a primitive's repulsion, or None.

    A rectangle's trap is the rectangle itself, a box's is the face realizing
    a FACE feature, and a cylinder's is the cap disk realizing a cap feature.
    """
    if kernel is _plane_kernel:
        return _rect_correction(rx, ry, rz, gx, gy, gz, prim)
    if kernel is _cube_kernel and kind is _FACE:
        return _rect_correction(rx, ry, rz, gx, gy, gz, prim.faces[index[0] - 1])
    if kernel is _cylinder_kernel and kind in _CAPS:
        return _cap_correction(rx, ry, rz, gx, gy, gz, prim, kind)
    return None


def obstacle_force_term(rx, ry, rz, gx, gy, gz, prim, k, activation, correction):
    """Scalar repulsion of one primitive, obstacle or boundary wall.

    Returns (fx, fy, fz, distance).  The force is zero at or beyond the
    activation radius and at a non-positive distance, a contact, which the
    simulator decides from the same distance.  Otherwise it has magnitude
    :func:`_repulsion` along the closest feature's direction, or, with
    ``correction`` on and the robot-goal stretch piercing the primitive's
    trap (a rectangle, a box face or a cap disk), along the surface-parallel
    corrected direction.  The kernel's ``DegenerateVector`` is the one
    exception it raises.  ``prim``'s type is not checked here: it was
    checked once, where its ``Obstacle`` or ``Scene`` wall was built.
    """
    kernel = _KERNELS[type(prim)]
    kern = kernel(rx, ry, rz, prim)
    d = kern[0]
    if d <= 0.0 or d >= activation:
        return 0.0, 0.0, 0.0, d
    ux, uy, uz = kern[1], kern[2], kern[3]
    if correction:
        corr = _correction_direction(kernel, prim, kern[7], kern[8], rx, ry, rz, gx, gy, gz)
        if corr is not None:
            ux, uy, uz = corr
    mag = _repulsion(k, d)
    return mag * ux, mag * uy, mag * uz, d
