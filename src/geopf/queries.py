"""Closest-feature proximity queries between a point robot and the primitives.

Every query returns the shortest distance, the unit repulsion direction, the
closest point on the primitive (the perpendicular foot for orthogonal cases)
and a classification of the feature realizing the minimum (face interior,
edge, vertex, curved wall, cap, ...).

The math lives in private scalar kernels operating on the float records
each primitive computes on construction; they are shared by
:func:`closest_feature` and :func:`distance`, the force generators and the
simulator's per-step instrumentation, so all consumers see identical
values.  ``_kernel_for`` maps each primitive type to its kernel.
Distances are positive outside a primitive, zero on its surface and negative
(penetration depth) inside volumetric primitives.

A rectangle is one clamp in its own orthonormal frame (``RectPlane._frame``),
the box clamp in two dimensions: the robot's foot's coordinates (s, t) along
u1 and u2 = u1 x n from corner v1 (``_plane_frame``) are clamped to
[0, L1] x [0, L2], and the distance is measured to the clamped point, the
exact nearest point, up to rounding, of the rectangle the frame spans.  None
clamped, the foot is the closest point (ORTHOGONAL); one, an EDGE; both, a
corner.  Reference: Ericson, *Real-Time Collision Detection*, 2004, section
5.1.  ``_plane_contains`` is the same frame test, on the same rectangle.
``_pierce`` finds where a straight move crosses a plane; with the frame test
it tells the simulator's crossing check and the trap correction whether a
rectangle was pierced.

A box is one clamp in its own frame (``Cube._frame``): the robot's
coordinates along the three edge axes from corner v1 are clamped to the
box's extents, and the distance is measured to the clamped point.  How many
coordinates were clamped names the feature: none, the robot is inside and
the nearest face gives the negative depth; one, a FACE at the coordinate's
excess; two, an EDGE; three, a corner.  Reference: Ericson, *Real-Time
Collision Detection*, 2004, section 5.1.4.

A capped cylinder first decides the feature from the robot's axial
coordinate t and its distance from the axis: near the axis, the nearer cap
(a pure axial result); past a cap and beside the wall, that end's rim;
between the caps beside the wall, or inside and nearest the wall, the curved
wall; otherwise a cap.  Each feature then has one result, shared by the
robot outside and the robot inside, where the distance is the negative depth.
"""

from dataclasses import dataclass
from enum import Enum
import math

import numpy as np

from .errors import DegenerateVector
from .primitives import (
    DEGENERACY_EPS,
    Cube,
    Cylinder,
    Primitive,
    RectPlane,
    Segment,
    Sphere,
    as_vec3,
)

# Near-axis criterion for cylinders: when the unit vector from the axis base
# to the robot differs from the axis direction by less than this norm, the
# radial direction is unreliable and the query falls back to a pure axial
# force.
CYLINDER_AXIS_TOL = 1e-2
_CYL_AXIS_TOL_SQ = CYLINDER_AXIS_TOL * CYLINDER_AXIS_TOL


class FeatureKind(Enum):
    """Classification of the surface feature realizing a closest-point query."""

    ORTHOGONAL = "orthogonal"
    SIDE_VERTEX_1 = "side_vertex_1"
    SIDE_VERTEX_2 = "side_vertex_2"
    FACE = "face"
    EDGE = "edge"
    CURVED_SURFACE = "curved_surface"
    CAP_TOP = "cap_top"  # the cap at the a2 end of the axis
    CAP_BOTTOM = "cap_bottom"  # the cap at the a1 end


# The kernels and the trap correction read each kind as a module global, not
# as a class attribute: on Python 3.11.7 (2-core x86-64 VM) a function
# returning ``FeatureKind.FACE`` took 119 ns a call, one returning a module
# global 25 ns, and every kernel return names a kind.  Callers receive the
# same enum members.
_ORTHOGONAL = FeatureKind.ORTHOGONAL
_SIDE_VERTEX_1 = FeatureKind.SIDE_VERTEX_1
_SIDE_VERTEX_2 = FeatureKind.SIDE_VERTEX_2
_FACE = FeatureKind.FACE
_EDGE = FeatureKind.EDGE
_CURVED_SURFACE = FeatureKind.CURVED_SURFACE
_CAP_TOP = FeatureKind.CAP_TOP
_CAP_BOTTOM = FeatureKind.CAP_BOTTOM


@dataclass(frozen=True)
class ClosestFeature:
    """Result of a proximity query.

    Attributes:
        distance: shortest distance in metres; negative means penetration.
        direction: unit repulsion direction (away from the primitive).
        foot: closest point on the primitive surface.
        feature: feature classification.
        index: feature payload -- face number for FACE, 1-based corner ids
            for EDGE and the SIDE_VERTEX kinds on rectangles/cubes, empty
            otherwise.
    """

    distance: float
    direction: np.ndarray
    foot: np.ndarray
    feature: FeatureKind
    index: tuple = ()


def _wrap(raw) -> ClosestFeature:
    d, dx, dy, dz, fx, fy, fz, kind, index = raw
    return ClosestFeature(
        distance=d,
        direction=np.array((dx, dy, dz)),
        foot=np.array((fx, fy, fz)),
        feature=kind,
        index=index,
    )


# ---------------------------------------------------------------------------
# Scalar kernels.  Each returns
#   (distance, dir_x, dir_y, dir_z, foot_x, foot_y, foot_z, kind, index)
# ---------------------------------------------------------------------------


def _sphere_kernel(rx, ry, rz, sph: Sphere):
    cx, cy, cz = sph.center
    wx, wy, wz = rx - cx, ry - cy, rz - cz
    wn = math.sqrt(wx * wx + wy * wy + wz * wz)
    if wn <= DEGENERACY_EPS:
        raise DegenerateVector("robot coincides with sphere center")
    r = sph.radius
    ux, uy, uz = wx / wn, wy / wn, wz / wn
    return (
        wn - r,
        ux,
        uy,
        uz,
        cx + r * ux,
        cy + r * uy,
        cz + r * uz,
        _ORTHOGONAL,
        (),
    )


def _segment_kernel(rx, ry, rz, seg: Segment):
    ax, ay, az = seg.p1
    ux, uy, uz = seg._u
    wx, wy, wz = rx - ax, ry - ay, rz - az
    t = wx * ux + wy * uy + wz * uz
    if t < 0.0:
        d = math.sqrt(wx * wx + wy * wy + wz * wz)
        if d <= DEGENERACY_EPS:
            raise DegenerateVector("robot lies on a segment end")
        return (d, wx / d, wy / d, wz / d, ax, ay, az, _SIDE_VERTEX_1, ())
    if t > seg.length:
        bx, by, bz = seg.p2
        wx, wy, wz = rx - bx, ry - by, rz - bz
        d = math.sqrt(wx * wx + wy * wy + wz * wz)
        if d <= DEGENERACY_EPS:
            raise DegenerateVector("robot lies on a segment end")
        return (d, wx / d, wy / d, wz / d, bx, by, bz, _SIDE_VERTEX_2, ())
    fx, fy, fz = ax + t * ux, ay + t * uy, az + t * uz
    qx, qy, qz = rx - fx, ry - fy, rz - fz
    d = math.sqrt(qx * qx + qy * qy + qz * qz)
    if d <= DEGENERACY_EPS:
        raise DegenerateVector("robot lies on the segment")
    return (d, qx / d, qy / d, qz / d, fx, fy, fz, _ORTHOGONAL, ())


def _plane_offset(rx, ry, rz, plane: RectPlane):
    nx, ny, nz = plane._n
    v1x, v1y, v1z = plane.v1
    return (rx - v1x) * nx + (ry - v1y) * ny + (rz - v1z) * nz


def _plane_frame(fx, fy, fz, plane: RectPlane):
    """Coordinates (s, t) of a point on the supporting plane in the
    rectangle's own orthonormal frame (``RectPlane._frame``): with v1 the
    first corner, u1 the first edge's unit direction and u2 = u1 x n,
    s = (f - v1).u1 and t = (f - v1).u2.
    """
    ox, oy, oz, _, _, _, _, ux, uy, uz, _, vx, vy, vz = plane._frame
    wx, wy, wz = fx - ox, fy - oy, fz - oz
    return wx * ux + wy * uy + wz * uz, wx * vx + wy * vy + wz * vz


def _plane_contains(fx, fy, fz, plane: RectPlane) -> bool:
    """Whether a point on the supporting plane lies in the closed rectangle:
    its frame coordinates (``_plane_frame``) lie in [0, L1] x [0, L2], L1
    and L2 being the first two edges' lengths (``_frame[6]`` and
    ``_frame[10]``): the rectangle the kernel measures.  The boundary is
    inclusive.
    """
    s, t = _plane_frame(fx, fy, fz, plane)
    frame = plane._frame
    return 0.0 <= s <= frame[6] and 0.0 <= t <= frame[10]


def _pierce(px, py, pz, qx, qy, qz, origin, normal):
    """Point where the straight move p -> q crosses the plane through
    ``origin`` with unit ``normal``, or None.

    The crossing is strict: p and q lie on opposite sides and neither lies
    on the plane.  ``origin`` and ``normal`` are float triples.
    """
    ox, oy, oz = origin
    nx, ny, nz = normal
    o0 = (px - ox) * nx + (py - oy) * ny + (pz - oz) * nz
    o1 = (qx - ox) * nx + (qy - oy) * ny + (qz - oz) * nz
    if o0 == 0.0 or o1 == 0.0 or (o0 > 0.0) == (o1 > 0.0):
        return None
    t = o0 / (o0 - o1)
    return (px + t * (qx - px), py + t * (qy - py), pz + t * (qz - pz))


# Feature kind and payload of the nearest boundary point outside a rectangle,
# by i + 3 j, i and j being 0 below, 1 within and 2 above [0, L1] and [0, L2]
# for s and t; (1, 1) is the inside.  An edge carries its corner-id pair
# (1-based), and a corner is the end of the lower-numbered edge through it,
# SIDE_VERTEX_1 at its first corner and SIDE_VERTEX_2 at its second.
_RECT_FEATURES = (
    (_SIDE_VERTEX_1, (1,)), (_EDGE, (1, 2)), (_SIDE_VERTEX_2, (2,)),
    (_EDGE, (4, 1)), None, (_EDGE, (2, 3)),
    (_SIDE_VERTEX_2, (4,)), (_EDGE, (3, 4)), (_SIDE_VERTEX_2, (3,)),
)


def _plane_kernel(rx, ry, rz, plane: RectPlane):
    # ``_plane_offset`` and ``_plane_frame`` inlined, in their order: calling
    # them cost about half of the clamp's gain in the p95 step.
    ox, oy, oz, nx, ny, nz, l1, ax, ay, az, l2, bx, by, bz = plane._frame
    off = (rx - ox) * nx + (ry - oy) * ny + (rz - oz) * nz
    fx, fy, fz = rx - off * nx, ry - off * ny, rz - off * nz
    wx, wy, wz = fx - ox, fy - oy, fz - oz
    s = wx * ax + wy * ay + wz * az
    t = wx * bx + wy * by + wz * bz
    # Clamp (s, t) to [0, L1] x [0, L2]; i + j indexes ``_RECT_FEATURES``.
    if s < 0.0:
        cs, i = 0.0, 0
    elif s > l1:
        cs, i = l1, 2
    else:
        cs, i = s, 1
    if t < 0.0:
        ct, j = 0.0, 0
    elif t > l2:
        ct, j = l2, 6
    elif i == 1:
        # Inside: the foot itself.
        if off >= 0.0:  # sign(0) defaults to the stored normal
            return (off, nx, ny, nz, fx, fy, fz, _ORTHOGONAL, ())
        return (-off, -nx, -ny, -nz, fx, fy, fz, _ORTHOGONAL, ())
    else:
        ct, j = t, 3
    qx = ox + cs * ax + ct * bx
    qy = oy + cs * ay + ct * by
    qz = oz + cs * az + ct * bz
    dx, dy, dz = rx - qx, ry - qy, rz - qz
    d = math.sqrt(dx * dx + dy * dy + dz * dz)
    if d <= DEGENERACY_EPS:
        # The robot touches the boundary, its foot outside: a contact at
        # distance zero, along the normal on the robot's side.
        if off < 0.0:
            nx, ny, nz = -nx, -ny, -nz
        return (0.0, nx, ny, nz, fx, fy, fz, _ORTHOGONAL, ())
    kind, index = _RECT_FEATURES[i + j]
    return (d, dx / d, dy / d, dz / d, qx, qy, qz, kind, index)


# The box's frame axes are v1->v2, v1->v4 and v1->v5 (``Cube._frame``).
# Face payloads (1-based, ``CUBE_FACE_CORNERS`` numbering) of the faces below
# and above the box along axis k, at 2 k and 2 k + 1.
_CUBE_FACES = ((6,), (4,), (3,), (5,), (1,), (2,))
# Corner-id pairs (1-based) of the four edges along each axis, indexed by
# b + 2 b', where b and b' are 1 at the far end of the other two axes, in
# axis order.
_CUBE_EDGES = (
    ((1, 2), (4, 3), (5, 6), (8, 7)),
    ((1, 4), (2, 3), (5, 8), (6, 7)),
    ((1, 5), (2, 6), (4, 8), (3, 7)),
)
# Corner-id payloads by b1 + 2 b2 + 4 b3, b_k being 1 at the far end of axis k.
_CUBE_CORNERS = ((1,), (2,), (4,), (3,), (5,), (6,), (8,), (7,))


def _cube_face(rx, ry, rz, d, above, ux, uy, uz, axis):
    """FACE result at distance ``d`` from the face below or above the box
    along frame axis ``axis`` (unit u), along that face's outward normal.
    A positive distance at or below 1e-12 m is a contact, reported as 0."""
    if 0.0 < d <= DEGENERACY_EPS:
        d = 0.0
    if not above:
        ux, uy, uz = -ux, -uy, -uz
    return (d, ux, uy, uz, rx - d * ux, ry - d * uy, rz - d * uz, _FACE,
            _CUBE_FACES[2 * axis + above])


def _cube_kernel(rx, ry, rz, cube: Cube):
    ox, oy, oz, l1, ax, ay, az, l2, bx, by, bz, l3, cx, cy, cz = cube._frame
    wx, wy, wz = rx - ox, ry - oy, rz - oz
    s1 = wx * ax + wy * ay + wz * az
    s2 = wx * bx + wy * by + wz * bz
    s3 = wx * cx + wy * cy + wz * cz
    # Clamp the coordinates to the box.  The residue e = s - clamp is how far
    # the robot lies below (< 0) or above (> 0) the box along each axis.
    c1 = 0.0 if s1 < 0.0 else l1 if s1 > l1 else s1
    c2 = 0.0 if s2 < 0.0 else l2 if s2 > l2 else s2
    c3 = 0.0 if s3 < 0.0 else l3 if s3 > l3 else s3
    e1, e2, e3 = s1 - c1, s2 - c2, s3 - c3
    # One clamped axis names a face, two an edge, three a corner.
    if e1 == 0.0:
        if e2 == 0.0:
            if e3 == 0.0:
                # Inside: the negative depth to the nearest face; o_k > -s_k
                # when the face above is the nearer one on axis k.
                o1, o2, o3 = max(-s1, s1 - l1), max(-s2, s2 - l2), max(-s3, s3 - l3)
                if o1 >= o2 and o1 >= o3:
                    return _cube_face(rx, ry, rz, o1, o1 > -s1, ax, ay, az, 0)
                if o2 >= o3:
                    return _cube_face(rx, ry, rz, o2, o2 > -s2, bx, by, bz, 1)
                return _cube_face(rx, ry, rz, o3, o3 > -s3, cx, cy, cz, 2)
            return _cube_face(rx, ry, rz, abs(e3), e3 > 0.0, cx, cy, cz, 2)
        if e3 == 0.0:
            return _cube_face(rx, ry, rz, abs(e2), e2 > 0.0, bx, by, bz, 1)
        index = _CUBE_EDGES[0][(e2 > 0.0) + 2 * (e3 > 0.0)]
    elif e2 == 0.0:
        if e3 == 0.0:
            return _cube_face(rx, ry, rz, abs(e1), e1 > 0.0, ax, ay, az, 0)
        index = _CUBE_EDGES[1][(e1 > 0.0) + 2 * (e3 > 0.0)]
    elif e3 == 0.0:
        index = _CUBE_EDGES[2][(e1 > 0.0) + 2 * (e2 > 0.0)]
    else:
        index = _CUBE_CORNERS[(e1 > 0.0) + 2 * (e2 > 0.0) + 4 * (e3 > 0.0)]
    # The clamped point in world coordinates, and the robot minus it.
    fx = ox + c1 * ax + c2 * bx + c3 * cx
    fy = oy + c1 * ay + c2 * by + c3 * cy
    fz = oz + c1 * az + c2 * bz + c3 * cz
    dx, dy, dz = rx - fx, ry - fy, rz - fz
    d = math.sqrt(dx * dx + dy * dy + dz * dz)
    if d <= DEGENERACY_EPS:
        # A contact at an edge or a corner: zero distance on a face the
        # robot lies past (two clamped axes include axis 1 or 2).
        if e1 != 0.0:
            return _cube_face(rx, ry, rz, 0.0, e1 > 0.0, ax, ay, az, 0)
        return _cube_face(rx, ry, rz, 0.0, e2 > 0.0, bx, by, bz, 1)
    kind = _EDGE if len(index) == 2 else _SIDE_VERTEX_1
    return (d, dx / d, dy / d, dz / d, fx, fy, fz, kind, index)


def _cylinder_kernel(rx, ry, rz, cyl: Cylinder):
    p1x, p1y, p1z = cyl.a1
    ux, uy, uz = cyl._axis
    L = cyl.length
    R = cyl.radius
    wx, wy, wz = rx - p1x, ry - p1y, rz - p1z
    t = wx * ux + wy * uy + wz * uz
    qx, qy, qz = wx - t * ux, wy - t * uy, wz - t * uz
    dperp = math.sqrt(qx * qx + qy * qy + qz * qz)

    wn = math.sqrt(wx * wx + wy * wy + wz * wz)
    near_axis = wn <= DEGENERACY_EPS or dperp <= DEGENERACY_EPS
    if not near_axis:
        # ||w/||w|| -+ axis||^2 = 2 - 2|t|/||w||
        near_axis = 2.0 - 2.0 * abs(t) / wn < _CYL_AXIS_TOL_SQ

    # Pick the feature.  A top cap sets its signed distance d here: inside
    # the volume at t == L it is -(L - t) = -0.0, elsewhere t - L = +0.0.
    if near_axis:
        # Pure axial force toward the nearer cap; negative beyond neither cap
        # means the robot sits inside on the axis.
        top, d = t >= L / 2.0, t - L
    elif t < 0.0 or t > L:
        if dperp >= R:
            # Past a cap and beside the wall: the rim point facing the robot.
            if t < 0.0:
                (ex, ey, ez), kind = cyl.a1, _SIDE_VERTEX_1
            else:
                (ex, ey, ez), kind = cyl.a2, _SIDE_VERTEX_2
            nqx, nqy, nqz = qx / dperp, qy / dperp, qz / dperp
            sx, sy, sz = ex + R * nqx, ey + R * nqy, ez + R * nqz
            dx, dy, dz = rx - sx, ry - sy, rz - sz
            d = math.sqrt(dx * dx + dy * dy + dz * dz)
            if d <= DEGENERACY_EPS:
                raise DegenerateVector("robot lies on a cylinder rim")
            return (d, dx / d, dy / d, dz / d, sx, sy, sz, kind, ())
        top, d = t > L, t - L
    elif dperp >= R or (R - dperp <= L - t and R - dperp <= t):
        # The curved wall: beside it, or the nearest feature from inside,
        # where the depth -(R - dperp) is the same float as dperp - R.
        nqx, nqy, nqz = qx / dperp, qy / dperp, qz / dperp
        fx, fy, fz = p1x + t * ux + R * nqx, p1y + t * uy + R * nqy, p1z + t * uz + R * nqz
        return (dperp - R, nqx, nqy, nqz, fx, fy, fz, _CURVED_SURFACE, ())
    else:
        # Inside, nearer a cap than the wall: the negative depth to that cap.
        top, d = L - t <= t, -(L - t)
    if top:
        return (d, ux, uy, uz, rx - d * ux, ry - d * uy, rz - d * uz, _CAP_TOP, ())
    d = -t
    return (d, -ux, -uy, -uz, rx + d * ux, ry + d * uy, rz + d * uz, _CAP_BOTTOM, ())


_KERNELS = {
    Sphere: _sphere_kernel,
    Segment: _segment_kernel,
    RectPlane: _plane_kernel,
    Cube: _cube_kernel,
    Cylinder: _cylinder_kernel,
}


def _kernel_for(prim: Primitive):
    """The scalar kernel of the primitive's type.

    Raises:
        TypeError: when ``prim`` is not one of the primitive types.
    """
    kernel = _KERNELS.get(type(prim))
    if kernel is None:
        raise TypeError(f"unsupported primitive type: {type(prim).__name__}")
    return kernel


# ---------------------------------------------------------------------------
# Public API.  Both functions hand the kernel the robot as Python floats, as
# the step loop does, so both run the same arithmetic on the same types.
# ---------------------------------------------------------------------------


def closest_feature(robot, prim: Primitive) -> ClosestFeature:
    """Closest feature of a primitive, by its type's kernel.

    - Sphere: the radial surface point.
    - Segment: the orthogonal foot when the robot's projection onto the
      segment lies within it, otherwise the nearer vertex.
    - Rectangle: one clamp in the rectangle's frame, the perpendicular foot
      when it passes the frame test (ORTHOGONAL), otherwise an EDGE or a
      corner (SIDE_VERTEX_1/2, as the lower-numbered edge through it names
      it).  A robot within 1e-12 m of the boundary, its foot outside, is a
      contact at distance 0 along the normal.
    - Box: one clamp in the box's frame, a FACE, an EDGE or a corner
      (SIDE_VERTEX_1), with the negative depth to the nearest face inside.
      A robot within 1e-12 m outside the box is a contact at distance 0.
    - Cylinder: beside the wall, the surface line facing the robot;
      radially within the wall, a cap, or inside the volume the nearest of
      wall and caps as negative depth; near the axis, a pure axial result.

    Raises:
        DegenerateVector: when the robot lies at a sphere's centre, on a
            segment or its end, or on a cylinder rim.
        TypeError: when ``prim`` is not one of the primitive types.
    """
    return _wrap(_kernel_for(prim)(*as_vec3(robot), prim))


def distance(robot, prim: Primitive) -> float:
    """Shortest distance only (negative inside volumetric primitives)."""
    return _kernel_for(prim)(*as_vec3(robot), prim)[0]
