"""Closest-feature proximity queries between a point robot and the primitives.

Every query returns the shortest distance, the unit repulsion direction, the
closest point on the primitive (the perpendicular foot for orthogonal cases)
and a classification of the feature realizing the minimum (face interior,
edge, vertex, curved wall, cap, ...).

The math lives in private scalar kernels operating on cached float tuples;
they are shared by the public API here, the force generators and the
simulator's per-step instrumentation, so all consumers see identical values.
Distances are positive outside a primitive, zero on its surface and negative
(penetration depth) inside volumetric primitives.
"""

from dataclasses import dataclass
from enum import Enum
import math

import numpy as np

from .errors import DegenerateVector
from .primitives import (
    CUBE_FACE_CORNERS,
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
    cx, cy, cz = sph._c
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
        FeatureKind.ORTHOGONAL,
        (),
    )


def _segment_kernel(rx, ry, rz, seg: Segment):
    ax, ay, az = seg._a
    ux, uy, uz = seg._u
    wx, wy, wz = rx - ax, ry - ay, rz - az
    t = wx * ux + wy * uy + wz * uz
    if t < 0.0:
        d = math.sqrt(wx * wx + wy * wy + wz * wz)
        if d <= DEGENERACY_EPS:
            raise DegenerateVector("robot lies on a segment end")
        return (d, wx / d, wy / d, wz / d, ax, ay, az, FeatureKind.SIDE_VERTEX_1, ())
    if t > seg.length:
        bx, by, bz = seg._b
        wx, wy, wz = rx - bx, ry - by, rz - bz
        d = math.sqrt(wx * wx + wy * wy + wz * wz)
        if d <= DEGENERACY_EPS:
            raise DegenerateVector("robot lies on a segment end")
        return (d, wx / d, wy / d, wz / d, bx, by, bz, FeatureKind.SIDE_VERTEX_2, ())
    fx, fy, fz = ax + t * ux, ay + t * uy, az + t * uz
    qx, qy, qz = rx - fx, ry - fy, rz - fz
    d = math.sqrt(qx * qx + qy * qy + qz * qz)
    if d <= DEGENERACY_EPS:
        raise DegenerateVector("robot lies on the segment")
    return (d, qx / d, qy / d, qz / d, fx, fy, fz, FeatureKind.ORTHOGONAL, ())


def _plane_offset(rx, ry, rz, plane: RectPlane):
    nx, ny, nz = plane._n
    v1x, v1y, v1z = plane._vs[0]
    return (rx - v1x) * nx + (ry - v1y) * ny + (rz - v1z) * nz


def _plane_inside_kernel(fx, fy, fz, plane: RectPlane) -> bool:
    """Four-indicator containment test for a point on the supporting plane.

    The indicators are the normalized cross products of successive unit
    directions from the query point to the corners; the point is inside iff
    they all share one orientation.  Points landing exactly on a corner or an
    edge count as inside.
    """
    vs = plane._vs
    nx, ny, nz = plane._n
    dirs = []
    for vx, vy, vz in vs:
        dx, dy, dz = vx - fx, vy - fy, vz - fz
        m = math.sqrt(dx * dx + dy * dy + dz * dz)
        if m <= DEGENERACY_EPS:
            return True  # on a corner: boundary is inclusive
        dirs.append((dx / m, dy / m, dz / m))
    pos = neg = False
    for i in range(4):
        ax, ay, az = dirs[i]
        bx, by, bz = dirs[(i + 1) % 4]
        cx = ay * bz - az * by
        cy = az * bx - ax * bz
        cz = ax * by - ay * bx
        if cx * cx + cy * cy + cz * cz <= 1e-24:
            # Collinear with the corner pair: on the edge iff between them.
            va, vb = vs[i], vs[(i + 1) % 4]
            between = (
                (va[0] - fx) * (vb[0] - fx)
                + (va[1] - fy) * (vb[1] - fy)
                + (va[2] - fz) * (vb[2] - fz)
            )
            return between <= 0.0
        s = cx * nx + cy * ny + cz * nz
        if s > 0.0:
            pos = True
        else:
            neg = True
        if pos and neg:
            return False
    return True


# Corner-id pairs (1-based) of rectangle edge k = 0..3.
_RECT_EDGE_IDS = ((1, 2), (2, 3), (3, 4), (4, 1))


def _plane_side_kernel(rx, ry, rz, plane: RectPlane):
    """Minimum over the four boundary edges, with corner ids in the payload."""
    best = None
    best_k = 0
    for k, edge in enumerate(plane.edges):
        res = _segment_kernel(rx, ry, rz, edge)
        if best is None or res[0] < best[0]:
            best = res
            best_k = k
    ids = _RECT_EDGE_IDS[best_k]
    kind = best[7]
    if kind is FeatureKind.ORTHOGONAL:
        return best[:7] + (FeatureKind.EDGE, ids)
    if kind is FeatureKind.SIDE_VERTEX_1:
        return best[:7] + (FeatureKind.SIDE_VERTEX_1, (ids[0],))
    return best[:7] + (FeatureKind.SIDE_VERTEX_2, (ids[1],))


def _plane_kernel(rx, ry, rz, plane: RectPlane):
    off = _plane_offset(rx, ry, rz, plane)
    nx, ny, nz = plane._n
    fx, fy, fz = rx - off * nx, ry - off * ny, rz - off * nz
    if _plane_inside_kernel(fx, fy, fz, plane):
        if off >= 0.0:  # sign(0) defaults to the stored normal
            return (off, nx, ny, nz, fx, fy, fz, FeatureKind.ORTHOGONAL, ())
        return (-off, -nx, -ny, -nz, fx, fy, fz, FeatureKind.ORTHOGONAL, ())
    return _plane_side_kernel(rx, ry, rz, plane)


def _cube_kernel(rx, ry, rz, cube: Cube):
    faces = cube.faces
    outward = cube._outward
    offs = []
    inside = True
    for face, (nx, ny, nz) in zip(faces, outward):
        v1x, v1y, v1z = face._vs[0]
        off = (rx - v1x) * nx + (ry - v1y) * ny + (rz - v1z) * nz
        offs.append(off)
        if off >= 0.0:
            inside = False
    if inside:
        # Penetration: negative depth to the nearest face, pushed out along
        # that face's outward normal.
        i = max(range(6), key=lambda k: offs[k])
        nx, ny, nz = outward[i]
        off = offs[i]
        return (
            off,
            nx,
            ny,
            nz,
            rx - off * nx,
            ry - off * ny,
            rz - off * nz,
            FeatureKind.FACE,
            (i + 1,),
        )
    # Outside: the nearest per-face result wins; the supporting-plane offset
    # is a lower bound on each face's distance, so sort to prune queries.
    order = sorted(range(6), key=lambda k: abs(offs[k]))
    best = None
    best_i = 0
    for i in order:
        if best is not None and abs(offs[i]) >= best[0]:
            break
        res = _plane_kernel(rx, ry, rz, faces[i])
        if best is None or res[0] < best[0]:
            best = res
            best_i = i
    kind = best[7]
    corner_ids = CUBE_FACE_CORNERS[best_i]
    if kind is FeatureKind.ORTHOGONAL:
        return best[:7] + (FeatureKind.FACE, (best_i + 1,))
    if kind is FeatureKind.EDGE:
        a, b = best[8]
        return best[:7] + (
            FeatureKind.EDGE,
            (corner_ids[a - 1] + 1, corner_ids[b - 1] + 1),
        )
    # Side vertex: remap the rectangle corner id to the cube corner id.
    local = best[8][0]
    return best[:7] + (kind, (corner_ids[local - 1] + 1,))


def _cylinder_kernel(rx, ry, rz, cyl: Cylinder):
    p1x, p1y, p1z = cyl._p1
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

    if near_axis:
        # Pure axial force toward the nearer cap; negative beyond neither cap
        # means the robot sits inside on the axis.
        if t >= L / 2.0:
            d = t - L
            return (
                d,
                ux,
                uy,
                uz,
                rx - d * ux,
                ry - d * uy,
                rz - d * uz,
                FeatureKind.CAP_TOP,
                (),
            )
        d = -t
        return (
            d,
            -ux,
            -uy,
            -uz,
            rx + d * ux,
            ry + d * uy,
            rz + d * uz,
            FeatureKind.CAP_BOTTOM,
            (),
        )

    if dperp >= R:
        # Beside the wall: query the surface line obtained by shifting the
        # axis to the wall along the radial direction.
        nqx, nqy, nqz = qx / dperp, qy / dperp, qz / dperp
        if t < 0.0:
            s1x, s1y, s1z = p1x + R * nqx, p1y + R * nqy, p1z + R * nqz
            dx, dy, dz = rx - s1x, ry - s1y, rz - s1z
            d = math.sqrt(dx * dx + dy * dy + dz * dz)
            if d <= DEGENERACY_EPS:
                raise DegenerateVector("robot lies on a cylinder rim")
            return (
                d,
                dx / d,
                dy / d,
                dz / d,
                s1x,
                s1y,
                s1z,
                FeatureKind.SIDE_VERTEX_1,
                (),
            )
        if t > L:
            p2x, p2y, p2z = cyl._p2
            s2x, s2y, s2z = p2x + R * nqx, p2y + R * nqy, p2z + R * nqz
            dx, dy, dz = rx - s2x, ry - s2y, rz - s2z
            d = math.sqrt(dx * dx + dy * dy + dz * dz)
            if d <= DEGENERACY_EPS:
                raise DegenerateVector("robot lies on a cylinder rim")
            return (
                d,
                dx / d,
                dy / d,
                dz / d,
                s2x,
                s2y,
                s2z,
                FeatureKind.SIDE_VERTEX_2,
                (),
            )
        fx = p1x + t * ux + R * nqx
        fy = p1y + t * uy + R * nqy
        fz = p1z + t * uz + R * nqz
        return (dperp - R, nqx, nqy, nqz, fx, fy, fz, FeatureKind.CURVED_SURFACE, ())

    # Radially within the wall: over a cap, or inside the volume.
    if t > L:
        d = t - L
        return (
            d,
            ux,
            uy,
            uz,
            rx - d * ux,
            ry - d * uy,
            rz - d * uz,
            FeatureKind.CAP_TOP,
            (),
        )
    if t < 0.0:
        d = -t
        return (
            d,
            -ux,
            -uy,
            -uz,
            rx + d * ux,
            ry + d * uy,
            rz + d * uz,
            FeatureKind.CAP_BOTTOM,
            (),
        )
    # Inside: negative depth to the nearest of wall, top cap, bottom cap.
    depth_wall = R - dperp
    depth_top = L - t
    depth_bottom = t
    if depth_wall <= depth_top and depth_wall <= depth_bottom:
        nqx, nqy, nqz = qx / dperp, qy / dperp, qz / dperp
        fx = p1x + t * ux + R * nqx
        fy = p1y + t * uy + R * nqy
        fz = p1z + t * uz + R * nqz
        return (-depth_wall, nqx, nqy, nqz, fx, fy, fz, FeatureKind.CURVED_SURFACE, ())
    if depth_top <= depth_bottom:
        d = -depth_top
        return (
            d,
            ux,
            uy,
            uz,
            rx - d * ux,
            ry - d * uy,
            rz - d * uz,
            FeatureKind.CAP_TOP,
            (),
        )
    d = -depth_bottom
    return (
        d,
        -ux,
        -uy,
        -uz,
        rx + d * ux,
        ry + d * uy,
        rz + d * uz,
        FeatureKind.CAP_BOTTOM,
        (),
    )


def _kernel_for(prim: Primitive):
    if isinstance(prim, Sphere):
        return _sphere_kernel
    if isinstance(prim, Segment):
        return _segment_kernel
    if isinstance(prim, RectPlane):
        return _plane_kernel
    if isinstance(prim, Cube):
        return _cube_kernel
    if isinstance(prim, Cylinder):
        return _cylinder_kernel
    raise TypeError(f"unsupported primitive type: {type(prim).__name__}")


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def sphere_closest(robot, sph: Sphere) -> ClosestFeature:
    """Closest feature of a sphere: always the radial surface point.

    Raises:
        DegenerateVector: when the robot coincides with the center.
    """
    r = as_vec3(robot)
    return _wrap(_sphere_kernel(r[0], r[1], r[2], sph))


def segment_closest(robot, seg: Segment) -> ClosestFeature:
    """Closest feature of a segment.

    The scalar projection t of the robot onto the segment direction decides
    the case: t within [0, length] gives the orthogonal foot, otherwise the
    nearer vertex.

    Raises:
        DegenerateVector: when the robot lies on the segment itself.
    """
    r = as_vec3(robot)
    return _wrap(_segment_kernel(r[0], r[1], r[2], seg))


def plane_normal(plane: RectPlane) -> np.ndarray:
    """Unit normal of the rectangle, oriented by the corner winding."""
    return plane.normal.copy()


def plane_foot(robot, plane: RectPlane):
    """Perpendicular foot of the robot on the supporting plane.

    Returns:
        (foot, signed_offset): the projection point and the signed distance of
        the robot along the rectangle normal.
    """
    r = as_vec3(robot)
    off = _plane_offset(r[0], r[1], r[2], plane)
    return r - off * plane.normal, off


def plane_inside(foot, plane: RectPlane) -> bool:
    """Whether a point on the supporting plane lies in the closed rectangle."""
    f = as_vec3(foot)
    return _plane_inside_kernel(f[0], f[1], f[2], plane)


def plane_closest(robot, plane: RectPlane) -> ClosestFeature:
    """Closest feature of a rectangle: foot-inside gives the orthogonal case,
    otherwise the nearest boundary edge or corner."""
    r = as_vec3(robot)
    return _wrap(_plane_kernel(r[0], r[1], r[2], plane))


def cube_closest(robot, cube: Cube) -> ClosestFeature:
    """Closest feature of a box via the minimum over its six faces.

    Inside the box the distance is the negative depth to the nearest face and
    the direction is that face's outward normal.
    """
    r = as_vec3(robot)
    return _wrap(_cube_kernel(r[0], r[1], r[2], cube))


def cylinder_closest(robot, cyl: Cylinder) -> ClosestFeature:
    """Closest feature of a capped cylinder.

    Beside the wall the query reduces to the surface line facing the robot;
    radially within the wall it resolves to a cap (or, inside the volume, to
    the nearest of wall and caps as negative depth).  Near the axis the
    radial direction is degenerate and a pure axial result is returned.
    """
    r = as_vec3(robot)
    return _wrap(_cylinder_kernel(r[0], r[1], r[2], cyl))


def closest_feature(robot, prim: Primitive) -> ClosestFeature:
    """Dispatch to the closest-feature query for the primitive's type."""
    r = as_vec3(robot)
    return _wrap(_kernel_for(prim)(r[0], r[1], r[2], prim))


def distance(robot, prim: Primitive) -> float:
    """Shortest distance only (negative inside volumetric primitives)."""
    r = as_vec3(robot)
    return _kernel_for(prim)(r[0], r[1], r[2], prim)[0]
