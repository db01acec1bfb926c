"""Sphere-cloud baselines: spherization and the PF / CF force laws.

Non-sphere primitives are approximated by tangent spheres of a fixed radius
placed at pitch ``2 r`` over the primitive (along segments, as grids over
rectangles and box faces, as rings plus cap disks for cylinders).  The
baseline planners then repel from every sphere: PF radially, CF with a
circulatory term perpendicular to the current velocity.

:func:`sphere_cloud` builds a primitive's cloud as ``(cx, cy, cz, r)`` float
records with scalar arithmetic.  The planners keep one block of records per
obstacle, in scene order, built once at its base position, and each block
is queried at the robot minus its obstacle's offset, as GeoPF queries a
primitive: :func:`_near_spheres` is the one loop over a cloud that both
force laws share.  A robot inside a sphere is pushed out radially at the
clamped magnitude; one at a centre skips that sphere.
"""

from dataclasses import dataclass, fields
import math

import numpy as np

from .forces import _repulsion
from .primitives import (
    DEGENERACY_EPS,
    CUBE_FACE_CORNERS,
    Cube,
    Cylinder,
    Primitive,
    RectPlane,
    Segment,
    Sphere,
    axis_frame,
    norm3,
    positive,
)

# Velocity below this is treated as standstill by the circulatory field.
CF_VELOCITY_EPS = 1e-6


@dataclass(frozen=True)
class SpherizationParams:
    """Approximation sphere radius and the repulsion gain attached to it."""

    radius: float = 0.01
    k_rep: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, positive(getattr(self, f.name), f.name))


def _steps(a, b, pitch) -> list:
    """Offsets ``(i / (n - 1)) * (b - a)``, ``i = 0 .. n - 1``, for points
    at most ``pitch`` apart from ``a`` to ``b``, both ends included."""
    ex, ey, ez = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    n = max(int(math.ceil(norm3(ex, ey, ez) / pitch)), 1) + 1
    return [(t * ex, t * ey, t * ez) for t in (i / (n - 1) for i in range(n))]


def _line_points(a, b, pitch) -> list:
    ax, ay, az = a
    return [(ax + dx, ay + dy, az + dz) for dx, dy, dz in _steps(a, b, pitch)]


def _records(points, offsets, r) -> list:
    """Records of radius ``r`` at every point plus every offset, point by point."""
    return [(x + dx, y + dy, z + dz, r) for x, y, z in points for dx, dy, dz in offsets]


def _circle(rho, r, b1, b2) -> list:
    """Offsets ``rho * (cos(a) * b1 + sin(a) * b2)`` at ``m`` equal angles
    ``a``, enough for tangent spheres of radius ``r`` around the circle of
    radius ``rho``."""
    (b1x, b1y, b1z), (b2x, b2y, b2z) = b1, b2
    m = max(int(math.ceil(math.pi * rho / r)), 3)
    offsets = []
    for i in range(m):
        a = 2.0 * math.pi * i / m
        c, s = math.cos(a), math.sin(a)
        offsets.append(
            (rho * (c * b1x + s * b2x), rho * (c * b1y + s * b2y), rho * (c * b1z + s * b2z))
        )
    return offsets


def _dedup(records) -> list:
    """First record of each centre, centres compared rounded to 1e-9 m by
    numpy's rounding (Python's ``round`` can round differently)."""
    seen = set()
    out = []
    for rec, key in zip(records, np.round(np.array(records), 9).tolist()):
        key = tuple(key)
        if key not in seen:
            seen.add(key)
            out.append(rec)
    return out


def sphere_cloud(prim: Primitive, params: SpherizationParams) -> list:
    """The tangent spheres approximating a primitive, as ``(cx, cy, cz, r)``
    float records; a sphere is its own one-record cloud.

    Non-sphere primitives get spheres of ``params.radius`` at pitch
    ``2 * radius``, and every surface point lies within
    ``radius * sqrt(2)`` of some centre.  The planners keep one list of
    these records per obstacle.
    """
    r = params.radius
    pitch = 2.0 * r
    if isinstance(prim, Sphere):
        return [prim.bounding_sphere]
    if isinstance(prim, Segment):
        return [(x, y, z, r) for x, y, z in _line_points(prim.p1, prim.p2, pitch)]
    if isinstance(prim, RectPlane):
        v1, v2, _, v4 = prim.corners
        return _records(_line_points(v1, v2, pitch), _steps(v1, v4, pitch), r)
    if isinstance(prim, Cube):
        vs = [getattr(prim, f.name) for f in fields(prim)]
        out = []
        for a, b, _, d in CUBE_FACE_CORNERS:
            out.extend(_records(_line_points(vs[a], vs[b], pitch), _steps(vs[a], vs[d], pitch), r))
        return _dedup(out)
    if isinstance(prim, Cylinder):
        b1, b2 = axis_frame(prim._axis)
        R = prim.radius
        wall = _circle(R, r, b1, b2)
        out = _records(_line_points(prim.a1, prim.a2, pitch), wall, r)
        # Cap disks as polar grids: the center, rings at radial pitch, the rim.
        disk = []
        rho = pitch
        while rho < R:
            disk.extend(_circle(rho, r, b1, b2))
            rho += pitch
        disk.extend(wall)
        for cap in (prim.a1, prim.a2):
            out.append((*cap, r))
            out.extend(_records([cap], disk, r))
        return _dedup(out)
    raise TypeError(f"unsupported primitive type: {type(prim).__name__}")


def _near_spheres(rx, ry, rz, cloud, offsets, k, act):
    """``(dx, dy, dz, wn, mag)`` of every sphere nearer than ``act``, in
    cloud order: the robot minus the centre, its length and the repulsion
    magnitude :func:`~geopf.forces._repulsion` at the surface distance ``d``.

    ``cloud`` holds one block of base records per obstacle, in scene order,
    zipped with ``offsets``: each block is queried at the robot minus its
    obstacle's offset, shifted once per block.  A sphere the robot is inside
    (``d <= 0``) is kept, unless the robot is at its centre, where the
    repulsion has no direction.
    """
    near = []
    for records, (ox, oy, oz) in zip(cloud, offsets):
        sx, sy, sz = rx - ox, ry - oy, rz - oz
        for cx, cy, cz, r in records:
            dx = sx - cx
            dy = sy - cy
            dz = sz - cz
            wn = math.sqrt(dx * dx + dy * dy + dz * dz)
            d = wn - r
            if d >= act:
                continue
            if wn <= DEGENERACY_EPS:
                continue
            near.append((dx, dy, dz, wn, _repulsion(k, d)))
    return near


def _sphere_terms(rx, ry, rz, cloud, offsets, k, act):
    """Radial repulsion summed over the spheres of :func:`_near_spheres`."""
    fx = fy = fz = 0.0
    for dx, dy, dz, wn, mag in _near_spheres(rx, ry, rz, cloud, offsets, k, act):
        scale = mag / wn
        fx += dx * scale
        fy += dy * scale
        fz += dz * scale
    return fx, fy, fz


def _cf_terms(rx, ry, rz, vx, vy, vz, cloud, offsets, k, act):
    """Circulatory repulsion summed over the spheres of :func:`_near_spheres`:
    per sphere a force along normalize(v x B) with
    B = normalize((robot - center) x v); radial fallback when degenerate."""
    fx = fy = fz = 0.0
    speed2 = vx * vx + vy * vy + vz * vz
    moving = speed2 >= CF_VELOCITY_EPS * CF_VELOCITY_EPS
    for dx, dy, dz, wn, mag in _near_spheres(rx, ry, rz, cloud, offsets, k, act):
        if moving:
            bx = dy * vz - dz * vy
            by = dz * vx - dx * vz
            bz = dx * vy - dy * vx
            bn = math.sqrt(bx * bx + by * by + bz * bz)
            if bn > DEGENERACY_EPS:
                bx, by, bz = bx / bn, by / bn, bz / bn
                tx = vy * bz - vz * by
                ty = vz * bx - vx * bz
                tz = vx * by - vy * bx
                tn = math.sqrt(tx * tx + ty * ty + tz * tz)
                if tn > DEGENERACY_EPS:
                    scale = mag / tn
                    fx += tx * scale
                    fy += ty * scale
                    fz += tz * scale
                    continue
        # Standstill or degenerate cross product: radial repulsion.
        scale = mag / wn
        fx += dx * scale
        fy += dy * scale
        fz += dz * scale
    return fx, fy, fz
