"""Sphere-cloud baselines: spherization and the PF / CF force laws.

Non-sphere primitives are approximated by tangent spheres of a fixed radius
placed at pitch ``2 r`` over the primitive (along segments, as grids over
rectangles and box faces, as rings plus cap disks for cylinders).  The
baseline planners then repel from every sphere: PF radially, CF with a
circulatory term perpendicular to the current velocity.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import CollisionSignal
from .forces import D_MIN, Gains, attractive_force
from .primitives import (
    Cube,
    Cylinder,
    Primitive,
    RectPlane,
    Segment,
    Sphere,
    as_vec3,
    axis_frame,
)

# Velocity below this is treated as standstill by the circulatory field.
CF_VELOCITY_EPS = 1e-6


@dataclass(frozen=True)
class SpherizationParams:
    """Approximation sphere radius and the repulsion gain attached to it."""

    radius: float = 0.01
    k_rep: float = 1.0

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("spherization radius must be > 0")
        if self.k_rep <= 0:
            raise ValueError("spherization k_rep must be > 0")


def _line_points(p1, p2, pitch):
    length = float(np.linalg.norm(p2 - p1))
    n = max(int(math.ceil(length / pitch)), 1) + 1
    return [p1 + (i / (n - 1)) * (p2 - p1) for i in range(n)]


def _grid_points(origin, e1, e2, pitch):
    l1 = float(np.linalg.norm(e1))
    l2 = float(np.linalg.norm(e2))
    n1 = max(int(math.ceil(l1 / pitch)), 1) + 1
    n2 = max(int(math.ceil(l2 / pitch)), 1) + 1
    pts = []
    for i in range(n1):
        a = origin + (i / (n1 - 1)) * e1
        for j in range(n2):
            pts.append(a + (j / (n2 - 1)) * e2)
    return pts


def _dedup(points):
    seen = set()
    out = []
    for p in points:
        key = (round(p[0], 9), round(p[1], 9), round(p[2], 9))
        if key not in seen:
            seen.add(key)
            out.append(p)
    return out


def spherize(prim: Primitive, params: SpherizationParams) -> list:
    """Approximate a primitive by tangent spheres at pitch ``2 * radius``.

    Spheres pass through unchanged.  Every surface point of the primitive
    lies within ``radius * sqrt(2)`` of some returned center.
    """
    r = params.radius
    pitch = 2.0 * r
    if isinstance(prim, Sphere):
        return [prim]
    if isinstance(prim, Segment):
        return [Sphere(p, r) for p in _line_points(prim.p1, prim.p2, pitch)]
    if isinstance(prim, RectPlane):
        e1 = prim.v2 - prim.v1
        e2 = prim.v4 - prim.v1
        return [Sphere(p, r) for p in _grid_points(prim.v1, e1, e2, pitch)]
    if isinstance(prim, Cube):
        pts = []
        for face in prim.faces:
            pts.extend(_grid_points(face.v1, face.v2 - face.v1, face.v4 - face.v1, pitch))
        return [Sphere(p, r) for p in _dedup(pts)]
    if isinstance(prim, Cylinder):
        b1, b2 = map(np.array, axis_frame(prim._axis))
        R = prim.radius
        n_circ = max(int(math.ceil(math.pi * R / r)), 3)
        angles = [2.0 * math.pi * i / n_circ for i in range(n_circ)]
        ring = [math.cos(a) * b1 + math.sin(a) * b2 for a in angles]
        pts = []
        for c in _line_points(prim.a1, prim.a2, pitch):
            pts.extend(c + R * d for d in ring)
        # Cap disks as polar grids (center point, rings at radial pitch, rim).
        radii = [0.0]
        rho = pitch
        while rho < R:
            radii.append(rho)
            rho += pitch
        radii.append(R)
        for cap in (prim.a1, prim.a2):
            for rho in radii:
                if rho == 0.0:
                    pts.append(cap.copy())
                    continue
                m = max(int(math.ceil(math.pi * rho / r)), 3)
                for i in range(m):
                    a = 2.0 * math.pi * i / m
                    pts.append(cap + rho * (math.cos(a) * b1 + math.sin(a) * b2))
        return [Sphere(p, r) for p in _dedup(pts)]
    raise TypeError(f"unsupported primitive type: {type(prim).__name__}")


def _sphere_terms(rx, ry, rz, flat, k, act, on_penetration):
    """Radial repulsion accumulated over a flattened sphere list."""
    fx = fy = fz = 0.0
    for i in range(0, len(flat), 4):
        cx, cy, cz, r = flat[i], flat[i + 1], flat[i + 2], flat[i + 3]
        dx, dy, dz = rx - cx, ry - cy, rz - cz
        wn = math.sqrt(dx * dx + dy * dy + dz * dz)
        d = wn - r
        if d >= act:
            continue
        if d <= 0.0 and on_penetration == "raise":
            raise CollisionSignal(f"sphere[{i // 4}]", d)
        if wn <= 1e-12:
            continue  # clamp mode, robot at a sphere center: no direction
        scale = (k / max(d, D_MIN)) / wn
        fx += dx * scale
        fy += dy * scale
        fz += dz * scale
    return fx, fy, fz


def _cf_terms(rx, ry, rz, vx, vy, vz, flat, k, act, on_penetration):
    """Circulatory repulsion: per sphere a force along normalize(v x B) with
    B = normalize((robot - center) x v); radial fallback when degenerate."""
    fx = fy = fz = 0.0
    speed2 = vx * vx + vy * vy + vz * vz
    moving = speed2 >= CF_VELOCITY_EPS * CF_VELOCITY_EPS
    for i in range(0, len(flat), 4):
        cx, cy, cz, r = flat[i], flat[i + 1], flat[i + 2], flat[i + 3]
        dx, dy, dz = rx - cx, ry - cy, rz - cz
        wn = math.sqrt(dx * dx + dy * dy + dz * dz)
        d = wn - r
        if d >= act:
            continue
        if d <= 0.0 and on_penetration == "raise":
            raise CollisionSignal(f"sphere[{i // 4}]", d)
        if wn <= 1e-12:
            continue
        mag = k / max(d, D_MIN)
        if moving:
            bx = dy * vz - dz * vy
            by = dz * vx - dx * vz
            bz = dx * vy - dy * vx
            bn = math.sqrt(bx * bx + by * by + bz * bz)
            if bn > 1e-12:
                bx, by, bz = bx / bn, by / bn, bz / bn
                tx = vy * bz - vz * by
                ty = vz * bx - vx * bz
                tz = vx * by - vy * bx
                tn = math.sqrt(tx * tx + ty * ty + tz * tz)
                if tn > 1e-12:
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


def _flatten(spheres) -> list:
    flat = []
    for s in spheres:
        cx, cy, cz = s._c
        flat.extend((cx, cy, cz, s.radius))
    return flat


def pf_force(robot, goal, spheres, gains: Gains) -> np.ndarray:
    """Potential-field force: goal attraction plus radial sphere repulsion.

    Raises:
        CollisionSignal: when the robot is inside any sphere.
    """
    r = as_vec3(robot)
    g = as_vec3(goal)
    fx, fy, fz = _sphere_terms(
        float(r[0]),
        float(r[1]),
        float(r[2]),
        _flatten(spheres),
        gains.k_rep,
        gains.activation_radius,
        "raise",
    )
    return attractive_force(r, g, gains) + np.array((fx, fy, fz))


def cf_force(robot, velocity, goal, spheres, gains: Gains) -> np.ndarray:
    """Circulatory-field force: attraction plus velocity-crossed repulsion.

    Reduces to :func:`pf_force` when the velocity is (near) zero.

    Raises:
        CollisionSignal: when the robot is inside any sphere.
    """
    r = as_vec3(robot)
    v = as_vec3(velocity)
    g = as_vec3(goal)
    fx, fy, fz = _cf_terms(
        float(r[0]),
        float(r[1]),
        float(r[2]),
        float(v[0]),
        float(v[1]),
        float(v[2]),
        _flatten(spheres),
        gains.k_rep,
        gains.activation_radius,
        "raise",
    )
    return attractive_force(r, g, gains) + np.array((fx, fy, fz))
