"""Shared test oracles, independent of the package's analytic query path.

The distance oracle densely samples primitive surfaces and takes the
nearest-neighbor distance through a KD-tree.  Containment tests and the
rectangle distance oracle work in local coordinate frames with numpy
vectors and corner-relative coordinates, independently of the package's
scalar kernels.  The paper's four-indicator rectangle test is kept in
``test_queries.py`` as a second reference.
"""

import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from geopf import Cube, Cylinder, RectPlane, Segment, Sphere


# ---------------------------------------------------------------------------
# Dense surface sampling
# ---------------------------------------------------------------------------


def fibonacci_sphere(center, radius, pitch):
    """Quasi-uniform sphere surface samples with spacing below ``pitch``."""
    n = max(int(math.ceil(8.0 * math.pi * radius * radius / (pitch * pitch))), 64)
    i = np.arange(n)
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, 1.0))
    pts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    return np.asarray(center) + radius * pts


def sample_segment_surface(seg: Segment, pitch):
    n = max(int(math.ceil(float(np.linalg.norm(np.subtract(seg.p2, seg.p1))) / pitch)), 1) + 1
    t = np.linspace(0.0, 1.0, n)[:, None]
    return np.asarray(seg.p1) + t * (np.asarray(seg.p2) - np.asarray(seg.p1))


def sample_rect_surface(rect: RectPlane, pitch):
    e1 = np.asarray(rect.v2) - np.asarray(rect.v1)
    e2 = np.asarray(rect.v4) - np.asarray(rect.v1)
    n1 = max(int(math.ceil(np.linalg.norm(e1) / pitch)), 1) + 1
    n2 = max(int(math.ceil(np.linalg.norm(e2) / pitch)), 1) + 1
    u = np.linspace(0.0, 1.0, n1)
    v = np.linspace(0.0, 1.0, n2)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    return (
        np.asarray(rect.v1)[None, :]
        + uu.reshape(-1, 1) * e1[None, :]
        + vv.reshape(-1, 1) * e2[None, :]
    )


def sample_cube_surface(cube: Cube, pitch):
    return np.concatenate([sample_rect_surface(f, pitch) for f in cube.faces])


def sample_cylinder_surface(cyl: Cylinder, pitch):
    a1 = np.asarray(cyl.a1)
    a2 = np.asarray(cyl.a2)
    axis = (a2 - a1) / np.linalg.norm(a2 - a1)
    seed = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    b1 = seed - (seed @ axis) * axis
    b1 /= np.linalg.norm(b1)
    b2 = np.cross(axis, b1)
    length = float(np.linalg.norm(a2 - a1))
    R = cyl.radius
    pts = []
    n_ax = max(int(math.ceil(length / pitch)), 1) + 1
    n_c = max(int(math.ceil(2.0 * math.pi * R / pitch)), 8)
    ang = np.linspace(0.0, 2.0 * math.pi, n_c, endpoint=False)
    ring = np.cos(ang)[:, None] * b1[None, :] + np.sin(ang)[:, None] * b2[None, :]
    for t in np.linspace(0.0, 1.0, n_ax):
        pts.append(a1 + t * (a2 - a1) + R * ring)
    radii = np.arange(0.0, R, pitch).tolist() + [R]
    for cap in (a1, a2):
        for rho in radii:
            if rho == 0.0:
                pts.append(cap[None, :])
                continue
            m = max(int(math.ceil(2.0 * math.pi * rho / pitch)), 6)
            a = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
            pts.append(cap + rho * (np.cos(a)[:, None] * b1 + np.sin(a)[:, None] * b2))
    return np.concatenate(pts)


def sample_surface(prim, pitch):
    if isinstance(prim, Sphere):
        if prim.radius == 0.0:
            return np.asarray(prim.center)[None, :]
        return fibonacci_sphere(prim.center, prim.radius, pitch)
    if isinstance(prim, Segment):
        return sample_segment_surface(prim, pitch)
    if isinstance(prim, RectPlane):
        return sample_rect_surface(prim, pitch)
    if isinstance(prim, Cube):
        return sample_cube_surface(prim, pitch)
    if isinstance(prim, Cylinder):
        return sample_cylinder_surface(prim, pitch)
    raise TypeError(type(prim))


class SampledOracle:
    """Nearest sampled-surface-point distance via a KD-tree."""

    def __init__(self, prim, pitch):
        self.tree = cKDTree(sample_surface(prim, pitch))

    def distance(self, points):
        d, _ = self.tree.query(np.atleast_2d(points))
        return d


# ---------------------------------------------------------------------------
# Frame-based containment and rectangle distance (independent formulations)
# ---------------------------------------------------------------------------


def point_inside(prim, p) -> bool:
    """Interior test in the primitive's own frame (zero-measure types: False)."""
    p = np.asarray(p, dtype=float)
    if isinstance(prim, Sphere):
        return np.linalg.norm(p - prim.center) < prim.radius
    if isinstance(prim, (Segment, RectPlane)):
        return False
    if isinstance(prim, Cube):
        v1 = np.asarray(prim.v1)
        for e in (prim.v2 - v1, prim.v4 - v1, prim.v5 - v1):
            c = float((p - v1) @ e) / float(e @ e)
            if not 0.0 < c < 1.0:
                return False
        return True
    if isinstance(prim, Cylinder):
        a1 = np.asarray(prim.a1)
        axis = np.asarray(prim.a2) - a1
        t = float((p - a1) @ axis) / float(axis @ axis)
        if not 0.0 < t < 1.0:
            return False
        radial = p - a1 - t * axis
        return float(np.linalg.norm(radial)) < prim.radius
    raise TypeError(type(prim))


def rect_distance_frame(points, rect: RectPlane):
    """Closed-form point-rectangle distance via in-plane clamped coordinates."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    v1 = np.asarray(rect.v1)
    e1 = np.asarray(rect.v2) - v1
    e2 = np.asarray(rect.v4) - v1
    rel = pts - v1
    u = np.clip((rel @ e1) / float(e1 @ e1), 0.0, 1.0)
    v = np.clip((rel @ e2) / float(e2 @ e2), 0.0, 1.0)
    closest = v1 + u[:, None] * e1 + v[:, None] * e2
    return np.linalg.norm(pts - closest, axis=1)


def rect_edges(rect: RectPlane) -> list:
    """The four edges of a rectangle as segments, edge k from corner k + 1
    to corner k + 2 (1-based, corner 4 to corner 1 for k = 3)."""
    corners = rect.corners
    return [Segment(corners[k], corners[(k + 1) % 4]) for k in range(4)]


def frame_corners(rect: RectPlane) -> list:
    """The four corners of the rectangle that ``RectPlane._frame`` spans:
    v1, v1 + L1 u1, v1 + L1 u1 + L2 u2 and v1 + L2 u2, as float tuples."""
    ox, oy, oz, _, _, _, l1, ax, ay, az, l2, bx, by, bz = rect._frame
    c2 = (ox + l1 * ax, oy + l1 * ay, oz + l1 * az)
    c3 = (c2[0] + l2 * bx, c2[1] + l2 * by, c2[2] + l2 * bz)
    return [(ox, oy, oz), c2, c3, (ox + l2 * bx, oy + l2 * by, oz + l2 * bz)]


def frame_edges(rect: RectPlane) -> list:
    """``rect_edges`` of the rectangle that the frame spans (``frame_corners``)."""
    corners = frame_corners(rect)
    return [Segment(corners[k], corners[(k + 1) % 4]) for k in range(4)]


def rect_inside_frame(point, rect: RectPlane, tol=0.0) -> bool:
    """Containment of an on-plane point via projected coordinates."""
    p = np.asarray(point, dtype=float)
    v1 = np.asarray(rect.v1)
    e1 = np.asarray(rect.v2) - v1
    e2 = np.asarray(rect.v4) - v1
    u = float((p - v1) @ e1) / float(e1 @ e1)
    v = float((p - v1) @ e2) / float(e2 @ e2)
    return -tol <= u <= 1.0 + tol and -tol <= v <= 1.0 + tol


# ---------------------------------------------------------------------------
# Random primitives for property tests
# ---------------------------------------------------------------------------


def random_basis(rng):
    while True:
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        if np.linalg.norm(a) < 1e-6 or np.linalg.norm(np.cross(a, b)) < 1e-6:
            continue
        e1 = a / np.linalg.norm(a)
        b = b - (b @ e1) * e1
        e2 = b / np.linalg.norm(b)
        return e1, e2, np.cross(e1, e2)


def random_primitive(rng, kind, center=None, scale=1.0):
    if center is None:
        center = rng.uniform(-0.3, 0.3, size=3)
    e1, e2, e3 = random_basis(rng)
    if kind == "sphere":
        return Sphere(center, scale * rng.uniform(0.05, 0.2))
    if kind == "segment":
        h = 0.5 * scale * rng.uniform(0.2, 0.4)
        return Segment(center - h * e1, center + h * e1)
    if kind == "plane":
        ha = 0.5 * scale * rng.uniform(0.1, 0.3) * e1
        hb = 0.5 * scale * rng.uniform(0.1, 0.3) * e2
        return RectPlane(center + ha + hb, center - ha + hb, center - ha - hb, center + ha - hb)
    if kind == "cube":
        ha = 0.5 * scale * rng.uniform(0.08, 0.2) * e1
        hb = 0.5 * scale * rng.uniform(0.08, 0.2) * e2
        hc = 0.5 * scale * rng.uniform(0.08, 0.2) * e3
        bottom = [center + ha + hb - hc, center - ha + hb - hc, center - ha - hb - hc, center + ha - hb - hc]
        return Cube(*bottom, *[v + 2 * hc for v in bottom])
    if kind == "cylinder":
        h = 0.5 * scale * rng.uniform(0.1, 0.3)
        return Cylinder(center - h * e1, center + h * e1, scale * rng.uniform(0.03, 0.08))
    raise ValueError(kind)


PRIMITIVE_KINDS = ("sphere", "segment", "plane", "cube", "cylinder")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
