"""Obstacle primitive types for a point robot in 3-D.

Five primitive shapes are supported: spheres (radius 0 encodes a point),
line segments, rectangles ("planes" with four corners), rectangular boxes
("cubes" with eight corners) and capped cylinders.  Each type validates its
defining points on construction and caches derived quantities (unit axes,
normals, decoded faces, bounding spheres) that the proximity queries and the
simulator rely on.

Positions are metres; all caches are plain float tuples so the query kernels
can run without per-call numpy overhead.
"""

from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np

from .errors import DegenerateVector

# Below this length a vector has no usable direction.
DEGENERACY_EPS = 1e-12
# Geometric validation tolerances (coplanarity in metres, orthogonality in radians).
COPLANAR_TOL = 1e-9
ORTHO_TOL = 1e-9


def as_vec3(value) -> np.ndarray:
    """Coerce an (x, y, z) array-like to a float64 numpy vector."""
    v = np.asarray(value, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    return v


def _t3(value) -> tuple:
    v = as_vec3(value)
    return (float(v[0]), float(v[1]), float(v[2]))


def norm3(x: float, y: float, z: float) -> float:
    return math.sqrt(x * x + y * y + z * z)


def cross3(a, b) -> tuple:
    """Cross product of two 3-sequences as a float tuple.

    The same products and differences, in the same order, as ``np.cross``
    on 3-vectors, so both give the same bits.
    """
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def unit3(x: float, y: float, z: float) -> tuple:
    """Scalar-tuple normalize; raises DegenerateVector near zero length."""
    n = math.sqrt(x * x + y * y + z * z)
    if n <= DEGENERACY_EPS:
        raise DegenerateVector(f"cannot normalize vector of length {n:.3e}")
    return (x / n, y / n, z / n)


def normalize(v) -> np.ndarray:
    """Return v / ||v||.

    Raises:
        DegenerateVector: when ||v|| is at or below 1e-12.
    """
    x, y, z = _t3(v)
    return np.array(unit3(x, y, z))


def unit_from_to(src, dst) -> np.ndarray:
    """Unit direction pointing from ``src`` toward ``dst``."""
    sx, sy, sz = _t3(src)
    dx, dy, dz = _t3(dst)
    return np.array(unit3(dx - sx, dy - sy, dz - sz))


@dataclass(frozen=True)
class Sphere:
    """Ball obstacle; ``radius == 0`` is a point obstacle."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vec3(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius < 0:
            raise ValueError(f"sphere radius must be >= 0, got {self.radius}")

    @cached_property
    def _c(self) -> tuple:
        return _t3(self.center)

    @cached_property
    def bounding_sphere(self) -> tuple:
        return (*self._c, self.radius)


@dataclass(frozen=True)
class Segment:
    """Line segment between two distinct vertices."""

    p1: np.ndarray
    p2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p1", as_vec3(self.p1))
        object.__setattr__(self, "p2", as_vec3(self.p2))
        if norm3(*(self.p2 - self.p1)) <= DEGENERACY_EPS:
            raise ValueError("segment endpoints must be distinct")

    @cached_property
    def _a(self) -> tuple:
        return _t3(self.p1)

    @cached_property
    def _b(self) -> tuple:
        return _t3(self.p2)

    @cached_property
    def length(self) -> float:
        ax, ay, az = self._a
        bx, by, bz = self._b
        return norm3(bx - ax, by - ay, bz - az)

    @cached_property
    def _u(self) -> tuple:
        """Unit direction from p1 toward p2."""
        ax, ay, az = self._a
        bx, by, bz = self._b
        return unit3(bx - ax, by - ay, bz - az)

    @cached_property
    def bounding_sphere(self) -> tuple:
        ax, ay, az = self._a
        bx, by, bz = self._b
        cx, cy, cz = (ax + bx) / 2, (ay + by) / 2, (az + bz) / 2
        return (cx, cy, cz, self.length / 2)


@dataclass(frozen=True)
class RectPlane:
    """Rectangle given by four consecutively ordered corners.

    Corners must be coplanar and consecutive edges orthogonal; both are
    checked on construction.
    """

    v1: np.ndarray
    v2: np.ndarray
    v3: np.ndarray
    v4: np.ndarray

    def __post_init__(self):
        for name in ("v1", "v2", "v3", "v4"):
            object.__setattr__(self, name, as_vec3(getattr(self, name)))
        self._validate()

    def _validate(self):
        vs = self._vs
        units = []
        for i in range(4):
            (ax, ay, az), (bx, by, bz) = vs[i], vs[(i + 1) % 4]
            ex, ey, ez = bx - ax, by - ay, bz - az
            n = norm3(ex, ey, ez)
            if n <= DEGENERACY_EPS:
                raise ValueError("rectangle has a zero-length edge")
            units.append((ex / n, ey / n, ez / n))
        for i in range(4):
            (ax, ay, az), (bx, by, bz) = units[i], units[(i + 1) % 4]
            cos = abs(ax * bx + ay * by + az * bz)
            # |cos| of the corner angle equals the deviation from 90 degrees
            # for small deviations.
            if cos > ORTHO_TOL:
                raise ValueError(
                    f"rectangle corners are not orthogonal (corner {i + 1}, |cos|={cos:.3e})"
                )
        nx, ny, nz = cross3(units[0], units[1])
        (ax, ay, az), (dx, dy, dz) = vs[0], vs[3]
        off = abs((dx - ax) * nx + (dy - ay) * ny + (dz - az) * nz)
        if off > COPLANAR_TOL:
            raise ValueError(f"rectangle corners are not coplanar (offset {off:.3e} m)")

    @property
    def corners(self) -> list:
        return [self.v1, self.v2, self.v3, self.v4]

    @cached_property
    def _vs(self) -> tuple:
        return tuple(_t3(v) for v in self.corners)

    @cached_property
    def _n(self) -> tuple:
        """Unit normal from the corner winding: normalize((v1 - v2) x (v3 - v2))."""
        v1, v2, v3 = self._vs[0], self._vs[1], self._vs[2]
        a = (v1[0] - v2[0], v1[1] - v2[1], v1[2] - v2[2])
        b = (v3[0] - v2[0], v3[1] - v2[1], v3[2] - v2[2])
        return unit3(*cross3(a, b))

    @cached_property
    def normal(self) -> np.ndarray:
        return np.array(self._n)

    @cached_property
    def edges(self) -> list:
        """Edge segments in corner order: (v1,v2), (v2,v3), (v3,v4), (v4,v1)."""
        vs = self.corners
        return [Segment(vs[i], vs[(i + 1) % 4]) for i in range(4)]

    @cached_property
    def center(self) -> np.ndarray:
        return sum(self.corners) / 4.0

    @cached_property
    def bounding_sphere(self) -> tuple:
        c = self.center
        r = max(norm3(*(v - c)) for v in self.corners)
        return (*_t3(c), r)


# Face decoding for a cube with corners v1..v4 (one face) and v5..v8 (the
# opposite face, v5 across from v1).  Indices are 0-based into the corner list.
CUBE_FACE_CORNERS = (
    (0, 1, 2, 3),
    (4, 5, 6, 7),
    (0, 1, 5, 4),
    (1, 2, 6, 5),
    (2, 3, 7, 6),
    (3, 0, 4, 7),
)


@dataclass(frozen=True)
class Cube:
    """Rectangular box given by eight corners (two opposite rectangles)."""

    v1: np.ndarray
    v2: np.ndarray
    v3: np.ndarray
    v4: np.ndarray
    v5: np.ndarray
    v6: np.ndarray
    v7: np.ndarray
    v8: np.ndarray

    def __post_init__(self):
        for i in range(8):
            name = f"v{i + 1}"
            object.__setattr__(self, name, as_vec3(getattr(self, name)))
        # Face construction itself validates rectangularity of all six faces.
        _ = self.faces

    @property
    def corners(self) -> list:
        return [getattr(self, f"v{i + 1}") for i in range(8)]

    @cached_property
    def faces(self) -> list:
        vs = self.corners
        return [RectPlane(*(vs[i] for i in idx)) for idx in CUBE_FACE_CORNERS]

    @cached_property
    def centroid(self) -> np.ndarray:
        return sum(self.corners) / 8.0

    @cached_property
    def _outward(self) -> tuple:
        """Per-face unit normals oriented away from the centroid."""
        c = self.centroid
        out = []
        for face in self.faces:
            n = face._n
            d = float((face.center - c) @ n)
            out.append(n if d >= 0.0 else (-n[0], -n[1], -n[2]))
        return tuple(out)

    @cached_property
    def bounding_sphere(self) -> tuple:
        c = self.centroid
        r = max(norm3(*(v - c)) for v in self.corners)
        return (*_t3(c), r)


@dataclass(frozen=True)
class Cylinder:
    """Capped cylinder around the axis from a1 to a2."""

    a1: np.ndarray
    a2: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "a1", as_vec3(self.a1))
        object.__setattr__(self, "a2", as_vec3(self.a2))
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius <= 0:
            raise ValueError(f"cylinder radius must be > 0, got {self.radius}")
        if norm3(*(self.a2 - self.a1)) <= DEGENERACY_EPS:
            raise ValueError("cylinder axis endpoints must be distinct")

    @cached_property
    def _p1(self) -> tuple:
        return _t3(self.a1)

    @cached_property
    def _p2(self) -> tuple:
        return _t3(self.a2)

    @cached_property
    def length(self) -> float:
        return norm3(*(self.a2 - self.a1))

    @cached_property
    def _axis(self) -> tuple:
        """Unit direction from a1 toward a2."""
        ax, ay, az = self._p1
        bx, by, bz = self._p2
        return unit3(bx - ax, by - ay, bz - az)

    @cached_property
    def axis(self) -> np.ndarray:
        return np.array(self._axis)

    @cached_property
    def bounding_sphere(self) -> tuple:
        ax, ay, az = self._p1
        bx, by, bz = self._p2
        cx, cy, cz = (ax + bx) / 2, (ay + by) / 2, (az + bz) / 2
        r = math.sqrt((self.length / 2) ** 2 + self.radius**2)
        return (cx, cy, cz, r)


Primitive = Sphere | Segment | RectPlane | Cube | Cylinder


def translated(prim: Primitive, offset) -> Primitive:
    """Return a copy of ``prim`` rigidly translated by ``offset``."""
    d = as_vec3(offset)
    if isinstance(prim, Sphere):
        return Sphere(prim.center + d, prim.radius)
    if isinstance(prim, Segment):
        return Segment(prim.p1 + d, prim.p2 + d)
    if isinstance(prim, RectPlane):
        return RectPlane(*(v + d for v in prim.corners))
    if isinstance(prim, Cube):
        return Cube(*(v + d for v in prim.corners))
    if isinstance(prim, Cylinder):
        return Cylinder(prim.a1 + d, prim.a2 + d, prim.radius)
    raise TypeError(f"unsupported primitive type: {type(prim).__name__}")
