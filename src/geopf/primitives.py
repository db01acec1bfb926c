"""Obstacle primitive types for a point robot in 3-D.

Five primitive shapes are supported: spheres (radius 0 encodes a point),
line segments, rectangles ("planes" with four corners), rectangular boxes
("cubes" with eight corners) and capped cylinders.  Each type validates its
defining points on construction and computes there, once, the derived
records that the proximity queries and the simulator read (unit axes,
normals, rectangle frames, box faces, bounding spheres); a primitive never
changes after construction.

Positions are metres.  A point is a tuple of three floats, made by
:func:`as_vec3` and stored once, in the field the caller and the kernels
both read; the derived records are float tuples too, free of numpy overhead.
"""

from dataclasses import dataclass, fields
import functools
import math
from operator import add, index
import typing

import numpy as np

from .errors import DegenerateVector

# Below this length a vector has no usable direction.
DEGENERACY_EPS = 1e-12
# Geometric validation tolerances (coplanarity in metres, orthogonality in radians).
COPLANAR_TOL = 1e-9
ORTHO_TOL = 1e-9
# Skin of the candidate lists that the planners and the simulator keep
# between steps (m), chosen by a sweep on the benchmark's GeoPF workloads.  A
# list holds every body within its reach plus SKIN of where it was built, and
# stays valid while the robot's move since then, plus whatever else moved a
# body nearer (drift, a longer reach), stays below _REACH: the skin less a
# guard against the rounding of positions, offsets and plane offsets, each
# far below a micrometre in the scenes' sizes and times.
SKIN = 0.05
_REACH = SKIN - 1e-6


def positive(value, name: str = "value", zero_ok: bool = False) -> float:
    """``value`` as a float, checked to be finite and above zero (or at zero
    with ``zero_ok``): the one rule for every length, gain and time.

    Raises:
        ValueError: naming ``name`` when the value breaks the rule.
    """
    v = float(value)
    if not (math.isfinite(v) and (v >= 0.0 if zero_ok else v > 0.0)):
        raise ValueError(f"{name} must be finite and {'>=' if zero_ok else '>'} 0, got {v}")
    return v


def positive_int(value, name: str = "value") -> int:
    """``value`` as an int, checked to be an integer (by ``operator.index``,
    so 2.0 and "3" are rejected) of at least 1: the one rule for every count.

    Raises:
        ValueError: naming ``name`` when the value breaks the rule.
    """
    try:
        v = index(value)
    except TypeError:
        v = 0
    if v < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return v


def as_vec3(value, name: str = "value") -> tuple:
    """An (x, y, z) array-like as a tuple of three finite Python floats: the
    one form in which the program stores a point.

    Fast case: a tuple of three finite Python floats (``float`` itself, not
    a subclass such as ``numpy.float64``) is already that form and is
    returned as it is, with no numpy round trip.  Any other value goes
    through ``numpy.asarray(value, dtype=float)``.

    Raises:
        ValueError: naming ``name`` when the shape is not (3,) or a
            coordinate is nan or infinite.
    """
    if type(value) is tuple and len(value) == 3:
        x, y, z = value
        if type(x) is type(y) is type(z) is float:
            if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
                raise ValueError(f"{name} must be a finite 3-vector, got {[x, y, z]}")
            return value
    v = np.asarray(value, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a finite 3-vector, got shape {v.shape}")
    # math.isfinite on the Python floats costs far less than np.isfinite.
    x, y, z = v.tolist()
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError(f"{name} must be a finite 3-vector, got {[x, y, z]}")
    return (x, y, z)


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


def axis_frame(axis) -> tuple:
    """Two unit float tuples spanning the plane perpendicular to the unit
    ``axis``: the x (or, near the x axis, the y) unit vector with its axial
    part removed, and ``axis`` crossed with that."""
    ux, uy, uz = axis
    sx, sy, sz = (1.0, 0.0, 0.0) if abs(ux) < 0.9 else (0.0, 1.0, 0.0)
    dot = sx * ux + sy * uy + sz * uz
    b1 = unit3(sx - dot * ux, sy - dot * uy, sz - dot * uz)
    return b1, cross3(axis, b1)


@functools.cache
def _field_kinds(cls) -> tuple:
    """``(name, is_float)`` for each dataclass field of a primitive class,
    in declaration order; read once per class."""
    return tuple((f.name, f.type is float) for f in fields(cls))


def _coerce(prim) -> list:
    """Coerce the dataclass fields of ``prim`` in place, scalars to float and
    points by :func:`as_vec3`; returns them in field order."""
    values = []
    for name, is_float in _field_kinds(type(prim)):
        value = getattr(prim, name)
        value = float(value) if is_float else as_vec3(value, name)
        object.__setattr__(prim, name, value)
        values.append(value)
    return values


def _derive(prim, **records):
    """Store the derived records of a frozen primitive."""
    for name, value in records.items():
        object.__setattr__(prim, name, value)


def _span(a: tuple, b: tuple, degenerate: str) -> tuple:
    """Length and unit direction of the segment from ``a`` to ``b``.

    Raises:
        ValueError: with message ``degenerate`` when the length is at or
            below 1e-12.
    """
    ex, ey, ez = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    n = norm3(ex, ey, ez)
    if n <= DEGENERACY_EPS:
        raise ValueError(degenerate)
    return n, (ex / n, ey / n, ez / n)


# Bounding spheres ``(cx, cy, cz, r)`` from a primitive's point fields.  Each
# is the one statement of its class's arithmetic: ``__post_init__`` stores
# it, and scene generation tests a candidate's sphere before building it.


def _enclosing(*points) -> tuple:
    """Rectangle or box: the centroid of the corner tuples and the largest
    distance from it to one of them.

    Two plain loops with the bits of ``sum`` and ``max`` on Python 3.11:
    each coordinate sum starts from the int 0 and adds left to right (so a
    -0.0 still becomes +0.0, and no compensation is applied, as 3.12's
    ``sum`` would), and the radius is the largest ``norm3``.  They take
    1.6 µs for four corners and 2.9 µs for eight, against 4.1 and 5.8 µs
    for ``sum`` and ``max`` over generator expressions.
    """
    n = len(points)
    sx = sy = sz = 0
    for x, y, z in points:
        sx += x
        sy += y
        sz += z
    cx, cy, cz = sx / n, sy / n, sz / n
    r = 0.0
    for x, y, z in points:
        dx, dy, dz = x - cx, y - cy, z - cz
        d = math.sqrt(dx * dx + dy * dy + dz * dz)
        if d > r:
            r = d
    return (cx, cy, cz, r)


def _segment_sphere(a: tuple, b: tuple) -> tuple:
    """Segment: the midpoint of ``a`` and ``b`` and half their distance."""
    ex, ey, ez = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    return ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2, (a[2] + b[2]) / 2, norm3(ex, ey, ez) / 2)


def _cylinder_sphere(a: tuple, b: tuple, radius: float) -> tuple:
    """Capped cylinder: the midpoint of the axis ends ``a`` and ``b`` and
    the distance from it to a rim point."""
    cx, cy, cz, half = _segment_sphere(a, b)
    return (cx, cy, cz, math.sqrt(half**2 + radius**2))


@dataclass(frozen=True)
class Sphere:
    """Ball obstacle; ``radius == 0`` is a point obstacle."""

    scene_type: typing.ClassVar[str] = "sphere"

    center: tuple
    radius: float

    def __post_init__(self):
        c, radius = _coerce(self)
        positive(radius, "radius", zero_ok=True)
        _derive(self, bounding_sphere=(*c, radius))


@dataclass(frozen=True)
class Segment:
    """Line segment between two distinct vertices."""

    scene_type: typing.ClassVar[str] = "segment"

    p1: tuple
    p2: tuple

    def __post_init__(self):
        a, b = _coerce(self)
        length, u = _span(a, b, "segment endpoints must be distinct")
        _derive(self, _u=u, length=length, bounding_sphere=_segment_sphere(a, b))


@dataclass(frozen=True)
class RectPlane:
    """Rectangle given by four consecutively ordered corners.

    Corners must be coplanar and consecutive edges orthogonal; both are
    checked on construction.  Edge k runs in corner order: (v1, v2),
    (v2, v3), (v3, v4), (v4, v1).  ``_frame`` is the rectangle's own
    orthonormal frame as one float record: corner v1, the unit normal
    ``_n``, the length L1 and unit direction u1 (``_span``) of edge 0
    (v1->v2), then the length L2 of edge 1 (v2->v3) and u2 = u1 x n,
    ``(ox, oy, oz, nx, ny, nz, L1, u1x, u1y, u1z, L2, u2x, u2y, u2z)``.
    The queries, the crossing test and the trap correction read the
    rectangle v1 + [0, L1] u1 + [0, L2] u2 that the frame spans; its corners
    lie within ``ORTHO_TOL`` (L1 + L2) of the given ones, which the scene
    file, the sphere clouds and ``bounding_sphere`` read.
    """

    scene_type: typing.ClassVar[str] = "plane"

    v1: tuple
    v2: tuple
    v3: tuple
    v4: tuple

    def __post_init__(self):
        vs = _coerce(self)
        spans = [
            _span(vs[i], vs[(i + 1) % 4], "rectangle has a zero-length edge") for i in range(4)
        ]
        for i in range(4):
            (ax, ay, az), (bx, by, bz) = spans[i][1], spans[(i + 1) % 4][1]
            cos = abs(ax * bx + ay * by + az * bz)
            # |cos| of the corner angle equals the deviation from 90 degrees
            # for small deviations.
            if cos > ORTHO_TOL:
                raise ValueError(
                    f"rectangle corners are not orthogonal (corner {i + 1}, |cos|={cos:.3e})"
                )
        # Unit normal from the corner winding: normalize((v1 - v2) x (v3 - v2)).
        v1, v2, v3, v4 = vs
        a = (v1[0] - v2[0], v1[1] - v2[1], v1[2] - v2[2])
        b = (v3[0] - v2[0], v3[1] - v2[1], v3[2] - v2[2])
        n = unit3(*cross3(a, b))
        off = abs((v4[0] - v1[0]) * n[0] + (v4[1] - v1[1]) * n[1] + (v4[2] - v1[2]) * n[2])
        if off > COPLANAR_TOL:
            raise ValueError(f"rectangle corners are not coplanar (offset {off:.3e} m)")
        (l1, u1), (l2, _) = spans[:2]
        frame = v1 + n + (l1, *u1, l2, *cross3(u1, n))
        _derive(self, _n=n, _frame=frame, bounding_sphere=_enclosing(*vs))

    @property
    def corners(self) -> list:
        return [self.v1, self.v2, self.v3, self.v4]

    @property
    def center(self) -> np.ndarray:
        return np.array(self.bounding_sphere[:3])

    @property
    def normal(self) -> np.ndarray:
        return np.array(self._n)


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
    """Rectangular box given by eight corners (two opposite rectangles).

    ``faces`` are the six rectangles in ``CUBE_FACE_CORNERS`` order.
    ``_frame`` is the box's own frame as one float record: corner v1, then
    the length and unit direction of v1->v2, v1->v4 and v1->v5,
    ``(ox, oy, oz, L1, u1x, u1y, u1z, L2, u2x, u2y, u2z, L3, u3x, u3y, u3z)``.
    The three axes are orthogonal to ``ORTHO_TOL`` because every face is
    validated as a rectangle.
    """

    scene_type: typing.ClassVar[str] = "cube"

    v1: tuple
    v2: tuple
    v3: tuple
    v4: tuple
    v5: tuple
    v6: tuple
    v7: tuple
    v8: tuple

    def __post_init__(self):
        vs = _coerce(self)
        # Face construction itself validates rectangularity of all six faces.
        faces = tuple(RectPlane(*(vs[i] for i in idx)) for idx in CUBE_FACE_CORNERS)
        frame = vs[0]
        for k in (1, 3, 4):
            length, u = _span(vs[0], vs[k], "box has a zero-length edge")
            frame += (length, *u)
        _derive(self, faces=faces, _frame=frame, bounding_sphere=_enclosing(*vs))


@dataclass(frozen=True)
class Cylinder:
    """Capped cylinder around the axis from a1 to a2 (unit ``_axis``)."""

    scene_type: typing.ClassVar[str] = "cylinder"

    a1: tuple
    a2: tuple
    radius: float

    def __post_init__(self):
        p1, p2, radius = _coerce(self)
        positive(radius, "radius")
        length, axis = _span(p1, p2, "cylinder axis endpoints must be distinct")
        bound = _cylinder_sphere(p1, p2, radius)
        _derive(self, _axis=axis, length=length, bounding_sphere=bound)


Primitive = Sphere | Segment | RectPlane | Cube | Cylinder
PRIMITIVE_TYPES = typing.get_args(Primitive)


def primitive_fields(prim: Primitive) -> tuple:
    """The dataclass fields of a primitive, in declaration order.

    Raises:
        TypeError: when ``prim`` is not one of the primitive types.
    """
    if type(prim) not in PRIMITIVE_TYPES:
        raise TypeError(f"unsupported primitive type: {type(prim).__name__}")
    return fields(prim)


def translated(prim: Primitive, offset) -> Primitive:
    """Return a copy of ``prim`` rigidly translated by ``offset``, added to
    each point coordinate by coordinate."""
    d = as_vec3(offset)
    values = [getattr(prim, f.name) for f in primitive_fields(prim)]
    return type(prim)(*(v if type(v) is float else tuple(map(add, v, d)) for v in values))
