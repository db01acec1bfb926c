"""Primitive type validation, derived geometry and the per-type tables."""

from dataclasses import dataclass, fields
import math
import re
import typing

import numpy as np
import pytest
from conftest import cube_faces, frame_corners, random_primitive

from geopf import (
    Cube,
    Cylinder,
    DegenerateVector,
    Gains,
    Obstacle,
    Primitive,
    RectPlane,
    Scene,
    SceneClass,
    Segment,
    SimParams,
    Sphere,
    generate,
    translated,
)
from geopf import primitives, queries
from geopf.primitives import unit3
from geopf.scenes import _decode_primitive, _encode_primitive, _Reader


def test_normalize_axis():
    assert np.allclose(unit3(2.0, 0.0, 0.0), (1, 0, 0))


def test_normalize_diagonal():
    v = unit3(1.0, 1.0, 0.0)
    assert np.allclose(v, (0.7071067811865476, 0.7071067811865476, 0.0))


def test_normalize_zero_rejected():
    with pytest.raises(DegenerateVector):
        unit3(0.0, 0.0, 0.0)
    with pytest.raises(DegenerateVector):
        unit3(1e-13, 0.0, 0.0)


def test_unit_from_to():
    # The unit direction from one point to another, as the primitives derive
    # their axes: the difference, then ``unit3``.
    src, dst = (0.0, 0.0, 0.0), (0.0, 3.0, 0.0)
    assert np.allclose(unit3(*(b - a for a, b in zip(src, dst))), (0, 1, 0))


def test_sphere_rejects_negative_radius():
    with pytest.raises(ValueError):
        Sphere((0, 0, 0), -0.1)


def test_point_obstacle_allowed():
    s = Sphere((1, 2, 3), 0.0)
    assert s.radius == 0.0


def test_segment_rejects_coincident_endpoints():
    with pytest.raises(ValueError):
        Segment((1, 1, 1), (1, 1, 1))


def test_rect_plane_rejects_non_coplanar():
    with pytest.raises(ValueError):
        RectPlane((1, 1, 0), (-1, 1, 0), (-1, -1, 1e-6), (1, -1, 0))


def test_rect_plane_rejects_non_rectangle():
    # A planar parallelogram that is not a rectangle.
    with pytest.raises(ValueError):
        RectPlane((0, 0, 0), (2, 0, 0), (3, 1, 0), (1, 1, 0))


def test_rect_plane_normal_flips_with_winding():
    corners = [(1, 1, 0), (-1, 1, 0), (-1, -1, 0), (1, -1, 0)]
    p = RectPlane(*corners)
    q = RectPlane(*corners[::-1])
    assert np.allclose(p.normal, -q.normal)
    assert abs(np.linalg.norm(p.normal) - 1.0) < 1e-12


def test_rect_plane_normal_orthogonal_to_edges(rng):
    from conftest import random_primitive

    for _ in range(50):
        p = random_primitive(rng, "plane")
        n = p.normal
        assert abs(float(n @ np.subtract(p.v2, p.v1))) < 1e-9
        assert abs(float(n @ np.subtract(p.v4, p.v1))) < 1e-9


def _frame_gap(rect):
    """The largest distance from a corner of the rectangle the frame spans
    to the given corner it stands for."""
    return max(math.dist(f, c) for f, c in zip(frame_corners(rect), rect.corners))


def test_rect_frame_is_orthonormal_and_spans_the_given_corners():
    """Every rectangle, box face and wall of plane_hard, plane_easy, complex,
    dynamic_hard and the maze, seeds 0-39: u2 is u1 x n bit for bit, u1 and
    u2 are orthonormal to rounding, and the frame's corners lie within
    1e-15 m of the given corners and inside the body's bounding sphere."""
    classes = (SceneClass.PLANE_HARD, SceneClass.PLANE_EASY, SceneClass.COMPLEX,
               SceneClass.DYNAMIC_HARD, SceneClass.MAZE)
    count = 0
    for scene_class in classes:
        for seed in range(40):
            for prim, *_ in generate(scene_class, seed).bodies:
                if isinstance(prim, Cube):
                    rects = cube_faces(prim)
                elif isinstance(prim, RectPlane):
                    rects = (prim,)
                else:
                    continue
                *centre, r = prim.bounding_sphere
                for rect in rects:
                    u1, u2 = rect._frame[7:10], rect._frame[11:14]
                    assert u2 == primitives.cross3(u1, rect._n)
                    assert abs(sum(a * b for a, b in zip(u1, u2))) <= 1e-15
                    assert abs(math.hypot(*u2) - 1.0) <= 1e-15
                    assert _frame_gap(rect) <= 1e-15
                    assert max(math.dist(f, centre) for f in frame_corners(rect)) <= r + 1e-15
                    count += 1
    assert count == 3843


def test_a_skewed_rect_frame_stays_within_the_orthogonality_tolerance():
    """Corners off a right angle by 9e-10, which ``RectPlane`` accepts: the
    frame's corners lie within ``ORTHO_TOL`` (L1 + L2) of the given ones."""
    rect = RectPlane((0, 0, 0), (1, 0, 0), (1 + 9e-10, 1, 0), (9e-10, 1, 0))
    l1, l2 = rect._frame[6], rect._frame[10]
    assert 8e-10 < _frame_gap(rect) <= primitives.ORTHO_TOL * (l1 + l2)


def test_cube_face_decoding():
    c = Cube((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
             (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1))
    faces = cube_faces(c)
    assert len(faces) == 6
    centers = sorted(tuple(np.round(f.center, 9)) for f in faces)
    expected = sorted(
        [
            (0.5, 0.5, 0.0),
            (0.5, 0.5, 1.0),
            (0.5, 0.0, 0.5),
            (1.0, 0.5, 0.5),
            (0.5, 1.0, 0.5),
            (0.0, 0.5, 0.5),
        ]
    )
    assert centers == expected


_UNIT_BOX = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 0.0),
             (0.0, 0.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 1.0), (0.0, 1.0, 1.0)]


def _box_with(**moved):
    """The unit box's corners with the named corners (``v1``..``v8``) replaced."""
    return [moved.get(f"v{i + 1}", c) for i, c in enumerate(_UNIT_BOX)]


@pytest.mark.parametrize(
    "corners, message",
    [
        # A zero-length edge from v1, and one between two other corners.
        (_box_with(v4=(0.0, 0.0, 0.0)), "box has a zero-length edge"),
        (_box_with(v3=(1.0, 0.0, 0.0)), "box corner v3 is off its edges' end"),
        # A non-orthogonal corner: at v1, then at v2 and v3 of the bottom face.
        (_box_with(v4=(1e-6, 1.0, 0.0), v3=(1.0 + 1e-6, 1.0, 0.0),
                   v8=(1e-6, 1.0, 1.0), v7=(1.0 + 1e-6, 1.0, 1.0)),
         "box edges are not orthogonal (v1->v2, v1->v4"),
        (_box_with(v3=(1.0 + 1e-6, 1.0, 0.0)), "box corner v3 is off its edges' end"),
        # An off-plane corner of the bottom face and of the top face.
        (_box_with(v3=(1.0, 1.0, 1e-6)), "box corner v3 is off its edges' end"),
        (_box_with(v7=(1.0, 1.0, 1.0 + 1e-6)), "box corner v7 is off its edges' end"),
    ],
)
def test_a_malformed_box_is_rejected_at_its_message(corners, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Cube(*corners)


def _frame_boxes():
    """The boxes of complex and dynamic_hard seeds 0-39, then 20 random boxes
    and their x mirrors, whose corner order turns the other way round."""
    boxes = [
        ob.primitive
        for scene_class in (SceneClass.COMPLEX, SceneClass.DYNAMIC_HARD)
        for seed in range(40)
        for ob in generate(scene_class, seed).obstacles
        if isinstance(ob.primitive, Cube)
    ]
    rng = np.random.default_rng(29)
    for _ in range(20):
        cube = random_primitive(rng, "cube")
        corners = [getattr(cube, f.name) for f in fields(cube)]
        boxes += [cube, Cube(*((-x, y, z) for x, y, z in corners))]
    return boxes


def test_box_frame_is_orthonormal_and_points_toward_v5():
    """u1, u2 and u3 are unit and pairwise orthogonal to 1e-15; u3 is
    +-u1 x u2 bit for bit, on v5's side; the origin and lengths are v1 and
    the edges from it, and the frame's far corner lies within 1e-15 m of
    v7."""
    handed = set()
    for cube in _frame_boxes():
        f = cube._frame
        u = f[4:7], f[8:11], f[12:15]
        for i in range(3):
            assert abs(math.hypot(*u[i]) - 1.0) <= 1e-15
            for j in range(i):
                assert abs(sum(a * b for a, b in zip(u[i], u[j]))) <= 1e-15
        c = primitives.cross3(u[0], u[1])
        sign = 1.0 if u[2] == c else -1.0
        assert u[2] == tuple(sign * x for x in c)
        assert sum(a * (b - o) for a, b, o in zip(u[2], cube.v5, cube.v1)) > 0.0
        handed.add(sign)
        assert f[:3] == cube.v1
        edges = [[b - a for a, b in zip(cube.v1, v)] for v in (cube.v2, cube.v4, cube.v5)]
        assert (f[3], f[7], f[11]) == tuple(primitives.norm3(*e) for e in edges)
        far = [o + f[3] * a + f[7] * b + f[11] * c for o, a, b, c in zip(f[:3], *u)]
        assert math.dist(far, cube.v7) <= 1e-15
    assert handed == {1.0, -1.0}


def test_cube_rejects_twisted_top_face():
    # Top face rotated so v5 is no longer across from v1.
    with pytest.raises(ValueError):
        Cube((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
             (1, 0, 1), (1, 1, 1), (0, 1, 1), (0, 0, 1))


def test_cylinder_validation():
    with pytest.raises(ValueError):
        Cylinder((0, 0, 0), (0, 0, 1), 0.0)
    with pytest.raises(ValueError):
        Cylinder((0, 0, 0), (0, 0, 0), 0.5)


# Each value from outside passes one rule where it enters: a length, gain or
# time is a finite number above zero (``primitives.positive``), a point is a
# finite 3-vector (``primitives.as_vec3``), and a step cap is an integer.
_SQUARE = ((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0))
_BOX = _SQUARE + tuple((x, y, 1) for x, y, _ in _SQUARE)
_VALID = {
    Gains: {},
    SimParams: {},
    Obstacle: {"primitive": Segment((0, 0, 0), (1, 0, 0))},
    Sphere: {"center": (0, 0, 0), "radius": 0.1},
    Segment: {"p1": (0, 0, 0), "p2": (1, 0, 0)},
    RectPlane: dict(zip(("v1", "v2", "v3", "v4"), _SQUARE)),
    Cube: {f"v{i + 1}": v for i, v in enumerate(_BOX)},
    Cylinder: {"a1": (0, 0, 0), "a2": (1, 0, 0), "radius": 0.1},
    Scene: {"start": (0, 1, 0), "goal": (0, -1, 0), "obstacles": [], "boundary": []},
}
_NUMBERS = (math.nan, math.inf, -1.0)
_VECTORS = ((math.nan, 0, 0), (0, math.inf, 0), (0, 0), (0.0, 0.0, -math.inf), (0.0, math.nan, 0.0))
_BAD_INPUTS = [
    *((Gains, f, v) for f in ("k_attr", "k_rep", "activation_radius") for v in _NUMBERS),
    *((SimParams, f, v) for f in ("mass", "dt", "damping", "max_speed", "goal_radius") for v in _NUMBERS),
    (SimParams, "max_steps", 0),
    (SimParams, "max_steps", 1.5),
    *((Obstacle, "gain", v) for v in _NUMBERS),
    *((Sphere, "radius", v) for v in _NUMBERS),
    *((Cylinder, "radius", v) for v in (math.nan, math.inf, 0.0)),
    *(
        (cls, f, v)
        for cls, f in (
            (Obstacle, "drift"),
            (Sphere, "center"),
            (Segment, "p1"),
            (RectPlane, "v1"),
            (Cube, "v1"),
            (Cylinder, "a1"),
            (Scene, "start"),
            (Scene, "goal"),
        )
        for v in _VECTORS
    ),
    *((Scene, "drift_bounds", (v, (1, 1, 1))) for v in _VECTORS),
    *((Scene, "seed", v) for v in (1.5, "3", -1, 2**64)),
]


@pytest.mark.parametrize(
    "cls, field, value",
    _BAD_INPUTS,
    ids=[f"{cls.__name__}.{field}={value}" for cls, field, value in _BAD_INPUTS],
)
def test_bad_input_is_a_value_error_naming_its_field(cls, field, value):
    rule = rf"^{field} must be (finite|a finite 3-vector|an integer)"
    with pytest.raises(ValueError, match=rule):
        cls(**{**_VALID[cls], field: value})


def test_zero_damping_and_a_point_sphere_stay_valid():
    assert SimParams(damping=0).damping == 0.0
    assert Sphere((0, 0, 0), 0).radius == 0.0
    for cls, kwargs in _VALID.items():
        cls(**kwargs)


def test_as_vec3_returns_a_tuple_of_three_floats_as_it_is():
    point = (0.5, -1.0, 2.0)
    assert primitives.as_vec3(point) is point
    # Anything else, numpy floats included, goes through numpy.
    for value in ([0.5, -1.0, 2.0], np.array(point), (0.5, -1, 2.0), tuple(np.array(point))):
        got = primitives.as_vec3(value)
        assert got == point and type(got) is tuple
        assert [type(c) for c in got] == [float] * 3


def test_a_numpy_integer_seed_is_taken_as_an_int():
    seed = Scene(**{**_VALID[Scene], "seed": np.int64(3)}).seed
    assert seed == 3 and type(seed) is int


def test_translated_shifts_rigidly(rng):
    from conftest import PRIMITIVE_KINDS, random_primitive

    offset = np.array([0.1, -0.2, 0.3])
    for kind in PRIMITIVE_KINDS:
        prim = random_primitive(rng, kind)
        moved = translated(prim, offset)
        b0 = np.array(prim.bounding_sphere)
        b1 = np.array(moved.bounding_sphere)
        assert np.allclose(b1[:3] - b0[:3], offset, atol=1e-12)
        assert b1[3] == pytest.approx(b0[3], abs=1e-12)


def test_bounding_sphere_contains_surface(rng):
    from conftest import PRIMITIVE_KINDS, random_primitive, sample_surface

    for kind in PRIMITIVE_KINDS:
        prim = random_primitive(rng, kind)
        cx, cy, cz, r = prim.bounding_sphere
        pts = sample_surface(prim, 0.02)
        d = np.linalg.norm(pts - np.array([cx, cy, cz]), axis=1)
        assert float(d.max()) <= r + 1e-9


def _reference_enclosing(*points):
    """The bounding sphere of a rectangle or box as ``sum`` and ``max`` over
    generator expressions: the bits ``primitives._enclosing`` must keep."""
    n = len(points)
    cx, cy, cz = (sum(p[k] for p in points) / n for k in range(3))
    return (cx, cy, cz, max(primitives.norm3(x - cx, y - cy, z - cz) for x, y, z in points))


def _hex(values):
    return tuple(float(v).hex() for v in values)


def _point_sets(rng):
    """Random 4- and 8-point sets at several scales and offsets, then the
    edge cases: a -0.0 coordinate, repeated corners and tied maxima."""
    for n in (4, 8):
        for scale in (1e-3, 0.1, 1.0, 1e3):
            for _ in range(250):
                shift = rng.normal(size=3) * scale * 10
                yield [tuple((shift + rng.normal(size=3) * scale).tolist()) for _ in range(n)]
    yield [(-0.0, -0.0, -0.0)] * 4
    yield [(0.1, -0.0, 0.2), (0.3, -0.0, 0.2), (0.3, -0.0, 0.4), (0.1, -0.0, 0.4)]
    yield [(-0.0, 0.5, -0.0), (-0.0, 0.5, -0.0), (1.0, 0.5, -0.0), (1.0, 0.5, -0.0)]
    yield [(0.2, 0.3, 0.4)] * 8
    square = [(1.0, 1.0, 0.0), (-1.0, 1.0, 0.0), (-1.0, -1.0, 0.0), (1.0, -1.0, 0.0)]
    yield square
    yield [(x, y, z) for x in (-0.3, 0.3) for y in (-0.3, 0.3) for z in (-0.3, 0.3)]
    yield square + square


def test_enclosing_keeps_the_bits_of_sum_and_max(rng):
    sets = list(_point_sets(rng))
    # And the corners of generated rectangles, boxes and box faces.
    for scene in (generate(SceneClass.PLANE_HARD, 0), generate(SceneClass.DYNAMIC_HARD, 0)):
        for obs in scene.obstacles:
            prim = obs.primitive
            for prim in (prim, *(cube_faces(prim) if isinstance(prim, Cube) else ())):
                if isinstance(prim, (RectPlane, Cube)):
                    sets.append([getattr(prim, f.name) for f in fields(prim)])
    for points in sets:
        assert _hex(primitives._enclosing(*points)) == _hex(_reference_enclosing(*points))
    # The -0.0 sum starts from the int 0, so the centroid reads +0.0.
    assert _hex(primitives._enclosing(*[(-0.0, -0.0, -0.0)] * 4)) == ("0x0.0p+0",) * 4


# -- one table per primitive type ---------------------------------------------

PRIMITIVE_TYPES = typing.get_args(Primitive)


def _sample(cls):
    from conftest import random_primitive

    return random_primitive(np.random.default_rng(11), cls.scene_type)


def _same_bits(p, q) -> bool:
    return type(p) is type(q) and all(
        np.asarray(getattr(p, f.name)).tobytes() == np.asarray(getattr(q, f.name)).tobytes()
        for f in fields(p)
    )


@pytest.mark.parametrize("cls", PRIMITIVE_TYPES, ids=lambda cls: cls.__name__)
def test_kernel_for_returns_the_types_kernel(cls):
    assert queries._kernel_for(_sample(cls)) is getattr(queries, f"_{cls.scene_type}_kernel")


@pytest.mark.parametrize("cls", PRIMITIVE_TYPES, ids=lambda cls: cls.__name__)
def test_scene_file_entry_round_trips(cls):
    prim = _sample(cls)
    entry = _encode_primitive(prim)
    assert entry["type"] == cls.scene_type
    again = _decode_primitive(_Reader(entry, "obstacles[0]"))
    assert _same_bits(prim, again)
    assert _encode_primitive(again) == entry


@pytest.mark.parametrize("cls", PRIMITIVE_TYPES, ids=lambda cls: cls.__name__)
def test_translated_by_zero_keeps_the_bits(cls):
    prim = _sample(cls)
    moved = translated(prim, (0.0, 0.0, 0.0))
    assert moved is not prim
    assert _same_bits(prim, moved)
    assert moved.bounding_sphere == prim.bounding_sphere


@pytest.mark.parametrize("cls", PRIMITIVE_TYPES, ids=lambda cls: cls.__name__)
def test_queries_leave_a_primitive_unchanged(cls):
    """Every derived record exists from construction: a kernel query and a
    bounding-sphere read add or replace nothing."""
    prim = _sample(cls)
    seen = dict(vars(prim))
    x, y, z = (np.array(prim.bounding_sphere[:3]) + 1.0).tolist()
    queries._kernel_for(prim)(x, y, z, prim)
    prim.bounding_sphere
    assert vars(prim).keys() == seen.keys()
    assert all(vars(prim)[k] is v for k, v in seen.items())


@dataclass(frozen=True)
class _Torus:
    center: np.ndarray
    radius: float


def test_unsupported_type_is_a_type_error():
    torus = _Torus(np.zeros(3), 1.0)
    with pytest.raises(TypeError):
        queries._kernel_for(torus)
    with pytest.raises(TypeError):
        translated(torus, (1.0, 0.0, 0.0))
    with pytest.raises(TypeError):
        _encode_primitive(torus)
    with pytest.raises(TypeError, match="unsupported primitive type: _Torus"):
        Obstacle(torus)
