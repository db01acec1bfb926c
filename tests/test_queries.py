"""Closest-feature queries: frozen examples, oracle agreement, invariants."""

import math

import numpy as np
import pytest
from conftest import (
    PRIMITIVE_KINDS,
    SampledOracle,
    point_inside,
    random_primitive,
    rect_inside_frame,
)

from geopf import (
    Cube,
    Cylinder,
    DegenerateVector,
    FeatureKind,
    RectPlane,
    Segment,
    Sphere,
    closest_feature,
    cube_closest,
    cylinder_closest,
    distance,
    plane_closest,
    plane_foot,
    plane_inside,
    plane_normal,
    segment_closest,
    sphere_closest,
)

UNIT_SQUARE = RectPlane((1, 1, 0), (-1, 1, 0), (-1, -1, 0), (1, -1, 0))
UNIT_CUBE = Cube((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
                 (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1))
SEG_X = Segment((-1, 0, 0), (1, 0, 0))
CYL_Z = Cylinder((0, 0, 0), (0, 0, 2), 0.5)


# -- sphere -----------------------------------------------------------------


def test_sphere_outside():
    cf = sphere_closest((2, 0, 0), Sphere((0, 0, 0), 1.0))
    assert cf.distance == pytest.approx(1.0)
    assert np.allclose(cf.direction, (1, 0, 0))
    assert cf.feature is FeatureKind.ORTHOGONAL


def test_sphere_penetration():
    cf = sphere_closest((0, 0, 0.5), Sphere((0, 0, 0), 1.0))
    assert cf.distance == pytest.approx(-0.5)


def test_point_obstacle():
    cf = sphere_closest((1, 1, 1), Sphere((1, 1, 0), 0.0))
    assert cf.distance == pytest.approx(1.0)
    assert np.allclose(cf.direction, (0, 0, 1))


def test_sphere_center_degenerate():
    with pytest.raises(DegenerateVector):
        sphere_closest((0, 0, 0), Sphere((0, 0, 0), 1.0))


def test_points_on_ends_and_rims_raise_degenerate_or_are_finite():
    # Rounding can put a point on a segment end or a cylinder rim into a
    # vertex branch at distance zero; that is a degenerate query, not a
    # division by zero or a NaN direction.
    rng = np.random.default_rng(3)
    for _ in range(300):
        a, b = np.round(rng.uniform(-1, 1, (2, 3)), 2)
        axis = (b - a) / np.linalg.norm(b - a)
        side = np.cross(axis, rng.normal(size=3))
        rim = 0.3 * side / np.linalg.norm(side)
        seg, cyl = Segment(a, b), Cylinder(a, b, 0.3)
        for prim, point in ((seg, a), (seg, b), (cyl, a + rim), (cyl, b + rim)):
            try:
                cf = closest_feature(point, prim)
            except DegenerateVector:
                continue
            assert math.isfinite(cf.distance) and np.all(np.isfinite(cf.direction))


# -- segment ----------------------------------------------------------------


def test_segment_orthogonal():
    cf = segment_closest((0, 2, 0), SEG_X)
    assert cf.distance == pytest.approx(2.0)
    assert np.allclose(cf.direction, (0, 1, 0))
    assert np.allclose(cf.foot, (0, 0, 0))
    assert cf.feature is FeatureKind.ORTHOGONAL


def test_segment_side_vertex():
    cf = segment_closest((3, 4, 0), SEG_X)
    assert cf.distance == pytest.approx(math.sqrt(20))
    assert np.allclose(cf.direction, np.array([2, 4, 0]) / math.sqrt(20))
    assert cf.feature is FeatureKind.SIDE_VERTEX_2
    assert np.allclose(cf.foot, (1, 0, 0))


def test_segment_dense_sampling_oracle():
    # Frozen from a 10^6-point sampling oracle (pitch 2e-6 over the segment):
    # robot (0.3, 0.7, -0.2) against the unit x segment.
    cf = segment_closest((0.3, 0.7, -0.2), SEG_X)
    oracle = SampledOracle(SEG_X, 2e-6)
    expected = float(oracle.distance([(0.3, 0.7, -0.2)])[0])
    assert expected == pytest.approx(0.7280109889280518, abs=1e-9)
    assert cf.distance == pytest.approx(expected, abs=1e-4)


def test_segment_on_line_degenerate():
    with pytest.raises(DegenerateVector):
        segment_closest((0.25, 0, 0), SEG_X)
    # Collinear but beyond the vertices: well-defined side case.
    cf = segment_closest((2, 0, 0), SEG_X)
    assert cf.distance == pytest.approx(1.0)
    assert cf.feature is FeatureKind.SIDE_VERTEX_2


def test_segment_classification_by_projection(rng):
    seg = random_primitive(rng, "segment")
    u = (seg.p2 - seg.p1) / np.linalg.norm(seg.p2 - seg.p1)
    length = float(np.linalg.norm(seg.p2 - seg.p1))
    for _ in range(200):
        p = rng.uniform(-1, 1, size=3)
        t = float((p - seg.p1) @ u)
        try:
            cf = segment_closest(p, seg)
        except DegenerateVector:
            continue
        if 0.0 <= t <= length:
            assert cf.feature is FeatureKind.ORTHOGONAL
        elif t < 0:
            assert cf.feature is FeatureKind.SIDE_VERTEX_1
        else:
            assert cf.feature is FeatureKind.SIDE_VERTEX_2


# -- plane ------------------------------------------------------------------


def test_plane_normal_axis_square():
    n = plane_normal(UNIT_SQUARE)
    assert np.allclose(np.abs(n), (0, 0, 1))


def test_plane_foot_axis_case():
    square = RectPlane((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0))
    foot, off = plane_foot((0.5, 0.5, 2.0), square)
    assert np.allclose(foot, (0.5, 0.5, 0.0))
    assert abs(off) == pytest.approx(2.0)


def test_plane_foot_on_plane_identity():
    foot, off = plane_foot((0.3, -0.4, 0.0), UNIT_SQUARE)
    assert off == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(foot, (0.3, -0.4, 0.0))


def test_plane_foot_residual(rng):
    for _ in range(100):
        p = random_primitive(rng, "plane")
        robot = rng.uniform(-1, 1, size=3)
        foot, off = plane_foot(robot, p)
        assert abs(float((foot - p.v1) @ p.normal)) < 1e-9


def test_plane_inside_examples():
    assert plane_inside((0, 0, 0), UNIT_SQUARE)
    assert not plane_inside((3, 0, 0), UNIT_SQUARE)


def test_plane_inside_boundary_inclusive():
    assert plane_inside((1, 1, 0), UNIT_SQUARE)  # corner
    assert plane_inside((1, 0, 0), UNIT_SQUARE)  # edge midpoint
    assert not plane_inside((1, 2, 0), UNIT_SQUARE)  # on the edge line, outside


def test_plane_inside_matches_box_oracle(rng):
    # 10^4 random feet, excluding the +-1e-9 boundary band.
    for _ in range(20):
        p = random_primitive(rng, "plane")
        e1 = p.v2 - p.v1
        e2 = p.v4 - p.v1
        for _ in range(500):
            u, v = rng.uniform(-0.5, 1.5, size=2)
            foot = p.v1 + u * e1 + v * e2
            du = min(abs(u), abs(u - 1.0)) * float(np.linalg.norm(e1))
            dv = min(abs(v), abs(v - 1.0)) * float(np.linalg.norm(e2))
            if min(du, dv) <= 1e-9:
                continue
            assert plane_inside(foot, p) == rect_inside_frame(foot, p)


def test_plane_closest_orthogonal():
    square = RectPlane((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0))
    cf = plane_closest((0.5, 0.5, 2.0), square)
    assert cf.distance == pytest.approx(2.0)
    assert np.allclose(cf.direction, (0, 0, 1))
    assert cf.feature is FeatureKind.ORTHOGONAL


def test_plane_closest_edge_case():
    cf = plane_closest((3, 0, 1), UNIT_SQUARE)
    assert cf.distance == pytest.approx(math.sqrt(5))
    assert np.allclose(cf.foot, (1, 0, 0))
    assert np.allclose(cf.direction, np.array([2, 0, 1]) / math.sqrt(5))
    assert cf.feature is FeatureKind.EDGE


def test_plane_on_plane_interior_defaults_to_normal():
    cf = plane_closest((0.2, 0.3, 0.0), UNIT_SQUARE)
    assert cf.distance == 0.0
    assert np.allclose(cf.direction, UNIT_SQUARE.normal)


# -- cube ---------------------------------------------------------------


def test_cube_face_case():
    cf = cube_closest((0.5, 0.5, 2.0), UNIT_CUBE)
    assert cf.distance == pytest.approx(1.0)
    assert np.allclose(cf.direction, (0, 0, 1))
    assert cf.feature is FeatureKind.FACE


def test_cube_edge_case():
    cf = cube_closest((2, 2, 0.5), UNIT_CUBE)
    assert cf.distance == pytest.approx(math.sqrt(2))
    assert np.allclose(cf.foot, (1, 1, 0.5))
    assert np.allclose(cf.direction, np.array([1, 1, 0]) / math.sqrt(2))


def test_cube_penetration():
    cf = cube_closest((0.5, 0.5, 0.9), UNIT_CUBE)
    assert cf.distance == pytest.approx(-0.1)
    assert np.allclose(cf.direction, (0, 0, 1))
    assert cf.feature is FeatureKind.FACE


def test_cube_edge_consistency(rng):
    # At points equidistant to two faces the per-face results agree.
    for _ in range(100):
        s = rng.uniform(0.2, 1.0)
        h = rng.uniform(0.05, 0.5)
        y = rng.uniform(0.1, 0.9) * s
        p = np.array([s + h, y, s + h])  # diagonal off the x/z face pair
        from geopf.queries import _plane_kernel

        cube = Cube((0, 0, 0), (s, 0, 0), (s, s, 0), (0, s, 0),
                    (0, 0, s), (s, 0, s), (s, s, s), (0, s, s))
        per_face = sorted(
            _plane_kernel(p[0], p[1], p[2], f)[0] for f in cube.faces
        )
        assert per_face[1] - per_face[0] < 1e-9


# -- cylinder -------------------------------------------------------------


def test_cylinder_wall():
    cf = cylinder_closest((2, 0, 1), CYL_Z)
    assert cf.distance == pytest.approx(1.5)
    assert np.allclose(cf.direction, (1, 0, 0))
    assert cf.feature is FeatureKind.CURVED_SURFACE


def test_cylinder_cap_on_axis():
    cf = cylinder_closest((0, 0, 3), CYL_Z)
    assert cf.distance == pytest.approx(1.0)
    assert np.allclose(cf.direction, (0, 0, 1))
    assert cf.feature is FeatureKind.CAP_TOP


def test_cylinder_cap_off_axis():
    cf = cylinder_closest((0.2, 0.1, 2.5), CYL_Z)
    assert cf.distance == pytest.approx(0.5)
    assert np.allclose(cf.direction, (0, 0, 1))
    assert cf.feature is FeatureKind.CAP_TOP
    assert np.allclose(cf.foot, (0.2, 0.1, 2.0))


def test_cylinder_rim():
    cf = cylinder_closest((1.5, 0, 3), CYL_Z)
    expected = math.sqrt(1.0 * 1.0 + 1.0)  # to rim point (0.5, 0, 2)
    assert cf.distance == pytest.approx(expected)
    assert cf.feature is FeatureKind.SIDE_VERTEX_2
    assert np.allclose(cf.foot, (0.5, 0, 2))


def test_cylinder_penetration():
    cf = cylinder_closest((0.45, 0, 1.0), CYL_Z)
    assert cf.distance == pytest.approx(-0.05)
    assert np.allclose(cf.direction, (1, 0, 0))


def test_cylinder_near_axis_uses_axial_force():
    # Slightly off-axis above the cap: within the axis cone, the direction
    # stays purely axial.
    cf = cylinder_closest((1e-4, 0, 3.0), CYL_Z)
    assert np.allclose(cf.direction, (0, 0, 1))
    assert cf.distance == pytest.approx(1.0, abs=1e-6)


# -- cross-cutting properties ---------------------------------------------


def test_reconstruction_invariant(rng):
    # foot + distance * direction == robot for non-penetrating queries.
    for kind in PRIMITIVE_KINDS:
        for _ in range(200):
            prim = random_primitive(rng, kind)
            p = rng.uniform(-0.8, 0.8, size=3)
            if point_inside(prim, p):
                continue
            try:
                cf = closest_feature(p, prim)
            except DegenerateVector:
                continue
            if cf.distance < 0:
                continue
            rebuilt = cf.foot + cf.distance * cf.direction
            assert np.linalg.norm(rebuilt - p) < 1e-7
            assert abs(np.linalg.norm(cf.direction) - 1.0) < 1e-9


def test_distance_matches_sampled_oracle_spot_cases(rng):
    # 100 spot cases at pitch 1e-4 / tolerance 1e-4, small primitives.
    cases = {
        "sphere": Sphere((0.02, -0.01, 0.03), 0.02),
        "segment": Segment((-0.02, 0, 0), (0.03, 0.01, 0.02)),
        "plane": RectPlane((0.025, 0.02, 0), (-0.025, 0.02, 0), (-0.025, -0.02, 0), (0.025, -0.02, 0)),
        "cube": Cube((0, 0, 0), (0.04, 0, 0), (0.04, 0.03, 0), (0, 0.03, 0),
                     (0, 0, 0.035), (0.04, 0, 0.035), (0.04, 0.03, 0.035), (0, 0.03, 0.035)),
        "cylinder": Cylinder((0, 0, -0.02), (0.01, 0.01, 0.03), 0.015),
    }
    for kind, prim in cases.items():
        oracle = SampledOracle(prim, 1e-4)
        count = 0
        while count < 20:
            p = rng.uniform(-0.08, 0.1, size=3)
            if point_inside(prim, p):
                continue
            count += 1
            d = distance(p, prim)
            sampled = float(oracle.distance([p])[0])
            assert abs(d - sampled) <= 1e-4, (kind, p, d, sampled)


def _boundary_sweeps(rng):
    """Paths crossing orthogonal/side region boundaries per primitive type."""
    sweeps = []
    seg = Segment((-0.2, 0, 0), (0.2, 0, 0))
    for _ in range(8):
        y = rng.uniform(0.05, 0.3)
        z = rng.uniform(-0.2, 0.2)
        sweeps.append((seg, np.array([-0.1, y, z]), np.array([-0.35, y, z])))
    plane = RectPlane((0.2, 0.15, 0), (-0.2, 0.15, 0), (-0.2, -0.15, 0), (0.2, -0.15, 0))
    for _ in range(8):
        h = rng.uniform(0.05, 0.3)
        y = rng.uniform(-0.1, 0.1)
        sweeps.append((plane, np.array([0.1, y, h]), np.array([0.35, y, h])))
    cube = Cube((0, 0, 0), (0.2, 0, 0), (0.2, 0.2, 0), (0, 0.2, 0),
                (0, 0, 0.2), (0.2, 0, 0.2), (0.2, 0.2, 0.2), (0, 0.2, 0.2))
    for _ in range(8):
        h = rng.uniform(0.25, 0.5)
        y = rng.uniform(0.02, 0.18)
        sweeps.append((cube, np.array([0.1, y, h]), np.array([0.4, y, h])))
    cyl = Cylinder((0, 0, -0.15), (0, 0, 0.15), 0.08)
    for _ in range(8):
        ang = rng.uniform(0, 2 * math.pi)
        d = rng.uniform(0.02, 0.2)
        u = np.array([math.cos(ang), math.sin(ang), 0.0])
        sweeps.append((cyl, 0.03 * u + np.array([0, 0, 0.15 + d]), 0.25 * u + np.array([0, 0, 0.15 + d])))
    return sweeps


def test_direction_continuity_across_region_boundaries(rng):
    eps = 1e-6
    checked = 0
    for prim, a, b in _boundary_sweeps(rng):
        f0 = closest_feature(a, prim)
        f1 = closest_feature(b, prim)
        if (f0.feature, f0.index) == (f1.feature, f1.index):
            continue
        lo, hi = 0.0, 1.0
        key0 = (f0.feature, f0.index)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fm = closest_feature(a + mid * (b - a), prim)
            if (fm.feature, fm.index) == key0:
                lo = mid
            else:
                hi = mid
        span = float(np.linalg.norm(b - a))
        t_eps = eps / span
        before = closest_feature(a + max(lo - t_eps, 0.0) * (b - a), prim)
        after = closest_feature(a + min(hi + t_eps, 1.0) * (b - a), prim)
        cos = float(np.clip(before.direction @ after.direction, -1.0, 1.0))
        assert math.acos(cos) <= 1e-3, (type(prim).__name__, before, after)
        assert abs(before.distance - after.distance) <= 2 * eps + 1e-9
        checked += 1
    assert checked >= 16  # most sweeps must actually cross a boundary


def test_distance_lipschitz_along_paths(rng):
    # |delta d| <= 2 * step along straight paths (1-Lipschitz distance).
    for prim, a, b in _boundary_sweeps(rng)[:12]:
        ts = np.linspace(0, 1, 201)
        pts = a[None, :] + ts[:, None] * (b - a)[None, :]
        step = float(np.linalg.norm(pts[1] - pts[0]))
        ds = [distance(p, prim) for p in pts]
        for d0, d1 in zip(ds, ds[1:]):
            assert abs(d1 - d0) <= 2 * step
