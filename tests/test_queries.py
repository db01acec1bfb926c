"""Closest-feature queries: frozen examples, oracle agreement, invariants."""

import math

import numpy as np
import pytest
from conftest import (
    PRIMITIVE_KINDS,
    SampledOracle,
    frame_edges,
    point_inside,
    random_basis,
    random_primitive,
    rect_edges,
    rect_inside_frame,
)

from geopf import (
    Cube,
    Cylinder,
    DegenerateVector,
    FeatureKind,
    RectPlane,
    SceneClass,
    Segment,
    Sphere,
    closest_feature,
    distance,
    generate,
    translated,
)
from geopf import queries
from geopf.primitives import CUBE_FACE_CORNERS, DEGENERACY_EPS, cross3
from geopf.queries import _kernel_for

UNIT_SQUARE = RectPlane((1, 1, 0), (-1, 1, 0), (-1, -1, 0), (1, -1, 0))
UNIT_CUBE = Cube((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
                 (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1))
SEG_X = Segment((-1, 0, 0), (1, 0, 0))
CYL_Z = Cylinder((0, 0, 0), (0, 0, 2), 0.5)


# -- sphere -----------------------------------------------------------------


def test_sphere_outside():
    cf = closest_feature((2, 0, 0), Sphere((0, 0, 0), 1.0))
    assert cf.distance == pytest.approx(1.0)
    assert np.allclose(cf.direction, (1, 0, 0))
    assert cf.feature is FeatureKind.ORTHOGONAL


def test_sphere_penetration():
    cf = closest_feature((0, 0, 0.5), Sphere((0, 0, 0), 1.0))
    assert cf.distance == pytest.approx(-0.5)


def test_point_obstacle():
    cf = closest_feature((1, 1, 1), Sphere((1, 1, 0), 0.0))
    assert cf.distance == pytest.approx(1.0)
    assert np.allclose(cf.direction, (0, 0, 1))


def test_sphere_center_degenerate():
    with pytest.raises(DegenerateVector):
        closest_feature((0, 0, 0), Sphere((0, 0, 0), 1.0))


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
    cf = closest_feature((0, 2, 0), SEG_X)
    assert cf.distance == pytest.approx(2.0)
    assert np.allclose(cf.direction, (0, 1, 0))
    assert np.allclose(cf.foot, (0, 0, 0))
    assert cf.feature is FeatureKind.ORTHOGONAL


def test_segment_side_vertex():
    cf = closest_feature((3, 4, 0), SEG_X)
    assert cf.distance == pytest.approx(math.sqrt(20))
    assert np.allclose(cf.direction, np.array([2, 4, 0]) / math.sqrt(20))
    assert cf.feature is FeatureKind.SIDE_VERTEX_2
    assert np.allclose(cf.foot, (1, 0, 0))


def test_segment_dense_sampling_oracle():
    # Frozen from a 10^6-point sampling oracle (pitch 2e-6 over the segment):
    # robot (0.3, 0.7, -0.2) against the unit x segment.
    cf = closest_feature((0.3, 0.7, -0.2), SEG_X)
    oracle = SampledOracle(SEG_X, 2e-6)
    expected = float(oracle.distance([(0.3, 0.7, -0.2)])[0])
    assert expected == pytest.approx(0.7280109889280518, abs=1e-9)
    assert cf.distance == pytest.approx(expected, abs=1e-4)


def test_segment_on_line_degenerate():
    with pytest.raises(DegenerateVector):
        closest_feature((0.25, 0, 0), SEG_X)
    # Collinear but beyond the vertices: well-defined side case.
    cf = closest_feature((2, 0, 0), SEG_X)
    assert cf.distance == pytest.approx(1.0)
    assert cf.feature is FeatureKind.SIDE_VERTEX_2


def test_segment_classification_by_projection(rng):
    seg = random_primitive(rng, "segment")
    u = np.subtract(seg.p2, seg.p1) / np.linalg.norm(np.subtract(seg.p2, seg.p1))
    length = float(np.linalg.norm(np.subtract(seg.p2, seg.p1)))
    for _ in range(200):
        p = rng.uniform(-1, 1, size=3)
        t = float((p - seg.p1) @ u)
        try:
            cf = closest_feature(p, seg)
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
    n = UNIT_SQUARE.normal
    assert np.allclose(np.abs(n), (0, 0, 1))


def _plane_foot(robot, plane):
    """The robot's perpendicular foot on the rectangle's supporting plane,
    f = p - ((p - v1) . n) n, and the signed offset (p - v1) . n, taken
    from the kernels' ``_plane_offset``."""
    p = np.asarray(robot, dtype=float)
    off = queries._plane_offset(*p.tolist(), plane)
    return p - off * plane.normal, off


def _plane_inside(foot, plane):
    """The rectangle's frame test, ``_plane_contains``, on a numpy point."""
    return queries._plane_contains(*np.asarray(foot, dtype=float).tolist(), plane)


def test_plane_foot_axis_case():
    square = RectPlane((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0))
    foot, off = _plane_foot((0.5, 0.5, 2.0), square)
    assert np.allclose(foot, (0.5, 0.5, 0.0))
    assert abs(off) == pytest.approx(2.0)


def test_plane_foot_on_plane_identity():
    foot, off = _plane_foot((0.3, -0.4, 0.0), UNIT_SQUARE)
    assert off == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(foot, (0.3, -0.4, 0.0))


def test_plane_foot_residual(rng):
    for _ in range(100):
        p = random_primitive(rng, "plane")
        robot = rng.uniform(-1, 1, size=3)
        foot, off = _plane_foot(robot, p)
        assert abs(float((foot - p.v1) @ p.normal)) < 1e-9


def _four_indicator_inside(fx, fy, fz, plane):
    """The paper's four-indicator containment test, kept as a reference for
    the rectangle's frame test.

    The indicators are the normalized cross products of successive unit
    directions from the point to the corners; the point is inside iff they
    all share one orientation.  Points on a corner or an edge count as
    inside.
    """
    vs = plane.corners
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
        if cx * nx + cy * ny + cz * nz > 0.0:
            pos = True
        else:
            neg = True
        if pos and neg:
            return False
    return True


# Corner-id pairs (1-based) of rectangle edge k = 0..3.
_RECT_EDGE_IDS = ((1, 2), (2, 3), (3, 4), (4, 1))


def _plane_side_kernel(rx, ry, rz, edges):
    """The nearest boundary feature as the minimum over the segment queries
    of a rectangle's four ``edges``, keeping the first of equal distances,
    with corner ids in the payload: the four-edge reference for
    ``queries._plane_kernel``, which clamps the foot's frame coordinates
    instead."""
    best = None
    best_k = 0
    for k, edge in enumerate(edges):
        res = queries._segment_kernel(rx, ry, rz, edge)
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


def _rect_query(inside, edges, rx, ry, rz, plane):
    """The rectangle query with containment test ``inside``: the
    perpendicular foot inside, else the minimum over ``edges``, which raises
    ``DegenerateVector`` when the robot touches an edge."""
    off = queries._plane_offset(rx, ry, rz, plane)
    nx, ny, nz = plane._n
    fx, fy, fz = rx - off * nx, ry - off * ny, rz - off * nz
    if inside(fx, fy, fz, plane):
        if off >= 0.0:
            return (off, nx, ny, nz, fx, fy, fz, FeatureKind.ORTHOGONAL, ())
        return (-off, -nx, -ny, -nz, fx, fy, fz, FeatureKind.ORTHOGONAL, ())
    return _plane_side_kernel(rx, ry, rz, edges)


def _four_indicator_plane_kernel(rx, ry, rz, plane):
    """The paper's rectangle query: the perpendicular foot when the
    four-indicator test puts it inside, else the nearest boundary feature."""
    return _rect_query(_four_indicator_inside, rect_edges(plane), rx, ry, rz, plane)


def _four_edge_plane_kernel(rx, ry, rz, plane):
    """The rectangle query with the four-edge minimum outside, over the
    edges of the rectangle the frame spans (``frame_edges``): the reference
    for ``queries._plane_kernel``'s clamp.  A touched edge is a contact at
    distance 0 along the normal on the robot's side."""
    try:
        return _rect_query(queries._plane_contains, frame_edges(plane), rx, ry, rz, plane)
    except DegenerateVector:
        off = queries._plane_offset(rx, ry, rz, plane)
        nx, ny, nz = plane._n
        fx, fy, fz = rx - off * nx, ry - off * ny, rz - off * nz
        if off < 0.0:
            nx, ny, nz = -nx, -ny, -nz
        return (0.0, nx, ny, nz, fx, fy, fz, FeatureKind.ORTHOGONAL, ())


def test_plane_inside_examples():
    assert _plane_inside((0, 0, 0), UNIT_SQUARE)
    assert not _plane_inside((3, 0, 0), UNIT_SQUARE)


def test_plane_inside_boundary_inclusive():
    assert _plane_inside((1, 1, 0), UNIT_SQUARE)  # corner
    assert _plane_inside((1, 0, 0), UNIT_SQUARE)  # edge midpoint
    assert not _plane_inside((1, 2, 0), UNIT_SQUARE)  # on the edge line, outside


def test_plane_inside_matches_box_oracle(rng):
    # 10^4 random feet, excluding the +-1e-9 boundary band.
    for _ in range(20):
        p = random_primitive(rng, "plane")
        e1 = np.subtract(p.v2, p.v1)
        e2 = np.subtract(p.v4, p.v1)
        for _ in range(500):
            u, v = rng.uniform(-0.5, 1.5, size=2)
            foot = np.asarray(p.v1) + u * e1 + v * e2
            du = min(abs(u), abs(u - 1.0)) * float(np.linalg.norm(e1))
            dv = min(abs(v), abs(v - 1.0)) * float(np.linalg.norm(e2))
            if min(du, dv) <= 1e-9:
                continue
            inside = _plane_inside(foot, p)
            assert inside == rect_inside_frame(foot, p)
            assert inside == _four_indicator_inside(*foot.tolist(), p)


def test_plane_closest_orthogonal():
    square = RectPlane((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0))
    cf = closest_feature((0.5, 0.5, 2.0), square)
    assert cf.distance == pytest.approx(2.0)
    assert np.allclose(cf.direction, (0, 0, 1))
    assert cf.feature is FeatureKind.ORTHOGONAL


def test_plane_closest_edge_case():
    cf = closest_feature((3, 0, 1), UNIT_SQUARE)
    assert cf.distance == pytest.approx(math.sqrt(5))
    assert np.allclose(cf.foot, (1, 0, 0))
    assert np.allclose(cf.direction, np.array([2, 0, 1]) / math.sqrt(5))
    assert cf.feature is FeatureKind.EDGE


def test_plane_on_plane_interior_defaults_to_normal():
    cf = closest_feature((0.2, 0.3, 0.0), UNIT_SQUARE)
    assert cf.distance == 0.0
    assert np.allclose(cf.direction, UNIT_SQUARE.normal)


def test_plane_in_plane_near_edges_never_raises():
    """In a rectangle's plane, 1e-16 to 1e-7 m inside or outside an edge, the
    query never raises and its distance is the true one to 1e-12 m: zero
    inside, the offset outside.  Within 1e-12 m of the edge that is a
    contact, whose direction degenerates in the edge query."""
    rng = np.random.default_rng(53)
    contacts = 0
    for _ in range(200):
        rect = random_primitive(rng, "plane")
        center = rect.center
        for _ in range(50):
            edge = rect_edges(rect)[int(rng.integers(4))]
            u = np.array(edge._u)
            on_edge = np.array(edge.p1) + rng.uniform(0.0, edge.length) * u
            outward = np.cross(u, rect.normal)
            if outward @ (on_edge - center) < 0.0:
                outward = -outward
            delta = 10 ** rng.uniform(-16, -7)
            side = float(rng.choice((-1.0, 1.0)))
            d = distance(on_edge + side * delta * outward, rect)
            assert abs(d - (delta if side > 0.0 else 0.0)) <= 1e-12, (delta, side, d)
            contacts += delta <= 1e-12
    assert contacts > 0


def _frame_rects():
    """The rectangles of plane_hard seeds 0-2 and the faces of 12 seeded
    boxes (axis-aligned, rotated and thin)."""
    rects = [
        ob.primitive
        for seed in range(3)
        for ob in generate(SceneClass.PLANE_HARD, seed).obstacles
        if isinstance(ob.primitive, RectPlane)
    ]
    for cube, *_ in _seeded_boxes(np.random.default_rng(59), 12):
        rects.extend(cube.faces)
    return rects


def _frame_probes(rng, rect):
    """Probe points ``(region, point, gap)`` of a rectangle, placed by their
    frame coordinates s = (p - v1).u1 and t = (p - v1).u2 and offset along
    the normal.  ``region`` is (i, j), i and j being 0 below, 1 within and 2
    above [0, L1] and [0, L2]: one point on the plane and two off it in each
    of the nine regions.  Then 1e-16 to 1e-9 m from a region line (s or t at
    0 or at its edge's length), by the lines and at the corners, on the
    plane and off it, with ``region`` None.  ``gap`` is the distance from
    the nearest region line.  u2 is the direction of the frame's own edge
    from its second corner to its third (``frame_edges``)."""
    e1, e2 = frame_edges(rect)[:2]
    L1, L2 = e1.length, e2.length
    v1, u1, u2, n = (np.array(v) for v in (e1.p1, e1._u, e2._u, rect._n))
    size = max(L1, L2)

    def coord(region, L):
        if region == 0:
            return -rng.uniform(0.01, 2.0) * size
        if region == 1:
            return rng.uniform(0.01, 0.99) * L
        return L + rng.uniform(0.01, 2.0) * size

    def near(L):
        return rng.choice((0.0, L)) + rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-16, -9)

    def off(on_plane):
        return 0.0 if on_plane else rng.choice((-1.0, 1.0)) * rng.uniform(0.01, 2.0) * size

    coords = [((i, j), coord(i, L1), coord(j, L2), off(k == 0))
              for i, j in np.ndindex(3, 3) for k in range(3)]
    for k in range(12):
        s, t = coord(rng.integers(3), L1), coord(rng.integers(3), L2)
        if k % 3 != 1:
            s = near(L1)
        if k % 3 != 0:
            t = near(L2)
        coords.append((None, s, t, off(k < 6)))
    return [
        (region, (v1 + s * u1 + t * u2 + h * n).tolist(),
         min(abs(s), abs(s - L1), abs(t), abs(t - L2)))
        for region, s, t, h in coords
    ]


def test_plane_kernel_agrees_with_the_four_edge_minimum():
    """The clamp in the rectangle's frame against the four-edge reference.
    Inside, region (1, 1), every bit agrees.  In the eight outside regions,
    off a 1e-9 m band around the region lines of the foot's frame, on the
    plane and off it, the distances agree to 1e-15 m, the directions and
    feet to 1e-13, and the kinds and indices exactly: the clamped point and
    the edge query's foot are the same point, rounded differently.  In the
    band, where rounding may put the foot in the neighbouring region, the
    distances agree to 1e-15 m."""
    rng = np.random.default_rng(61)
    rects = _frame_rects()
    kinds = set()
    inside = outside = banded = 0
    for rect in rects:
        for region, (x, y, z), gap in _frame_probes(rng, rect):
            got = queries._plane_kernel(x, y, z, rect)
            ref = _four_edge_plane_kernel(x, y, z, rect)
            if gap <= 1e-9:
                assert abs(got[0] - ref[0]) <= 1e-15, (got, ref)
                banded += 1
                continue
            if region == (1, 1):
                assert [v.hex() for v in got[:7]] == [v.hex() for v in ref[:7]], (got, ref)
                inside += 1
            else:
                assert abs(got[0] - ref[0]) <= 1e-15, (got, ref)
                assert max(abs(g - r) for g, r in zip(got[1:7], ref[1:7])) <= 1e-13, (got, ref)
                outside += 1
            assert got[7] is ref[7] and got[8] == ref[8], (got, ref)
            kinds.add(got[7])
    assert inside == 3 * len(rects) and outside == 24 * len(rects)
    assert banded == 12 * len(rects)
    assert kinds == {FeatureKind.ORTHOGONAL, FeatureKind.EDGE,
                     FeatureKind.SIDE_VERTEX_1, FeatureKind.SIDE_VERTEX_2}


def test_plane_kernel_makes_no_segment_query(monkeypatch):
    calls = []
    segment_kernel = queries._segment_kernel

    def counted(*args):
        calls.append(args)
        return segment_kernel(*args)

    monkeypatch.setattr(queries, "_segment_kernel", counted)
    rng = np.random.default_rng(67)
    regions = set()
    for rect in _frame_rects()[::7]:
        for region, (x, y, z), _ in _frame_probes(rng, rect):
            queries._plane_kernel(x, y, z, rect)
            regions.add(region)
    assert calls == [] and len(regions) == 10


def test_plane_kernel_reads_one_frame_record():
    """``RectPlane._frame`` is corner v1, the normal, the length and unit
    direction u1 of the first edge, the second edge's length and
    u2 = u1 x n.  On every probe the kernel returns the foot result, the
    offset of ``_plane_offset`` along the normal on the robot's side at the
    foot, bit for bit, when
    ``_plane_contains`` accepts the foot.  Otherwise it returns no
    ORTHOGONAL result at d != 0: off the boundary it names an edge or a
    corner, and on it a contact at distance 0."""
    rng = np.random.default_rng(71)
    feet = others = 0
    for rect in _frame_rects():
        e1, e2 = rect_edges(rect)[:2]
        u2 = cross3(e1._u, rect._n)
        assert rect._frame == (*e1.p1, *rect._n, e1.length, *e1._u, e2.length, *u2)
        nx, ny, nz = rect._n
        for _, (x, y, z), _ in _frame_probes(rng, rect):
            got = queries._plane_kernel(x, y, z, rect)
            off = queries._plane_offset(x, y, z, rect)
            f = (x - off * nx, y - off * ny, z - off * nz)
            if queries._plane_contains(*f, rect):
                ref = (off, nx, ny, nz) if off >= 0.0 else (-off, -nx, -ny, -nz)
                assert [v.hex() for v in got[:7]] == [v.hex() for v in ref + f], (got, off)
                assert got[7] is FeatureKind.ORTHOGONAL and got[8] == ()
                feet += 1
            else:
                assert got[7] is not FeatureKind.ORTHOGONAL or got[0] == 0.0, got
                others += 1
    assert feet > 0 and others > 0


# -- cube ---------------------------------------------------------------


def test_cube_face_case():
    cf = closest_feature((0.5, 0.5, 2.0), UNIT_CUBE)
    assert cf.distance == pytest.approx(1.0)
    assert np.allclose(cf.direction, (0, 0, 1))
    assert cf.feature is FeatureKind.FACE


def test_cube_edge_case():
    cf = closest_feature((2, 2, 0.5), UNIT_CUBE)
    assert cf.distance == pytest.approx(math.sqrt(2))
    assert np.allclose(cf.foot, (1, 1, 0.5))
    assert np.allclose(cf.direction, np.array([1, 1, 0]) / math.sqrt(2))


def test_cube_penetration():
    cf = closest_feature((0.5, 0.5, 0.9), UNIT_CUBE)
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


def _outward_normals(cube):
    """Each face's unit normal, oriented away from the box's centroid."""
    cx, cy, cz, _ = cube.bounding_sphere
    normals = []
    for face in cube.faces:
        nx, ny, nz = face._n
        fx, fy, fz, _ = face.bounding_sphere
        d = (fx - cx) * nx + (fy - cy) * ny + (fz - cz) * nz
        normals.append((nx, ny, nz) if d >= 0.0 else (-nx, -ny, -nz))
    return normals


def _six_face_reference(rx, ry, rz, cube):
    """The box query as the minimum of the paper's rectangle query over all
    six faces, pruned by |offset| only: the reference for ``_cube_kernel``,
    which clamps the robot in the box's own frame instead."""
    outward = _outward_normals(cube)
    offs = []
    for face, (nx, ny, nz) in zip(cube.faces, outward):
        v1x, v1y, v1z = face.v1
        offs.append((rx - v1x) * nx + (ry - v1y) * ny + (rz - v1z) * nz)
    if max(offs) < 0.0:
        i = max(range(6), key=lambda k: offs[k])
        nx, ny, nz = outward[i]
        off = offs[i]
        return (off, nx, ny, nz, rx - off * nx, ry - off * ny, rz - off * nz,
                FeatureKind.FACE, (i + 1,))
    best = None
    best_i = 0
    for i in sorted(range(6), key=lambda k: abs(offs[k])):
        if best is not None and abs(offs[i]) >= best[0]:
            break
        res = _four_indicator_plane_kernel(rx, ry, rz, cube.faces[i])
        if best is None or res[0] < best[0]:
            best = res
            best_i = i
    kind, ids = best[7], best[8]
    corners = CUBE_FACE_CORNERS[best_i]
    if kind is FeatureKind.ORTHOGONAL:
        return best[:7] + (FeatureKind.FACE, (best_i + 1,))
    return best[:7] + (kind, tuple(corners[k - 1] + 1 for k in ids))


def _seeded_boxes(rng, count):
    """``count`` boxes, a third each axis-aligned, randomly rotated and thin
    1:100 slabs, with their centre, local axes (rows) and half-extents."""
    boxes = []
    for i in range(count):
        center = rng.uniform(-1, 1, size=3)
        if i % 3 == 0:
            axes = np.eye(3)
        else:
            axes = np.array(random_basis(rng))
        if i % 3 == 2:
            half = rng.permutation(np.array([0.5, 0.5, 0.005]) * rng.uniform(0.2, 1.0))
        else:
            half = rng.uniform(0.05, 0.5, size=3)
        bottom = [center + sx * half[0] * axes[0] + sy * half[1] * axes[1] - half[2] * axes[2]
                  for sx, sy in ((1, 1), (-1, 1), (-1, -1), (1, -1))]
        top = [v + 2 * half[2] * axes[2] for v in bottom]
        boxes.append((Cube(*bottom, *top), center, axes, half))
    return boxes


def _region_point(rng, center, axes, half, signs):
    """A point in the outside region given by per-axis signs (-1 below the
    box, 0 within its slab, +1 above it), up to three box sizes away."""
    size = 2.0 * float(half.max())
    local = [
        rng.uniform(-0.95, 0.95) * h if s == 0 else s * (h + rng.uniform(0.01, 3.0) * size)
        for s, h in zip(signs, half)
    ]
    return center + np.asarray(local) @ axes


_REGIONS = [s for s in np.ndindex(3, 3, 3) if s != (1, 1, 1)]


def test_cube_kernel_matches_six_face_reference_on_generic_points():
    rng = np.random.default_rng(41)
    compared = 0
    for cube, center, axes, half in _seeded_boxes(rng, 90):
        size = 2.0 * float(half.max())
        points = [_region_point(rng, center, axes, half, np.array(s) - 1) for s in _REGIONS]
        for _ in range(10):
            u = rng.normal(size=3)
            points.append(center + u / np.linalg.norm(u) * rng.uniform(10, 100) * size)
        for _ in range(5):
            points.append(center + (rng.uniform(-0.95, 0.95, size=3) * half) @ axes)
        for p in points:
            x, y, z = p.tolist()
            got = queries._cube_kernel(x, y, z, cube)
            ref = _six_face_reference(x, y, z, cube)
            assert np.allclose(got[:7], ref[:7], rtol=0.0, atol=1e-12), (got, ref)
            assert _same_cube_feature(got, ref), (got, ref)
            compared += 1
    assert compared == 90 * (26 + 10 + 5)


_CORNER_KINDS = (FeatureKind.SIDE_VERTEX_1, FeatureKind.SIDE_VERTEX_2)


def _same_cube_feature(got, ref):
    """The same FACE number, the same EDGE as a set of corner ids, or the
    same corner id under either SIDE_VERTEX kind."""
    if ref[7] in _CORNER_KINDS:
        return got[7] in _CORNER_KINDS and got[8] == ref[8]
    if ref[7] is FeatureKind.EDGE:
        return got[7] is FeatureKind.EDGE and set(got[8]) == set(ref[8])
    return got[7] is ref[7] and got[8] == ref[8]


def test_cube_kernel_near_face_planes_agrees_with_reference():
    """Within 1e-16 to 1e-7 m of a face plane's extension, and exactly on
    edges and corners, the kernel never raises and its distance agrees with
    the reference to 1e-12 m; where the reference raises DegenerateVector
    (the robot touches the box) the kernel reports |d| <= 1e-12 m."""
    rng = np.random.default_rng(43)
    compared = contacts = 0
    for cube, center, axes, half in _seeded_boxes(rng, 90):
        for _ in range(40):
            signs = rng.integers(-1, 2, size=3)
            local = _region_point(rng, np.zeros(3), np.eye(3), half, signs).tolist()
            j = int(rng.integers(3))
            side = float(rng.choice((-1.0, 1.0)))
            local[j] = side * half[j] + float(rng.choice((-1.0, 1.0))) * 10 ** rng.uniform(-16, -7)
            if rng.random() < 0.25:
                local[j] = side * half[j]
            if rng.random() < 0.2:  # onto an edge or a corner
                for k in range(3):
                    if rng.random() < 0.7:
                        local[k] = float(rng.choice((-1.0, 1.0))) * half[k]
            x, y, z = (center + np.asarray(local) @ axes).tolist()
            got = queries._cube_kernel(x, y, z, cube)
            try:
                ref = _six_face_reference(x, y, z, cube)
            except DegenerateVector:
                assert abs(got[0]) <= 1e-12, got
                contacts += 1
                continue
            assert abs(got[0] - ref[0]) <= 1e-12, (got, ref)
            compared += 1
    assert compared >= 3500
    assert contacts > 0


@pytest.mark.parametrize("outside", [0, 1, 2, 3], ids=["inside", "face", "edge", "vertex"])
def test_cube_kernel_calls_no_rectangle_or_segment_kernel(monkeypatch, outside):
    """The box query is one clamp: in every outside region (past one, two or
    three faces' planes) and inside, it calls no rectangle or segment query."""
    calls = []

    def counted(kernel):
        def wrapper(*args):
            calls.append(kernel.__name__)
            return kernel(*args)

        return wrapper

    for name in ("_plane_kernel", "_segment_kernel"):
        monkeypatch.setattr(queries, name, counted(getattr(queries, name)))
    rng = np.random.default_rng(47)
    regions = [np.array(s) - 1 for s in np.ndindex(3, 3, 3)]
    queried = 0
    for cube, center, axes, half in _seeded_boxes(rng, 30):
        for signs in regions:
            if np.count_nonzero(signs) != outside:
                continue
            if outside:
                x, y, z = _region_point(rng, center, axes, half, signs).tolist()
            else:
                x, y, z = (center + (rng.uniform(-0.95, 0.95, size=3) * half) @ axes).tolist()
            queries._cube_kernel(x, y, z, cube)
            assert calls == [], (signs, calls)
            queried += 1
    assert queried == 30 * {0: 1, 1: 6, 2: 12, 3: 8}[outside]


@pytest.mark.parametrize(
    "point",
    [
        (0.5, 0.5, 1.0),  # on a face
        (1.0, 1.0, 0.5),  # on an edge
        (1.0, 1.0, 1.0),  # at a corner
        (0.0, 0.5, 0.0),  # on an edge, at the origin's faces
        (1.0 + 1e-13, 1.0, 0.5),  # 1e-13 beyond an edge, in a face's plane
    ],
)
def test_cube_contact_is_zero_distance_on_a_face(point):
    cf = closest_feature(point, UNIT_CUBE)
    assert cf.distance == 0.0
    assert cf.feature is FeatureKind.FACE
    assert float(cf.direction @ (np.array(point) - 0.5)) > 0.0  # out of the box


# -- cylinder -------------------------------------------------------------


def test_cylinder_wall():
    cf = closest_feature((2, 0, 1), CYL_Z)
    assert cf.distance == pytest.approx(1.5)
    assert np.allclose(cf.direction, (1, 0, 0))
    assert cf.feature is FeatureKind.CURVED_SURFACE


def test_cylinder_cap_on_axis():
    cf = closest_feature((0, 0, 3), CYL_Z)
    assert cf.distance == pytest.approx(1.0)
    assert np.allclose(cf.direction, (0, 0, 1))
    assert cf.feature is FeatureKind.CAP_TOP


def test_cylinder_cap_off_axis():
    cf = closest_feature((0.2, 0.1, 2.5), CYL_Z)
    assert cf.distance == pytest.approx(0.5)
    assert np.allclose(cf.direction, (0, 0, 1))
    assert cf.feature is FeatureKind.CAP_TOP
    assert np.allclose(cf.foot, (0.2, 0.1, 2.0))


def test_cylinder_rim():
    cf = closest_feature((1.5, 0, 3), CYL_Z)
    expected = math.sqrt(1.0 * 1.0 + 1.0)  # to rim point (0.5, 0, 2)
    assert cf.distance == pytest.approx(expected)
    assert cf.feature is FeatureKind.SIDE_VERTEX_2
    assert np.allclose(cf.foot, (0.5, 0, 2))


def test_cylinder_penetration():
    cf = closest_feature((0.45, 0, 1.0), CYL_Z)
    assert cf.distance == pytest.approx(-0.05)
    assert np.allclose(cf.direction, (1, 0, 0))


def test_cylinder_near_axis_uses_axial_force():
    # Slightly off-axis above the cap: within the axis cone, the direction
    # stays purely axial.
    cf = closest_feature((1e-4, 0, 3.0), CYL_Z)
    assert np.allclose(cf.direction, (0, 0, 1))
    assert cf.distance == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize(
    "point, d, kind",
    [
        ((0, 0, 2), 0.0, FeatureKind.CAP_TOP),
        ((0, 0, 0.5), -0.5, FeatureKind.CAP_BOTTOM),
        ((1.5, 0, -1), math.sqrt(2.0), FeatureKind.SIDE_VERTEX_1),
        ((1.5, 0, 3), math.sqrt(2.0), FeatureKind.SIDE_VERTEX_2),
        ((0.5, 0, 1), 0.0, FeatureKind.CURVED_SURFACE),
        ((0.2, 0.1, 2.5), 0.5, FeatureKind.CAP_TOP),
        ((0.2, 0.1, -0.5), 0.5, FeatureKind.CAP_BOTTOM),
        ((0.45, 0, 1), 0.45 - 0.5, FeatureKind.CURVED_SURFACE),
        ((0.3, 0, 2), -0.0, FeatureKind.CAP_TOP),
        ((0.1, 0, 0.1), -0.1, FeatureKind.CAP_BOTTOM),
    ],
    ids=[
        "axis_top_at_cap",
        "axis_bottom_half",
        "rim_a1",
        "rim_a2",
        "wall_contact",
        "over_top",
        "under_bottom",
        "inside_nearest_wall",
        "inside_nearest_top_at_cap",
        "inside_nearest_bottom",
    ],
)
def test_cylinder_feature_and_signed_distance(point, d, kind):
    # One point per feature branch, outside and inside.  At t == L the top
    # cap's distance is +0.0 on the axis and -0.0 inside off the axis.
    cf = closest_feature(point, CYL_Z)
    assert cf.feature is kind
    assert cf.distance == d
    assert math.copysign(1.0, cf.distance) == math.copysign(1.0, d)


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


# -- translation invariance -----------------------------------------------------


def _kind_is_stable(kern, x, y, z, prim, eps=1e-7):
    """Whether the feature kind stays put when the point moves by ``eps``
    along each axis, i.e. the point is away from ties."""
    kind = kern(x, y, z, prim)[7]
    for axis in range(3):
        for step in (eps, -eps):
            p = [x, y, z]
            p[axis] += step
            if kern(*p, prim)[7] is not kind:
                return False
    return True


@pytest.mark.parametrize("kind", PRIMITIVE_KINDS)
def test_kernels_are_translation_invariant(kind):
    """Querying the base primitive at robot - offset gives the translated
    primitive's distance and direction, and its foot shifted back."""
    rng = np.random.default_rng(7 + PRIMITIVE_KINDS.index(kind))
    compared = 0
    for _ in range(20):
        base = random_primitive(rng, kind)
        kern = _kernel_for(base)
        for _ in range(20):
            ox, oy, oz = rng.uniform(-0.5, 0.5, size=3).tolist()
            moved = translated(base, (ox, oy, oz))
            robot = np.array(moved.bounding_sphere[:3]) + rng.uniform(-0.5, 0.5, size=3)
            rx, ry, rz = robot.tolist()
            shifted = kern(rx - ox, ry - oy, rz - oz, base)
            direct = kern(rx, ry, rz, moved)
            assert shifted[0] == pytest.approx(direct[0], abs=1e-12)
            assert shifted[1:4] == pytest.approx(direct[1:4], abs=1e-12)
            foot = (shifted[4] + ox, shifted[5] + oy, shifted[6] + oz)
            assert foot == pytest.approx(direct[4:7], abs=1e-12)
            if _kind_is_stable(kern, rx - ox, ry - oy, rz - oz, base):
                # A box edge may come from either of its faces, so its
                # corner ids may come in either order.
                assert shifted[7] is direct[7]
                assert sorted(shifted[8]) == sorted(direct[8])
                compared += 1
    assert compared >= 390


# -- public functions on Python floats --------------------------------------------

@pytest.mark.parametrize("kind", PRIMITIVE_KINDS)
def test_public_queries_return_python_floats_matching_the_kernel(kind):
    """A numpy robot gives the kernel's own result on the robot's floats,
    bit for bit, with a Python ``float`` distance."""
    rng = np.random.default_rng(31 + PRIMITIVE_KINDS.index(kind))
    for _ in range(50):
        prim = random_primitive(rng, kind)
        robot = rng.uniform(-0.6, 0.6, size=3)
        raw = _kernel_for(prim)(*robot.tolist(), prim)
        dist = distance(robot, prim)
        assert type(dist) is float and dist.hex() == raw[0].hex()
        cf = closest_feature(robot, prim)
        assert type(cf.distance) is float
        floats = (cf.distance, *cf.direction.tolist(), *cf.foot.tolist())
        assert list(map(float.hex, floats)) == list(map(float.hex, raw[:7]))
        assert (cf.feature, cf.index) == raw[7:]


def test_plane_foot_and_inside_return_python_scalars():
    rng = np.random.default_rng(47)
    for _ in range(50):
        plane = random_primitive(rng, "plane")
        robot = rng.uniform(-0.6, 0.6, size=3)
        foot, off = _plane_foot(robot, plane)
        assert type(off) is float
        assert off.hex() == queries._plane_offset(*robot.tolist(), plane).hex()
        inside = _plane_inside(foot, plane)
        assert type(inside) is bool
        assert inside is queries._plane_contains(*foot.tolist(), plane)
    assert type(_plane_inside((0, 0, 0), UNIT_SQUARE)) is bool
