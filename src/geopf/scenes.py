"""Scene generation, dynamic drift and scene-file (de)serialization.

A scene holds start/goal, an ordered obstacle list (each with an optional
gain override and drift velocity), the boundary walls, gains, integration
parameters, the seed that makes everything reproducible, and the table of
its bodies that the planners and the simulator read.

The randomized benchmark classes place obstacles in the transit corridor
between start (0, 1, 0) and goal (0, -1, 0); "longer" variants move the goal
50% farther out.  Drifting obstacles translate at constant velocity and
reflect off a containment box so they never reach the start/goal regions.
A drifting obstacle is its base primitive plus a rigid offset, folded on
a triangle wave per coordinate from a fold row that the scene computes once
when it is built; a step evaluates the rows in one loop, and a coordinate
that cannot move, like every offset at time 0, is exactly 0.0.

Each candidate obstacle is sampled as its class and float-tuple fields.
Its bounding sphere, computed by the class's own arithmetic, must lie in
the obstacle band, and only then is the primitive built; each rejection
counts toward ``MAX_REJECTIONS``.  The band is the whole clearance rule: it
keeps every bounding sphere within |y| <= ``OBSTACLE_BAND_Y``, so every
obstacle lies at least 1 - ``OBSTACLE_BAND_Y`` (0.4 m) from the start and
the goal.

Every uniform draw goes through ``_uniform``: ``lo + (hi - lo) *
rng.random()`` is numpy's own ``random_uniform`` arithmetic (``low + range *
next_double``) on the same one double of the stream, so each draw and every
later draw keep the bits of ``Generator.uniform``, at about 0.7 µs a draw
against 1.9 µs for the method call.  A candidate makes four to six such
draws.
"""

from collections.abc import Sequence
from dataclasses import FrozenInstanceError, asdict, dataclass, field, fields
from enum import Enum
import functools
import json
import math
import operator
import sys

from .errors import GenerationFailure, SceneSchemaError
from .forces import Gains
from .primitives import (
    PRIMITIVE_TYPES,
    Cube,
    Cylinder,
    Primitive,
    RectPlane,
    Segment,
    _cylinder_sphere,
    _enclosing,
    _segment_sphere,
    as_vec3,
    cross3,
    norm3,
    positive,
    primitive_fields,
    translated,
)
from .seeding import generation_rng
from .sim import SimParams

SCENE_FORMAT = "geopf-scene-v1"

# Workspace corridor: |x|,|z| up to the wall coordinate, y spans past the
# endpoints by a margin.  Obstacles are sampled inside a smaller band so the
# start and goal regions stay clear.
WALL_XZ = 0.5
WALL_Y_MARGIN = 0.2
OBSTACLE_BAND_XZ = 0.45
OBSTACLE_BAND_Y = 0.6
MAX_DRIFT_SPEED = 0.05
MAX_REJECTIONS = 10_000

START = (0.0, 1.0, 0.0)
GOAL = (0.0, -1.0, 0.0)


class SceneClass(Enum):
    LINE_EASY = "line_easy"
    LINE_HARD = "line_hard"
    PLANE_EASY = "plane_easy"
    PLANE_EASY_LONGER = "plane_easy_longer"
    PLANE_HARD = "plane_hard"
    PLANE_HARD_LONGER = "plane_hard_longer"
    MAZE = "maze"
    COMPLEX = "complex"
    DYNAMIC_EASY = "dynamic_easy"
    DYNAMIC_HARD = "dynamic_hard"


@dataclass(frozen=True)
class Obstacle:
    """A primitive plus optional per-obstacle gain and drift velocity, the
    drift stored as :func:`~geopf.primitives.as_vec3` makes a point."""

    primitive: Primitive
    gain: float | None = None
    drift: tuple | None = None

    def __post_init__(self):
        if type(self.primitive) not in PRIMITIVE_TYPES:
            raise TypeError(f"unsupported primitive type: {type(self.primitive).__name__}")
        if self.gain is not None:
            object.__setattr__(self, "gain", positive(self.gain, "gain"))
        if self.drift is not None:
            object.__setattr__(self, "drift", as_vec3(self.drift, "drift"))


ZERO_OFFSET = (0.0, 0.0, 0.0)


def _fold_row(x0: float, v: float, lo: float, hi: float) -> tuple:
    """One coordinate's fold row: ``(x0 - lo, v, span, 2*span, lo, x0)``,
    ``span = hi - lo``.  A coordinate that cannot move (``v == 0`` or
    ``span <= 0``) gets the zero-amplitude row, whose offset is exactly 0.0
    at every time."""
    span = hi - lo
    if span <= 0.0 or v == 0.0:
        return (0.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    return (x0 - lo, v, span, 2.0 * span, lo, x0)


def _drift_offsets(rows, t: float, count: int) -> list:
    """The ``count`` obstacles' offsets at time ``t``: ``ZERO_OFFSET`` for a
    static obstacle, and for each ``(i, *fold rows)`` of ``rows`` the
    triangle-wave reflection of the bounding centre inside its range, less
    the centre.  Per coordinate: ``u = ((x0 - lo) + v*t) % (2*span)``, then
    ``lo + (u if u <= span else 2*span - u) - x0``.  At ``t == 0`` every
    offset is exactly zero."""
    offsets = [ZERO_OFFSET] * count
    if t == 0.0:
        return offsets
    for i, ax, vx, sx, wx, lx, cx, ay, vy, sy, wy, ly, cy, az, vz, sz, wz, lz, cz in rows:
        ux = (ax + vx * t) % wx
        uy = (ay + vy * t) % wy
        uz = (az + vz * t) % wz
        offsets[i] = (
            lx + (ux if ux <= sx else wx - ux) - cx,
            ly + (uy if uy <= sy else wy - uy) - cy,
            lz + (uz if uz <= sz else wz - uz) - cz,
        )
    return offsets


class PlacedObstacles(Sequence):
    """Read-only view of the obstacles at one step.

    ``base`` is the scene's list of obstacle primitives at their base
    position and ``offsets`` holds one rigid translation ``(ox, oy, oz)``
    per obstacle.  Distance is invariant under translation, so the hot
    path queries ``base[i]`` at ``robot - offsets[i]`` and never builds a
    primitive.  Indexing the view builds the placed primitive on demand
    (the base object itself at a zero offset).

    ``time`` is the obstacle time, in seconds, at which the offsets hold:
    ``(step + 1) * dt`` for a drifting scene's view of ``step``, and 0 for a
    static scene's one view, whose offsets hold at every time.
    """

    __slots__ = ("base", "offsets", "time")

    def __init__(self, base, offsets, time):
        self.base = base
        self.offsets = offsets
        self.time = time

    def __len__(self):
        return len(self.base)

    def __getitem__(self, index):
        offset = self.offsets[index]
        if offset == ZERO_OFFSET:
            return self.base[index]
        return translated(self.base[index], offset)


def _body(prim: Primitive, label: str, gain: float, act: float) -> tuple:
    """A body's row of ``Scene.bodies`` at the activation radius ``act``."""
    cx, cy, cz, r = prim.bounding_sphere
    return (prim, label, gain, cx, cy, cz, (act + r) ** 2, isinstance(prim, RectPlane))


def _check_type(value, cls, name: str):
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a ``cls``."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise ValueError(f"{name} must be {article} {cls.__name__}, got {type(value).__name__}")


def _check_seed(seed) -> int:
    """The seed as an int: an integer in [0, 2**64), numpy's included."""
    try:
        value = operator.index(seed)
    except TypeError:
        value = -1
    if not 0 <= value < 2**64:
        raise SceneSchemaError(f"seed must be an integer in [0, 2**64), got {seed!r}", "seed")
    return value


@dataclass
class Scene:
    """Everything needed to reproduce one trial.

    ``bodies``, built with the scene, holds one row per obstacle and then per
    wall, in contact order: ``(primitive, label, gain, cx, cy, cz, cull,
    is_rect)``, with the bounding centre and the squared distance from it at
    and beyond which the body is out of the activation radius.  Rows are
    plain tuples: only an exact tuple unpacks on the interpreter's fast path.

    ``_drifts`` holds one flat row per drifting obstacle, built with the
    scene: its index, then per coordinate the fold constants ``(x0 - lo, v,
    span, 2*span, lo, x0)`` of its bounding centre ``x0``, velocity ``v`` and
    the range ``[lo, lo + span]`` its centre stays in.  A coordinate with
    ``v == 0`` or ``span <= 0`` holds the zero-amplitude row ``(0, 0, 0, 1,
    0, 0)``, whose offset is exactly 0.0 at every time.

    ``_drift_speed`` is the largest speed of a drifting obstacle, 0 for a
    static scene: no obstacle's offset moves farther than that speed times
    the time between two views, since the fold that reflects it off
    ``drift_bounds`` never moves a coordinate faster than its velocity.

    ``start``, ``goal`` and the corners of ``drift_bounds`` are points made
    by :func:`~geopf.primitives.as_vec3`; scenes compare by value.  Built, a
    scene does not change: assigning or deleting a field raises
    ``FrozenInstanceError``.  A bad seed or drift raises ``SceneSchemaError``
    at ``seed`` or at the first bad drifting obstacle's ``obstacles[i].drift``.
    """

    start: tuple
    goal: tuple
    obstacles: tuple
    boundary: tuple
    gains: Gains = field(default_factory=Gains)
    sim: SimParams = field(default_factory=SimParams)
    seed: int = 0
    scene_class: str = "custom"
    drift_bounds: tuple | None = None

    def __post_init__(self):
        self.start = as_vec3(self.start, "start")
        self.goal = as_vec3(self.goal, "goal")
        self.seed = _check_seed(self.seed)
        self.obstacles, self.boundary = tuple(self.obstacles), tuple(self.boundary)
        for i, obs in enumerate(self.obstacles):
            _check_type(obs, Obstacle, f"obstacles[{i}]")
        for j, wall in enumerate(self.boundary):
            _check_type(wall, RectPlane, f"boundary[{j}]")
        _check_type(self.gains, Gains, "gains")
        _check_type(self.sim, SimParams, "sim")
        drifting = [i for i, obs in enumerate(self.obstacles) if obs.drift is not None]
        if self.drift_bounds is not None:
            lo, hi = self.drift_bounds
            self.drift_bounds = (as_vec3(lo, "drift_bounds"), as_vec3(hi, "drift_bounds"))
        elif drifting:
            raise SceneSchemaError("drift needs drift_bounds", f"obstacles[{drifting[0]}].drift")
        base = [obs.primitive for obs in self.obstacles]
        self._at_rest = PlacedObstacles(base, [ZERO_OFFSET] * len(base), 0.0)
        # The range a drifting obstacle's centre stays in must hold the
        # centre, or the fold would jump it there at once.
        rows = []
        for i in drifting:
            obs, (lo, hi) = self.obstacles[i], self.drift_bounds
            if not _inside_box(obs.primitive.bounding_sphere, lo, hi):
                message = "drifting obstacle's bounding sphere must lie inside drift_bounds"
                raise SceneSchemaError(message, f"obstacles[{i}].drift")
            *centre, r = obs.primitive.bounding_sphere
            row = (i,)
            for x0, v, a, b in zip(centre, obs.drift, lo, hi):
                row += _fold_row(x0, v, a + r, b - r)
            rows.append(row)
        self._drifts = tuple(rows)
        speeds = (math.hypot(*self.obstacles[i].drift) for i in drifting)
        self._drift_speed = max(speeds, default=0.0)
        k_rep, act = self.gains.k_rep, self.gains.activation_radius
        # Assigned last: once ``bodies`` is set, the fields are fixed.
        self.bodies = [
            _body(obs.primitive, f"obstacle[{i}]", k_rep if obs.gain is None else obs.gain, act)
            for i, obs in enumerate(self.obstacles)
        ] + [_body(wall, f"boundary[{j}]", k_rep, act) for j, wall in enumerate(self.boundary)]

    def __setattr__(self, name, value):
        if name in self.__dataclass_fields__ and "bodies" in self.__dict__:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        if name in self.__dataclass_fields__:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        object.__delattr__(self, name)

    def primitives_at_step(self, step: int) -> PlacedObstacles:
        """The obstacles at the step's obstacle time, as a
        :class:`PlacedObstacles` view over the shared base primitives.

        Obstacles move before each force evaluation, so step ``i`` sees the
        obstacles at time ``(i + 1) * dt``, the view's ``time``.  Only the
        offsets of drifting obstacles are computed, by one pass over the
        fold rows of ``_drifts`` with no call per obstacle or coordinate; a
        static obstacle's offset, and a coordinate that cannot move, is
        exactly 0.0.  Static scenes return one shared view whose offsets are
        all zero and whose time is 0.
        """
        if not self._drifts:
            return self._at_rest
        t = (step + 1) * self.sim.dt
        base = self._at_rest.base
        return PlacedObstacles(base, _drift_offsets(self._drifts, t, len(base)), t)


def corridor_boundary(y_min: float, y_max: float) -> list:
    """Six rectangle walls enclosing the corridor box.

    Walls of one extent are built once and shared: each call returns a new
    list holding the same six ``RectPlane`` objects, which never change
    after construction.  ``generate`` and ``maze_scene`` use two extents.
    """
    return list(_corridor_walls(float(y_min).hex(), float(y_max).hex()))


@functools.lru_cache(maxsize=8)
def _corridor_walls(y_min: str, y_max: str) -> tuple:
    """The walls of one extent, keyed by its exact bits (``float.hex``, so
    that 0.0 and -0.0 stay two keys)."""
    y0, y1 = float.fromhex(y_min), float.fromhex(y_max)
    x0, x1 = -WALL_XZ, WALL_XZ
    z0, z1 = -WALL_XZ, WALL_XZ
    return (
        RectPlane((x0, y0, z0), (x0, y0, z1), (x0, y1, z1), (x0, y1, z0)),  # x = -WALL_XZ
        RectPlane((x1, y0, z0), (x1, y0, z1), (x1, y1, z1), (x1, y1, z0)),  # x = +WALL_XZ
        RectPlane((x0, y0, z0), (x1, y0, z0), (x1, y1, z0), (x0, y1, z0)),  # z = -WALL_XZ
        RectPlane((x0, y0, z1), (x1, y0, z1), (x1, y1, z1), (x0, y1, z1)),  # z = +WALL_XZ
        RectPlane((x0, y0, z0), (x1, y0, z0), (x1, y0, z1), (x0, y0, z1)),  # y = y_min
        RectPlane((x0, y1, z0), (x1, y1, z0), (x1, y1, z1), (x0, y1, z1)),  # y = y_max
    )


# ---------------------------------------------------------------------------
# Randomized generation
# ---------------------------------------------------------------------------


def _random_basis(rng) -> tuple:
    """Uniformly random right-handed orthonormal basis, as float tuples: e1
    is the first normal draw normalised, e2 the second with its e1 part
    taken out, normalised, and e3 = e1 x e2; a draw too short to normalise
    is drawn again."""
    while True:
        a0, a1, a2 = rng.normal(size=3).tolist()
        b0, b1, b2 = rng.normal(size=3).tolist()
        na = norm3(a0, a1, a2)
        if na < 1e-9:
            continue
        a0, a1, a2 = a0 / na, a1 / na, a2 / na
        d = (b0 * a0 + b1 * a1) + b2 * a2
        b0, b1, b2 = b0 - d * a0, b1 - d * a1, b2 - d * a2
        nb = norm3(b0, b1, b2)
        if nb < 1e-9:
            continue
        e1, e2 = (a0, a1, a2), (b0 / nb, b1 / nb, b2 / nb)
        return e1, e2, cross3(e1, e2)


def _scaled(k: float, v: tuple) -> tuple:
    return (k * v[0], k * v[1], k * v[2])


def _plus(a: tuple, b: tuple) -> tuple:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def _minus(a: tuple, b: tuple) -> tuple:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _uniform(rng, lo: float, hi: float) -> float:
    """One draw of ``rng.uniform(lo, hi)``, bit for bit and from the same
    one double of the stream (see the module docstring)."""
    return lo + (hi - lo) * rng.random()


def _sample_center(rng, y_lo, y_hi) -> tuple:
    return (
        _uniform(rng, -OBSTACLE_BAND_XZ, OBSTACLE_BAND_XZ),
        _uniform(rng, y_lo, y_hi),
        _uniform(rng, -OBSTACLE_BAND_XZ, OBSTACLE_BAND_XZ),
    )


def _sample_primitive(rng, kind: str, center: tuple) -> tuple:
    """A candidate's class and its fields, the points as float tuples;
    ``kind`` is one of the kinds of ``_CLASS_COUNTS``, ``generate`` and
    ``_MIX``: "segment", "plane", "cube" or "cylinder"."""
    e1, e2, e3 = _random_basis(rng)
    if kind == "segment":
        half = _scaled(0.5 * _uniform(rng, 0.2, 0.4), e1)
        return Segment, (_minus(center, half), _plus(center, half))
    if kind == "plane":
        a = _uniform(rng, 0.1, 0.3)
        b = _uniform(rng, 0.1, 0.3)
        ha, hb = _scaled(0.5 * a, e1), _scaled(0.5 * b, e2)
        up, down = _plus(center, ha), _minus(center, ha)
        return RectPlane, (_plus(up, hb), _plus(down, hb), _minus(down, hb), _minus(up, hb))
    if kind == "cube":
        a = _uniform(rng, 0.08, 0.2)
        b = _uniform(rng, 0.08, 0.2)
        c = _uniform(rng, 0.08, 0.2)
        ha, hb, hc = _scaled(0.5 * a, e1), _scaled(0.5 * b, e2), _scaled(0.5 * c, e3)
        up, down = _plus(center, ha), _minus(center, ha)
        bottom = [
            _minus(_plus(up, hb), hc),
            _minus(_plus(down, hb), hc),
            _minus(_minus(down, hb), hc),
            _minus(_minus(up, hb), hc),
        ]
        rise = _scaled(2.0, hc)
        return Cube, (*bottom, *(_plus(v, rise) for v in bottom))
    radius = _uniform(rng, 0.03, 0.08)
    half = _scaled(0.5 * _uniform(rng, 0.1, 0.3), e1)
    return Cylinder, (_minus(center, half), _plus(center, half), radius)


# A candidate's bounding sphere from its class and fields, by the arithmetic
# its ``__post_init__`` stores, so the band test runs before anything is built.
_BOUNDING = {
    Segment: _segment_sphere,
    RectPlane: _enclosing,
    Cube: _enclosing,
    Cylinder: _cylinder_sphere,
}


def _inside_box(sphere: tuple, lo, hi) -> bool:
    """Whether the bounding sphere ``(cx, cy, cz, r)`` lies in the box."""
    cx, cy, cz, r = sphere
    return (
        lo[0] + r <= cx <= hi[0] - r
        and lo[1] + r <= cy <= hi[1] - r
        and lo[2] + r <= cz <= hi[2] - r
    )


_CLASS_COUNTS = {
    SceneClass.LINE_EASY: {"segment": (5, 10)},
    SceneClass.LINE_HARD: {"segment": (10, 50)},
    SceneClass.PLANE_EASY: {"plane": (2, 8)},
    SceneClass.PLANE_EASY_LONGER: {"plane": (2, 8)},
    SceneClass.PLANE_HARD: {"plane": (10, 40)},
    SceneClass.PLANE_HARD_LONGER: {"plane": (10, 40)},
}

_LONGER = {SceneClass.PLANE_EASY_LONGER, SceneClass.PLANE_HARD_LONGER}
# Type mix for the dynamic classes (segment-heavy like the composite scenes).
_MIX = ("segment", "segment", "plane", "cube", "cylinder")


def generate(scene_class: SceneClass, seed: int) -> Scene:
    """Deterministically generate a randomized scene of the given class.

    Each candidate's bounding sphere, computed from the sampled fields
    before anything is built, is tested against the band (``_inside_box``);
    a candidate outside it is one rejection, and one inside it is built.

    The maze class is the exception: it returns the fixed geometry of
    :func:`maze_scene` for every seed.  The seed is stored on the scene and
    changes nothing else, so a suite of n maze seeds reruns one scene n
    times.

    Raises:
        GenerationFailure: when placement constraints reject 10^4 candidates.
    """
    scene_class = SceneClass(scene_class)
    if scene_class is SceneClass.MAZE:
        return maze_scene(seed=seed)

    rng = generation_rng(seed)
    start, goal = START, GOAL
    if scene_class in _LONGER:
        goal = _plus(start, _scaled(1.5, _minus(goal, start)))

    band_lo = (-OBSTACLE_BAND_XZ, -OBSTACLE_BAND_Y, -OBSTACLE_BAND_XZ)
    band_hi = (OBSTACLE_BAND_XZ, OBSTACLE_BAND_Y, OBSTACLE_BAND_XZ)

    kinds: list = []
    if scene_class in _CLASS_COUNTS:
        for kind, (lo, hi) in _CLASS_COUNTS[scene_class].items():
            kinds.extend([kind] * int(rng.integers(lo, hi + 1)))
    elif scene_class is SceneClass.COMPLEX:
        kinds.extend(["segment"] * int(rng.integers(5, 11)))
        kinds.extend(["plane"] * int(rng.integers(2, 6)))
        kinds.extend(
            [("cube" if rng.random() < 0.5 else "cylinder") for _ in range(int(rng.integers(2, 4)))]
        )
    elif scene_class is SceneClass.DYNAMIC_EASY:
        kinds.extend(_MIX[int(rng.integers(0, len(_MIX)))] for _ in range(int(rng.integers(5, 11))))
    else:  # SceneClass.DYNAMIC_HARD, the one class left
        kinds.extend(_MIX[int(rng.integers(0, len(_MIX)))] for _ in range(int(rng.integers(10, 21))))

    rejections = 0
    primitives = []
    for kind in kinds:
        while True:
            center = _sample_center(rng, -OBSTACLE_BAND_Y + 0.1, OBSTACLE_BAND_Y - 0.1)
            cls, values = _sample_primitive(rng, kind, center)
            if _inside_box(_BOUNDING[cls](*values), band_lo, band_hi):
                primitives.append(cls(*values))
                break
            rejections += 1
            if rejections >= MAX_REJECTIONS:
                raise GenerationFailure(
                    f"{scene_class.value} seed {seed}: {rejections} rejected placements"
                )

    dynamic_count = 0
    if scene_class is SceneClass.DYNAMIC_EASY:
        dynamic_count = round(len(primitives) / 3)
    elif scene_class is SceneClass.DYNAMIC_HARD:
        dynamic_count = round(len(primitives) / 2)
    drifting = set()
    if dynamic_count:
        drifting = set(rng.choice(len(primitives), size=dynamic_count, replace=False).tolist())

    obstacles = []
    for i, prim in enumerate(primitives):
        drift = None
        if i in drifting:
            direction = _random_basis(rng)[0]
            drift = _scaled(_uniform(rng, 0.01, MAX_DRIFT_SPEED), direction)
        obstacles.append(Obstacle(prim, drift=drift))

    y_min = min(goal[1], start[1]) - WALL_Y_MARGIN
    y_max = max(goal[1], start[1]) + WALL_Y_MARGIN
    return Scene(
        start=start,
        goal=goal,
        obstacles=obstacles,
        boundary=corridor_boundary(y_min, y_max),
        gains=Gains(),
        sim=SimParams(),
        seed=seed,
        scene_class=scene_class.value,
        drift_bounds=(band_lo, band_hi) if drifting else None,
    )


def maze_scene(seed: int = 0) -> Scene:
    """Fixed trap scene: a frontal wall with a duct-shaped tunnel off-axis.

    The straight start-goal line pierces the central wall; the only passage
    is the rectangular duct between x = 0.15 and the x = +0.5 boundary wall.
    The geometry does not depend on ``seed``; the seed is stored on the
    scene and changes nothing else.
    """
    x_in, x_out = 0.15, WALL_XZ
    z_half = 0.15
    y_half = 0.25
    walls = [
        # Frontal wall at y = 0 left of the duct opening.
        RectPlane((-0.5, 0, -0.5), (x_in, 0, -0.5), (x_in, 0, 0.5), (-0.5, 0, 0.5)),
        # Frontal wall pieces above and below the opening.
        RectPlane((x_in, 0, z_half), (x_out, 0, z_half), (x_out, 0, 0.5), (x_in, 0, 0.5)),
        RectPlane((x_in, 0, -0.5), (x_out, 0, -0.5), (x_out, 0, -z_half), (x_in, 0, -z_half)),
        # Duct walls along y.
        RectPlane((x_in, -y_half, z_half), (x_out, -y_half, z_half), (x_out, y_half, z_half), (x_in, y_half, z_half)),
        RectPlane((x_in, -y_half, -z_half), (x_out, -y_half, -z_half), (x_out, y_half, -z_half), (x_in, y_half, -z_half)),
        RectPlane((x_in, -y_half, -z_half), (x_in, -y_half, z_half), (x_in, y_half, z_half), (x_in, y_half, -z_half)),
    ]
    return Scene(
        start=START,
        goal=GOAL,
        obstacles=[Obstacle(w) for w in walls],
        boundary=corridor_boundary(GOAL[1] - WALL_Y_MARGIN, START[1] + WALL_Y_MARGIN),
        gains=Gains(),
        sim=SimParams(),
        seed=seed,
        scene_class=SceneClass.MAZE.value,
    )


# ---------------------------------------------------------------------------
# Scene files
# ---------------------------------------------------------------------------


# Scene-file entries name a primitive by its class's ``scene_type`` and hold
# its dataclass fields by name, except that the corners v1, v2, ... of
# rectangles and boxes form one "corners" list.
_PRIMITIVE_BY_TYPE = {cls.scene_type: cls for cls in PRIMITIVE_TYPES}


def _is_corner(name: str) -> bool:
    return name[0] == "v" and name[1:].isdigit()


def _encode_primitive(prim: Primitive) -> dict:
    prim_fields = primitive_fields(prim)
    entry = {"type": prim.scene_type}
    for f in prim_fields:
        value = getattr(prim, f.name)
        if f.type is float:
            entry[f.name] = value
        elif _is_corner(f.name):
            entry.setdefault("corners", []).append(list(value))
        else:
            entry[f.name] = list(value)
    return entry


def scene_to_document(scene: Scene) -> dict:
    """Canonical JSON-ready document for a scene."""
    obstacles = []
    for obs in scene.obstacles:
        entry = _encode_primitive(obs.primitive)
        if obs.gain is not None:
            entry["gain"] = obs.gain
        if obs.drift is not None:
            entry["drift"] = list(obs.drift)
        obstacles.append(entry)
    doc = {
        "format": SCENE_FORMAT,
        "class": scene.scene_class,
        "seed": scene.seed,
        "start": list(scene.start),
        "goal": list(scene.goal),
        "gains": asdict(scene.gains),
        "sim": asdict(scene.sim),
        "drift_bounds": None
        if scene.drift_bounds is None
        else [list(v) for v in scene.drift_bounds],
        "boundary": [[list(v) for v in wall.corners] for wall in scene.boundary],
        "obstacles": obstacles,
    }
    return doc


def save_scene(scene: Scene, path):
    """Write the scene file (stable bytes for identical scenes)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scene_to_document(scene), fh, indent=2)
        fh.write("\n")


def _is_number(x) -> bool:
    """A JSON number that is a finite float; ``true`` and ``false`` are not
    numbers.  The bound also rejects nan and integers too large for a float."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _vec3(value, path) -> list:
    """A scene file's ``[x, y, z]``, checked to be three finite numbers;
    ``path`` names the field in the error."""
    if not isinstance(value, list) or len(value) != 3 or not all(map(_is_number, value)):
        raise SceneSchemaError("expected [x, y, z] numbers", path)
    return value


class _Reader:
    """Strict traversal of a scene document with field-path diagnostics."""

    def __init__(self, doc, path=""):
        if not isinstance(doc, dict):
            raise SceneSchemaError("expected an object", path or "<root>")
        self.doc = doc
        self.path = path
        self.seen = set()

    def _label(self, key):
        return f"{self.path}.{key}" if self.path else key

    def get(self, key, kind, required=True):
        """The field ``key`` checked as ``kind``: "number", "int", "string",
        "vec3", "list", "object" (a nested reader) or "raw" (unchecked, for
        the caller to check); None for a missing optional field."""
        self.seen.add(key)
        if key not in self.doc:
            if required:
                raise SceneSchemaError("missing required field", self._label(key))
            return None
        value = self.doc[key]
        if kind == "number":
            if not _is_number(value):
                raise SceneSchemaError("expected a finite number", self._label(key))
            return float(value)
        if kind == "int":
            if not isinstance(value, int) or isinstance(value, bool):
                raise SceneSchemaError("expected an integer", self._label(key))
            return value
        if kind == "string":
            if not isinstance(value, str):
                raise SceneSchemaError("expected a string", self._label(key))
            return value
        if kind == "vec3":
            return _vec3(value, self._label(key))
        if kind == "list":
            if not isinstance(value, list):
                raise SceneSchemaError("expected a list", self._label(key))
            return value
        if kind == "object":
            return _Reader(value, self._label(key))
        return value  # "raw": the caller checks the value

    def finish(self):
        unknown = set(self.doc) - self.seen
        if unknown:
            name = sorted(unknown)[0]
            raise SceneSchemaError("unknown field", self._label(name))


def _decode_corners(raw, path, count):
    if not isinstance(raw, list) or len(raw) != count:
        raise SceneSchemaError(f"expected {count} corners", path)
    return [_vec3(v, f"{path}[{i}]") for i, v in enumerate(raw)]


def _built(path, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its ``ValueError`` reported at ``path``; a
    ``SceneSchemaError`` already names its field and passes unchanged."""
    try:
        return make(*args, **kwargs)
    except SceneSchemaError:
        raise
    except ValueError as exc:
        raise SceneSchemaError(str(exc), path) from exc


def _decode_primitive(reader: _Reader) -> Primitive:
    kind = reader.get("type", "string")
    cls = _PRIMITIVE_BY_TYPE.get(kind)
    if cls is None:
        raise SceneSchemaError(f"unknown primitive type {kind!r}", reader._label("type"))
    prim_fields = fields(cls)
    if _is_corner(prim_fields[0].name):
        raw = reader.get("corners", "raw")
        values = _decode_corners(raw, reader._label("corners"), len(prim_fields))
    else:
        values = [reader.get(f.name, "number" if f.type is float else "vec3") for f in prim_fields]
    return _built(reader.path, cls, *values)


def _decode_params(root: _Reader, key: str, cls):
    """Read the block ``key`` into the parameter dataclass ``cls``, one
    document field per dataclass field."""
    reader = root.get(key, "object")
    values = {f.name: reader.get(f.name, "int" if f.type is int else "number") for f in fields(cls)}
    params = _built(key, cls, **values)
    reader.finish()
    return params


def document_to_scene(doc) -> Scene:
    """Validate a scene document and build the Scene (strict: unknown fields
    and malformed values are rejected with their field path).  The seed's
    range and the drift rules are ``Scene``'s, checked after the obstacles."""
    root = _Reader(doc)
    fmt = root.get("format", "string")
    if fmt != SCENE_FORMAT:
        raise SceneSchemaError(f"unsupported format {fmt!r}", "format")
    scene_class = root.get("class", "string")
    seed = root.get("seed", "int")
    start = root.get("start", "vec3")
    goal = root.get("goal", "vec3")
    gains = _decode_params(root, "gains", Gains)
    sim = _decode_params(root, "sim", SimParams)
    raw_bounds = root.get("drift_bounds", "raw")
    drift_bounds = None if raw_bounds is None else tuple(_decode_corners(raw_bounds, "drift_bounds", 2))

    boundary = []
    for j, raw in enumerate(root.get("boundary", "list")):
        path = f"boundary[{j}]"
        boundary.append(_built(path, RectPlane, *_decode_corners(raw, path, 4)))

    obstacles = []
    for i, raw in enumerate(root.get("obstacles", "list")):
        reader = _Reader(raw, f"obstacles[{i}]")
        prim = _decode_primitive(reader)
        gain = reader.get("gain", "number", required=False)
        drift = reader.get("drift", "raw", required=False)
        drift = None if drift is None else _vec3(drift, reader._label("drift"))
        reader.finish()
        obstacles.append(_built(reader.path, Obstacle, prim, gain=gain, drift=drift))

    root.finish()
    return Scene(
        start=start,
        goal=goal,
        obstacles=obstacles,
        boundary=boundary,
        gains=gains,
        sim=sim,
        seed=seed,
        scene_class=scene_class,
        drift_bounds=drift_bounds,
    )


def load_scene(path) -> Scene:
    """Load and validate a scene file.

    Raises:
        SceneSchemaError: on malformed JSON or schema violations.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SceneSchemaError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return document_to_scene(doc)
