"""Whole-trial oracles that hold whatever bits a trial records.

- **Mirror.**  Negating one world coordinate of a static scene (its
  obstacles, walls, start and goal) negates that coordinate of every GeoPF
  state, bit for bit, with the trap correction on or off: IEEE negation is
  exact, and no GeoPF path names a world axis.  Only the sign of a zero may
  differ, so floats compare by ``==``.  A drifting scene, or a PF/CF
  trial, mirrors only up to rounding (the drift fold and the cylinder
  clouds' ``axis_frame`` are not symmetric), so there the verdicts must be
  equal and the path length and final position equal to a tolerance.
- **Gradient.**  Without the trap correction, the GeoPF field is the
  gradient of the potential

      Phi(r) = -k_attr |g - r| + sum_i k_i ln d_i(r)

  over the bodies within their activation radius, wherever no distance lies
  near contact, near ``D_MIN`` or near the activation surface.

Neither compares against recorded numbers, so both survive a change that
moves bits on purpose.
"""

import dataclasses
import math

import numpy as np
import pytest

from geopf import (
    D_MIN,
    Cube,
    GeoPFPlanner,
    Obstacle,
    PlannerSpec,
    Scene,
    SceneClass,
    VerdictKind,
    corridor_boundary,
    distance,
    generate,
    maze_scene,
    resultant_force,
    run_trial,
)
from geopf.primitives import primitive_fields
from geopf.scenes import GOAL, START


def box_trap():
    """A rotated slab box across the start-goal line, whose face trap
    correction turns the robot toward the face's nearest edge."""
    c, s = math.cos(0.3), math.sin(0.3)

    def placed(x, y, z):
        return (c * x - s * y + 0.07, s * x + c * y, z + 0.05)

    bottom = [(0.3, 0.05), (-0.3, 0.05), (-0.3, -0.05), (0.3, -0.05)]
    corners = [placed(x, y, -0.25) for x, y in bottom] + [placed(x, y, 0.25) for x, y in bottom]
    return Scene(
        start=START,
        goal=GOAL,
        obstacles=[Obstacle(Cube(*corners))],
        boundary=corridor_boundary(-1.2, 1.2),
    )


# Static scenes with every obstacle kind the generator draws, complex's boxes
# among them, each run past its first approach to an obstacle; the trap
# correction fires in the TRAPS before their cap.
MIRROR_SCENES = {
    "maze": (maze_scene, 2500),
    "box_trap": (box_trap, 1500),
    "line_hard/0": (lambda: generate(SceneClass.LINE_HARD, 0), 1000),
    "plane_hard/0": (lambda: generate(SceneClass.PLANE_HARD, 0), 1000),
    "complex/0": (lambda: generate(SceneClass.COMPLEX, 0), 1000),
    "complex/1": (lambda: generate(SceneClass.COMPLEX, 1), 2750),
}
TRAPS = {"maze", "box_trap", "complex/1"}


def _flip(axis):
    def flip(v):
        return tuple(-c if k == axis else c for k, c in enumerate(v))

    return flip


def _mirrored_primitive(prim, flip):
    values = [getattr(prim, f.name) for f in primitive_fields(prim)]
    return type(prim)(*(v if type(v) is float else flip(v) for v in values))


def mirrored(scene, axis):
    """``scene`` with world coordinate ``axis`` negated everywhere: each
    drift velocity is negated there, and the drift bounds' lo and hi trade
    places on that axis."""
    flip = _flip(axis)
    bounds = scene.drift_bounds
    if bounds is not None:
        lo, hi = map(list, bounds)
        lo[axis], hi[axis] = -hi[axis], -lo[axis]
        bounds = (tuple(lo), tuple(hi))
    return Scene(
        start=flip(scene.start),
        goal=flip(scene.goal),
        obstacles=[
            Obstacle(
                _mirrored_primitive(o.primitive, flip),
                o.gain,
                None if o.drift is None else flip(o.drift),
            )
            for o in scene.obstacles
        ],
        boundary=[_mirrored_primitive(w, flip) for w in scene.boundary],
        gains=scene.gains,
        sim=scene.sim,
        seed=scene.seed,
        scene_class=scene.scene_class,
        drift_bounds=bounds,
    )


@pytest.mark.parametrize("correction", [True, False], ids=["corrected", "plain"])
@pytest.mark.parametrize("label", list(MIRROR_SCENES))
def test_a_mirrored_static_scene_gives_the_mirrored_trajectory(label, correction):
    make, cap = MIRROR_SCENES[label]
    scene = make()
    assert all(o.drift is None for o in scene.obstacles)
    params = dataclasses.replace(scene.sim, max_steps=cap)
    record = run_trial(scene, GeoPFPlanner(correction), params)
    if correction and label in TRAPS:
        plain = run_trial(scene, GeoPFPlanner(False), params, keep_states=False)
        assert plain.path_length != record.path_length
    for axis in (0, 2):
        flip = _flip(axis)
        image = run_trial(mirrored(scene, axis), GeoPFPlanner(correction), params)
        assert image.verdict == record.verdict
        assert len(image.states) == len(record.states)
        for a, b in zip(record.states, image.states):
            assert (a.step, a.min_dist) == (b.step, b.min_dist)
            assert b.position == flip(a.position), (axis, a.step)
            assert b.velocity == flip(a.velocity), (axis, a.step)
            assert b.force == flip(a.force), (axis, a.step)
        assert (image.path_length, image.min_dist, image.dist_sum) == (
            record.path_length,
            record.min_dist,
            record.dist_sum,
        )


# Drifting GeoPF scenes run to their own cap, PF/CF trials past their
# first approach to a rectangle.
VERDICT_MIRRORS = [
    (SceneClass.DYNAMIC_HARD, 0, "geopf", None),
    (SceneClass.DYNAMIC_EASY, 0, "geopf", None),
    (SceneClass.PLANE_EASY, 0, "pf", 1000),
    (SceneClass.PLANE_EASY, 0, "cf", 1000),
]


@pytest.mark.parametrize(
    "scene_class, seed, kind, cap",
    VERDICT_MIRRORS,
    ids=[f"{c.value}/{s}-{k}" for c, s, k, _ in VERDICT_MIRRORS],
)
def test_a_mirrored_scene_gives_the_mirrored_verdict(scene_class, seed, kind, cap):
    scene = generate(scene_class, seed)
    assert any(o.drift is not None for o in scene.obstacles) == (kind == "geopf")
    params = scene.sim if cap is None else dataclasses.replace(scene.sim, max_steps=cap)
    record = run_trial(scene, PlannerSpec(kind).build(), params, keep_states=False)
    assert (kind == "geopf") == (record.verdict.kind is VerdictKind.REACHED_GOAL)
    for axis in (0, 2):
        image = run_trial(
            mirrored(scene, axis), PlannerSpec(kind).build(), params, keep_states=False
        )
        assert image.verdict == record.verdict, axis
        assert image.path_length == pytest.approx(record.path_length, rel=0.0, abs=1e-9), axis
        position = _flip(axis)(image.states[-1].position)
        assert position == pytest.approx(record.states[-1].position, rel=0.0, abs=1e-9), axis


# Central differences with step H; a point is kept only when every distance
# stays MARGIN clear of the potential's kinks, far more than H can move it.
H = 1e-6
MARGIN = 1e-3


def potential(scene, robot):
    """Phi at ``robot``, or None when a distance lies within ``MARGIN`` of
    contact, of ``D_MIN`` or of the activation radius."""
    act = scene.gains.activation_radius
    gx, gy, gz = scene.goal
    rx, ry, rz = robot
    phi = -scene.gains.k_attr * math.sqrt((gx - rx) ** 2 + (gy - ry) ** 2 + (gz - rz) ** 2)
    for prim, _, k, *_ in scene.bodies:
        d = distance(robot, prim)
        if d < D_MIN + MARGIN or abs(d - act) < MARGIN:
            return None
        if d < act:
            phi += k * math.log(d)
    return phi


@pytest.mark.parametrize(
    "scene_class", [SceneClass.LINE_HARD, SceneClass.PLANE_HARD, SceneClass.COMPLEX]
)
def test_the_uncorrected_field_is_the_gradient_of_the_potential(scene_class):
    rng = np.random.default_rng(19)
    checked = active = 0
    for seed in range(3):
        scene = generate(scene_class, seed)
        for _ in range(40):
            robot = tuple(rng.uniform((-0.45, -0.8, -0.45), (0.45, 0.8, 0.45)).tolist())
            if potential(scene, robot) is None:
                continue
            grad = []
            for k in range(3):
                hi = list(robot)
                lo = list(robot)
                hi[k] += H
                lo[k] -= H
                grad.append((potential(scene, hi) - potential(scene, lo)) / (2 * H))
            breakdown = resultant_force(robot, scene.goal, scene, correction=False)
            force = breakdown.resultant
            assert np.allclose(grad, force, rtol=0.0, atol=1e-6 * np.linalg.norm(force)), robot
            checked += 1
            active += len(breakdown.per_obstacle) > 0
    assert checked >= 60 and active >= 20
