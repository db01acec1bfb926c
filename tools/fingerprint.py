"""Bit-identity and verdict fingerprints of the simulator and the scene generator.

Prints sha256 hashes that a behaviour-preserving change must leave
unchanged.  Each trial is run with ``run_trial(keep_states=False)`` and
contributes three records: a verdict record ``verdict kind|obstacle id|step``;
a motion record, the verdict record followed by ``|path_length|x|y|z`` with
the path length and the final position as ``float.hex``; and a distance
record ``min_dist|dist_sum`` as ``float.hex``.  The motion is the planner's
and the integrator's; the distances are measured by the GeoPF query kernels
whatever the planner, so a kernel-only change moves them and not the motion
of a PF/CF trial.  A hash covers its trials' records of one kind
concatenated without a separator; each trial set prints its motion,
distance and verdict hashes, labelled ``motion``, ``distances`` and
``verdicts``.

- ``trajectory``: 97 capped trials: ``maze_scene()``, then seeds 0-7 of
  every scene class (class by class) under GeoPF capped at 3,000 steps, then
  plane_easy seeds 0-7 under PF and CF (seed by seed) capped at 1,500
  steps, so that each PF/CF trial runs past its first contact.
- ``full-length``: trials where the rectangle trap correction fires, run
  under GeoPF to the scene's own step cap: ``maze_scene()``, then
  plane_hard seeds 3 and 4.
- ``drift``: 200 trials with drifting obstacles: dynamic_easy seeds 0-99,
  then dynamic_hard seeds 0-99, under GeoPF capped at 5,000 steps.
- ``cloud-drift``: 40 sphere-cloud trials with drifting obstacles:
  dynamic_easy seeds 0-9, then dynamic_hard seeds 0-9, each seed under PF
  and then CF, capped at 1,500 steps.
- ``scenes``: ``json.dumps(scene_to_document(scene), sort_keys=True)`` of
  400 generated scenes (seeds 0-39, and for each seed every scene class),
  concatenated without a separator.
- ``clouds``: the PF/CF sphere cloud of every obstacle of the same 400
  scenes at the default ``SpherizationParams``, scene by scene and obstacle
  by obstacle, as the records ``cx|cy|cz|r`` of ``baselines.sphere_cloud``
  with the four floats as ``float.hex``, concatenated without a separator.
- ``kernels``: the query kernel of every obstacle of the same 400 scenes
  (``queries._KERNELS``), called on Python floats at probe points, obstacle
  by obstacle: 64 seeded points uniform in the cube of half-side 1.5 r
  around the bounding sphere (centre, r), drawn from one
  ``numpy.random.default_rng(0)`` stream, and for a cylinder also the points
  at t in {0, L/2, L} along the axis from a1 and rho in {0, R/2, R} from it
  (along the first ``axis_frame`` vector), then the rim-facing points at
  (t, rho) = (-R, 2R) and (L + R, 2R).  Each result is the record of the
  seven floats as ``float.hex``, the feature kind and the index, joined by
  ``|``, or the ``DegenerateVector`` message when the kernel raises;
  records are concatenated without a separator.

``tools/fingerprints.txt`` holds the expected lines.  When it exists, each
printed line ends in ``same`` or ``CHANGED`` against the line of the same
name there, and the exit status is 1 if any line changed.  A trial set's
``CHANGED`` names the hashes that moved, for example ``(distances)`` when
only the kernel distances did.  Its header names the Python and numpy
versions it was recorded under.  Scenes and clouds are built in scalar float
arithmetic, with no BLAS kernel in their bits, so they do not depend on the
CPU; ``clouds`` still depends on the platform's ``math.cos``.  A change that
moves a hash on purpose records the new line there and says why.

Run from the repository root (about two minutes on one core of a 2-core
x86-64 VM: ``drift`` takes about a minute, ``cloud-drift`` about 30 s,
``trajectory`` about 20 s, ``kernels`` about 5 s)::

    PYTHONPATH=src python tools/fingerprint.py
"""

import dataclasses
import hashlib
import json
import pathlib
import platform
import sys

import numpy as np

from geopf import (
    Cylinder,
    DegenerateVector,
    SceneClass,
    SpherizationParams,
    generate,
    maze_scene,
    run_trial,
)
from geopf.baselines import sphere_cloud
from geopf.bench import PlannerSpec
from geopf.primitives import axis_frame
from geopf.queries import _KERNELS
from geopf.scenes import scene_to_document


def _trial_records(scene, kind: str, max_steps: int | None = None) -> tuple:
    """The trial's motion, distance and verdict records."""
    params = scene.sim if max_steps is None else dataclasses.replace(scene.sim, max_steps=max_steps)
    rec = run_trial(scene, PlannerSpec(kind).build(), params, keep_states=False)
    v = rec.verdict
    verdict = "|".join([v.kind.value, str(v.obstacle_id), str(v.step)])
    motion = (rec.path_length, *rec.states[-1].position)
    distances = (rec.min_dist, rec.dist_sum)
    return (
        "|".join([verdict, *map(float.hex, motion)]),
        "|".join(map(float.hex, distances)),
        verdict,
    )


def _hashes(trials) -> tuple:
    """Motion, distance and verdict hashes of ``(scene, kind, max_steps)`` trials."""
    records = zip(*(_trial_records(*trial) for trial in trials))
    return tuple(hashlib.sha256("".join(r).encode()).hexdigest() for r in records)


def capped_trials():
    yield maze_scene(), "geopf", 3000
    for scene_class in SceneClass:
        for seed in range(8):
            yield generate(scene_class, seed), "geopf", 3000
    for seed in range(8):
        scene = generate(SceneClass.PLANE_EASY, seed)
        for kind in ("pf", "cf"):
            yield scene, kind, 1500


def full_length_trials():
    yield maze_scene(), "geopf", None
    for seed in (3, 4):
        yield generate(SceneClass.PLANE_HARD, seed), "geopf", None


def drift_trials():
    for scene_class in (SceneClass.DYNAMIC_EASY, SceneClass.DYNAMIC_HARD):
        for seed in range(100):
            yield generate(scene_class, seed), "geopf", 5000


def cloud_drift_trials():
    for scene_class in (SceneClass.DYNAMIC_EASY, SceneClass.DYNAMIC_HARD):
        for seed in range(10):
            scene = generate(scene_class, seed)
            for kind in ("pf", "cf"):
                yield scene, kind, 1500


def generated_scenes():
    for seed in range(40):
        for scene_class in SceneClass:
            yield generate(scene_class, seed)


def scene_hash() -> str:
    h = hashlib.sha256()
    for scene in generated_scenes():
        h.update(json.dumps(scene_to_document(scene), sort_keys=True).encode())
    return h.hexdigest()


def cloud_hash() -> str:
    params = SpherizationParams()
    h = hashlib.sha256()
    for scene in generated_scenes():
        for obs in scene.obstacles:
            for record in sphere_cloud(obs.primitive, params):
                h.update("|".join(map(float.hex, record)).encode())
    return h.hexdigest()


def _probe_points(prim, rng) -> list:
    cx, cy, cz, r = prim.bounding_sphere
    points = (rng.uniform(-1.5 * r, 1.5 * r, (64, 3)) + (cx, cy, cz)).tolist()
    if isinstance(prim, Cylinder):
        (ax, ay, az), (ux, uy, uz) = prim.a1, prim._axis
        (bx, by, bz), _ = axis_frame(prim._axis)
        L, R = prim.length, prim.radius
        grid = [(t, rho) for t in (0.0, L / 2.0, L) for rho in (0.0, R / 2.0, R)]
        for t, rho in grid + [(-R, 2.0 * R), (L + R, 2.0 * R)]:
            points.append((ax + t * ux + rho * bx, ay + t * uy + rho * by, az + t * uz + rho * bz))
    return points


def kernel_hash() -> str:
    rng = np.random.default_rng(0)
    h = hashlib.sha256()
    for scene in generated_scenes():
        for obs in scene.obstacles:
            prim = obs.primitive
            kernel = _KERNELS[type(prim)]
            for x, y, z in _probe_points(prim, rng):
                try:
                    res = kernel(x, y, z, prim)
                    record = "|".join([*map(float.hex, res[:7]), res[7].value, str(res[8])])
                except DegenerateVector as exc:
                    record = str(exc)
                h.update(record.encode())
    return h.hexdigest()


def fingerprint_lines():
    for name, trials in (
        ("trajectory", capped_trials()),
        ("full-length", full_length_trials()),
        ("drift", drift_trials()),
        ("cloud-drift", cloud_drift_trials()),
    ):
        motion, distances, verdicts = _hashes(trials)
        yield f"{name:<11} motion {motion}  distances {distances}  verdicts {verdicts}"
    yield f"{'scenes':<11} {scene_hash()}"
    yield f"{'clouds':<11} {cloud_hash()}"
    yield f"{'kernels':<11} {kernel_hash()}"


EXPECTED = pathlib.Path(__file__).with_name("fingerprints.txt")


def _status(line: str, expected: str | None) -> str:
    """``same``, or ``CHANGED`` and, for a trial set, the labels of the
    hashes that moved."""
    if line == expected:
        return "same"
    new, old = line.split()[1:], (expected or "").split()[1:]
    if len(new) > 1 and new[::2] == old[::2]:
        moved = [label for label, a, b in zip(new[::2], new[1::2], old[1::2]) if a != b]
        return f"CHANGED ({', '.join(moved)})"
    return "CHANGED"


def read_expected() -> tuple:
    """The lines of ``fingerprints.txt`` by name, empty when there is no
    file, and a note when its header names other Python or numpy versions
    than these (None when it names these)."""
    if not EXPECTED.exists():
        return {}, None
    text = EXPECTED.read_text()
    versions = f"Python {platform.python_version()} and numpy {np.__version__}"
    note = None if versions in text else f"{EXPECTED.name} was not recorded under {versions}"
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return {line.split()[0]: line for line in lines}, note


def main() -> int:
    expected, note = read_expected()
    if note:
        print(f"# {note}")
    changed = 0
    for line in fingerprint_lines():
        if expected:
            status = _status(line, expected.get(line.split()[0]))
            changed += status != "same"
            line += f"  {status}"
        print(line, flush=True)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
