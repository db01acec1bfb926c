"""Bit-identity fingerprints of the simulator and the scene generator.

Prints two sha256 hashes that a behaviour-preserving change must leave
unchanged:

- ``trajectory``: 97 trials run with ``run_trial(keep_states=False)``:
  ``maze_scene()``, then seeds 0-7 of every scene class (class by class)
  under GeoPF capped at 3,000 steps, then plane_easy seeds 0-7 under PF and
  CF (seed by seed) capped at 300 steps.  Each trial contributes
  ``verdict kind|obstacle id|step|path_length|min_dist|dist_sum`` with the
  three floats as ``float.hex``; the records are concatenated without a
  separator.
- ``scenes``: ``json.dumps(scene_to_document(scene), sort_keys=True)`` of
  400 generated scenes (seeds 0-39, and for each seed every scene class),
  concatenated without a separator.

Run from the repository root (about half a minute on one core)::

    PYTHONPATH=src python tools/fingerprint.py
"""

import dataclasses
import hashlib
import json

from geopf import SceneClass, generate, maze_scene, run_trial
from geopf.bench import PlannerSpec
from geopf.scenes import scene_to_document


def _trial_record(scene, kind: str, max_steps: int) -> str:
    params = dataclasses.replace(scene.sim, max_steps=max_steps)
    rec = run_trial(scene, PlannerSpec(kind).build(), params, keep_states=False)
    v = rec.verdict
    floats = (rec.path_length, rec.min_dist, rec.dist_sum)
    return "|".join([v.kind.value, str(v.obstacle_id), str(v.step), *map(float.hex, floats)])


def trajectory_hash() -> str:
    records = [_trial_record(maze_scene(), "geopf", 3000)]
    for scene_class in SceneClass:
        for seed in range(8):
            records.append(_trial_record(generate(scene_class, seed), "geopf", 3000))
    for seed in range(8):
        scene = generate(SceneClass.PLANE_EASY, seed)
        for kind in ("pf", "cf"):
            records.append(_trial_record(scene, kind, 300))
    return hashlib.sha256("".join(records).encode()).hexdigest()


def scene_hash() -> str:
    h = hashlib.sha256()
    for seed in range(40):
        for scene_class in SceneClass:
            doc = scene_to_document(generate(scene_class, seed))
            h.update(json.dumps(doc, sort_keys=True).encode())
    return h.hexdigest()


if __name__ == "__main__":
    print(f"trajectory {trajectory_hash()}")
    print(f"scenes     {scene_hash()}")
