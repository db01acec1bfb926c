"""A point is stored once, as a tuple of three floats: primitives, obstacles
and scenes keep no caller's array, compare and hash by value, and reject a
write into a stored point."""

from dataclasses import fields
import typing

import numpy as np
import pytest
from conftest import random_primitive

from geopf import (
    Obstacle,
    Primitive,
    Scene,
    SceneClass,
    Segment,
    corridor_boundary,
    distance,
    generate,
)
from geopf.scenes import document_to_scene, scene_to_document

PRIMITIVE_TYPES = typing.get_args(Primitive)
_ids = {"ids": lambda cls: cls.__name__}


def _point_names(prim) -> list:
    return [f.name for f in fields(prim) if f.type is not float]


def _sample(cls):
    return random_primitive(np.random.default_rng(5), cls.scene_type)


def _is_point(value) -> bool:
    return type(value) is tuple and len(value) == 3 and all(type(v) is float for v in value)


@pytest.mark.parametrize("cls", PRIMITIVE_TYPES, **_ids)
def test_a_callers_array_changed_later_changes_nothing(cls):
    sample = _sample(cls)
    arrays = {name: np.array(getattr(sample, name)) for name in _point_names(sample)}
    prim = cls(**{**{f.name: getattr(sample, f.name) for f in fields(sample)}, **arrays})
    drift, start, goal = np.array((0.01, 0.0, 0.0)), np.zeros(3), np.array((0.0, -1.0, 0.0))
    bounds = (np.full(3, -2.0), np.full(3, 2.0))
    obstacle = Obstacle(prim, drift=drift)
    scene = Scene(start, goal, [obstacle], corridor_boundary(-1.2, 1.2), drift_bounds=bounds)
    points = [getattr(prim, name) for name in arrays]
    probe = (0.5, 0.5, 0.5)
    d = distance(probe, prim)
    document = scene_to_document(scene)
    offsets = scene.primitives_at_step(100).offsets

    for a in [*arrays.values(), drift, start, goal, *bounds]:
        a += 0.25

    assert [getattr(prim, name) for name in arrays] == points
    assert distance(probe, prim) == d
    assert obstacle.drift == (0.01, 0.0, 0.0)
    assert (scene.start, scene.goal) == ((0.0, 0.0, 0.0), (0.0, -1.0, 0.0))
    assert scene.drift_bounds == ((-2.0,) * 3, (2.0,) * 3)
    assert scene_to_document(scene) == document
    assert scene.primitives_at_step(100).offsets == offsets


def test_a_stored_point_cannot_be_written():
    scene = generate(SceneClass.DYNAMIC_EASY, 0)
    obs = next(o for o in scene.obstacles if o.drift is not None)
    seg = Segment(np.zeros(3), (1, 0, 0))
    for point in (seg.p1, scene.start, scene.drift_bounds[0], obs.drift):
        with pytest.raises(TypeError):
            point[0] = 0.5


@pytest.mark.parametrize("scene_class", list(SceneClass), ids=lambda c: c.value)
def test_scenes_compare_by_value(scene_class):
    scene = generate(scene_class, 3)
    assert scene == generate(scene_class, 3)
    assert scene != generate(scene_class, 4)
    assert document_to_scene(scene_to_document(scene)) == scene


@pytest.mark.parametrize("cls", PRIMITIVE_TYPES, **_ids)
def test_equal_primitives_and_obstacles_hash_equal(cls):
    prim = _sample(cls)
    again = cls(*(np.array(getattr(prim, f.name)) for f in fields(prim)))
    assert again is not prim
    assert again == prim and hash(again) == hash(prim)
    assert Obstacle(again, drift=[0, 1, 0]) == Obstacle(prim, drift=(0.0, 1.0, 0.0))
    assert hash(Obstacle(again, gain=2)) == hash(Obstacle(prim, gain=2.0))
    assert len({prim, again, _sample(cls)}) == 1


@pytest.mark.parametrize("scene_class", list(SceneClass), ids=lambda c: c.value)
def test_every_stored_point_is_a_tuple_of_three_floats(scene_class):
    scene = generate(scene_class, 0)
    points = [scene.start, scene.goal, *(scene.drift_bounds or ())]
    prims = [*(obs.primitive for obs in scene.obstacles), *scene.boundary]
    prims += [face for prim in prims for face in getattr(prim, "faces", ())]
    points += [obs.drift for obs in scene.obstacles if obs.drift is not None]
    points += [getattr(prim, name) for prim in prims for name in _point_names(prim)]
    assert all(map(_is_point, points))
