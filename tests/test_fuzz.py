"""Property test: every trial of a small random scene ends in a verdict or,
from a start with no repulsion direction, in ``DegenerateVector``; the same
trial run twice ends the same way, bit for bit."""

from conftest import PRIMITIVE_KINDS, random_primitive
from hypothesis import given, settings, strategies as st
import numpy as np

from geopf import (
    DegenerateVector,
    Obstacle,
    PlannerSpec,
    Scene,
    SimParams,
    Sphere,
    Verdict,
    compute_metrics,
    corridor_boundary,
    run_trial,
)

# Starts on primitive features where a repulsion direction is undefined.
STARTS = ("free", "segment_interior", "segment_end", "point_sphere_center")
MAX_STEPS = 40


@st.composite
def trials(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(PRIMITIVE_KINDS), min_size=1, max_size=3))
    prims = [random_primitive(rng, kind) for kind in kinds]
    start_kind = draw(st.sampled_from(STARTS))
    start = rng.uniform(-0.4, 0.4, 3)
    if start_kind == "point_sphere_center":
        prims.append(Sphere(start, 0.0))
    elif start_kind != "free":
        seg = random_primitive(rng, "segment")
        if start_kind == "segment_interior":
            start = np.asarray(seg.p1) + draw(st.floats(0.0, 1.0)) * np.subtract(seg.p2, seg.p1)
        else:
            start = np.asarray(seg.p2)
        prims.append(seg)
    drifting = draw(st.booleans())
    obstacles = [
        Obstacle(p, drift=rng.uniform(-0.5, 0.5, 3) if drifting and i % 2 else None)
        for i, p in enumerate(prims)
    ]
    scene = Scene(
        start=start,
        goal=rng.uniform(-0.4, 0.4, 3) + (0.0, 0.5, 0.0),
        obstacles=obstacles,
        boundary=corridor_boundary(-1.2, 1.2) if draw(st.booleans()) else [],
        sim=SimParams(max_steps=MAX_STEPS),
        seed=draw(st.integers(0, 2**32 - 1)),
        drift_bounds=((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0)) if drifting else None,
    )
    kind = draw(st.sampled_from(("geopf", "pf", "cf")))
    return scene, kind, draw(st.booleans()), start_kind


def _fingerprint(record):
    return (
        record.verdict,
        repr(record.states),
        record.path_length.hex(),
        record.min_dist.hex(),
        record.dist_sum.hex(),
        record.dist_count,
    )


def _outcome(scene, kind, correction):
    try:
        record = run_trial(scene, PlannerSpec(kind, rsp=0.02, correction=correction).build())
    except DegenerateVector as exc:
        return ("degenerate", str(exc))
    assert isinstance(record.verdict, Verdict)
    assert 0 <= record.verdict.step <= MAX_STEPS + 1
    compute_metrics(record, scene)
    return _fingerprint(record)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(trials())
def test_every_trial_ends_deterministically(trial):
    scene, kind, correction, start_kind = trial
    outcome = _outcome(scene, kind, correction)
    assert outcome == _outcome(scene, kind, correction)
    if start_kind == "free":
        assert outcome[0] != "degenerate"
