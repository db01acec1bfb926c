"""The package's public surface: one name per query, force and planner path."""

import inspect

import geopf

PUBLIC = [
    "ClosestFeature",
    "Cube",
    "Cylinder",
    "D_MIN",
    "DegenerateVector",
    "FeatureKind",
    "ForceBreakdown",
    "Gains",
    "GenerationFailure",
    "GeoPFPlanner",
    "Obstacle",
    "PlannerSpec",
    "Primitive",
    "RectPlane",
    "Scene",
    "SceneClass",
    "SceneSchemaError",
    "Segment",
    "SimParams",
    "Sphere",
    "SphereCFPlanner",
    "SpherePFPlanner",
    "SpherizationParams",
    "SuiteReport",
    "TrajState",
    "TrajectoryRecord",
    "TrialMetrics",
    "Verdict",
    "VerdictKind",
    "closest_feature",
    "compute_metrics",
    "corridor_boundary",
    "distance",
    "generate",
    "integrate_step",
    "load_scene",
    "maze_scene",
    "resultant_force",
    "run_suite",
    "run_trial",
    "save_scene",
    "trajectory_lines",
    "translated",
    "write_csv",
    "write_json",
    "write_trajectory",
]


def test_the_public_names_are_the_pinned_list_and_all_resolve():
    # A new public name is a new code path to keep in step: add it here on
    # purpose, not as a wrapper that only tests reach.
    assert sorted(geopf.__all__) == PUBLIC
    for name in geopf.__all__:
        assert getattr(geopf, name) is not None, name


def test_resultant_force_takes_no_generator():
    # The trap correction is a fixed rule, so the public force breakdown
    # takes no random generator.
    signature = inspect.signature(geopf.resultant_force)
    parameters = signature.replace(return_annotation=inspect.Signature.empty)
    assert str(parameters) == "(robot, goal, scene, correction=True)"
