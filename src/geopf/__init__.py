"""Geometry-aware reactive potential-field planning.

Obstacles are geometric primitives (spheres, segments, rectangles, boxes,
cylinders) with closed-form closest-feature queries; the planner turns them
into repulsive vector fields, integrates a point robot to its goal, and a
benchmark harness compares it against sphere-cloud potential-field and
circulatory-field baselines on randomized scenes.
"""

from .baselines import SpherizationParams
from .bench import (
    PlannerSpec,
    SuiteReport,
    TrialMetrics,
    compute_metrics,
    run_suite,
    write_csv,
    write_json,
)
from .errors import (
    DegenerateVector,
    GenerationFailure,
    SceneSchemaError,
)
from .forces import D_MIN, ForceBreakdown, Gains
from .planners import (
    GeoPFPlanner,
    SphereCFPlanner,
    SpherePFPlanner,
    resultant_force,
)
from .primitives import (
    Cube,
    Cylinder,
    Primitive,
    RectPlane,
    Segment,
    Sphere,
    translated,
)
from .queries import ClosestFeature, FeatureKind, closest_feature, distance
from .scenes import (
    Obstacle,
    Scene,
    SceneClass,
    corridor_boundary,
    generate,
    load_scene,
    maze_scene,
    save_scene,
)
from .sim import (
    SimParams,
    TrajectoryRecord,
    TrajState,
    Verdict,
    VerdictKind,
    integrate_step,
    run_trial,
    trajectory_lines,
    write_trajectory,
)

__version__ = "0.1.0"

__all__ = [
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
