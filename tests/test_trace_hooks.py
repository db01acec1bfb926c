"""The names that ``perfbench`` patches or replays from outside the package.

``perfbench/spans.py`` swaps these module-level names for traced wrappers
and ``perfbench/run.py`` replays the kernels and the obstacle term unwrapped.
A rename breaks ``perfbench/run.py --trace 1`` without failing any other
test, so each name is pinned here.
"""

import pytest

import geopf
from geopf import Cube, Cylinder, PlannerSpec, RectPlane, Segment, Sphere
from geopf import forces, planners, queries, sim

KINDS = {
    "sphere": Sphere((0, 0, 0), 0.1),
    "segment": Segment((0, 0, 0), (1, 0, 0)),
    "plane": RectPlane((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)),
    "cube": Cube(
        (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)
    ),
    "cylinder": Cylinder((0, 0, 0), (0, 0, 1), 0.2),
}


@pytest.mark.parametrize(
    "module, name",
    [
        (sim, "_kernel_for"),
        (sim, "_crossing"),
        (sim, "integrate_step"),
        (planners, "obstacle_force_term"),
        (planners, "_wall_terms"),
        (planners, "_sphere_terms"),
        (planners, "_cf_terms"),
        (planners, "spherize"),
        (forces, "obstacle_force_term"),
        (geopf, "compute_metrics"),
    ],
)
def test_each_patched_or_replayed_name_is_a_function(module, name):
    assert callable(getattr(module, name))


@pytest.mark.parametrize("kind", KINDS)
def test_each_kernel_is_named_by_its_kind_and_reached_through_sim(kind):
    # The tracer labels a kernel by its __name__ and replays
    # queries._<kind>_kernel, so both must name the kernel sim runs.
    kernel = getattr(queries, f"_{kind}_kernel")
    assert kernel.__name__ == f"_{kind}_kernel"
    assert sim._kernel_for(KINDS[kind]) is kernel


@pytest.mark.parametrize("kind", ["geopf", "pf", "cf"])
def test_each_planner_has_the_traced_methods(kind):
    planner = PlannerSpec(kind).build()
    for method in ("prepare", "update", "force", "obstacle_count"):
        assert callable(getattr(planner, method)), method
