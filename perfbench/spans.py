"""Span tracing for the traced benchmark run.

The tracer wraps, from outside the package, the calls the geopf modules make
into one another: the planner object's methods, the scene instance's
``primitives_at_step`` and the module-level names that callers look up at
call time.  Each wrapped call records one span (name, parent, start, end);
spans stay in flat in-memory arrays and are written out once the run ends.
Nothing under ``src/`` changes, and every patched name is restored on exit.
"""

from array import array
from contextlib import contextmanager
import random
import statistics
import time
from typing import NamedTuple

import numpy as np

# Span names that run inside the simulation step loop; every other span
# (generation, prepare, spherization, metrics) is set-up or bookkeeping.
STEP_SPANS = (
    "scenes.primitives_at_step",
    "queries.kernel.sphere",
    "queries.kernel.segment",
    "queries.kernel.plane",
    "queries.kernel.cube",
    "queries.kernel.cylinder",
    "sim.crossing",
    "sim.integrate",
    "planners.update",
    "planners.force",
    "forces.obstacle_term",
    "forces.wall_terms",
    "baselines.sphere_terms",
    "baselines.cf_terms",
)
LAYERS = ("scenes", "queries", "sim", "planners", "forces", "baselines")
KERNEL_TYPES = ("sphere", "segment", "plane", "cube", "cylinder")

# Replay sampling: every SAMPLE_STRIDE-th call of a sampled span enters a
# reservoir of SAMPLE_CAP argument tuples, so the samples spread evenly over
# the whole traced pass.
SAMPLE_STRIDE = 53
SAMPLE_CAP = 256


class Tracer:
    """In-memory span recorder.

    Spans live in parallel flat arrays (name id, parent index, start, end);
    ``trials`` holds, per trial, the index of its first span, so every span
    of one trial shares that trial's id.
    """

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.trials = []
        self.samples = {}
        self.rebuilt = 0

    def begin_trial(self):
        self.trials.append(len(self.start))

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, sample=False):
        """Return ``fn`` wrapped so that every call records a span.

        With ``sample`` set, argument tuples of a spread of successful calls
        are kept for the unwrapped replay microbenchmark; the reservoir's
        random choices are seeded, so a pass keeps the same calls each run.
        """
        nid = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        perf = time.perf_counter
        kept = self.samples.setdefault(name, []) if sample else None
        seen = [0]
        choose = random.Random(nid).randrange if sample else None

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                starts[idx] = t0
                stack.pop()
            if kept is not None:
                seen[0] += 1
                if seen[0] % SAMPLE_STRIDE == 0:
                    if len(kept) < SAMPLE_CAP:
                        kept.append(args)
                    else:
                        slot = choose(seen[0] // SAMPLE_STRIDE)
                        if slot < SAMPLE_CAP:
                            kept[slot] = args
            return out

        return traced

    def wrap_planner(self, planner):
        """Shadow the planner instance's methods with traced ones."""
        for method in ("prepare", "update", "force"):
            setattr(planner, method, self.wrap(f"planners.{method}", getattr(planner, method)))
        planner.obstacle_count = self.wrap("bench.obstacle_count", planner.obstacle_count)

    def wrap_scene(self, scene):
        """Trace the scene instance's ``primitives_at_step`` and count the
        returned primitives that are not the obstacle's base object."""
        bases = [obs.primitive for obs in scene.obstacles]
        inner = self.wrap("scenes.primitives_at_step", scene.primitives_at_step)

        def primitives_at_step(step):
            prims = inner(step)
            self.rebuilt += sum(p is not b for p, b in zip(prims, bases))
            return prims

        scene.primitives_at_step = primitives_at_step

    def arrays(self):
        """The spans as numpy arrays: name, parent, trial, start, end."""
        counts = np.diff(np.array(self.trials + [len(self.start)], dtype=np.int64))
        trial = np.repeat(np.arange(len(self.trials)), counts)
        return (
            np.frombuffer(self.name, dtype=np.uint16).copy(),
            np.frombuffer(self.parent, dtype=np.int64).copy(),
            trial,
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def save(self, path):
        """Write the spans as an ``.npz``: span ``i`` is named
        ``names[name[i]]``, runs from ``start[i]`` for ``duration[i]``
        seconds under span ``parent[i]`` (-1 for none), and belongs to the
        last trial whose ``trial_first`` index is at most ``i``."""
        name, parent, _, start, end = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=name,
            parent=parent.astype(np.int32),
            start=start,
            duration=(end - start).astype(np.float32),
            trial_first=np.array(self.trials, dtype=np.int64),
        )


@contextmanager
def patched(tracer):
    """Install traced module-level names for the length of the block."""
    import geopf.planners as planners
    import geopf.sim as sim

    saved = []

    def patch(module, attr, new):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    real_kernel_for = sim._kernel_for
    kernels = {}

    def kernel_for(prim):
        kern = real_kernel_for(prim)
        if kern not in kernels:
            kind = kern.__name__.removeprefix("_").removesuffix("_kernel")
            kernels[kern] = tracer.wrap(f"queries.kernel.{kind}", kern, sample=True)
        return kernels[kern]

    try:
        patch(sim, "_kernel_for", kernel_for)
        patch(sim, "_crossing", tracer.wrap("sim.crossing", sim._crossing))
        patch(sim, "integrate_step", tracer.wrap("sim.integrate", sim.integrate_step))
        patch(
            planners,
            "obstacle_force_term",
            tracer.wrap("forces.obstacle_term", planners.obstacle_force_term, sample=True),
        )
        patch(planners, "_wall_terms", tracer.wrap("forces.wall_terms", planners._wall_terms))
        patch(planners, "_sphere_terms", tracer.wrap("baselines.sphere_terms", planners._sphere_terms))
        patch(planners, "_cf_terms", tracer.wrap("baselines.cf_terms", planners._cf_terms))
        patch(planners, "spherize", tracer.wrap("baselines.spherize", planners.spherize))
        yield
    finally:
        for module, attr, old in reversed(saved):
            setattr(module, attr, old)


def replay_us(fn, samples, min_s=0.02, repeats=7):
    """Unwrapped per-call time of ``fn`` over recorded argument tuples (µs).

    Each repeat loops over the samples until ``min_s`` has passed; the
    median repeat is reported.
    """
    if not samples:
        return 0.0
    perf = time.perf_counter
    per_call = []
    for _ in range(repeats):
        calls = 0
        t0 = perf()
        while True:
            for args in samples:
                fn(*args)
            calls += len(samples)
            elapsed = perf() - t0
            if elapsed >= min_s:
                break
        per_call.append(elapsed / calls)
    return 1e6 * statistics.median(per_call)


def wrapper_cost(calls=20000, repeats=5):
    """Seconds one traced call adds inside its own span and outside it (to
    its parent's self time), measured on a no-op; medians over ``repeats``."""
    perf = time.perf_counter

    def noop():
        pass

    inside, outside = [], []
    for _ in range(repeats):
        tracer = Tracer()
        traced = tracer.wrap("noop", noop, sample=True)
        t0 = perf()
        for _ in range(calls):
            noop()
        base = perf() - t0
        t0 = perf()
        for _ in range(calls):
            traced()
        total = perf() - t0
        recorded = sum(e - s for s, e in zip(tracer.start, tracer.end))
        inside.append(recorded / calls)
        outside.append((total - base - recorded) / calls)
    return statistics.median(inside), statistics.median(outside)


class LayerReport(NamedTuple):
    calls: dict  # span name -> number of calls
    call_us: dict  # span name -> mean inclusive µs per call, as recorded
    layer_self_s: dict  # layer -> self seconds inside the step loops
    loop_s: float  # seconds inside the step loops, wrapper cost removed
    traced_loop_s: float  # seconds inside the step loops, as measured
    steps: int
    sim_self_s: float  # step time not covered by any span
    cull_attempts: int  # obstacles offered to GeoPF-style force calls


def layer_report(tracer, results, select=lambda result: True, cost=(0.0, 0.0)):
    """Per-layer figures from the spans of the selected trials that completed.

    ``results`` are the traced pass's trial results, in the order the
    tracer saw the trials.  A layer's self time is its spans' duration minus
    the part covered by their child spans; the simulator's own share is the
    step time that no span covers.  ``cost`` is :func:`wrapper_cost`: each
    span's self time loses the inside part, and its parent (the simulator,
    for a top-level span) loses the outside part.
    """
    inside, outside = cost
    name, parent, trial, start, end = tracer.arrays()
    ok = np.array([r.error is None and select(r) for r in results], dtype=bool)
    keep = ok[trial] if len(trial) else np.zeros(0, dtype=bool)
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    children = np.bincount(parent[has_parent], minlength=len(dur))
    self_time = dur - child - inside - outside * children

    calls, call_us, self_s, top_s, top_n = {}, {}, {}, {}, {}
    for nid, label in enumerate(tracer.names):
        mask = (name == nid) & keep
        calls[label] = int(mask.sum())
        call_us[label] = 1e6 * float(dur[mask].mean()) if calls[label] else 0.0
        self_s[label] = float(self_time[mask].sum())
        top_s[label] = float(dur[mask & ~has_parent].sum())
        top_n[label] = int((mask & ~has_parent).sum())

    done = [r for r, keep_trial in zip(results, ok) if keep_trial]
    traced_loop_s = sum(r.loop_s for r in done)
    steps = sum(r.steps for r in done)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for label in STEP_SPANS:
        layer_self[label.split(".")[0]] += self_s.get(label, 0.0)
    sim_self = traced_loop_s - sum(
        top_s.get(label, 0.0) + outside * top_n.get(label, 0) for label in STEP_SPANS
    )
    layer_self["sim"] += sim_self
    loop_s = sum(layer_self.values())

    force_id = tracer.name_id("planners.force")
    forces_per_trial = np.bincount(trial[(name == force_id) & keep], minlength=len(results))
    geopf_obstacles = [r.n_obstacles if r.trial.kind == "geopf" else 0 for r in results]
    attempts = int(np.dot(forces_per_trial, geopf_obstacles))
    return LayerReport(
        calls, call_us, layer_self, loop_s, traced_loop_s, steps, sim_self, attempts
    )
