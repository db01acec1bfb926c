"""Benchmark harness: per-trial metrics, suite aggregation and reports.

Suites run seeds ``seed0 .. seed0 + n - 1`` of a scene class under one
planner, aggregate mean/std per metric in seed order and serialize a CSV row
(plus an optional JSON mirror carrying every trial).  Generation failures
are excluded from the statistics but always reported.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
import json
import math
import os
import statistics

from .errors import GenerationFailure
from .planners import build_planner
from .queries import _kernel_for
from .scenes import SceneClass, generate
from .sim import TrajectoryRecord, VerdictKind, run_trial


@dataclass(frozen=True)
class TrialMetrics:
    """Per-trial summary (distances to obstacle primitives, not walls)."""

    success: bool
    steps: int
    ct_per_step: float  # ms, mean of per-step force+integration times
    path_length: float
    min_dist: float
    avg_dist: float

    def __post_init__(self):
        if self.path_length < 0:
            raise ValueError("path_length must be >= 0")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.min_dist > self.avg_dist + 1e-12:
            raise ValueError("min_dist cannot exceed avg_dist")


@dataclass
class PlannerSpec:
    """Harness planner selection: geopf | pf | cf with baseline parameters."""

    kind: str = "geopf"
    rsp: float = 0.01
    ksp: float = 1.0
    correction: bool = True

    def build(self):
        return build_planner(self.kind, self.rsp, self.ksp, self.correction)

    @property
    def label(self) -> str:
        if self.kind == "geopf":
            return "geopf" if self.correction else "geopf(no-corr)"
        return f"{self.kind}({self.rsp:g},{self.ksp:g})"


@dataclass
class SuiteReport:
    """Aggregated results of one (scene class, planner) suite."""

    scene_class: str
    planner: str
    rsp: float | None
    ksp: float | None
    trials: int
    excluded: int
    success_rate: float
    seed_start: int
    seed_end: int
    stats: dict = field(default_factory=dict)  # name -> (mean, std)
    ct_step_ms_median: float = math.nan
    trial_metrics: list = field(default_factory=list)
    trial_seeds: list = field(default_factory=list)


def _replayed(states, scene):
    """Per-state obstacle distances at the recorded positions, measured as
    the simulator does, with obstacles advanced to each state's step."""
    kernels = [_kernel_for(obs.primitive) for obs in scene.obstacles]
    for s in states:
        x, y, z = s.position
        prims = scene.primitives_at_step(s.step)
        yield [kern(x, y, z, p)[0] for kern, p in zip(kernels, prims)]


def replay_distances(states, scene):
    """Recompute per-state minimum obstacle distance from recorded positions.

    Returns a list aligned with ``states`` (``inf`` without obstacles).
    """
    return [min(dists, default=math.inf) for dists in _replayed(states, scene)]


def compute_metrics(record: TrajectoryRecord, scene) -> TrialMetrics:
    """Metrics of one trajectory.

    Uses the aggregates recorded during the run when present; otherwise the
    distances and path length are replayed from the recorded states.
    """
    states = record.states
    if not states:
        raise ValueError("record has no states")
    success = record.verdict.kind is VerdictKind.REACHED_GOAL
    steps = max(1, states[-1].step)
    if record.step_times:
        ct = 1e3 * statistics.fmean(record.step_times)
    else:
        ct = math.nan

    if record.dist_count == 0 and scene.obstacles and len(states) > 1:
        # Synthetic record: replay the distances from the states, summed
        # per state as the simulator does; the average is per pair.
        min_dist = math.inf
        total = 0.0
        count = 0
        for dists in _replayed(states, scene):
            min_dist = min(min_dist, *dists)
            total += math.fsum(dists)
            count += len(dists)
        avg_dist = total / count
    else:
        min_dist = record.min_dist
        avg_dist = record.dist_sum / record.dist_count if record.dist_count else math.inf

    path = record.path_length
    if path == 0.0 and len(states) > 1:
        path = 0.0
        prev = states[0].position
        for s in states[1:]:
            cur = s.position
            path += math.dist(prev, cur)
            prev = cur
    return TrialMetrics(
        success=success,
        steps=steps,
        ct_per_step=ct,
        path_length=path,
        min_dist=min_dist,
        avg_dist=avg_dist,
    )


def _finite(values):
    return [v for v in values if math.isfinite(v)]


def _mean_std(values):
    vals = _finite(values)
    if not vals:
        return (math.nan, math.nan)
    if len(vals) == 1:
        return (vals[0], 0.0)
    return (statistics.fmean(vals), statistics.pstdev(vals))


def _run_one(args):
    (scene_class_value, seed, spec_kind, rsp, ksp, correction, stall_speed, keep_states) = args
    spec = PlannerSpec(spec_kind, rsp, ksp, correction)
    try:
        scene = generate(SceneClass(scene_class_value), seed)
    except GenerationFailure:
        return (seed, None, None, 0)
    planner = spec.build()
    record = run_trial(scene, planner, keep_states=keep_states, stall_speed=stall_speed)
    metrics = compute_metrics(record, scene)
    n_obs = planner.obstacle_count(scene)
    return (seed, metrics, record.verdict.kind.value, n_obs)


def default_workers() -> int:
    """Worker count from GEOPF_THREADS (default 1)."""
    try:
        return max(1, int(os.environ.get("GEOPF_THREADS", "1")))
    except ValueError:
        return 1


def run_suite(
    scene_class,
    spec: PlannerSpec,
    n_trials: int,
    seed0: int = 0,
    *,
    stall_speed: float | None = None,
    keep_states: bool = False,
    collect_trials: bool = False,
    workers: int | None = None,
) -> SuiteReport:
    """Run ``n_trials`` seeded trials and aggregate the metrics.

    Results are aggregated in seed order regardless of the worker pool, so a
    report is reproducible except for the wall-clock fields.
    """
    scene_class = SceneClass(scene_class)
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    workers = default_workers() if workers is None else max(1, int(workers))

    jobs = [
        (
            scene_class.value,
            seed0 + i,
            spec.kind,
            spec.rsp,
            spec.ksp,
            spec.correction,
            stall_speed,
            keep_states,
        )
        for i in range(n_trials)
    ]
    if workers == 1:
        results = [_run_one(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, jobs, chunksize=max(1, n_trials // (8 * workers))))

    metrics = []
    seeds = []
    n_obs = []
    excluded = 0
    successes = 0
    for seed, m, verdict, count in results:
        if m is None:
            excluded += 1
            continue
        metrics.append(m)
        seeds.append(seed)
        n_obs.append(count)
        if m.success:
            successes += 1

    completed = len(metrics)
    rate = successes / completed if completed else math.nan
    ct_values = _finite([m.ct_per_step for m in metrics])
    report = SuiteReport(
        scene_class=scene_class.value,
        planner=spec.label,
        rsp=None if spec.kind == "geopf" else spec.rsp,
        ksp=None if spec.kind == "geopf" else spec.ksp,
        trials=completed,
        excluded=excluded,
        success_rate=rate,
        seed_start=seed0,
        seed_end=seed0 + n_trials - 1,
        stats={
            "n_obs": _mean_std([float(c) for c in n_obs]),
            "steps": _mean_std([float(m.steps) for m in metrics]),
            "ct_step_ms": _mean_std([m.ct_per_step for m in metrics]),
            "path_len": _mean_std([m.path_length for m in metrics]),
            "min_dist": _mean_std([m.min_dist for m in metrics]),
            "avg_dist": _mean_std([m.avg_dist for m in metrics]),
        },
        ct_step_ms_median=statistics.median(ct_values) if ct_values else math.nan,
        trial_metrics=metrics if collect_trials else [],
        trial_seeds=seeds if collect_trials else [],
    )
    return report


CSV_HEADER = (
    "scene_class,planner,rsp,ksp,trials,excluded,success_rate,"
    "n_obs_mean,n_obs_std,steps_mean,steps_std,"
    "ct_step_ms_mean,ct_step_ms_std,ct_step_ms_median,"
    "path_len_mean,path_len_std,min_dist_mean,min_dist_std,"
    "avg_dist_mean,avg_dist_std,seed_start,seed_end"
)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if not math.isfinite(value):
            return "n/a"
        return f"{value:.9g}"
    return str(value)


def report_csv_row(report: SuiteReport) -> str:
    cells = [
        report.scene_class,
        report.planner,
        report.rsp,
        report.ksp,
        report.trials,
        report.excluded,
        report.success_rate,
    ]
    for name in ("n_obs", "steps", "ct_step_ms"):
        cells.extend(report.stats[name])
    cells.append(report.ct_step_ms_median)
    for name in ("path_len", "min_dist", "avg_dist"):
        cells.extend(report.stats[name])
    cells.extend([report.seed_start, report.seed_end])
    return ",".join(_cell(c) for c in cells)


def write_csv(reports, path):
    """Write one or more suite reports to a CSV file."""
    if isinstance(reports, SuiteReport):
        reports = [reports]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for report in reports:
            fh.write(report_csv_row(report) + "\n")


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_json(report: SuiteReport, path):
    """Write the full per-trial mirror of a suite report."""
    doc = {
        "scene_class": report.scene_class,
        "planner": report.planner,
        "rsp": report.rsp,
        "ksp": report.ksp,
        "trials": report.trials,
        "excluded": report.excluded,
        "success_rate": _json_safe(report.success_rate),
        "seed_start": report.seed_start,
        "seed_end": report.seed_end,
        "stats": {
            k: [_json_safe(v) for v in pair] for k, pair in report.stats.items()
        },
        "ct_step_ms_median": _json_safe(report.ct_step_ms_median),
        "trials_detail": [
            {"seed": seed, **{k: _json_safe(v) for k, v in asdict(m).items()}}
            for seed, m in zip(report.trial_seeds, report.trial_metrics)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
