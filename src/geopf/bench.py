"""Benchmark harness: per-trial metrics, suite aggregation and reports.

Suites run seeds ``seed0 .. seed0 + n - 1`` of a scene class under one
planner, aggregate mean/std per metric in seed order and serialize a CSV row
(plus an optional JSON mirror carrying every trial).  Generation failures
are excluded from the statistics but always reported.

``_STATS`` is the one list of reported statistics: the suite's ``stats`` and
medians, the CSV columns and the JSON mirror's ``stats`` all follow it.

Two step times are reported.  ``ct_per_step`` is the paper's force-only
time: force evaluation plus integration.  ``full_step`` is the mean wall time
of a whole simulation step, with the distance instrumentation, contact and
crossing checks that the force-only time leaves out.
"""

from dataclasses import asdict, dataclass, field
import functools
import json
import math
import os
import statistics

from .errors import GenerationFailure
from .baselines import SpherizationParams
from .planners import GeoPFPlanner, SphereCFPlanner, SpherePFPlanner
from .primitives import positive_int
from .scenes import SceneClass, generate
from .sim import TrajectoryRecord, VerdictKind, run_trial


@dataclass(frozen=True)
class TrialMetrics:
    """Per-trial summary (distances to obstacle primitives, not walls)."""

    success: bool
    steps: int
    ct_per_step: float  # ms, mean of per-step force+integration times (force-only)
    full_step: float  # ms, mean wall time of a whole simulation step
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
        """A fresh planner of this kind."""
        if self.kind == "geopf":
            return GeoPFPlanner(correction=self.correction)
        params = SpherizationParams(radius=self.rsp, k_rep=self.ksp)
        if self.kind == "pf":
            return SpherePFPlanner(params)
        if self.kind == "cf":
            return SphereCFPlanner(params)
        raise ValueError(f"unknown planner kind: {self.kind!r} (expected geopf, pf or cf)")

    @property
    def label(self) -> str:
        if self.kind == "geopf":
            return "geopf" if self.correction else "geopf(no-corr)"
        return f"{self.kind}({self.rsp:g},{self.ksp:g})"


# The reported statistics, in report order: name, the TrialMetrics field it
# summarises (None: the planner's obstacle count) and whether its median is
# reported (as the SuiteReport field ``<name>_median``).
_STATS = (
    ("n_obs", None, False),
    ("steps", "steps", False),
    ("ct_step_ms", "ct_per_step", True),
    ("full_step_ms", "full_step", True),
    ("path_len", "path_length", False),
    ("min_dist", "min_dist", False),
    ("avg_dist", "avg_dist", False),
)


@dataclass
class SuiteReport:
    """Aggregated results of one (scene class, planner) suite.

    ``stats`` holds the mean and std of each statistic of ``_STATS``, the one
    list of reported statistics, in its order.
    """

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
    full_step_ms_median: float = math.nan
    trial_metrics: list = field(default_factory=list)
    trial_seeds: list = field(default_factory=list)


def compute_metrics(record: TrajectoryRecord, scene) -> TrialMetrics:
    """Metrics of one trajectory, from the aggregates recorded during the
    run: path length, and the minimum and mean of the obstacle distances
    (infinite when no distance was recorded, as in a scene without
    obstacles).  ``scene`` is not read: the record carries the aggregates."""
    states = record.states
    if not states:
        raise ValueError("record has no states")
    success = record.verdict.kind is VerdictKind.REACHED_GOAL
    steps = max(1, states[-1].step)
    if record.step_times:
        ct = 1e3 * statistics.fmean(record.step_times)
    else:
        ct = math.nan

    return TrialMetrics(
        success=success,
        steps=steps,
        ct_per_step=ct,
        full_step=1e3 * record.full_step_time,
        path_length=record.path_length,
        min_dist=record.min_dist,
        avg_dist=record.dist_sum / record.dist_count if record.dist_count else math.inf,
    )


def _summary(values):
    """Mean, population std and median of the finite values (nan if none)."""
    vals = [float(v) for v in values if math.isfinite(v)]
    if not vals:
        return (math.nan, math.nan, math.nan)
    return (statistics.fmean(vals), statistics.pstdev(vals), statistics.median(vals))


def _run_one(scene_class: SceneClass, seed: int, spec: PlannerSpec, stall_speed: float | None):
    try:
        scene = generate(scene_class, seed)
    except GenerationFailure:
        return (seed, None, 0)
    planner = spec.build()
    record = run_trial(scene, planner, keep_states=False, stall_speed=stall_speed)
    metrics = compute_metrics(record, scene)
    n_obs = planner.obstacle_count(scene)
    return (seed, metrics, n_obs)


def default_workers() -> int:
    """Worker count from GEOPF_THREADS (default 1); ValueError naming
    GEOPF_THREADS when it is not an integer >= 1."""
    text = os.environ.get("GEOPF_THREADS", "1")
    try:
        value = int(text)
    except ValueError:
        value = text
    return positive_int(value, "GEOPF_THREADS")


def run_suite(
    scene_class,
    spec: PlannerSpec,
    n_trials: int,
    seed0: int = 0,
    *,
    stall_speed: float | None = None,
    workers: int | None = None,
) -> SuiteReport:
    """Run ``n_trials`` seeded trials and aggregate the metrics; the report
    also keeps each completed trial's metrics and seed.

    Results are aggregated in seed order regardless of the worker pool, so a
    report is reproducible except for the wall-clock fields.  A count that
    is not an integer >= 1 raises ValueError naming ``n_trials``, ``workers``
    or, when ``workers`` is None, GEOPF_THREADS.
    """
    scene_class = SceneClass(scene_class)
    n_trials = positive_int(n_trials, "n_trials")
    workers = default_workers() if workers is None else positive_int(workers, "workers")

    run_one = functools.partial(_run_one, scene_class, spec=spec, stall_speed=stall_speed)
    seed_range = range(seed0, seed0 + n_trials)
    if workers == 1:
        results = [run_one(seed) for seed in seed_range]
    else:
        # Imported here: the process-pool stack (multiprocessing, sockets,
        # subprocess) adds about 2 MB to every process that imports geopf,
        # and the default is one worker.
        from concurrent.futures import ProcessPoolExecutor

        chunksize = max(1, n_trials // (8 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_one, seed_range, chunksize=chunksize))

    completed = [(seed, m, count) for seed, m, count in results if m is not None]
    seeds = [seed for seed, _, _ in completed]
    metrics = [m for _, m, _ in completed]
    n_obs = [count for _, _, count in completed]
    rate = sum(m.success for m in metrics) / len(metrics) if metrics else math.nan

    stats = {}
    medians = {}
    for name, attr, median in _STATS:
        mean, std, med = _summary(n_obs if attr is None else [getattr(m, attr) for m in metrics])
        stats[name] = (mean, std)
        if median:
            medians[f"{name}_median"] = med
    return SuiteReport(
        scene_class=scene_class.value,
        planner=spec.label,
        rsp=None if spec.kind == "geopf" else spec.rsp,
        ksp=None if spec.kind == "geopf" else spec.ksp,
        trials=len(metrics),
        excluded=len(results) - len(metrics),
        success_rate=rate,
        seed_start=seed0,
        seed_end=seed0 + n_trials - 1,
        stats=stats,
        **medians,
        trial_metrics=metrics,
        trial_seeds=seeds,
    )


# The CSV columns: SuiteReport fields, and each statistic's mean, std and
# median (if reported) in table order.
_CSV_COLUMNS = (
    *("scene_class", "planner", "rsp", "ksp", "trials", "excluded", "success_rate"),
    *(
        f"{name}_{part}"
        for name, _, median in _STATS
        for part in (("mean", "std", "median") if median else ("mean", "std"))
    ),
    *("seed_start", "seed_end"),
)
CSV_HEADER = ",".join(_CSV_COLUMNS)


def _cell(value, digits: int = 9) -> str:
    """A value as a report cell: empty for None, ``n/a`` for a non-finite
    float, a float at ``digits`` significant digits."""
    if value is None:
        return ""
    if isinstance(value, float):
        if not math.isfinite(value):
            return "n/a"
        return f"{value:.{digits}g}"
    return str(value)


def report_csv_row(report: SuiteReport) -> str:
    cells = vars(report) | {
        f"{name}_{part}": value
        for name, pair in report.stats.items()
        for part, value in zip(("mean", "std"), pair)
    }
    return ",".join(_cell(cells[column]) for column in _CSV_COLUMNS)


def write_csv(reports, path):
    """Write one or more suite reports to a CSV file."""
    if isinstance(reports, SuiteReport):
        reports = [reports]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for report in reports:
            fh.write(report_csv_row(report) + "\n")


def _json_safe(value):
    """``value`` with every non-finite float, however deep, as None (null)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def write_json(report: SuiteReport, path):
    """Write the full per-trial mirror of a suite report: its fields in
    order, with ``trials_detail`` (each trial's seed and metrics) in place of
    ``trial_metrics`` and ``trial_seeds``."""
    doc = asdict(report)
    trials = zip(doc.pop("trial_seeds"), doc.pop("trial_metrics"))
    doc["trials_detail"] = [{"seed": seed, **m} for seed, m in trials]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_json_safe(doc), fh, indent=2)
        fh.write("\n")
