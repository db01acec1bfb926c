"""Command-line interface.

Subcommands:
    run    -- run one planner on a scene file, optionally exporting the trajectory
    bench  -- run a seeded suite of a scene class and write a CSV report
    maze   -- run a planner on the fixed maze scene
    gen    -- generate a scene file for a class and seed

Exit codes: 0 on completion, 2 on a usage or scene-schema error, 3 on
generation failure.  GEOPF_THREADS, an integer of at least 1, caps the
benchmark worker pool.
"""

import argparse
import sys

from .bench import PlannerSpec, _cell, compute_metrics, default_workers, run_suite
from .bench import write_csv, write_json
from .errors import GenerationFailure, SceneSchemaError
from .primitives import positive, positive_int
from .scenes import SceneClass, _check_seed, generate, load_scene, maze_scene, save_scene
from .sim import run_trial, write_trajectory

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_GENERATION = 3


def _add_trial_args(parser):
    parser.add_argument(
        "--planner", choices=("geopf", "pf", "cf"), default="geopf", help="planner to run"
    )
    parser.add_argument("--rsp", type=positive, default=0.01, help="baseline sphere radius")
    parser.add_argument("--ksp", type=positive, default=1.0, help="baseline sphere gain")
    parser.add_argument(
        "--no-correction",
        action="store_true",
        help="disable the geometric planner's trap correction",
    )
    parser.add_argument(
        "--stall-exit", type=positive, default=None, help="early-timeout stall speed (m/s)"
    )


def _spec(args) -> PlannerSpec:
    return PlannerSpec(
        kind=args.planner, rsp=args.rsp, ksp=args.ksp, correction=not args.no_correction
    )


def _run_and_report(scene, spec, traj_path=None, stall_speed=None):
    planner = spec.build()
    record = run_trial(scene, planner, stall_speed=stall_speed)
    metrics = compute_metrics(record, scene)
    verdict = record.verdict
    print(f"planner:    {spec.label}")
    print(f"scene:      {scene.scene_class} (seed {scene.seed})")
    what = verdict.kind.value
    if verdict.obstacle_id is not None:
        what += f" ({verdict.obstacle_id})"
    print(f"verdict:    {what}")
    print(f"steps:      {metrics.steps}")
    print(f"ct/step:    {_cell(metrics.ct_per_step, 6)} ms (force-only)")
    print(f"full step:  {_cell(metrics.full_step, 6)} ms")
    print(f"path:       {_cell(metrics.path_length, 6)} m")
    print(f"min dist:   {_cell(metrics.min_dist, 6)} m")
    print(f"avg dist:   {_cell(metrics.avg_dist, 6)} m")
    if traj_path:
        write_trajectory(record, traj_path)
        print(f"trajectory: {traj_path}")
    return EXIT_OK


def seed(text) -> int:
    """A scene seed: an unsigned 64-bit integer."""
    return _check_seed(int(text))


def trials(text) -> int:
    """A trial count: an integer of at least 1, by ``positive_int``."""
    try:
        value = int(text)
    except ValueError:
        value = text
    try:
        return positive_int(value, "trials")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_run(args) -> int:
    try:
        scene = load_scene(args.scene)
    except (SceneSchemaError, OSError, UnicodeDecodeError) as exc:
        print(f"scene error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    return _run_and_report(scene, _spec(args), args.traj, args.stall_exit)


def _cmd_maze(args) -> int:
    return _run_and_report(maze_scene(), _spec(args), args.traj, args.stall_exit)


def _cmd_bench(args) -> int:
    try:
        workers = default_workers()
    except ValueError as exc:
        args.usage_error(str(exc))
    try:
        scene_class = SceneClass(args.scene_class)
    except ValueError:
        print(f"unknown scene class: {args.scene_class}", file=sys.stderr)
        return EXIT_GENERATION
    last = args.seed + args.trials - 1
    if last >= 2**64:
        print(f"seeds {args.seed}..{last} do not fit in 64 bits", file=sys.stderr)
        return EXIT_GENERATION
    report = run_suite(
        scene_class,
        _spec(args),
        n_trials=args.trials,
        seed0=args.seed,
        stall_speed=args.stall_exit,
        workers=workers,
    )
    if report.trials == 0:
        print("all trials failed to generate", file=sys.stderr)
        return EXIT_GENERATION
    write_csv(report, args.out)
    if args.json:
        write_json(report, args.json)
    sr = report.success_rate
    print(
        f"{report.scene_class} {report.planner}: "
        f"SR {100 * sr:.1f}% over {report.trials} trials "
        f"({report.excluded} excluded), "
        f"ct/step {_cell(report.stats['ct_step_ms'][0], 6)} ms force-only, "
        f"full step {_cell(report.stats['full_step_ms'][0], 6)} ms -> {args.out}"
    )
    return EXIT_OK


def _cmd_gen(args) -> int:
    try:
        scene_class = SceneClass(args.scene_class)
    except ValueError:
        print(f"unknown scene class: {args.scene_class}", file=sys.stderr)
        return EXIT_GENERATION
    try:
        scene = generate(scene_class, args.seed)
    except GenerationFailure as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return EXIT_GENERATION
    save_scene(scene, args.out)
    print(f"wrote {args.out} ({len(scene.obstacles)} obstacles)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="geopf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one trial on a scene file")
    p_run.add_argument("--scene", required=True, help="scene file path")
    _add_trial_args(p_run)
    p_run.add_argument("--traj", help="write the trajectory export here")
    p_run.set_defaults(func=_cmd_run)

    p_bench = sub.add_parser("bench", help="run a seeded benchmark suite")
    p_bench.add_argument(
        "--class",
        dest="scene_class",
        required=True,
        help="scene class name (maze is one fixed geometry: its seed changes "
        "nothing, so an n-seed maze suite reruns one scene n times)",
    )
    _add_trial_args(p_bench)
    p_bench.add_argument("--trials", type=trials, default=100)
    p_bench.add_argument("--seed", type=seed, default=0)
    p_bench.add_argument("--out", required=True, help="CSV report path")
    p_bench.add_argument("--json", help="also write the full per-trial JSON mirror")
    p_bench.set_defaults(func=_cmd_bench, usage_error=p_bench.error)

    p_maze = sub.add_parser("maze", help="run a planner on the fixed maze scene")
    _add_trial_args(p_maze)
    p_maze.add_argument("--traj", help="write the trajectory export here")
    p_maze.set_defaults(func=_cmd_maze)

    p_gen = sub.add_parser("gen", help="generate a scene file")
    p_gen.add_argument("--class", dest="scene_class", required=True)
    p_gen.add_argument("--seed", type=seed, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
