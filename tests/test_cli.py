"""Command-line interface: subcommands, files written and exit codes."""

import json

import pytest

from geopf.cli import EXIT_GENERATION, EXIT_OK, EXIT_SCHEMA, build_parser, main


def test_gen_then_run(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    traj = tmp_path / "traj.csv"
    assert main(["gen", "--class", "line_easy", "--seed", "0", "--out", str(scene)]) == EXIT_OK
    code = main(["run", "--scene", str(scene), "--traj", str(traj), "--stall-exit", "0.01"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "verdict:    reached_goal" in out
    assert " ms (force-only)\nfull step:  " in out
    assert traj.read_text().startswith("step,px,py,pz")


def test_maze(capsys):
    # A stall speed above the speed limit ends the run after the stall window.
    assert main(["maze", "--stall-exit", "1"]) == EXIT_OK
    assert "verdict:" in capsys.readouterr().out


def test_malformed_scene_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--scene", str(bad)]) == EXIT_SCHEMA
    assert "scene error" in capsys.readouterr().err


def test_unknown_class(tmp_path, capsys):
    out = tmp_path / "scene.json"
    assert main(["gen", "--class", "nope", "--out", str(out)]) == EXIT_GENERATION
    assert main(["bench", "--class", "nope", "--out", str(out)]) == EXIT_GENERATION
    assert not out.exists()
    assert "unknown scene class" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["gen", "--class", "line_easy", "--seed", "-1"], "--seed"),
        (["bench", "--class", "line_easy", "--seed", "-1"], "--seed"),
        (["bench", "--class", "line_easy", "--trials", "0"], "--trials"),
        (["bench", "--class", "line_easy", "--trials", "-3"], "--trials"),
        (["bench", "--class", "line_easy", "--trials", "1.5"], "--trials"),
        (["bench", "--class", "line_easy", "--planner", "pf", "--rsp", "0"], "--rsp"),
        (["bench", "--class", "line_easy", "--planner", "pf", "--rsp", "nan"], "--rsp"),
        (["bench", "--class", "line_easy", "--planner", "pf", "--ksp", "-1"], "--ksp"),
        (["bench", "--class", "line_easy", "--stall-exit", "-1"], "--stall-exit"),
        (["bench", "--class", "line_easy", "--stall-exit", "nan"], "--stall-exit"),
        (["bench", "--class", "line_easy", "--stall-exit", "inf"], "--stall-exit"),
        (["bench", "--class", "line_easy", "--stall-exit", "0"], "--stall-exit"),
        (["maze", "--stall-exit", "-1"], "--stall-exit"),
        (["run", "--scene", "scene.json", "--stall-exit", "nan"], "--stall-exit"),
    ],
    ids=[
        "gen_negative_seed",
        "bench_negative_seed",
        "bench_zero_trials",
        "bench_negative_trials",
        "bench_fractional_trials",
        "bench_zero_rsp",
        "bench_nan_rsp",
        "bench_negative_ksp",
        "bench_negative_stall_exit",
        "bench_nan_stall_exit",
        "bench_inf_stall_exit",
        "bench_zero_stall_exit",
        "maze_negative_stall_exit",
        "run_nan_stall_exit",
    ],
)
def test_out_of_range_number_is_a_usage_error(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and "unknown scene class" not in err
    assert not out.exists()


def test_a_trial_count_of_two_is_accepted():
    argv = ["bench", "--class", "line_easy", "--trials", "2", "--out", "bench.csv"]
    assert build_parser().parse_args(argv).trials == 2


def test_bench_seeds_past_64_bits(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    argv = ["bench", "--class", "line_easy", "--seed", str(2**64 - 1), "--trials", "2"]
    assert main([*argv, "--out", str(out)]) == EXIT_GENERATION
    assert "do not fit in 64 bits" in capsys.readouterr().err
    assert not out.exists()


def test_missing_scene_file(tmp_path, capsys):
    assert main(["run", "--scene", str(tmp_path / "missing.json")]) == EXIT_SCHEMA
    assert "scene error" in capsys.readouterr().err


def test_negative_seed_in_scene_file(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    assert main(["gen", "--class", "line_easy", "--seed", "0", "--out", str(scene)]) == EXIT_OK
    doc = json.loads(scene.read_text())
    doc["seed"] = -1
    scene.write_text(json.dumps(doc))
    assert main(["run", "--scene", str(scene)]) == EXIT_SCHEMA
    assert "(field: seed)" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0", "-2"])
def test_bench_rejects_a_bad_geopf_threads_before_any_trial(
    tmp_path, capsys, monkeypatch, value
):
    monkeypatch.setenv("GEOPF_THREADS", value)
    monkeypatch.setattr("geopf.cli.run_suite", None)  # no suite may start
    out = tmp_path / "bench.csv"
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--class", "line_easy", "--trials", "1", "--out", str(out)])
    assert exc.value.code == 2
    assert "GEOPF_THREADS" in capsys.readouterr().err
    assert not out.exists()
