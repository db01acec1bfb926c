"""Command-line interface: subcommands, files written and exit codes."""

import json

import pytest

from geopf.bench import CSV_HEADER, _cell
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


def test_bench_writes_the_csv_report_and_its_json_mirror(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("GEOPF_THREADS", raising=False)
    csv, mirror = tmp_path / "bench.csv", tmp_path / "bench.json"
    argv = ["bench", "--class", "line_easy", "--trials", "2", "--stall-exit", "0.01"]
    assert main([*argv, "--out", str(csv), "--json", str(mirror)]) == EXIT_OK
    header, row = csv.read_text().splitlines()
    assert header == CSV_HEADER
    columns, row_cells = header.split(","), row.split(",")
    assert len(row_cells) == len(columns)
    cells = dict(zip(columns, row_cells))
    doc = json.loads(mirror.read_text())
    assert [t["seed"] for t in doc["trials_detail"]] == [0, 1]
    # Every CSV cell is the mirror's value in the report's cell format.
    values = {k: doc[k] for k in cells if k in doc}
    for name, (mean, std) in doc["stats"].items():
        values |= {f"{name}_mean": mean, f"{name}_std": std}
        if f"{name}_median" in doc:
            values[f"{name}_median"] = doc[f"{name}_median"]
    assert set(values) == set(cells)
    # Both trials reach the goal, so every statistic is finite and a null is
    # a geopf suite's empty rsp or ksp.
    assert cells == {k: _cell(v) for k, v in values.items()}
    assert (cells["scene_class"], cells["planner"], cells["trials"]) == ("line_easy", "geopf", "2")
    assert cells["success_rate"] == "1"
    out = capsys.readouterr().out
    assert out.startswith("line_easy geopf: SR ") and "over 2 trials (0 excluded)" in out
    assert out.rstrip().endswith(f"-> {csv}")


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
