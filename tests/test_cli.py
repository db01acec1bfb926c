"""Command-line interface: subcommands, files written and exit codes."""

from geopf.cli import EXIT_GENERATION, EXIT_OK, EXIT_SCHEMA, main


def test_gen_then_run(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    traj = tmp_path / "traj.csv"
    assert main(["gen", "--class", "line_easy", "--seed", "0", "--out", str(scene)]) == EXIT_OK
    code = main(["run", "--scene", str(scene), "--traj", str(traj), "--stall-exit", "0.01"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "verdict:    reached_goal" in out
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

