"""Command-line front end: outputs, manifests, reproducibility."""

import json

import pytest

from chaoscpg.cli import config_hash, estimate_walltime, main


def run(tmp_path, name, *argv):
    out = tmp_path / name
    code = main(["--out", str(out), *argv])
    return code, out


def read_manifest(out):
    return json.loads((out / "manifest.json").read_text())


def test_walltime_projection():
    assert abs(estimate_walltime(1) - 14.8) < 0.05
    assert estimate_walltime(0) == 0.0
    assert 240 < estimate_walltime(20) < 300  # about four to five minutes
    with pytest.raises(ValueError):
        estimate_walltime(-1)


def test_config_hash_stable():
    a = config_hash({"x": 1, "y": [2, 3]})
    b = config_hash({"y": [2, 3], "x": 1})
    assert a == b and len(a) == 12


def test_run_cpg_outputs(tmp_path):
    code, out = run(tmp_path, "cpg", "run-cpg", "--p", "5", "--steps", "1500")
    assert code == 0
    man = read_manifest(out)
    assert man["detected_period"] == 5
    assert man["command"] == "run-cpg"
    assert "config_hash" in man
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[2] == "t,x1,x2,c1,c2"


def test_run_cpg_stop_gait_tail_constant(tmp_path):
    code, out = run(tmp_path, "p1", "run-cpg", "--p", "1", "--steps", "1200")
    rows = (out / "trajectory.csv").read_text().splitlines()[-100:]
    x1s = {row.split(",")[1] for row in rows}
    assert len(x1s) == 1


def test_gait_svg_tripod(tmp_path):
    code, out = run(tmp_path, "g", "gait", "--p", "4", "--format", "svg")
    assert code == 0
    svg = (out / "gait.svg").read_text()
    assert svg.startswith("<svg") and "<rect" in svg


def test_gait_csv_stance_matrix(tmp_path):
    code, out = run(tmp_path, "gc", "gait", "--p", "5", "--format", "csv",
                    "--morphology", "quadruped")
    assert code == 0
    lines = [l for l in (out / "gait.csv").read_text().splitlines()
             if not l.startswith("#")]
    assert len(lines) == 1 + 4
    assert set(lines[1].split(",")[1:]) <= {"0", "1"}


def test_learn_command_and_files(tmp_path):
    code, out = run(tmp_path, "l", "learn", "--disable", "R1", "--seed", "3")
    assert code == 0
    man = read_manifest(out)
    assert man["outcome"] == "converged"
    assert man["projected_walltime_s"] == pytest.approx(
        man["total_evaluations"] * 400 / 27)
    for name in ("trace.csv", "trace.json", "evaluations.csv"):
        assert (out / name).exists()


def test_rerun_is_byte_identical(tmp_path):
    _, a = run(tmp_path, "a", "learn", "--disable", "R1,R3", "--seed", "11")
    _, b = run(tmp_path, "b", "learn", "--disable", "R1,R3", "--seed", "11")
    for name in ("manifest.json", "trace.csv", "trace.json", "evaluations.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_battery_hexapod_rows(tmp_path):
    import csv
    code, out = run(tmp_path, "bat", "battery", "--repeats", "2", "--seed", "1")
    assert code == 0
    lines = [l for l in (out / "battery.csv").read_text().splitlines()
             if not l.startswith("#")]
    assert len(lines) == 1 + 21
    for row in csv.DictReader(lines):
        done, total = row["converged"].split("/")
        if int(done) > 0:
            assert float(row["final_deviation_deg"]) < 8.0
    man = read_manifest(out)
    assert man["rows"] == 21
    assert man["search_space"] == 15625
    assert abs(man["seconds_per_trial"] - 14.8) < 0.05


def test_battery_quadruped_rows(tmp_path):
    code, out = run(tmp_path, "batq", "battery", "--morphology", "quadruped",
                    "--repeats", "2", "--seed", "1")
    lines = [l for l in (out / "battery.csv").read_text().splitlines()
             if not l.startswith("#")]
    assert len(lines) == 1 + 4
    assert read_manifest(out)["search_space"] == 625


def test_sweep_beta_command(tmp_path):
    code, out = run(tmp_path, "sw", "sweep-beta", "--disable", "R1,R2",
                    "--betas", "0,0.5,strict", "--runs", "4", "--seed", "2")
    assert code == 0
    text = (out / "sweep.csv").read_text()
    assert "random-permutation" in text and "strict-greedy" in text


def test_lyapunov_command(tmp_path):
    code, out = run(tmp_path, "ly", "lyapunov", "--steps", "20000")
    assert code == 0
    assert read_manifest(out)["lyapunov"] > 0


def test_bad_input_gives_error_record(tmp_path, capsys):
    code = main(["--out", str(tmp_path / "x"), "learn", "--disable", "Q9"])
    assert code == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"]


@pytest.mark.parametrize("argv, plant_line, fragment", [
    (["run-cpg", "--init", "0.5"], None, "two activities"),
    (["battery", "--repeats", "0"], None, "repeats"),
    (["learn", "--disable", "R1", "--max-trials", "0"], None, "max_trials"),
    (["sweep-beta", "--disable", "R1,R2", "--betas", "nan", "--runs", "1"],
     None, "beta"),
    (["learn", "--disable", "R1", "--e-req", "nan"], None, "e_req"),
    (["learn", "--disable", "R1"], "expansion = 0", "expansion"),
    (["learn", "--disable", "R1"], "turn_gain = -1.8", "turn_gain"),
    (["learn", "--disable", "R1"], "noise = -0.5", "noise"),
    (["learn", "--disable", "R1"], "thrust_gain = nan", "thrust_gain"),
    (["learn", "--disable", "R1"], "morphology = quadruped", "morphology"),
], ids=["init-one-value", "repeats-0", "max-trials-0", "beta-nan",
        "e-req-nan", "expansion-0", "negative-gain", "negative-noise",
        "nan-gain", "morphology-mismatch"])
def test_bad_input_is_rejected_with_error_record(tmp_path, capsys, argv,
                                                 plant_line, fragment):
    if plant_line is not None:
        cfgfile = tmp_path / "plant.cfg"
        cfgfile.write_text(plant_line + "\n")
        argv = argv + ["--plant-config", str(cfgfile)]
    code = main(["--out", str(tmp_path / "x"), *argv])
    assert code == 2
    assert fragment in json.loads(capsys.readouterr().err.strip())["error"]


def test_plant_config_flag(tmp_path):
    from chaoscpg.plant import PlantConfig, save_config
    cfgfile = tmp_path / "plant.cfg"
    save_config(PlantConfig(drag=0.0), cfgfile)
    code, out = run(tmp_path, "pc", "learn", "--disable", "R1",
                    "--plant-config", str(cfgfile), "--seed", "0")
    assert code == 0
