"""CLI: configs, outputs, exit codes, validation suite, round trips."""

import json
import math
import os

import numpy as np
import pytest

from thermofid import cli, core, models, scan
from thermofid.errors import ConfigError


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def minimal_config(tmp_path, out_name="out"):
    return {
        "model": {"name": "two_level", "gap": 1.0},
        "grid": {
            "lambda": {"start": 0.0, "stop": 0.3, "num": 4},
            "t": {"start": 0.5, "stop": 1.1, "num": 4},
        },
        "delta_t": 0.01,
        "fields": ["F_beta", "Cv"],
        "output_dir": str(tmp_path / out_name),
    }


def test_scan_smoke_five_output_files(tmp_path, capsys):
    cfg = minimal_config(tmp_path)
    code = cli.main(["scan", write_config(tmp_path, cfg), "--threads", "1"])
    assert code == 0
    out_dir = tmp_path / "out"
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == ["Cv.csv", "F_beta.csv", "jumps.csv", "minima.csv", "report.json"]
    report = json.loads((out_dir / "report.json").read_text())
    for path in report["outputs"]["fields"].values():
        assert os.path.exists(path)
    assert report["cell_failures"] == 0
    assert report["cells"] == 4 * 4 * 2


def test_scan_negative_temperature_exit_2(tmp_path, capsys):
    cfg = minimal_config(tmp_path)
    cfg["grid"]["t"] = {"start": -0.5, "stop": 1.0, "num": 4}
    code = cli.main(["scan", write_config(tmp_path, cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert "grid.t" in err


def test_scan_invalid_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "model": {\n}')
    code = cli.main(["scan", str(path)])
    assert code == 2
    assert "line" in capsys.readouterr().err


def test_scan_unknown_keys_exit_2(tmp_path, capsys):
    cfg = minimal_config(tmp_path)
    cfg["model"]["coupling_j"] = 1.0  # not a two_level parameter
    assert cli.main(["scan", write_config(tmp_path, cfg)]) == 2
    assert "model.coupling_j" in capsys.readouterr().err

    cfg = minimal_config(tmp_path)
    cfg["fields"] = ["F_beta", "Cw"]
    assert cli.main(["scan", write_config(tmp_path, cfg)]) == 2
    assert "fields" in capsys.readouterr().err

    cfg = minimal_config(tmp_path)
    cfg["surprise"] = 1
    assert cli.main(["scan", write_config(tmp_path, cfg)]) == 2
    assert "surprise" in capsys.readouterr().err

    cfg = minimal_config(tmp_path)
    cfg["grid"]["T"] = [1.0]
    assert cli.main(["scan", write_config(tmp_path, cfg)]) == 2
    assert "grid.T:" in capsys.readouterr().err

    cfg = minimal_config(tmp_path)
    cfg["grid"]["t"]["stpe"] = 0.2
    assert cli.main(["scan", write_config(tmp_path, cfg)]) == 2
    assert "grid.t.stpe:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_scan_chi_requires_delta_lambda(tmp_path, capsys):
    cfg = minimal_config(tmp_path)
    cfg["fields"] = ["chi"]
    assert cli.main(["scan", write_config(tmp_path, cfg)]) == 2
    assert "delta_lambda" in capsys.readouterr().err


def test_scan_rejects_lambda_outside_model_domain(tmp_path, capsys):
    cfg = minimal_config(tmp_path)
    cfg["model"] = {"name": "ising2d"}
    cfg["grid"]["lambda"] = [0.0, 0.1]
    cfg["grid"]["t"] = {"start": 2.0, "stop": 2.5, "num": 3}
    assert cli.main(["scan", write_config(tmp_path, cfg), "--threads", "2"]) == 2
    assert "grid.lambda" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_scan_failure_budget_exit_3(tmp_path, capsys):
    cfg = {
        "model": {"name": "tim1d"},
        "grid": {"lambda": [0.0], "t": {"start": 0.04, "stop": 0.05, "num": 3}},
        "delta_t": 0.01,
        "fields": ["Cv"],
        "output_dir": str(tmp_path / "out"),
    }
    code = cli.main(["scan", write_config(tmp_path, cfg), "--threads", "1"])
    assert code == 3
    assert "budget" in capsys.readouterr().err
    # the budget is checked after the write step, which writes every file
    assert (tmp_path / "out" / "Cv.csv").exists() and (tmp_path / "out" / "report.json").exists()


def test_scan_classifier_failure_leaves_no_file(tmp_path, capsys):
    # every Cv cell of a size fails at lam = 1e200, so classification raises
    cfg = {
        "model": {"name": "dicke", "n_atoms": 50},
        "grid": {"lambda": [1e200], "t": [1.0, 1.1, 1.2]},
        "delta_t": 0.01,
        "fields": ["Cv"],
        "detect": {"jumps": "Cv"},
        "classify": {"sizes": [50, 100, 200], "lambdas": [1e200]},
        "output_dir": str(tmp_path / "out"),
    }
    assert cli.main(["scan", write_config(tmp_path, cfg), "--threads", "1"]) == 3
    assert "specific-heat column evaluation failed for a size" in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.usefixtures("helper_deadline")
def test_scan_helper_exit_is_an_evaluation_error_exit_3(tmp_path, monkeypatch, capsys):
    # lnZ ends the helper's process for lam in the second of two shares, [0.2, 0.3]
    log_z = models.TwoLevel._log_z

    def exits_above(self, beta, lam):
        if lam > 0.15:
            os._exit(3)
        return log_z(self, beta, lam)

    monkeypatch.setattr(models.TwoLevel, "_log_z", exits_above)
    code = cli.main(["scan", write_config(tmp_path, minimal_config(tmp_path)), "--threads", "2"])
    assert code == 3
    assert ("evaluation error - the helper process for lambda 0.2..0.3 exited with code 3"
            in capsys.readouterr().err)


def test_scan_warns_on_large_perturbation(tmp_path, capsys):
    cfg = minimal_config(tmp_path)
    cfg["delta_t"] = 0.2  # not small against the grid's lowest T = 0.5
    with pytest.warns(UserWarning, match="not small"):
        assert cli.main(["scan", write_config(tmp_path, cfg), "--threads", "1"]) == 0


def test_scan_warns_on_delta_lambda_at_smallest_field(tmp_path, capsys):
    # 0.3 is small against lam = 5 but not against lam = 0
    cfg = minimal_config(tmp_path)
    cfg["model"] = {"name": "two_level_field"}
    cfg["grid"]["lambda"] = [0.0, 5.0]
    cfg["delta_lambda"] = 0.3
    cfg["fields"] = ["chi"]
    with pytest.warns(UserWarning, match="delta_lambda"):
        assert cli.main(["scan", write_config(tmp_path, cfg), "--threads", "1"]) == 0


def test_scan_output_dir_env_override(tmp_path, monkeypatch, capsys):
    override = tmp_path / "elsewhere"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(override))
    cfg = minimal_config(tmp_path)
    assert cli.main(["scan", write_config(tmp_path, cfg), "--threads", "1"]) == 0
    assert (override / "report.json").exists()
    assert not (tmp_path / "out").exists()


def test_scan_outputs_byte_identical_across_runs_and_threads(tmp_path, capsys):
    cfg = minimal_config(tmp_path, "out_a")
    cfg["grid"]["lambda"] = {"start": 0.0, "stop": 0.4, "num": 3}
    path = write_config(tmp_path, cfg, "a.json")
    assert cli.main(["scan", path, "--threads", "1"]) == 0

    cfg_b = dict(cfg, output_dir=str(tmp_path / "out_b"))
    assert cli.main(["scan", write_config(tmp_path, cfg_b, "b.json"), "--threads", "2"]) == 0

    for name in ("F_beta.csv", "Cv.csv", "minima.csv", "jumps.csv"):
        a = (tmp_path / "out_a" / name).read_bytes()
        b = (tmp_path / "out_b" / name).read_bytes()
        assert a == b


def test_report_config_round_trip(tmp_path, capsys):
    cfg = minimal_config(tmp_path)
    assert cli.main(["scan", write_config(tmp_path, cfg), "--threads", "1"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    echoed = report["config"]
    resolved_again, _, _ = cli.resolve_scan_config(echoed)
    assert resolved_again == echoed


def test_scan_classification_in_report(tmp_path, capsys):
    cfg = {
        "model": {"name": "tim1d"},
        "grid": {"lambda": [0.9], "t": {"start": 0.3, "stop": 1.5, "step": 0.025}},
        "delta_t": 0.002,
        "fields": ["Cv"],
        "classify": {"sizes": [100, 200, 400], "lambdas": [0.9]},
        "output_dir": str(tmp_path / "out"),
    }
    assert cli.main(["scan", write_config(tmp_path, cfg), "--threads", "1"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["classifications"] == [
        {"lambda": 0.9, "sizes": [100, 200, 400], "classification": "Crossover"}
    ]


def test_scan_jump_row_at_a_classified_lambda_carries_its_verdict(tmp_path, capsys):
    cfg = {
        "model": {"name": "ising2d"},
        "grid": {"lambda": [0.0], "t": {"start": 1.5, "stop": 3.5, "step": 0.005}},
        "delta_t": 0.01,
        "fields": ["F_beta", "Cv"],
        "detect": {"minima": "F_beta", "jumps": "Cv"},
        "classify": {"sizes": [1, 2, 4], "lambdas": [0.0]},
        "output_dir": str(tmp_path / "out"),
    }
    assert cli.main(["scan", write_config(tmp_path, cfg), "--threads", "1"]) == 0
    jumps = (tmp_path / "out" / "jumps.csv").read_text().splitlines()
    minima = (tmp_path / "out" / "minima.csv").read_text().splitlines()
    assert len(jumps) == 2 and jumps[1].endswith(",jump,TypeA")
    assert len(minima) == 2 and minima[1].endswith(",minimum,Undetermined")


def test_scan_classifies_a_below_resolution_column(tmp_path, capsys):
    # the largest size's peak cell is an exact -0.0 among NaN cells; its
    # probe cells fail as NaN, fire no rule, and the run writes its report
    cfg = dict(minimal_config(tmp_path), model={"name": "tim1d"},
               grid={"lambda": [0.0, 0.5], "t": {"start": 0.03, "stop": 0.06, "num": 5}},
               delta_t=0.002, failure_budget=1.0,
               classify={"sizes": [1, 2, 4], "lambdas": [0.0]})
    assert cli.main(["scan", write_config(tmp_path, cfg), "--threads", "1"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["classifications"] == [
        {"lambda": 0.0, "sizes": [1, 2, 4], "classification": "Undetermined"}
    ]


def test_validate_all_checks_pass():
    report = cli.cmd_validate()
    failed = [c for c in report["checks"] if not c["passed"]]
    assert report["all_passed"], failed
    names = {c["name"] for c in report["checks"]}
    assert "chi_beta_vs_cv" in names
    assert "field_fidelity_bound" in names


def test_validate_detects_injected_sign_error(monkeypatch, capsys):
    # flipping the sign of the temperature fidelity susceptibility must
    # trip exactly the consistency check wired to it
    original = core.fidelity_susceptibility_beta

    def flipped(model, point, delta_t):
        return -original(model, point, delta_t)

    monkeypatch.setattr(core, "fidelity_susceptibility_beta", flipped)
    report = cli.cmd_validate()
    by_name = {c["name"]: c["passed"] for c in report["checks"]}
    assert by_name["chi_beta_vs_cv"] is False
    assert cli.main(["validate"]) == 4


def test_validate_detects_shifted_lambda_stencil(monkeypatch):
    # centring the chi_lambda stencil delta_lambda/4 off lam moves it by 2e-6
    # to 3e-4 relative, which the exact Kubo-Mori reference resolves at 1e-6
    original = core.fidelity_susceptibility_lambda

    def shifted(model, beta, lam, delta_lambda):
        return original(model, beta, lam + 0.25 * delta_lambda, delta_lambda)

    monkeypatch.setattr(core, "fidelity_susceptibility_lambda", shifted)
    by_name = {c["name"]: c["passed"] for c in cli.cmd_validate()["checks"]}
    assert by_name["chi_lambda_vs_kubo_mori"] is False
    assert sum(not passed for passed in by_name.values()) == 1


def test_meanfield_table(capsys):
    assert cli.main(["meanfield", "--lambda", "0,0.8,1", "--t-points", "5"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "lambda,T_c,T,m_x"
    rows = [line.split(",") for line in out[1:]]
    tc_by_lam = {float(r[0]): float(r[1]) for r in rows}
    assert tc_by_lam[0.0] == 1.0
    assert tc_by_lam[1.0] == 0.0
    assert tc_by_lam[0.8] == pytest.approx(0.7281913813014699, abs=1e-12)
    # order parameter vanishes above the critical line
    for r in rows:
        lam, tc, t, m_x = (float(v) for v in r)
        if t > tc * 1.001:
            assert m_x == 0.0


def test_meanfield_rejects_out_of_range(capsys):
    assert cli.main(["meanfield", "--lambda", "0.5,1.2"]) == 2


@pytest.mark.parametrize("argv, key", [
    (["--lambda", "0.5", "--t-points", "1"], "--t-points"),
    (["--lambda", "0.5,half"], "--lambda"),
])
def test_meanfield_rejects_bad_argument(capsys, argv, key):
    assert cli.main(["meanfield", *argv]) == 2
    assert f"{key}:" in capsys.readouterr().err


def test_meanfield_output_file(tmp_path, capsys):
    out = tmp_path / "mf.csv"
    assert cli.main(["meanfield", "--lambda", "0.5", "--output", str(out)]) == 0
    assert out.read_text().startswith("lambda,T_c,T,m_x\n")


def test_boundary_round_trip(tmp_path, capsys):
    # scan writes a field; boundary re-reads it and extracts the same minima
    cfg = {
        "model": {"name": "two_level", "gap": 1.0},
        "grid": {"lambda": [0.0, 0.5], "t": {"start": 0.2, "stop": 1.2, "num": 26}},
        "delta_t": 0.005,
        "fields": ["F_beta"],
        "output_dir": str(tmp_path / "out"),
    }
    assert cli.main(["scan", write_config(tmp_path, cfg), "--threads", "1"]) == 0
    field_file = tmp_path / "out" / "F_beta.csv"

    boundary_cfg = {
        "field_file": str(field_file),
        "mode": "minima",
        "output": str(tmp_path / "line.csv"),
    }
    assert cli.main(["boundary", write_config(tmp_path, boundary_cfg, "b.json")]) == 0

    field = cli.read_field_csv(str(field_file))
    expected = scan.locate_minima(field)
    lines = (tmp_path / "line.csv").read_text().strip().splitlines()
    assert lines[0] == "lambda,T_c,detection,classification"
    # a detected line is not classified: the classifier reports to report.json
    assert all(row.endswith(",minimum,Undetermined") for row in lines[1:])
    got = [tuple(float(x) for x in row.split(",")[:2]) for row in lines[1:]]
    assert got == [(lam, pytest.approx(tc, abs=1e-12)) for lam, tc in expected.points]


def test_boundary_jumps_mode(tmp_path, capsys):
    t_axis = np.linspace(1.0, 2.0, 11)
    values = np.where(t_axis < 1.55, 1.0, 3.0)[np.newaxis, :]
    grid = scan.ScanGrid(np.array([0.0]), t_axis, delta_t=0.01)
    cli.write_field_csv(str(tmp_path / "field.csv"), scan.ScanField("x", grid, values))
    boundary_cfg = {
        "field_file": str(tmp_path / "field.csv"),
        "mode": "jumps",
        "jump_threshold": 5.0,
        "output": str(tmp_path / "jumps.csv"),
    }
    assert cli.main(["boundary", write_config(tmp_path, boundary_cfg, "b.json")]) == 0
    rows = (tmp_path / "jumps.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 1
    assert float(rows[0].split(",")[1]) == pytest.approx(1.55, abs=1e-12)


def test_boundary_rejects_malformed_field(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header,here\n1,2,3\n")
    boundary_cfg = {"field_file": str(bad), "mode": "minima"}
    assert cli.main(["boundary", write_config(tmp_path, boundary_cfg, "b.json")]) == 2


def test_field_csv_round_trip_exact(tmp_path):
    grid = scan.ScanGrid(np.array([0.1, 0.7]), np.array([1.0, 1.5, 2.0]), delta_t=0.01)
    values = np.array([[1.0 / 3.0, math.pi, 1e-17], [2.0 / 7.0, 1.0, -5.5]])
    path = str(tmp_path / "f.csv")
    cli.write_field_csv(path, scan.ScanField("x", grid, values))
    loaded = cli.read_field_csv(path)
    assert np.array_equal(loaded.values, values)
    assert np.array_equal(loaded.grid.lambda_axis, grid.lambda_axis)
    assert np.array_equal(loaded.grid.t_axis, grid.t_axis)


def test_field_csv_rows_match_per_value_format(tmp_path):
    # axes whose values need all 17 digits; two fields share the grid's row labels
    grid = scan.ScanGrid(np.array([0.1 + 0.2, 1.0 / 3.0]), np.array([0.3, 2.0 / 3.0, math.pi]),
                         delta_t=0.01)
    for k, values in enumerate((np.array([[1.0 / 7.0, -math.e, 5e-324], [1e300, 0.0, math.nan]]),
                                np.arange(6.0).reshape(2, 3) / 9.0)):
        path = tmp_path / f"f{k}.csv"
        cli.write_field_csv(str(path), scan.ScanField(f"f{k}", grid, values))
        rows = [f"{lam:.17g},{t:.17g},{v:.17g}\n"
                for lam, row in zip(grid.lambda_axis.tolist(), values.tolist())
                for t, v in zip(grid.t_axis.tolist(), row)]
        assert path.read_bytes() == ("lambda,T,value\n" + "".join(rows)).encode()


def test_build_axis_specs():
    axis = cli.build_axis({"start": 1.5, "stop": 3.5, "step": 0.005}, "grid.t")
    assert axis.size == 401
    assert axis[0] == 1.5 and axis[-1] == 3.5
    axis = cli.build_axis([0.1, 0.2, 0.7], "grid.lambda")
    assert axis.tolist() == [0.1, 0.2, 0.7]
    with pytest.raises(ConfigError):
        cli.build_axis({"start": 0.0, "stop": 1.0, "step": 0.3}, "grid.t")
    with pytest.raises(ConfigError):
        cli.build_axis({"start": 0.0, "stop": 1.0}, "grid.t")
    with pytest.raises(ConfigError, match="grid.t.stpe"):
        cli.build_axis({"start": 0.0, "stop": 1.0, "stpe": 0.25}, "grid.t")
    with pytest.raises(ConfigError, match="not both"):
        cli.build_axis({"start": 0.0, "stop": 1.0, "step": 0.25, "num": 3}, "grid.t")
    with pytest.raises(ConfigError, match="grid.t: must be a list or a range object"):
        cli.build_axis("0.0..1.0", "grid.t")


@pytest.mark.parametrize("change, key", [
    ({"model": {"name": "tim1d", "n_sites": -5}}, "model.n_sites"),
    ({"model": {"name": "lmg", "gamma": 1.5}}, "model.gamma"),
    ({"model": {"name": "lmg", "n_spins": 1}}, "model.n_spins"),
    ({"model": {"name": "ising2d", "coupling_j": -1}}, "model.coupling_j"),
    ({"classify": {"sizes": [1, 2, 3], "lambdas": [0.0], "growth_factor": "big"}},
     "classify.growth_factor"),
    ({"detect": {"jumps": "Cv", "jump_treshold": 5.0}}, "detect.jump_treshold"),
    ({"detect": {"jumps": "Cv", "jump_threshold": -1.0}}, "detect.jump_threshold"),
    ({"detect": {"jumps": "Cv", "jump_threshold": 0}}, "detect.jump_threshold"),
    ({"threads": True}, "threads"),
    ({"failure_budget": "0.1"}, "failure_budget"),
    ({"model": {"name": "ising2d"}, "grid": {"lambda": [0.0], "t": [2.0, 2.2, 2.4]},
      "classify": {"sizes": [100, 200, 400], "lambdas": [0.1]}}, "classify.lambdas"),
    ({"model": {"name": "tim1d"}, "classify": {"sizes": [400, 200, 100], "lambdas": [0.9]}},
     "classify.sizes"),
    ({"model": {"name": "two_level", "gap": math.nan}}, "model.gap"),
    ({"model": {"name": "two_level", "gap": math.inf}}, "model.gap"),
    ({"detect": {"jumps": "Cv", "jump_threshold": math.inf}}, "detect.jump_threshold"),
    ({"model": {"name": "tim1d", "coupling_j": -1}}, "model.coupling_j"),
    ({"model": {"name": "tim1d"}, "classify": {"sizes": [100, 200, 400], "lambdas": [math.inf]}},
     "classify.lambdas"),
    ({"grid": {"lambda": [0.3, 0.1], "t": [1.0, 1.5]}}, "grid.lambda"),
    ({"model": {"name": "tim1d"}, "classify": {"sizes": [100, 200], "lambdas": [0.9]}},
     "classify.sizes"),
    ({"model": {"name": "tim1d"}, "classify": {"sizes": [0, 1, 2], "lambdas": [0.9]}},
     "classify.sizes"),
    ({"fields": [3]}, "fields"),
    ({"grid": {"lambda": [0.0], "t": [0.5, 0.6, 0.8, 1.1]}}, "grid.t"),
    ({"grid": {"lambda": [0.0], "t": [0.5, 0.6, 0.8, 1.1]}, "fields": ["F_beta"],
      "detect": {"minima": "F_beta"}, "classify": {"sizes": [4, 8, 16], "lambdas": [0.0]},
      "model": {"name": "tim1d"}}, "grid.t"),
    # the classifier's 2 dT probe would step below T = 0 at the lowest T
    ({"model": {"name": "ising2d", "coupling_j": 0.003},
      "grid": {"lambda": [0.0], "t": {"start": 0.0052, "stop": 0.0075, "num": 24}},
      "fields": ["Cv"], "classify": {"sizes": [1, 2, 4], "lambdas": [0.0]}}, "delta_t"),
    ({"classify": {"sizes": [10, 20, 40], "lambdas": [0.0]}}, "classify.sizes"),  # two_level
    # an integer beyond float range is no finite number, wherever a number is read
    ({"delta_t": 10**400}, "delta_t"),
    ({"model": {"name": "tim1d", "n_sites": 10**400}}, "model.n_sites"),
    ({"failure_budget": 10**400}, "failure_budget"),
    ({"grid": {"lambda": [0.0], "t": [0.5, 10**400]}}, "grid.t"),
    ({"grid": {"lambda": [0.0], "t": {"start": 0.5, "stop": 1.0, "num": 10**400}}},
     "grid.t.num"),
    ({"detect": {"jumps": "Cv", "jump_threshold": 10**400}}, "detect.jump_threshold"),
    ({"model": {"name": "tim1d"}, "classify": {"sizes": [100, 200, 400], "lambdas": [10**400]}},
     "classify.lambdas"),
    ({"model": {"name": "tim1d"}, "classify": {"sizes": [100, 200, 10**400], "lambdas": [0.9]}},
     "classify.sizes"),
    # each remaining rejection of the configuration reader
    ({"model": [{"name": "two_level"}]}, "model"),
    ({"model": {"name": "potts"}}, "model.name"),
    ({"model": {"name": "tim1d", "n_sites": 2.5}}, "model.n_sites"),
    ({"grid": {"lambda": [0.0], "t": "0.5..1.0"}}, "grid.t"),
    ({"grid": {"lambda": [0.0], "t": [0.5, "1.0"]}}, "grid.t"),
    ({"grid": {"lambda": [0.0], "t": {"start": 1.0, "stop": 0.5, "num": 3}}}, "grid.t.stop"),
    ({"grid": {"lambda": [0.0], "t": {"start": 0.5, "stop": 1.0, "step": 0}}}, "grid.t.step"),
    ({"grid": {"lambda": [0.0], "t": {"start": 0.5, "stop": 1.0, "num": 0}}}, "grid.t.num"),
    ({"detect": {"minima": "chi_beta"}}, "detect.minima"),
    ({"model": {"name": "tim1d"}, "classify": {"sizes": [100, 200.5, 400], "lambdas": [0.9]}},
     "classify.sizes"),
    ({"model": {"name": "tim1d"}, "classify": {"sizes": [100, 200, 400], "lambdas": []}},
     "classify.lambdas"),
    ({"failure_budget": 1.5}, "failure_budget"),
    ({"threads": 0}, "threads"),
    ({"output_dir": ""}, "output_dir"),
])
def test_scan_rejects_bad_value_before_output(tmp_path, capsys, change, key):
    cfg = dict(minimal_config(tmp_path), **change)
    assert cli.main(["scan", write_config(tmp_path, cfg), "--threads", "1"]) == 2
    assert f"{key}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_scan_axis_of_the_wrong_type_is_named(tmp_path, capsys):
    cfg = minimal_config(tmp_path)
    cfg["grid"]["lambda"] = 3
    assert cli.main(["scan", write_config(tmp_path, cfg), "--threads", "1"]) == 2
    assert "grid.lambda: must be a list or a range object" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("drop", ["delta_t", "grid"])
def test_scan_rejects_missing_key_before_output(tmp_path, capsys, drop):
    cfg = minimal_config(tmp_path)
    del cfg[drop]
    assert cli.main(["scan", write_config(tmp_path, cfg), "--threads", "1"]) == 2
    assert f"{drop}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["scan", "boundary"])
def test_config_top_level_must_be_an_object(tmp_path, capsys, command):
    assert cli.main([command, write_config(tmp_path, [minimal_config(tmp_path)])]) == 2
    assert "config: top level must be an object" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_scan_unreadable_config_is_named(tmp_path, capsys):
    path = str(tmp_path / "missing.json")
    assert cli.main(["scan", path]) == 2
    assert f"{path}: cannot read config" in capsys.readouterr().err


def test_scan_over_long_integer_literal_is_invalid_json(tmp_path, capsys):
    # beyond the interpreter's int-to-string digit limit, json.loads raises a
    # plain ValueError, the base of JSONDecodeError
    path = tmp_path / "long.json"
    path.write_text(f'{{"delta_t": 1{"0" * 5000}}}')
    assert cli.main(["scan", str(path)]) == 2
    assert f"{path}: invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("change, key", [
    ({"jump_treshold": 5.0}, "jump_treshold"),
    ({"jump_threshold": 0.0}, "jump_threshold"),
    ({"jump_threshold": 10**400}, "jump_threshold"),
    ({"mode": "peaks"}, "mode"),
    ({"output": ""}, "output"),
    ({"field_file": "missing.csv"}, "missing.csv"),
    ({"field_file": "two_columns.csv"}, "two_columns.csv"),
    ({"field_file": "incomplete_grid.csv"}, "incomplete_grid.csv"),
])
def test_boundary_rejects_bad_value_before_output(tmp_path, capsys, monkeypatch, change, key):
    monkeypatch.chdir(tmp_path)
    t_axis = np.linspace(1.0, 2.0, 11)
    grid = scan.ScanGrid(np.array([0.0]), t_axis, delta_t=0.01)
    cli.write_field_csv("field.csv", scan.ScanField("x", grid, t_axis[np.newaxis, :] ** 2))
    (tmp_path / "two_columns.csv").write_text("lambda,T,value\n0,1\n0,2\n")
    (tmp_path / "incomplete_grid.csv").write_text("lambda,T,value\n0,1,5\n0,2,6\n1,1,7\n")
    boundary_cfg = dict({"field_file": "field.csv", "mode": "jumps", "output": "jumps.csv"},
                        **change)
    assert cli.main(["boundary", write_config(tmp_path, boundary_cfg, "b.json")]) == 2
    assert f"{key}:" in capsys.readouterr().err
    assert not (tmp_path / "jumps.csv").exists()
