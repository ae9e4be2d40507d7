import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import collideq
from collideq import cli
from collideq.cli import Resolved, build_parser, main, read_config_file
from collideq.engine import StepChannel, steady_state
from collideq.errors import NonUniqueSteadyState
from collideq.tensor import QubitRegister

HALF_PI = math.pi / 2


def run_cli(args):
    return main(list(args))


def read_rows(path):
    lines = Path(path).read_text().splitlines()
    header = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    columns = body[0].split(",")
    rows = [dict(zip(columns, line.split(","))) for line in body[1:]]
    return header, columns, rows


def replace_by(state):
    """Superoperator of the replacement channel rho -> Tr(rho) state."""
    d = state.shape[0]
    return np.outer(np.asarray(state, dtype=complex).reshape(-1), np.eye(d).reshape(-1))


def break_first_cell(monkeypatch, superop):
    """Make the CLI solve ``superop`` in place of its first cell's channel."""
    calls = []

    def solve(channel):
        calls.append(channel)
        if len(calls) == 1:
            channel = StepChannel(QubitRegister(["S"]), superop)
        return steady_state(channel)

    monkeypatch.setattr(cli, "steady_state", solve)


class TestSteadyState:
    def test_fig2_preset_structure(self, tmp_path):
        out = tmp_path / "fig2.csv"
        code = run_cli(["steady-state", "--preset", "fig2", "--out", str(out)])
        assert code == 0
        header, columns, rows = read_rows(out)
        assert columns == ["setting", "beta", "dt", "delta", "g_e", "beta_e",
                           "delta_beta", "heat_flux", "status"]
        assert len(rows) == 2 * 2 * 20
        assert any(h.startswith("# preset=fig2") for h in header)
        # setting I rows: delta_beta vanishes
        db_i = [abs(float(r["delta_beta"])) for r in rows if r["setting"] == "I"]
        assert max(db_i) < 1e-8
        # setting II: delta_beta positive and increasing with dt at each beta
        for beta in ("0.5", "2"):
            db = [float(r["delta_beta"]) for r in rows
                  if r["setting"] == "II" and r["beta"] == beta]
            assert all(v > 0 for v in db)
            assert all(b > a for a, b in zip(db, db[1:]))

    def test_nonpositive_cell_flagged_not_fatal(self, tmp_path, monkeypatch):
        # the dt = 1e-6 cell solves a channel whose fixed point has eigenvalue -0.5
        break_first_cell(monkeypatch, replace_by(np.diag([1.5, -0.5])))
        out = tmp_path / "ss.csv"
        code = run_cli(["steady-state", "--setting", "I", "--beta", "50",
                        "--dt-grid", "1e-6:0.1:3", "--out", str(out)])
        assert code == 1
        _, _, rows = read_rows(out)
        assert [r["status"] for r in rows] == ["nonpositive", "ok", "ok"]
        assert rows[0]["heat_flux"] == "nan" and rows[0]["beta_e"] == "nan"

    def test_fixed_point_failure_flagged_not_fatal(self, tmp_path, monkeypatch):
        # eigenvalue-1 vector of trace 1e-10: the fixed-point residual bound fails
        v = np.array([[5e-11, 1.0], [1.0, 5e-11]], dtype=complex).reshape(-1)
        w = np.array([1.0, 0.3, 0.2, 1.0])
        break_first_cell(monkeypatch, np.outer(v, w) / (w @ v))
        out = tmp_path / "ss.csv"
        code = run_cli(["heat", "--setting", "II", "--beta", "2",
                        "--dt-grid", "0.1:0.2:2", "--out", str(out)])
        assert code == 1
        _, _, rows = read_rows(out)
        assert [r["status"] for r in rows] == ["fixed-point-failed", "ok"]
        assert rows[0]["heat_flux"] == "nan"

    def test_nonunique_cell_flagged_not_fatal(self, tmp_path, monkeypatch):
        def solve(channel):
            raise NonUniqueSteadyState(3)

        monkeypatch.setattr(cli, "steady_state", solve)
        out = tmp_path / "ss.csv"
        code = run_cli(["steady-state", "--setting", "I", "--beta", "2", "--dt", "0.1",
                        "--out", str(out)])
        assert code == 1
        _, _, rows = read_rows(out)
        assert [r["status"] for r in rows] == ["nonunique:3"]
        for column in ("g_e", "beta_e", "delta_beta", "heat_flux"):
            assert rows[0][column] == "nan"

    def test_negativity_setting1_has_only_system_memory_pair(self, tmp_path):
        out = tmp_path / "neg.csv"
        code = run_cli(["negativity", "--setting", "I", "--beta", "2", "--dt", "0.1",
                        "--delta", "0.5", "--out", str(out)])
        assert code == 0
        _, _, rows = read_rows(out)
        assert rows[0]["status"] == "ok"
        assert math.isfinite(float(rows[0]["n2_s_m0"]))
        assert [rows[0][c] for c in ("n3", "n2_s_m1", "n2_m0_m1")] == ["nan"] * 3

    def test_cold_tiny_dt_cell_ok(self, tmp_path):
        # its fixed point is Gibbs x Gibbs, solved to rounding (see test_engine)
        out = tmp_path / "ss.csv"
        code = run_cli(["steady-state", "--setting", "I", "--beta", "50",
                        "--dt", "1e-6", "--out", str(out)])
        assert code == 0
        _, _, rows = read_rows(out)
        assert rows[0]["status"] == "ok"

    def test_beta_past_expm1_overflow_ok(self, tmp_path):
        # nbar at beta*omega = 1000 underflows to 0, as at beta = inf
        out = tmp_path / "ss.csv"
        code = run_cli(["steady-state", "--setting", "I", "--beta", "1000",
                        "--dt", "0.1", "--out", str(out)])
        assert code == 0
        _, _, rows = read_rows(out)
        assert rows[0]["status"] == "ok"

    def test_small_dt_near_canonical(self, tmp_path):
        out = tmp_path / "ss.csv"
        run_cli(["steady-state", "--setting", "II", "--beta", "2", "--dt", "1e-4",
                 "--out", str(out)])
        _, _, rows = read_rows(out)
        assert float(rows[0]["delta_beta"]) < 1e-4


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["trajectories", "--traj", "300", "--steps", "20", "--seed", "11"]
        run_cli(args + ["--out", str(a)])
        run_cli(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_values(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["trajectories", "--traj", "300", "--steps", "20", "--seed", "1",
                 "--out", str(a)])
        run_cli(["trajectories", "--traj", "300", "--steps", "20", "--seed", "2",
                 "--out", str(b)])
        _, _, ra = read_rows(a)
        _, _, rb = read_rows(b)
        va = [r["mean_stoch_heat"] for r in ra]
        vb = [r["mean_stoch_heat"] for r in rb]
        assert va != vb

    def test_sweep_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--beta", "2", "--dt-grid", "0.1:0.3:2",
                "--delta-grid", "0.2:0.8:2", "--delta-units", "half-pi"]
        run_cli(args + ["--out", str(a)])
        run_cli(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


def echoed(header, key):
    line = next(h for h in header if h.startswith(f"# {key}="))
    return line.split("=", 1)[1].split(",")


def distinct(rows, column):
    return list(dict.fromkeys(r[column] for r in rows))


class TestEcho:
    @pytest.mark.parametrize("args", [
        # blp with no delta runs its default delta grid
        ["blp", "--setting", "II", "--beta", "2", "--dt", "0.1", "--steps", "20"],
        # limit-scan with no dt runs its default dt halvings
        ["limit-scan", "--beta", "2", "--r", "5"],
        # explicit dt and delta replace the preset's (dt, delta) pairs
        ["dynamics", "--preset", "fig3", "--dt", "0.05", "--delta", "0.3",
         "--t-final", "0.1"],
        # with no setting chosen, trajectories runs setting II alone
        ["trajectories", "--traj", "10", "--steps", "2"],
    ], ids=["blp-default-delta", "limit-scan-default-dt", "dynamics-flags-over-pairs",
            "trajectories-default-setting"])
    def test_echo_matches_rows(self, tmp_path, args):
        out = tmp_path / "o.csv"
        run_cli(args + ["--out", str(out)])
        header, columns, rows = read_rows(out)
        assert echoed(header, "settings")[0].split("+") == distinct(rows, "setting")
        if "dt" not in columns:  # trajectories rows carry no dt or delta
            return
        assert echoed(header, "dt_values") == distinct(rows, "dt")
        if args[0] == "limit-scan":  # its deltas follow from r and dt
            assert not any(h.startswith("# delta_values_rad=") for h in header)
        else:
            assert echoed(header, "delta_values_rad") == distinct(rows, "delta")

    @pytest.mark.parametrize("command", ["trajectories", "dynamics"])
    def test_zero_steps_rejected(self, tmp_path, capsys, command):
        out = tmp_path / "o.csv"
        code = run_cli([command, "--steps", "0", "--out", str(out)])
        assert code == 2
        assert "steps" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("t_final", ["0", "-3", "inf", "nan"])
    def test_non_positive_t_final_rejected(self, tmp_path, capsys, t_final):
        out = tmp_path / "o.csv"
        code = run_cli(["dynamics", "--t-final", t_final, "--out", str(out)])
        assert code == 2
        assert "t_final" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [("heat", "--dt"), ("blp", "--gamma"),
                                               ("steady-state", "--omega")])
    def test_infinite_parameter_rejected(self, tmp_path, capsys, command, flag):
        out = tmp_path / "o.csv"
        code = run_cli([command, flag, "inf", "--out", str(out)])
        assert code == 2
        assert f"{flag[2:]} must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--dt-grid", "--delta-grid"])
    def test_zero_count_grid_rejected(self, tmp_path, capsys, flag):
        out = tmp_path / "o.csv"
        code = run_cli(["steady-state", flag, "0.1:0.2:0", "--out", str(out)])
        assert code == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists()


    def test_malformed_grid_rejected(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        code = run_cli(["steady-state", "--dt-grid", "0.1:0.2", "--out", str(out)])
        assert code == 2
        assert "start:stop:count" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_rejects_setting1(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        code = run_cli(["sweep", "--setting", "I", "--out", str(out)])
        assert code == 2
        assert "sweep reports setting II observables" in capsys.readouterr().err
        assert not out.exists()


class TestConfigPrecedence:
    def test_config_file_and_flag_override(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(
            "# comment line\n"
            "beta = 0.5\n"
            "dt = 0.2\n"
            "setting = II\n"
        )
        out = tmp_path / "o.csv"
        # flag beta overrides file beta; file dt survives
        run_cli(["steady-state", "--config", str(conf), "--beta", "2",
                 "--out", str(out)])
        _, _, rows = read_rows(out)
        assert len(rows) == 1
        assert rows[0]["beta"] == "2"
        assert rows[0]["dt"] == "0.2"
        assert rows[0]["setting"] == "II"

    def test_config_file_overrides_preset(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("beta = 3\n")
        out = tmp_path / "o.csv"
        run_cli(["steady-state", "--preset", "fig2", "--config", str(conf),
                 "--setting", "II", "--dt", "0.1", "--out", str(out)])
        _, _, rows = read_rows(out)
        assert all(r["beta"] == "3" for r in rows)

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        conf = tmp_path / "typo.conf"
        conf.write_text("bta = 3\n")
        out = tmp_path / "o.csv"
        code = run_cli(["steady-state", "--config", str(conf), "--setting", "I",
                        "--dt", "0.1", "--out", str(out)])
        assert code == 2
        assert "bta" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["steady-state", "blp", "trajectories", "limit-scan"])
    def test_pairs_preset_rejected_outside_dynamics(self, tmp_path, capsys, command):
        out = tmp_path / "o.csv"
        code = run_cli([command, "--preset", "fig3", "--out", str(out)])
        assert code == 2
        assert "dynamics" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("delta_units", "halfpi"), ("rho0", "hot"),
                                            ("setting", "III")])
    def test_config_value_outside_choices_rejected(self, tmp_path, capsys, key, value):
        conf = tmp_path / "bad.conf"
        conf.write_text(f"{key} = {value}\n")
        out = tmp_path / "o.csv"
        code = run_cli(["dynamics", "--config", str(conf), "--t-final", "0.1",
                        "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert key in err and value in err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["--dt", "0.1", "--dt-grid", "0.05:0.1:2"],
        ["--delta", "0.3", "--delta-grid", "0:0.5:2"],
    ])
    def test_value_and_grid_from_one_source_rejected(self, tmp_path, capsys, args):
        out = tmp_path / "o.csv"
        code = run_cli(["steady-state", "--setting", "I", *args, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert args[0] in err and args[2] in err
        assert not out.exists()

    def test_value_and_grid_from_one_config_rejected(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("dt = 0.1\ndt_grid = 0.05:0.1:2\n")
        out = tmp_path / "o.csv"
        code = run_cli(["steady-state", "--setting", "I", "--config", str(conf),
                        "--out", str(out)])
        assert code == 2
        assert "dt and dt_grid" in capsys.readouterr().err
        assert not out.exists()

    def test_flag_grid_replaces_preset_value(self, tmp_path):
        # the preset's dt 0.1 yields to the flag's one-point grid
        out = tmp_path / "o.csv"
        code = run_cli(["trajectories", "--preset", "fig5", "--traj", "10", "--steps", "2",
                        "--dt-grid", "0.05:0.05:1", "--out", str(out)])
        assert code == 0
        header, _, rows = read_rows(out)
        assert "# dt_values=0.05" in header
        assert [r["t"] for r in rows] == ["0.05", "0.1"]

    def test_flag_grid_of_two_beats_preset_value(self, tmp_path, capsys):
        # the flag's two-point grid replaces the preset's dt, so two cells are asked for
        out = tmp_path / "o.csv"
        code = run_cli(["trajectories", "--preset", "fig5", "--traj", "10", "--steps", "2",
                        "--dt-grid", "0.05:0.1:2", "--out", str(out)])
        assert code == 2
        assert "several" in capsys.readouterr().err
        assert not out.exists()

    def test_config_value_beats_preset_grid(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("delta = 0.2\n")
        args = build_parser().parse_args(["sweep", "--preset", "fig4", "--config", str(conf)])
        res = Resolved(args)
        assert list(res.delta_values) == [0.2]
        assert len(res.dt_values) == 20

    def test_steps_and_t_final_from_one_source_rejected(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        code = run_cli(["dynamics", "--setting", "I", "--beta", "2", "--dt", "0.1",
                        "--delta", "0", "--steps", "3", "--t-final", "100", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "--steps" in err and "--t-final" in err
        assert not out.exists()

    def test_flag_steps_replaces_preset_t_final(self, tmp_path):
        # fig3's t_final 8 yields to the flag, and is not echoed
        out = tmp_path / "o.csv"
        code = run_cli(["dynamics", "--preset", "fig3", "--steps", "2", "--out", str(out)])
        assert code == 0
        header, _, rows = read_rows(out)
        assert "# steps=2" in header
        assert not any(h.startswith("# t_final=") for h in header)
        assert len(rows) == 2 * 3 * 2

    def test_flag_t_final_beats_config_steps(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("steps = 50\n")
        out = tmp_path / "o.csv"
        code = run_cli(["dynamics", "--setting", "I", "--beta", "2", "--dt", "0.1",
                        "--delta", "0", "--config", str(conf), "--t-final", "0.3",
                        "--out", str(out)])
        assert code == 0
        header, _, rows = read_rows(out)
        assert "# t_final=0.3" in header
        assert not any(h.startswith("# steps=") for h in header)
        assert [r["step"] for r in rows] == ["1", "2", "3"]

    def test_read_config_rejects_garbage(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("not a key value line\n")
        with pytest.raises(ValueError):
            read_config_file(str(conf))


class TestDeltaUnits:
    def test_half_pi_units(self, tmp_path):
        out_rad = tmp_path / "rad.csv"
        out_hp = tmp_path / "hp.csv"
        run_cli(["negativity", "--setting", "II", "--beta", "2", "--dt", "0.1",
                 "--delta", str(0.9 * HALF_PI), "--out", str(out_rad)])
        run_cli(["negativity", "--setting", "II", "--beta", "2", "--dt", "0.1",
                 "--delta", "0.9", "--delta-units", "half-pi", "--out", str(out_hp)])
        _, _, ra = read_rows(out_rad)
        _, _, rb = read_rows(out_hp)
        assert abs(float(ra[0]["n3"]) - float(rb[0]["n3"])) < 1e-12


class TestBlpCommand:
    def test_threshold_structure(self, tmp_path):
        out = tmp_path / "blp.csv"
        run_cli(["blp", "--setting", "I", "--beta", "2", "--dt", "0.01",
                 "--delta-grid", "0:0.95:6", "--delta-units", "half-pi",
                 "--steps", "1200", "--out", str(out)])
        _, _, rows = read_rows(out)
        vals = [float(r["blp_value"]) for r in rows]
        assert vals[0] == 0.0
        assert vals[-1] > 0.0
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_unconverged_flag_sets_exit_code(self, tmp_path):
        out = tmp_path / "blp.csv"
        code = run_cli(["blp", "--setting", "I", "--beta", "2", "--dt", "0.01",
                        "--delta", "0.95", "--delta-units", "half-pi",
                        "--steps", "300", "--out", str(out)])
        assert code == 1
        _, _, rows = read_rows(out)
        assert rows[0]["status"] == "unconverged"


class TestTrajectoriesCommand:
    @pytest.mark.parametrize("flag, grid", [("--dt-grid", "0.05:0.1:2"),
                                            ("--delta-grid", "0:0.5:2")])
    def test_multi_valued_grid_rejected(self, tmp_path, capsys, flag, grid):
        out = tmp_path / "t.csv"
        code = run_cli(["trajectories", flag, grid, "--traj", "10", "--steps", "2",
                        "--out", str(out)])
        assert code == 2
        assert "several" in capsys.readouterr().err
        assert not out.exists()

    def test_default_settings_run_setting_ii(self, tmp_path):
        out = tmp_path / "t.csv"
        code = run_cli(["trajectories", "--traj", "10", "--steps", "2", "--out", str(out)])
        assert code == 0
        _, _, rows = read_rows(out)
        assert {r["setting"] for r in rows} == {"II"}


class TestLimitScan:
    def test_default_r_values_and_columns(self, tmp_path):
        out = tmp_path / "ls.csv"
        run_cli(["limit-scan", "--beta", "2", "--r", "5", "--dt-grid",
                 "0.01:0.01:1", "--out", str(out)])
        _, columns, rows = read_rows(out)
        assert "r" in columns and "delta_rad" in columns
        assert rows[0]["status"] == "ok"
        # half-pi units by default: delta = 1 - dt/r
        assert abs(float(rows[0]["delta"]) - (1 - 0.01 / 5)) < 1e-12

    def test_out_of_range_rows_flagged(self, tmp_path):
        out = tmp_path / "ls.csv"
        code = run_cli(["limit-scan", "--beta", "2", "--r", "0.005",
                        "--dt-grid", "0.01:0.01:1", "--out", str(out)])
        assert code == 1
        _, _, rows = read_rows(out)
        assert rows[0]["status"] == "delta-out-of-range"

    @pytest.mark.parametrize("args", [["--r", "0"], ["--r-list", "5,-0.1"],
                                      ["--r", "nan"], ["--r", "inf"]])
    def test_nonpositive_ratio_rejected(self, tmp_path, capsys, args):
        out = tmp_path / "ls.csv"
        code = run_cli(["limit-scan", "--beta", "2", *args, "--out", str(out)])
        assert code == 2
        assert "ratio" in capsys.readouterr().err
        assert not out.exists()

    def test_value_and_list_rejected(self, tmp_path, capsys):
        out = tmp_path / "ls.csv"
        code = run_cli(["limit-scan", "--beta", "2", "--r", "5", "--r-list", "5,0.1",
                        "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "--r and --r-list" in err
        assert not out.exists()

    def test_flag_list_beats_config_value(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("r = 3\n")
        args = build_parser().parse_args(["limit-scan", "--config", str(conf),
                                          "--r-list", "5,0.1"])
        assert Resolved(args).r_values == [5.0, 0.1]

    @pytest.mark.parametrize("flag, value", [("--delta", "0.3"), ("--delta-grid", "0:0.5:2")])
    def test_delta_flags_rejected(self, tmp_path, capsys, flag, value):
        out = tmp_path / "ls.csv"
        code = run_cli(["limit-scan", "--beta", "2", "--r", "5", "--dt", "0.01",
                        flag, value, "--out", str(out)])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()


class TestEntrypoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "o.csv"
        # the child imports the same collideq as this process, installed or not
        src = str(Path(collideq.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "collideq.cli", "steady-state", "--setting", "I",
             "--beta", "1", "--dt", "0.1", "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_header_echoes_resolved_config(self, tmp_path):
        out = tmp_path / "o.csv"
        run_cli(["heat", "--setting", "II", "--beta", "0.5", "--dt", "0.3",
                 "--out", str(out)])
        header, _, _ = read_rows(out)
        joined = "\n".join(header)
        assert "# settings=II" in joined
        assert "# dt_values=0.3" in joined
        # heat reads no seed; trajectories does
        run_cli(["trajectories", "--traj", "10", "--steps", "2", "--seed", "5",
                 "--out", str(out)])
        header, _, _ = read_rows(out)
        assert "# seed=5" in "\n".join(header)


# the options each command reads, written out here rather than taken from the CLI
_COMMON = {"setting", "beta", "omega", "gamma", "dt", "dt_grid", "delta_units",
           "preset", "config", "out"}
_DELTA_AXIS = {"delta", "delta_grid"}
READS = {
    "steady-state": _COMMON | _DELTA_AXIS,
    "heat": _COMMON | _DELTA_AXIS,
    "negativity": _COMMON | _DELTA_AXIS,
    "sweep": _COMMON | _DELTA_AXIS,
    "dynamics": _COMMON | _DELTA_AXIS | {"steps", "t_final", "rho0"},
    "blp": _COMMON | _DELTA_AXIS | {"steps"},
    "trajectories": _COMMON | _DELTA_AXIS | {"steps", "traj", "seed", "rho0"},
    "limit-scan": _COMMON | {"r", "r_list"},
}
# a value each option accepts, for every option but preset, config and out
SAMPLE = {"setting": "II", "beta": "2", "omega": "1", "gamma": "1", "dt": "0.1",
          "dt_grid": "0.1:0.2:2", "delta": "0.3", "delta_grid": "0:0.5:2",
          "delta_units": "rad", "steps": "3", "traj": "10", "seed": "3", "rho0": "mixed",
          "t_final": "0.5", "r": "5", "r_list": "5,0.1"}
FLAG_ONLY = {"r_list", "preset", "config"}
PRESET_TAKERS = {
    "fig2": set(READS) - {"limit-scan"},
    "fig3": {"dynamics"},
    "fig4": set(READS) - {"limit-scan"},
    "fig5": {"trajectories"},
}
UNREAD = [(c, o) for c in READS for o in SAMPLE if o not in READS[c]]


def flag(option):
    return "--" + option.replace("_", "-")


class TestOptionMatrix:
    def test_accepted_pair_counts(self):
        # the tests below hold the CLI to this matrix
        assert sum(len(options) for options in READS.values()) == 104
        assert sum(len(options - FLAG_ONLY) for options in READS.values()) == 87

    @pytest.mark.parametrize("command, option", UNREAD, ids=[f"{c}-{o}" for c, o in UNREAD])
    def test_unread_flag_rejected(self, tmp_path, capsys, command, option):
        out = tmp_path / "o.csv"
        code = run_cli([command, flag(option), SAMPLE[option], "--out", str(out)])
        assert code == 2
        assert flag(option) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, option", [(c, o) for c, o in UNREAD
                                                 if o not in FLAG_ONLY])
    def test_unread_config_key_rejected(self, tmp_path, capsys, command, option):
        conf = tmp_path / "run.conf"
        conf.write_text(f"{option} = {SAMPLE[option]}\n")
        out = tmp_path / "o.csv"
        code = run_cli([command, "--config", str(conf), "--out", str(out)])
        assert code == 2
        assert option in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", READS)
    def test_read_options_resolve(self, tmp_path, command):
        for option in READS[command] & set(SAMPLE):
            Resolved(build_parser().parse_args([command, flag(option), SAMPLE[option]]))
            if option not in FLAG_ONLY:
                conf = tmp_path / "run.conf"
                conf.write_text(f"{option} = {SAMPLE[option]}\n")
                Resolved(build_parser().parse_args([command, "--config", str(conf)]))

    @pytest.mark.parametrize("command", READS)
    def test_help_lists_read_flags_only(self, capsys, command):
        with pytest.raises(SystemExit):
            run_cli([command, "--help"])
        text = capsys.readouterr().out
        for option in set(SAMPLE) | FLAG_ONLY | {"out"}:
            shown = re.search(re.escape(flag(option)) + r"(?![-\w])", text) is not None
            assert shown == (option in READS[command]), option

    @pytest.mark.parametrize("command", READS)
    @pytest.mark.parametrize("preset", PRESET_TAKERS)
    def test_preset_matrix(self, tmp_path, capsys, command, preset):
        if command in PRESET_TAKERS[preset]:
            Resolved(build_parser().parse_args([command, "--preset", preset]))
            return
        out = tmp_path / "o.csv"
        code = run_cli([command, "--preset", preset, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert preset in err and all(c in err for c in PRESET_TAKERS[preset])
        assert not out.exists()
