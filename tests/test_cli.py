import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import collideq
from collideq.cli import main, read_config_file

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
                 "--seed", "5", "--out", str(out)])
        header, _, _ = read_rows(out)
        joined = "\n".join(header)
        assert "# seed=5" in joined
        assert "# settings=II" in joined
        assert "# dt_values=0.3" in joined
