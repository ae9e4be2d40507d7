import argparse
import dataclasses
import errno
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
from collideq.errors import NonUniqueSteadyState, NotHermitian, NumericalPositivityError
from collideq.tensor import DensityMatrix, QubitRegister
from oracles import csv_line, eager_parser

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

    def test_marginal_failing_its_check_flagged_not_fatal(self, tmp_path, monkeypatch):
        # a compound state that passes the -1e-10 bound, four populations of
        # -0.9e-10 with S excited, whose system marginal sums them to -3.6e-10
        pops = np.array([-0.9e-10] * 4 + [(1.0 + 3.6e-10) / 4] * 4)
        state = DensityMatrix(QubitRegister(["S", "M0", "M1"]), np.diag(pops).astype(complex))
        monkeypatch.setattr(cli, "steady_state", lambda channel: state)
        out = tmp_path / "sweep.csv"
        code = run_cli(["sweep", "--beta", "2", "--dt", "0.1", "--delta", "0.5",
                        "--out", str(out)])
        assert code == 1
        _, columns, rows = read_rows(out)
        assert rows == [{**dict.fromkeys(columns, "nan"), "beta": "2", "dt": "0.1",
                         "delta": "0.5", "status": "nonpositive"}]

    def test_fixed_point_failure_flagged_not_fatal(self, tmp_path, monkeypatch):
        # eigenvalue-1 vector of trace 1e-10: the fixed-point residual bound fails
        v = np.array([[5e-11, 1.0], [1.0, 5e-11]], dtype=complex).reshape(-1)
        w = np.array([1.0, 0.25, 0.25, 1.0])
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


def raise_first(monkeypatch, name, error):
    """Make the CLI's ``name`` raise ``error`` on its first call and run as before after."""
    real, calls = getattr(cli, name), []

    def patched(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise error
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, patched)


class TestFailedCell:
    @pytest.mark.parametrize("name, error, status, args, identity, n_other", [
        ("evolve", NumericalPositivityError("Born probability below 0"), "nonpositive",
         ["dynamics", "--setting", "I", "--beta", "2", "--dt-grid", "0.1:0.2:2", "--steps", "3"],
         {"setting": "I", "beta": "2", "dt": "0.1", "delta": "0"}, 3),
        ("blp_measure", NonUniqueSteadyState(2), "nonunique:2",
         ["blp", "--setting", "II", "--beta", "2", "--dt", "0.1", "--delta-grid", "0:0.5:2",
          "--steps", "200"],
         {"setting": "II", "beta": "2", "dt": "0.1", "delta": "0"}, 1),
        # trajectories runs one cell, so its failed cell is the whole CSV: one
        # row, with m, step and t nan too
        ("ensemble_mean_heat", NotHermitian("state is not Hermitian"), "not-hermitian",
         ["trajectories", "--preset", "fig5", "--steps", "2"], {"setting": "II"}, 0),
    ], ids=["dynamics", "blp", "trajectories"])
    def test_numerical_error_flags_its_cell(self, tmp_path, monkeypatch, name, error, status,
                                            args, identity, n_other):
        raise_first(monkeypatch, name, error)
        out = tmp_path / "o.csv"
        code = run_cli(args + ["--out", str(out)])
        assert code == 1
        _, columns, rows = read_rows(out)
        failed, *others = rows
        assert failed == {**dict.fromkeys(columns, "nan"), **identity, "status": status}
        assert len(others) == n_other
        assert all(r["status"] == "ok" and "nan" not in r.values() for r in others)

    @pytest.mark.parametrize("args, n_other", [
        (["dynamics", "--setting", "I", "--beta", "2", "--dt-grid", "0.001:0.2:2",
          "--steps", "3"], 3),
        (["trajectories", "--setting", "II", "--beta", "1", "--dt", "0.001", "--delta", "0.5",
          "--steps", "2", "--traj", "4"], 0),
    ], ids=["dynamics", "trajectories"])
    def test_evolved_state_failing_its_checks_flags_its_cell(self, tmp_path, monkeypatch,
                                                              args, n_other):
        # the first cell's start is smuggled past DensityMatrix's checks with
        # population -1e-2, so evolve's own state check fails on a computed state
        real, calls = cli.evolve, []

        def evolve(cfg, rho0, n_steps):
            calls.append(cfg)
            if len(calls) == 1:
                rho0 = DensityMatrix(rho0.register, rho0.mat)
                object.__setattr__(rho0, "mat", np.diag([1.01, -0.01]).astype(complex))
            return real(cfg, rho0, n_steps)

        monkeypatch.setattr(cli, "evolve", evolve)
        out = tmp_path / "o.csv"
        code = run_cli(args + ["--out", str(out)])
        assert code == 1
        _, _, rows = read_rows(out)
        failed, *others = rows
        assert failed["status"] == "nonpositive"
        assert len(others) == n_other
        assert all(r["status"] == "ok" and "nan" not in r.values() for r in others)

    def test_limit_scan_failed_cell_keeps_its_deltas(self, tmp_path, monkeypatch):
        break_first_cell(monkeypatch, replace_by(np.diag([1.5, -0.5])))
        out = tmp_path / "ls.csv"
        code = run_cli(["limit-scan", "--beta", "2", "--r", "5", "--dt-grid", "0.01:0.02:2",
                        "--out", str(out)])
        assert code == 1
        _, _, rows = read_rows(out)
        assert [r["status"] for r in rows] == ["nonpositive", "ok"]
        assert rows[0]["r"] == "5" and rows[0]["dt"] == "0.01"
        # delta in half-pi units is 1 - dt/r, as on an ok row
        assert rows[0]["delta"] == f"{1 - 0.01 / 5:.12g}"
        assert rows[0]["delta_rad"] == f"{(1 - 0.01 / 5) * HALF_PI:.12g}"
        assert rows[0]["delta_beta"] == rows[0]["heat_flux"] == "nan"


# a small run of each command whose every row prints status ok
OK_RUNS = {
    "steady-state": ["--beta", "2", "--dt", "0.1", "--delta", "0.5"],
    "heat": ["--beta", "2", "--dt", "0.1", "--delta", "0.5"],
    "negativity": ["--beta", "2", "--dt", "0.1", "--delta", "0.5"],
    "sweep": ["--beta", "2", "--dt", "0.1", "--delta", "0.5"],
    "dynamics": ["--beta", "2", "--dt", "0.1", "--delta", "0.5", "--steps", "2"],
    "blp": ["--beta", "2", "--dt", "0.1", "--delta", "0.5", "--steps", "200"],
    "trajectories": ["--traj", "10", "--steps", "2"],
    "limit-scan": ["--beta", "2", "--r", "5", "--dt", "0.01"],
}
# setting I has one memory qubit, so it has no tripartite or M1 negativity
SETTING_I_NAN = {"n3", "n2_s_m1", "n2_m0_m1"}


class TestPrintedReadoutsOnly:
    @pytest.mark.parametrize("command, expected", [
        ("steady-state", (1, 1)), ("heat", (0, 1)), ("negativity", (0, 0)), ("sweep", (1, 1)),
        ("limit-scan", (1, 1))])
    def test_readouts_without_a_column_are_not_computed(self, tmp_path, monkeypatch, command,
                                                        expected):
        names = ("effective_temperature", "steady_heat_flux_from_state")
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, _name=name, _real=getattr(cli, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(cli, name, counted)
        out = tmp_path / "o.csv"
        assert run_cli([command, *OK_RUNS[command], "--setting", "II", "--out", str(out)]) == 0
        assert tuple(calls[name] for name in names) == expected


class TestNoSilentNan:
    def test_every_command_has_a_run(self):
        assert set(OK_RUNS) == set(cli._COMMANDS)

    @staticmethod
    def ok_rows(tmp_path, args):
        out = tmp_path / "o.csv"
        assert run_cli([*args, "--out", str(out)]) == 0
        _, columns, rows = read_rows(out)
        for row in rows:
            allowed = SETTING_I_NAN & set(columns) if row.get("setting") == "I" else set()
            assert {c for c, v in row.items() if v == "nan"} == allowed
        return rows

    @pytest.mark.parametrize("command", OK_RUNS)
    def test_ok_rows_fill_every_column(self, tmp_path, command):
        # a record key that misses its column would print nan beside status ok
        self.ok_rows(tmp_path, [command, *OK_RUNS[command]])

    @pytest.mark.parametrize("command", ["steady-state", "sweep"])
    def test_beta_inf_rows_fill_every_column(self, tmp_path, command):
        # beta_e = beta = inf: the beta = inf Gibbs state, whose fidelity to itself is 1
        rows = self.ok_rows(tmp_path, [command, "--beta", "inf", "--dt", "0.1", "--delta", "0.5"])
        assert {r["delta_beta"] for r in rows} == {"0"}


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

    def test_out_in_missing_directory_rejected_before_any_cell(self, tmp_path, capsys,
                                                               monkeypatch):
        solves = []
        monkeypatch.setattr(cli, "steady_state", lambda ch: solves.append(ch) or steady_state(ch))
        out = tmp_path / "missing" / "x.csv"
        code = run_cli(["heat", "--setting", "II", "--dt", "0.1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: the directory of output file {out} does not exist" in err
        assert solves == []
        assert not out.parent.exists()

    def test_failed_csv_write_exits_2(self, tmp_path, capsys):
        # the path is a directory: the cells run, and the write fails
        out = tmp_path / "taken"
        out.mkdir()
        code = run_cli(["heat", "--setting", "II", "--dt", "0.1", "--out", str(out)])
        assert code == 2
        assert re.search(r"^error: .*Is a directory", capsys.readouterr().err, re.M)
        assert list(out.iterdir()) == []

    def test_write_failing_part_way_leaves_no_csv(self, tmp_path, capsys, monkeypatch):
        # the disk fills after the first 10 characters reach the file
        def full_disk(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)

            def write(text):
                fh.buffer.write(text[:10].encode())
                fh.flush()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            fh.write = write
            return fh

        monkeypatch.setattr(cli, "open", full_disk, raising=False)
        out = tmp_path / "o.csv"
        code = run_cli(["heat", "--setting", "II", "--dt", "0.1", "--out", str(out)])
        assert code == 2
        assert re.search(r"^error: .*No space left on device", capsys.readouterr().err, re.M)
        assert not out.exists()

    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        # exit 1 means "some rows flagged"; a run that cannot allocate is an error
        def evolve(cfg, rho0, n_steps):
            raise MemoryError("Unable to allocate 6.0 GiB")

        monkeypatch.setattr(cli, "evolve", evolve)
        out = tmp_path / "o.csv"
        code = run_cli(["trajectories", "--steps", "20", "--traj", "10", "--out", str(out)])
        assert code == 2
        assert re.search(r"^error: Unable to allocate", capsys.readouterr().err, re.M)
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

    @pytest.mark.parametrize("text, key", [
        ("beta = 1\nbeta = 2\n", "beta"),
        ("dt-grid = 0.1:0.2:2\n\ndt_grid = 0.3:0.4:2\n", "dt_grid")], ids=["beta", "dt_grid"])
    def test_repeated_config_key_rejected(self, tmp_path, capsys, text, key):
        conf = tmp_path / "twice.conf"
        conf.write_text(text)
        out = tmp_path / "o.csv"
        code = run_cli(["heat", "--config", str(conf), "--setting", "II", "--out", str(out)])
        assert code == 2
        last = len(text.splitlines())
        assert (f"config key {key} is set twice in {conf}: line 1 and line {last}"
                in capsys.readouterr().err)
        assert not out.exists()

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


# values whose text a formatter could get wrong: NaN of either sign, signed
# zeros and infinities, the smallest subnormal, floats past 2^53, sums that
# round, ints past 2^53, numpy scalars and strings
ODD_FLOATS = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e16, 0.1 + 0.2,
              -1 / 3, 123456789.123456789]
ODD_INTS = [0, -7, 2 ** 53 + 1, -(2 ** 62) - 3, 2 ** 63 - 1]
ODD_SCALARS = [*ODD_FLOATS, *ODD_INTS, *map(np.float64, ODD_FLOATS), *map(np.int64, ODD_INTS),
               "ok", "nonunique:2", ""]


class TestColumnFormat:
    """Each column formatted once against the row-by-row formatting it replaced."""

    @pytest.mark.parametrize("value", ODD_SCALARS, ids=repr)
    def test_scalar_is_repeated(self, value):
        assert cli._column(value, 3) == [csv_line([value])] * 3

    @pytest.mark.parametrize("array", [np.array(ODD_FLOATS), np.array(ODD_INTS, dtype=np.int64),
                                       np.array(["ok", "unconverged"]), np.array([], dtype=float),
                                       np.array([True, False]),
                                       np.array(ODD_FLOATS, dtype=np.float32)],
                             ids=["float64", "int64", "str", "empty", "bool", "float32"])
    def test_array_entry_by_entry(self, array):
        # an array's entries print as the Python scalars of .tolist(): a float32 as a float
        assert ",".join(cli._column(array, len(array))) == csv_line(array.tolist())

    def test_blocks_print_as_row_records_did(self, tmp_path, monkeypatch):
        # an array block, a failed cell and a scalar block with its own status,
        # against the per-row records of each merged with the cell's fields
        blocks = [{"step": np.arange(1, 6), "t": np.array(ODD_FLOATS[:5]),
                   "one_minus_f": np.float64(-0.0), "beta_e": np.array(ODD_FLOATS[5:10])},
                  NumericalPositivityError("Born probability below 0"),
                  {"step": 2 ** 53 + 1, "beta_e": np.float64(5e-324), "status": "unconverged"}]
        feed = iter(blocks)

        def rows(res, cell):
            block = next(feed)
            if isinstance(block, Exception):
                raise block
            return block

        monkeypatch.setitem(cli._COMMANDS, "dynamics",
                            dataclasses.replace(cli._COMMANDS["dynamics"], rows=rows))
        out = tmp_path / "o.csv"
        assert run_cli(["dynamics", "--setting", "I", "--beta", "2", "--dt-grid", "0.1:0.3:3",
                        "--steps", "5", "--out", str(out)]) == 1
        columns = cli._COMMANDS["dynamics"].columns
        expected = []
        for dt, block in zip((0.1, 0.2, 0.3), blocks):
            if isinstance(block, Exception):
                block = {"status": "nonpositive"}
            base = {"status": "ok", "setting": "I", "beta": 2.0, "dt": dt, "delta": 0.0}
            step = block.get("step")
            n_rows = len(step) if isinstance(step, np.ndarray) else 1
            for k in range(n_rows):
                rec = {c: v[k] if isinstance(v, np.ndarray) else v for c, v in block.items()}
                expected.append(csv_line([rec.get(c, base.get(c, math.nan)) for c in columns]))
        body = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert body == [",".join(columns), *expected]
        assert body[6] == "I,2,0.2,0,nan,nan,nan,nan,nonpositive"


def subparser(parser, command):
    return next(a for a in parser._actions if a.dest == "command").choices[command]


PARSE_RUNS = {
    "unknown-flag": (["dynamics", "--bogus", "1"], 2),
    "unread-flag": (["dynamics", "--traj", "5"], 2),
    "bad-choice": (["dynamics", "--setting", "III"], 2),
    "bad-value": (["dynamics", "--beta", "abc"], 2),
    "missing-value": (["sweep", "--beta"], 2),
    "unknown-command": (["foo"], 2),
    "no-command": ([], 2),
    "help": (["--help"], 0),
    **{f"help-{c}": ([c, "--help"], 0) for c in cli._COMMANDS},
}


class TestLazyParser:
    """Each command's options, added on first use, against the eager build."""

    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("command", [None, *cli._COMMANDS])
    @pytest.mark.parametrize("method", ["format_help", "format_usage"])
    def test_formats_match(self, command, method):
        # fresh parsers, so formatting alone must add the options
        lazy, eager = build_parser(), eager_parser()
        if command is not None:
            lazy, eager = subparser(lazy, command), subparser(eager, command)
        assert getattr(lazy, method)() == getattr(eager, method)()

    @pytest.mark.parametrize("command", cli._COMMANDS)
    def test_parses_match(self, command):
        argv = [command, "--beta", "2", "--dt", "0.1", "--out", "x.csv"]
        assert build_parser().parse_args(argv) == eager_parser().parse_args(argv)

    @pytest.mark.parametrize("argv, code", PARSE_RUNS.values(), ids=PARSE_RUNS)
    def test_output_and_exit_code_match(self, monkeypatch, capsys, argv, code):
        results = []
        for factory in (build_parser, eager_parser):
            monkeypatch.setattr(cli, "build_parser", factory)
            try:
                got = main(list(argv))
            except SystemExit as exc:
                got = exc.code
            results.append((got, *capsys.readouterr()))
        assert results[0] == results[1]
        assert results[0][0] == code


class TestCommandParsers:
    """The subparsers' command map builds a command's parser on its first lookup."""

    def test_a_run_builds_two_parsers(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(["dynamics", "--dt", "0.1", "--steps", "3",
                     "--out", str(tmp_path / "o.csv")]) == 0
        assert built == ["collideq", "collideq dynamics"]

    def test_lookups_return_one_parser(self):
        parser = build_parser()
        first = subparser(parser, "blp")
        assert subparser(parser, "blp") is first
        assert parser.parse_args(["blp", "--beta", "2"]).beta == "2"
        assert subparser(parser, "blp") is first
