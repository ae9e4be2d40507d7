"""Command-line driver: reproduces each figure-style dataset as CSV.

Every command writes a self-describing CSV: a leading comment block of
``# key=value`` lines echoing the fully resolved configuration, a header
row, then data rows ordered by grid iteration. Output is byte-identical
across runs for a fixed command line and seed. The exit code is 0 only if
every row carries status ``ok``.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .blp import blp_measure, default_n_steps
from .engine import (
    ModelConfig,
    embedded_step_channel,
    evolve,
    steady_heat_flux_from_state,
    steady_state,
)
from .errors import (
    CollideqError,
    FixedPointError,
    InvalidParameter,
    NonUniqueSteadyState,
    NumericalPositivityError,
)
from .metrics import (
    effective_temperature,
    negativity_2,
    pair_negativities,
    tripartite_negativity,
)
from .tensor import DensityMatrix, QubitRegister, partial_trace, projector
from .trajectories import ensemble_mean_heat

HALF_PI = math.pi / 2

COMMANDS = ("steady-state", "dynamics", "heat", "blp", "negativity",
            "trajectories", "sweep", "limit-scan")

# per-figure parameter bundles (omega = 1, gamma = 1 throughout); delta in radians
PRESETS: Dict[str, Dict] = {
    "fig2": {
        "settings": ["I", "II"],
        "betas": [0.5, 2.0],
        "dt_grid": (0.025, 0.5, 20),
        "delta": 0.0,
    },
    "fig3": {
        "settings": ["I", "II"],
        "betas": [2.0],
        "pairs": [(0.01, 0.95 * HALF_PI), (0.01, 0.8 * HALF_PI), (0.001, 0.95 * HALF_PI)],
        "t_final": 8.0,
        "rho0": "excited",
    },
    "fig4": {
        "settings": ["II"],
        "betas": [0.5, 2.0],
        "dt_grid": (0.025, 0.5, 20),
        "delta_grid": (0.0, 0.95 * HALF_PI, 20),
    },
    "fig5": {
        # collision duration is a free knob of this preset; 0.1 keeps the
        # per-step heat resolvable at the quoted ensemble sizes
        "settings": ["II"],
        "betas": [1.0],
        "dt": 0.1,
        "delta": 0.95 * HALF_PI,
        "steps": 100,
        "traj_list": [10_000, 100_000],
        "rho0": "ground",
    },
}

# per-command defaults of the dt and delta axes, used when no value, grid
# or preset pairs set them
_DEFAULT_DTS = {"limit-scan": (1e-2, 5e-3, 2.5e-3, 1.25e-3)}
_DEFAULT_DELTAS = {"blp": tuple(np.linspace(0.0, 0.95 * HALF_PI, 20))}

_RHO0 = {
    "excited": projector(0),
    "ground": projector(1),
    "mixed": np.eye(2, dtype=complex) / 2,
}


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return f"{x:.12g}"
    return str(x)


def write_csv(path: str, command: str, config: Dict, columns: Sequence[str],
              rows: Iterable[Sequence]) -> None:
    lines = [f"# collideq {command}"]
    for key in sorted(config):
        lines.append(f"# {key}={config[key]}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_grid(text: str) -> Tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be 'start:stop:count', got {text!r}")
    return float(parts[0]), float(parts[1]), int(parts[2])


def _grid_values(spec) -> np.ndarray:
    start, stop, count = spec
    return np.linspace(start, stop, count)


def read_config_file(path: str) -> Dict[str, str]:
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {raw.rstrip()}")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collideq",
        description="multi-bath collision model experiments (CSV output)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--setting", choices=["I", "II"])
        p.add_argument("--beta", type=float)
        p.add_argument("--omega", type=float)
        p.add_argument("--gamma", type=float)
        p.add_argument("--dt", type=float)
        p.add_argument("--dt-grid", dest="dt_grid")
        p.add_argument("--delta", type=float)
        p.add_argument("--delta-grid", dest="delta_grid")
        p.add_argument("--steps", type=int)
        p.add_argument("--traj", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--preset", choices=sorted(PRESETS))
        p.add_argument("--config", dest="config_path")
        p.add_argument("--out", required=False)
        p.add_argument("--delta-units", dest="delta_units", choices=["rad", "half-pi"])
        p.add_argument("--rho0", choices=sorted(_RHO0))
        p.add_argument("--r", type=float, help="limit-scan ratio dt/(1-delta)")
        p.add_argument("--r-list", dest="r_list",
                       help="comma-separated limit-scan ratios")
        p.add_argument("--t-final", dest="t_final", type=float)
    return parser


# keys a --config file may set (after '-' -> '_' normalization)
_CONFIG_KEYS = ("beta", "delta", "delta_grid", "delta_units", "dt", "dt_grid", "gamma",
                "omega", "out", "r", "rho0", "seed", "setting", "steps", "t_final", "traj")


class Resolved:
    """Merged configuration: defaults < preset < config file < flags."""

    def __init__(self, args: argparse.Namespace):
        self.command = args.command
        preset = PRESETS.get(args.preset, {}) if args.preset else {}
        fileconf = read_config_file(args.config_path) if args.config_path else {}
        unknown = sorted(set(fileconf) - set(_CONFIG_KEYS))
        if unknown:
            raise ValueError(f"unknown config key(s) in {args.config_path}: "
                             f"{', '.join(unknown)}")

        def pick(flag_name, file_key, preset_key, default=None, cast=None):
            val = getattr(args, flag_name, None)
            if val is not None:
                return val
            if file_key in fileconf:
                raw = fileconf[file_key]
                return cast(raw) if cast else raw
            if preset_key in preset:
                return preset[preset_key]
            return default

        self.preset_name = args.preset or ""
        if "pairs" in preset and self.command != "dynamics":
            raise CollideqError(f"preset {args.preset} runs (dt, delta) pairs, "
                                f"which only the dynamics command takes")
        # limit-scan resolves delta from (r, dt); its natural units are half-pi
        default_units = "half-pi" if self.command == "limit-scan" else "rad"
        self.delta_units = pick("delta_units", "delta_units", "delta_units",
                                default_units)
        self.omega = pick("omega", "omega", "omega", 1.0, float)
        self.gamma = pick("gamma", "gamma", "gamma", 1.0, float)
        self.seed = pick("seed", "seed", "seed", 0, int)
        self.steps = pick("steps", "steps", "steps", None, int)
        if self.steps is not None and self.steps < 1:
            raise InvalidParameter(f"steps must be at least 1 (got {self.steps})")
        self.t_final = pick("t_final", "t_final", "t_final", None, float)
        self.traj = pick("traj", "traj", "traj", None, int)
        self.rho0_name = pick("rho0", "rho0", "rho0", None)

        if args.setting is not None:
            self.settings = [args.setting]
        elif "setting" in fileconf:
            self.settings = [fileconf["setting"]]
        else:
            self.settings = list(preset.get("settings", ["I", "II"]))

        if args.beta is not None:
            self.betas = [args.beta]
        elif "beta" in fileconf:
            self.betas = [float(fileconf["beta"])]
        else:
            self.betas = list(preset.get("betas", [1.0]))

        self.dt = pick("dt", "dt", "dt", None, float)
        raw_dt_grid = pick("dt_grid", "dt_grid", None, None)
        self.dt_grid = _parse_grid(raw_dt_grid) if isinstance(raw_dt_grid, str) \
            else (raw_dt_grid or preset.get("dt_grid"))

        delta_raw = pick("delta", "delta", None, None, float)
        raw_delta_grid = pick("delta_grid", "delta_grid", None, None)
        if self.command == "limit-scan" and (delta_raw is not None or raw_delta_grid is not None):
            raise CollideqError("limit-scan derives delta from r and dt; "
                                "it takes no --delta or --delta-grid")
        scale = HALF_PI if self.delta_units == "half-pi" else 1.0
        # preset deltas are stored in radians already
        if delta_raw is not None:
            self.delta = delta_raw * scale
        else:
            self.delta = preset.get("delta")
        if isinstance(raw_delta_grid, str):
            a, b, n = _parse_grid(raw_delta_grid)
            self.delta_grid = (a * scale, b * scale, n)
        else:
            self.delta_grid = raw_delta_grid or preset.get("delta_grid")

        # preset (dt, delta) pairs drive dynamics unless a dt or delta is given
        explicit = (self.dt, self.dt_grid, self.delta, self.delta_grid)
        self.pairs = (preset.get("pairs") if all(v is None for v in explicit)
                      else None)
        self.traj_list = ([self.traj] if self.traj is not None
                          else preset.get("traj_list"))

        if args.r is not None:
            self.r_values = [args.r]
        elif args.r_list:
            self.r_values = [float(x) for x in args.r_list.split(",")]
        elif "r" in fileconf:
            self.r_values = [float(fileconf["r"])]
        else:
            self.r_values = [5.0, 0.1]

        if args.out is not None:
            self.out = args.out
        elif "out" in fileconf:
            self.out = fileconf["out"]
        else:
            self.out = f"collideq_{self.command}.csv"

    def dt_values(self) -> np.ndarray:
        if self.dt is not None:
            return np.array([self.dt])
        if self.dt_grid is not None:
            return _grid_values(self.dt_grid)
        if self.pairs is not None:
            return np.array([dt for dt, _ in self.pairs])
        return np.array(_DEFAULT_DTS.get(self.command, (0.1,)))

    def delta_values(self) -> np.ndarray:
        if self.delta is not None:
            return np.array([self.delta])
        if self.delta_grid is not None:
            return _grid_values(self.delta_grid)
        if self.pairs is not None:
            return np.array([delta for _, delta in self.pairs])
        return np.array(_DEFAULT_DELTAS.get(self.command, (0.0,)))

    def rho0(self, default: str) -> DensityMatrix:
        name = self.rho0_name or default
        return DensityMatrix(QubitRegister(["S"]), _RHO0[name])

    def echo(self) -> Dict[str, str]:
        out = {
            "command": self.command,
            "preset": self.preset_name,
            "settings": "+".join(self.settings),
            "betas": ",".join(_fmt(b) for b in self.betas),
            "omega": _fmt(self.omega),
            "gamma": _fmt(self.gamma),
            "seed": str(self.seed),
            "delta_units": self.delta_units,
            "dt_values": ",".join(_fmt(v) for v in self.dt_values()),
        }
        if self.command != "limit-scan":  # limit-scan derives delta from r and dt
            out["delta_values_rad"] = ",".join(_fmt(v) for v in self.delta_values())
        if self.steps is not None:
            out["steps"] = str(self.steps)
        if self.t_final is not None:
            out["t_final"] = _fmt(self.t_final)
        if self.traj_list:
            out["traj"] = ",".join(str(m) for m in self.traj_list)
        if self.rho0_name:
            out["rho0"] = self.rho0_name
        if self.command == "limit-scan":
            out["r_values"] = ",".join(_fmt(r) for r in self.r_values)
        return out


def _config(res: Resolved, setting: str, beta: float, dt: float, delta: float) -> ModelConfig:
    return ModelConfig(beta=beta, dt=dt, delta=delta, omega=res.omega,
                       gamma=res.gamma, setting=setting)


_NEGATIVITY_COLUMNS = ["n3", "n2_s_m0", "n2_s_m1", "n2_m0_m1"]

# output columns of the commands that evaluate one steady state per grid cell
_GRID_COLUMNS = {
    "steady-state": ["setting", "beta", "dt", "delta", "g_e", "beta_e", "delta_beta",
                     "heat_flux", "status"],
    "heat": ["setting", "beta", "dt", "delta", "heat_flux", "status"],
    "negativity": ["setting", "beta", "dt", "delta", *_NEGATIVITY_COLUMNS, "status"],
    "sweep": ["beta", "dt", "delta", "delta_beta", "heat_flux", *_NEGATIVITY_COLUMNS,
              "status"],
}


def _steady_cell(cfg: ModelConfig, negativities: bool) -> Dict[str, object]:
    """Observables of one steady-state grid cell, keyed by CSV column."""
    nan = math.nan
    cell = dict.fromkeys(["g_e", "beta_e", "delta_beta", "heat_flux",
                          *_NEGATIVITY_COLUMNS], nan)
    try:
        rho_star = steady_state(embedded_step_channel(cfg))
    except NonUniqueSteadyState as err:
        cell["status"] = f"nonunique:{err.multiplicity}"
        return cell
    except NumericalPositivityError:
        cell["status"] = "nonpositive"
        return cell
    except FixedPointError:
        cell["status"] = "fixed-point-failed"
        return cell
    est = effective_temperature(partial_trace(rho_star, ["S"]), cfg.omega)
    cell.update(g_e=est.g_e, beta_e=est.beta_e, delta_beta=est.beta_e - cfg.beta,
                heat_flux=steady_heat_flux_from_state(cfg, rho_star, bath=0), status="ok")
    if negativities and cfg.setting == "I":
        cell["n2_s_m0"] = negativity_2(rho_star)
    elif negativities:
        pairs = pair_negativities(rho_star)
        cell.update(n3=tripartite_negativity(rho_star), n2_s_m0=pairs[("S", "M0")],
                    n2_s_m1=pairs[("S", "M1")], n2_m0_m1=pairs[("M0", "M1")])
    return cell


def cmd_steady_grid(res: Resolved) -> Tuple[List[str], List[Sequence]]:
    """``steady-state``, ``heat``, ``negativity`` and ``sweep``: one row per cell."""
    if res.command == "sweep":
        if res.settings == ["I", "II"]:
            res.settings = ["II"]  # sweep is a setting II report unless overridden
        if res.settings != ["II"]:
            raise CollideqError("sweep reports setting II observables; pass --setting II")
    columns = _GRID_COLUMNS[res.command]
    negativities = "n3" in columns
    rows = []
    for setting in res.settings:
        for beta in res.betas:
            for dt in res.dt_values():
                for delta in res.delta_values():
                    cfg = _config(res, setting, beta, float(dt), float(delta))
                    cell = _steady_cell(cfg, negativities)
                    cell.update(setting=setting, beta=beta, dt=dt, delta=delta)
                    rows.append([cell[c] for c in columns])
    return columns, rows


def cmd_dynamics(res: Resolved) -> Tuple[List[str], List[Sequence]]:
    columns = ["setting", "beta", "dt", "delta", "step", "t", "one_minus_f",
               "beta_e", "status"]
    if res.pairs is not None:
        pairs = res.pairs
    else:
        pairs = [(float(dt), float(delta))
                 for dt in res.dt_values() for delta in res.delta_values()]
    rho0 = res.rho0("excited")
    t_final = res.t_final if res.t_final is not None else 8.0
    rows = []
    for setting in res.settings:
        for beta in res.betas:
            for dt, delta in pairs:
                cfg = _config(res, setting, beta, dt, delta)
                n_steps = res.steps or max(1, int(math.ceil(t_final / dt)))
                result = evolve(cfg, rho0, n_steps)
                for k in range(n_steps):
                    rows.append([setting, beta, dt, delta, k + 1,
                                 result.times[k], 1.0 - result.fidelity_to_gibbs[k],
                                 result.beta_e[k], "ok"])
    return columns, rows


def cmd_blp(res: Resolved) -> Tuple[List[str], List[Sequence]]:
    columns = ["setting", "beta", "dt", "delta", "blp_value", "theta_opt",
               "phi_opt", "status"]
    rows = []
    for setting in res.settings:
        for beta in res.betas:
            for dt in res.dt_values():
                for delta in res.delta_values():
                    cfg = _config(res, setting, beta, float(dt), float(delta))
                    out = blp_measure(cfg, n_steps=res.steps)
                    status = "ok" if out.converged else "unconverged"
                    rows.append([setting, beta, dt, delta, out.value,
                                 out.argmax_pair[0], out.argmax_pair[1], status])
    return columns, rows


def cmd_trajectories(res: Resolved) -> Tuple[List[str], List[Sequence]]:
    columns = ["setting", "m", "step", "t", "mean_stoch_heat", "std_error",
               "unconditional_heat", "status"]
    setting = "II" if res.settings == ["I", "II"] else res.settings[0]
    grids = {"beta": res.betas, "dt": res.dt_values(), "delta": res.delta_values()}
    multi = [name for name, values in grids.items() if len(values) > 1]
    if multi:
        raise CollideqError(f"trajectories runs one (beta, dt, delta) cell; "
                            f"got several {' and '.join(multi)} values")
    beta, dt, delta = (float(values[0]) for values in grids.values())
    n_steps = res.steps or 100
    traj_list = res.traj_list or [1000]
    cfg = _config(res, setting, beta, dt, delta)
    rho0 = res.rho0("ground")
    oracle = evolve(cfg, rho0, n_steps)
    rows = []
    for m in traj_list:
        stats = ensemble_mean_heat(cfg, rho0, n_steps, m, master_seed=res.seed)
        for k in range(n_steps):
            rows.append([setting, m, k + 1, (k + 1) * dt,
                         stats.mean_heat[k, 0], stats.std_error[k, 0],
                         oracle.q_lifecycle[k, 0], "ok"])
    return columns, rows


def cmd_limit_scan(res: Resolved) -> Tuple[List[str], List[Sequence]]:
    columns = ["setting", "beta", "r", "dt", "delta", "delta_rad", "delta_beta",
               "heat_flux", "status"]
    scale = HALF_PI if res.delta_units == "half-pi" else 1.0
    settings = res.settings if res.settings != ["I", "II"] else ["II"]
    rows = []
    for setting in settings:
        for beta in res.betas:
            for r in res.r_values:
                for dt in res.dt_values():
                    delta_units = 1.0 - float(dt) / r
                    delta_rad = delta_units * scale
                    if not (0.0 <= delta_rad < HALF_PI):
                        rows.append([setting, beta, r, dt, delta_units, delta_rad,
                                     math.nan, math.nan, "delta-out-of-range"])
                        continue
                    cell = _steady_cell(_config(res, setting, beta, float(dt), delta_rad),
                                        negativities=False)
                    rows.append([setting, beta, r, dt, delta_units, delta_rad,
                                 cell["delta_beta"], cell["heat_flux"], cell["status"]])
    return columns, rows


_DISPATCH = {
    **dict.fromkeys(_GRID_COLUMNS, cmd_steady_grid),
    "dynamics": cmd_dynamics,
    "blp": cmd_blp,
    "trajectories": cmd_trajectories,
    "limit-scan": cmd_limit_scan,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        res = Resolved(args)
        columns, rows = _DISPATCH[res.command](res)
    except (CollideqError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    write_csv(res.out, res.command, res.echo(), columns, rows)
    status_idx = columns.index("status")
    flagged = sum(1 for row in rows if row[status_idx] != "ok")
    print(f"wrote {res.out}: {len(rows)} rows, {flagged} flagged")
    return 0 if flagged == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
