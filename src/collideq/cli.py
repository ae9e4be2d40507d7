"""Command-line driver: reproduces each figure-style dataset as CSV.

Every command writes a self-describing CSV: a leading comment block of
``# key=value`` lines echoing the fully resolved configuration, a header
row, then data rows ordered by grid iteration. Output is byte-identical
across runs for a fixed command line and seed. A cell that one of the
numerical errors in ``_FAILED`` fails writes one row: its own columns, nan
in every other and the error's status. Any other error (a bad input, a
missing output directory, a failed write) exits 2 with no CSV written. The
exit code is 0 only if every row carries status ``ok``.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from dataclasses import dataclass
from typing import (Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from .blp import blp_measure
from .engine import (
    ModelConfig,
    embedded_step_channel,
    evolve,
    steady_heat_flux_from_state,
    steady_state,
)
from .errors import (CollideqError, FixedPointError, InvalidParameter, NonUniqueSteadyState,
                     NotHermitian, NumericalPositivityError)
from .metrics import (
    effective_temperature,
    negativity_2,
    pair_negativities,
    tripartite_negativity,
)
from .tensor import DensityMatrix, QubitRegister, partial_trace, projector
from .trajectories import ensemble_mean_heat

HALF_PI = math.pi / 2

# per-figure parameter bundles (omega = 1, gamma = 1 throughout), keyed by
# option name; delta in radians
PRESETS: Dict[str, Dict] = {
    "fig2": {
        "setting": ["I", "II"],
        "beta": [0.5, 2.0],
        "dt_grid": (0.025, 0.5, 20),
        "delta": 0.0,
    },
    "fig3": {
        "setting": ["I", "II"],
        "beta": [2.0],
        "pairs": [(0.01, 0.95 * HALF_PI), (0.01, 0.8 * HALF_PI), (0.001, 0.95 * HALF_PI)],
        "t_final": 8.0,
        "rho0": "excited",
    },
    "fig4": {
        "setting": ["II"],
        "beta": [0.5, 2.0],
        "dt_grid": (0.025, 0.5, 20),
        "delta_grid": (0.0, 0.95 * HALF_PI, 20),
    },
    "fig5": {
        # collision duration is a free knob of this preset; 0.1 keeps the
        # per-step heat resolvable at the quoted ensemble sizes
        "setting": ["II"],
        "beta": [1.0],
        "dt": 0.1,
        "delta": 0.95 * HALF_PI,
        "steps": 100,
        "traj": [10_000, 100_000],
        "rho0": "ground",
    },
}

_RHO0 = {
    "excited": projector(0),
    "ground": projector(1),
    "mixed": np.eye(2, dtype=complex) / 2,
}


def _fmt(x) -> str:
    return f"{x:.12g}" if isinstance(x, float) else str(x)  # NaN of either sign prints nan


def _column(value, n_rows: int) -> List[str]:
    """A block's column as CSV fields: an array's entries, or a scalar once, ``n_rows`` times."""
    if isinstance(value, np.ndarray):  # one format for the whole array, as _fmt picks per entry
        return list(map("{:.12g}".format if value.dtype.kind == "f" else str, value.tolist()))
    return [_fmt(value)] * n_rows


def write_csv(path: str, command: str, config: Dict, columns: Sequence[str],
              rows: Iterable[Sequence[str]]) -> None:
    lines = [f"# collideq {command}", *(f"# {key}={config[key]}" for key in sorted(config)),
             ",".join(columns), *map(",".join, rows)]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_grid(text: str) -> Tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("grid must be 'start:stop:count'")
    if int(parts[2]) < 1:
        raise ValueError("grid count must be at least 1")
    return float(parts[0]), float(parts[1]), int(parts[2])


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


class _Cell(NamedTuple):
    """One grid cell, delta in radians; ``r`` is limit-scan's ratio dt/(1-delta)."""

    setting: str
    beta: float
    dt: float
    delta: float
    r: Optional[float] = None

    def fields(self) -> Dict[str, object]:
        """The cell's own CSV columns; limit-scan's delta is 1 - dt/r, beside delta_rad."""
        out = self._asdict()
        if self.r is not None:
            out.update(delta=1.0 - self.dt / self.r, delta_rad=self.delta)
        return out


# status of a cell failed by a numerical error of each class; {fields} are its attributes
_FAILED = {NonUniqueSteadyState: "nonunique:{multiplicity}", FixedPointError: "fixed-point-failed",
           NumericalPositivityError: "nonpositive", NotHermitian: "not-hermitian"}


def _config(res: Resolved, cell: _Cell) -> ModelConfig:
    return ModelConfig(beta=cell.beta, dt=cell.dt, delta=cell.delta, omega=res.omega,
                       gamma=res.gamma, setting=cell.setting)


_NEGATIVITY_COLUMNS = ("n3", "n2_s_m0", "n2_s_m1", "n2_m0_m1")


def _steady_rows(res: Resolved, cell: _Cell) -> Dict:
    if cell.r is not None and not 0.0 <= cell.delta < HALF_PI:
        return {"status": "delta-out-of-range"}
    cfg, columns = _config(res, cell), res.spec.columns
    rho_star = steady_state(embedded_step_channel(cfg))
    out = {}  # only what the command prints
    if "delta_beta" in columns:
        est = effective_temperature(partial_trace(rho_star, ["S"]), cfg.omega)
        out.update(g_e=est.g_e, beta_e=est.beta_e, delta_beta=est.beta_e - cfg.beta)
    if "heat_flux" in columns:
        out["heat_flux"] = steady_heat_flux_from_state(cfg, rho_star, bath=0)
    if "n3" in columns and cfg.setting == "I":
        out["n2_s_m0"] = negativity_2(rho_star)
    elif "n3" in columns:
        pairs = pair_negativities(rho_star)
        out.update(n3=tripartite_negativity(rho_star), n2_s_m0=pairs[("S", "M0")],
                   n2_s_m1=pairs[("S", "M1")], n2_m0_m1=pairs[("M0", "M1")])
    return out


def _dynamics_rows(res: Resolved, cell: _Cell) -> Dict:
    n_steps = res.steps or max(1, int(math.ceil((res.t_final or 8.0) / cell.dt)))
    result = evolve(_config(res, cell), res.rho0("excited"), n_steps)
    return {"step": np.arange(1, n_steps + 1), "t": result.times,
            "one_minus_f": 1.0 - result.fidelity_to_gibbs, "beta_e": result.beta_e}


def _blp_rows(res: Resolved, cell: _Cell) -> Dict:
    out = blp_measure(_config(res, cell), n_steps=res.steps)
    theta, phi = out.argmax_pair
    return {"blp_value": out.value, "theta_opt": theta, "phi_opt": phi,
            "status": "ok" if out.converged else "unconverged"}


def _trajectory_rows(res: Resolved, cell: _Cell) -> Dict:
    n_steps = res.steps or 100
    cfg, rho0 = _config(res, cell), res.rho0("ground")
    oracle = evolve(cfg, rho0, n_steps).q_lifecycle[:, 0]
    ms = res.traj_list or [1000]
    stats = [ensemble_mean_heat(cfg, rho0, n_steps, m, master_seed=res.seed) for m in ms]
    step = np.tile(np.arange(1, n_steps + 1), len(ms))
    return {"m": np.repeat(ms, n_steps), "step": step, "t": step * cell.dt,
            "mean_stoch_heat": np.concatenate([s.mean_heat[:, 0] for s in stats]),
            "std_error": np.concatenate([s.std_error[:, 0] for s in stats]),
            "unconditional_heat": np.tile(oracle, len(ms))}


@dataclass(frozen=True)
class _Command:
    """One command: its CSV columns, the rows of one grid cell (one block:
    column -> scalar or 1-D array; ``main`` adds the cell's own columns, and
    nan for any other the block lacks), the dt and delta axes it runs when
    none is given, and the settings it runs when given both or none."""

    columns: Tuple[str, ...]
    rows: Callable[[Resolved, _Cell], Dict]
    dts: Tuple[float, ...] = (0.1,)
    deltas: Tuple[float, ...] = (0.0,)
    settings: Tuple[str, ...] = ("I", "II")
    one_cell: bool = False
    # one cell per (r, dt), at delta = 1 - dt/r in delta units
    delta_from_r: bool = False


_CELL = ("setting", "beta", "dt", "delta")

_COMMANDS: Dict[str, _Command] = {
    "steady-state": _Command((*_CELL, "g_e", "beta_e", "delta_beta", "heat_flux", "status"),
                             _steady_rows),
    "dynamics": _Command((*_CELL, "step", "t", "one_minus_f", "beta_e", "status"),
                         _dynamics_rows),
    "heat": _Command((*_CELL, "heat_flux", "status"), _steady_rows),
    "blp": _Command((*_CELL, "blp_value", "theta_opt", "phi_opt", "status"), _blp_rows,
                    deltas=tuple(np.linspace(0.0, 0.95 * HALF_PI, 20))),
    "negativity": _Command((*_CELL, *_NEGATIVITY_COLUMNS, "status"), _steady_rows),
    "trajectories": _Command(("setting", "m", "step", "t", "mean_stoch_heat", "std_error",
                              "unconditional_heat", "status"), _trajectory_rows,
                             settings=("II",), one_cell=True),
    "sweep": _Command(("beta", "dt", "delta", "delta_beta", "heat_flux",
                       *_NEGATIVITY_COLUMNS, "status"), _steady_rows, settings=("II",)),
    "limit-scan": _Command(("setting", "beta", "r", "dt", "delta", "delta_rad", "delta_beta",
                            "heat_flux", "status"), _steady_rows,
                           dts=(1e-2, 5e-3, 2.5e-3, 1.25e-3), settings=("II",),
                           delta_from_r=True),
}


@dataclass(frozen=True)
class _Option:
    """One option: the commands that read it and how its text is parsed."""

    commands: FrozenSet[str]
    cast: Callable[[str], object] = str
    choices: Optional[Tuple[str, ...]] = None
    help: Optional[str] = None
    config: bool = True  # a --config file may set it
    flag: bool = True  # False: only a preset sets it

    def parse(self, name: str, text: str):
        try:
            value = self.cast(text)
        except ValueError as err:
            raise ValueError(f"{name}={text!r}: {err}") from None
        if self.choices and value not in self.choices:
            raise ValueError(f"{name}={text!r} is not one of {', '.join(self.choices)}")
        return value


_ALL = frozenset(_COMMANDS)
_DELTA_AXIS = frozenset(c for c, spec in _COMMANDS.items() if not spec.delta_from_r)

# every option, flag and config key of the CLI; a flag is '--' plus the name
# with '_' -> '-', and presets are keyed by the same names
_OPTIONS: Dict[str, _Option] = {
    "setting": _Option(_ALL, choices=("I", "II")),
    "beta": _Option(_ALL, float),
    "omega": _Option(_ALL, float),
    "gamma": _Option(_ALL, float),
    "dt": _Option(_ALL, float),
    "dt_grid": _Option(_ALL, _parse_grid),
    "delta": _Option(_DELTA_AXIS, float),
    "delta_grid": _Option(_DELTA_AXIS, _parse_grid),
    "delta_units": _Option(_ALL, choices=("rad", "half-pi")),
    "steps": _Option(frozenset({"dynamics", "blp", "trajectories"}), int),
    "traj": _Option(frozenset({"trajectories"}), int),
    "seed": _Option(frozenset({"trajectories"}), int),
    "rho0": _Option(frozenset({"dynamics", "trajectories"}), choices=tuple(sorted(_RHO0))),
    "t_final": _Option(frozenset({"dynamics"}), float),
    "r": _Option(frozenset({"limit-scan"}), float, help="limit-scan ratio dt/(1-delta)"),
    "r_list": _Option(frozenset({"limit-scan"}), lambda s: [float(x) for x in s.split(",")],
                      help="comma-separated limit-scan ratios", config=False),
    "preset": _Option(_ALL, choices=tuple(sorted(PRESETS)), config=False),
    "config": _Option(_ALL, config=False),
    "out": _Option(_ALL),
    "pairs": _Option(frozenset({"dynamics"}), config=False, flag=False),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


class _CommandParsers(dict):
    """Every command, in ``_COMMANDS`` order, mapped to its parser, which is
    built with all its options the first time argparse looks it up."""

    def __init__(self, prog: str):
        super().__init__(dict.fromkeys(_COMMANDS))
        self.prog = prog

    def __getitem__(self, command: str) -> argparse.ArgumentParser:
        parser = super().__getitem__(command)
        if parser is None:
            parser = self[command] = argparse.ArgumentParser(prog=f"{self.prog} {command}")
            for name, opt in _OPTIONS.items():
                if opt.flag:  # a flag the command does not read parses, is hidden and is rejected
                    parser.add_argument(_flag(name), dest=name, choices=opt.choices, help=opt.help
                                        if command in opt.commands else argparse.SUPPRESS)
        return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collideq",
        description="multi-bath collision model experiments (CSV output)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.choices = sub._name_parser_map = _CommandParsers(sub._prog_prefix)
    return parser


def _as_list(value) -> list:
    return list(value) if isinstance(value, (list, tuple)) else [value]


class Resolved:
    """Merged configuration: defaults < preset < config file < flags.

    An option the command does not read is rejected, whether a flag, a
    config key or a preset key sets it.
    """

    def __init__(self, args: argparse.Namespace):
        self.command = args.command
        self.spec = _COMMANDS[self.command]
        self.preset_name = args.preset or ""
        preset = PRESETS.get(self.preset_name, {})
        fileconf = read_config_file(args.config) if args.config else {}
        flags = {k: v for k, v in vars(args).items() if k != "command" and v is not None}

        def unread(names, config=False):
            return [n for n in names if n not in _OPTIONS or config and not _OPTIONS[n].config
                    or self.command not in _OPTIONS[n].commands]

        groups = (("", [_flag(n) for n in unread(flags)]),
                  (f"config key(s) in {args.config}: ", unread(fileconf, config=True)),
                  (f"preset {self.preset_name}'s ", unread(preset)))
        rejected = [head + ", ".join(names) for head, names in groups if names]
        if rejected:
            msg = f"{self.command} takes no {'; '.join(rejected)}"
            if unread(preset):
                takers = [c for c in _COMMANDS if all(c in _OPTIONS[k].commands for k in preset)]
                msg += f"; preset {self.preset_name} is taken by {', '.join(takers)}"
            raise CollideqError(msg)

        given = {name: _OPTIONS[name].parse(name, text)
                 for name, text in {**fileconf, **flags}.items()}
        values = {**preset, **given}
        # limit-scan resolves delta from (r, dt); its natural units are half-pi
        self.delta_units = values.get("delta_units",
                                      "half-pi" if self.spec.delta_from_r else "rad")
        # flag and config deltas, and limit-scan's, are in delta_units; preset
        # deltas are in radians
        self.delta_scale = HALF_PI if self.delta_units == "half-pi" else 1.0
        if "delta" in given:
            values["delta"] = given["delta"] * self.delta_scale
        if "delta_grid" in given:
            a, b, n = given["delta_grid"]
            values["delta_grid"] = (a * self.delta_scale, b * self.delta_scale, n)
        # a value and its grid are one axis, and so are steps and t_final:
        # taken from the highest source that sets either; one source setting
        # both is rejected
        sources = (("the command line", flags, _flag),
                   (f"config file {args.config}", fileconf, str),
                   (f"preset {self.preset_name}", preset, str))
        for unit in (("dt", "dt_grid"), ("delta", "delta_grid"), ("r", "r_list"),
                     ("steps", "t_final")):
            set_by = [src.keys() & set(unit) for _, src, _ in sources]
            for (label, _, name), names in zip(sources, set_by):
                if len(names) == 2:
                    raise CollideqError(f"{label} sets both {name(unit[0])} and {name(unit[1])}; "
                                        "give one of them")
            top = next((names for names in set_by if names), set(unit))
            for name in set(unit) - top:
                values.pop(name, None)

        self.omega = values.get("omega", 1.0)
        self.gamma = values.get("gamma", 1.0)
        self.seed = values.get("seed", 0)
        self.steps = values.get("steps")
        if self.steps is not None and self.steps < 1:
            raise InvalidParameter(f"steps must be at least 1 (got {self.steps})")
        self.t_final = values.get("t_final")
        if self.t_final is not None and not 0 < self.t_final < math.inf:
            raise InvalidParameter(f"t_final must be positive and finite (got {self.t_final})")
        self.traj_list = _as_list(values["traj"]) if "traj" in values else None
        self.rho0_name = values.get("rho0")
        self.settings = _as_list(values.get("setting", ["I", "II"]))
        if self.settings == ["I", "II"]:
            self.settings = list(self.spec.settings)
        only = "+".join(self.spec.settings)  # rows that print no setting run only this
        if "setting" not in self.spec.columns and self.settings != list(self.spec.settings):
            raise CollideqError(f"{self.command} reports setting {only} observables; "
                                f"pass --setting {only}")
        self.betas = _as_list(values.get("beta", [1.0]))
        # preset (dt, delta) pairs drive dynamics unless a dt or delta is given
        explicit = {"dt", "dt_grid", "delta", "delta_grid"} & set(values)
        self.pairs = None if explicit else values.get("pairs")
        self.dt_values = self._axis(values, "dt", 0, self.spec.dts)
        self.delta_values = self._axis(values, "delta", 1, self.spec.deltas)
        self.r_values = [values["r"]] if "r" in values else values.get("r_list", [5.0, 0.1])
        if not all(0 < r < math.inf for r in self.r_values):  # NaN fails too
            raise InvalidParameter(
                f"limit-scan ratios must be positive and finite (got {self.r_values})")
        self.out = values.get("out", f"collideq_{self.command}.csv")
        if not os.path.isdir(os.path.dirname(self.out) or "."):
            raise CollideqError(f"the directory of output file {self.out} does not exist")

    def _axis(self, values: Dict, name: str, index: int, default: Tuple) -> np.ndarray:
        """The values of the dt or delta axis: its value or grid (at most one
        is left), the preset pairs' entry ``index`` or the command default."""
        if name in values:
            return np.array([values[name]])
        if name + "_grid" in values:
            return np.linspace(*values[name + "_grid"])
        if self.pairs is not None:
            return np.array([pair[index] for pair in self.pairs])
        return np.array(default)

    def cells(self) -> List[_Cell]:
        """Every cell, in row order: the preset pairs if there are any, else
        every dt x delta combination (limit-scan: every r x dt)."""
        if self.spec.delta_from_r:
            axes = [(dt, (1.0 - dt / r) * self.delta_scale, r)
                    for r in self.r_values for dt in self.dt_values]
        else:
            axes = [(dt, delta, None) for dt, delta in
                    self.pairs or itertools.product(self.dt_values, self.delta_values)]
        cells = [_Cell(setting, beta, float(dt), float(delta), r) for setting, beta, (dt, delta, r)
                 in itertools.product(self.settings, self.betas, axes)]
        if self.spec.one_cell and len(cells) > 1:
            raise CollideqError(f"{self.command} runs one (beta, dt, delta) cell; "
                                f"got several ({len(cells)})")
        return cells

    def rho0(self, default: str) -> DensityMatrix:
        return DensityMatrix(QubitRegister(["S"]), _RHO0[self.rho0_name or default])

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
            "dt_values": ",".join(_fmt(v) for v in self.dt_values),
        }
        if not self.spec.delta_from_r:
            out["delta_values_rad"] = ",".join(_fmt(v) for v in self.delta_values)
        optional = {"steps": self.steps, "t_final": self.t_final, "traj": self.traj_list,
                    "rho0": self.rho0_name,
                    "r_values": self.r_values if self.spec.delta_from_r else None}
        out.update((key, ",".join(_fmt(v) for v in _as_list(value)))
                   for key, value in optional.items() if value is not None)
        return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    rows = []
    try:
        res = Resolved(args)
        columns = res.spec.columns
        for cell in res.cells():
            try:
                block = res.spec.rows(res, cell)
            except tuple(_FAILED) as err:  # flags this cell alone; other errors end the run
                status = next(s for cls, s in _FAILED.items() if isinstance(err, cls))
                block = {"status": status.format_map(vars(err))}
            n = next((len(v) for v in block.values() if isinstance(v, np.ndarray)), 1)
            fields = {"status": "ok", **cell.fields(), **block}
            rows += zip(*(_column(fields.get(c, math.nan), n) for c in columns), strict=True)
        write_csv(res.out, res.command, res.echo(), columns, rows)
    except (CollideqError, ValueError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    status_idx = columns.index("status")
    flagged = sum(1 for row in rows if row[status_idx] != "ok")
    print(f"wrote {res.out}: {len(rows)} rows, {flagged} flagged")
    return 0 if flagged == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
