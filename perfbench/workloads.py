"""The four benchmark workloads: CLI command lines, work units, reference data.

Each workload is one ``collideq`` command line, run through
``collideq.cli.main`` in a fresh process, many times over. Each is a slice
of a figure preset that takes well under a second, so that a run of the
benchmark holds dozens of them (see README.md for why). ``units`` is the
work count of one command, behind ``units_per_s``. Only ``tpm-ensemble``
takes the benchmark seed: run ``i`` of a call uses trajectory master seed
``seed * SEED_STRIDE + i``, so a call's runs are independent chunks of one
larger ensemble. The grid workloads are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

# the seed the stored tpm-ensemble reference was generated with (the CLI default)
DEFAULT_SEED = 0
# master seeds of one call's runs: seed * SEED_STRIDE + run index
SEED_STRIDE = 100_000


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Tuple[str, ...]
    units: int
    unit_name: str
    why: str
    # the layer expected to have the largest self time in a traced run
    layer: str
    # exit code of the reference run (1 = some rows flagged by design)
    expected_exit: int = 0
    # columns that depend on the seed: exact only at DEFAULT_SEED
    seeded_columns: Tuple[str, ...] = ()
    # fewest measured runs in a call, whatever --seconds says
    min_runs: int = 1

    @property
    def seeded(self) -> bool:
        return bool(self.seeded_columns)

    def master_seed(self, seed: int, run_index: int) -> int:
        """Trajectory master seed of a call's run ``run_index``."""
        return seed * SEED_STRIDE + run_index if self.seeded else seed

    def cli_argv(self, master_seed: int, out: str) -> List[str]:
        argv = list(self.argv)
        if self.seeded:
            argv += ["--seed", str(master_seed)]
        return argv + ["--out", out]

    @property
    def reference(self) -> Path:
        return REFERENCE_DIR / f"{self.name}.csv.gz"


# trajectories per tpm-ensemble run, and the fewest runs whose pooled
# ensemble is as large as the c08 acceptance test's (M = 1e4 and more)
TRAJ_PER_RUN = 400
TPM_MIN_RUNS = 30

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="steady-sweep",
            argv=("sweep", "--preset", "fig4", "--beta", "2",
                  "--dt-grid", "0.025:0.5:5", "--delta-grid", "0:0.95:5",
                  "--delta-units", "half-pi"),
            units=25,
            unit_name="cells",
            layer="engine",
            why="fig4 slice, 25 setting-II steady states; engine build, eig "
                "solve and heat flux dominate, trajectories idle",
        ),
        Workload(
            name="relax-dynamics",
            argv=("dynamics", "--setting", "II", "--beta", "2", "--dt", "0.01",
                  "--delta", "0.95", "--delta-units", "half-pi",
                  "--t-final", "8", "--rho0", "excited"),
            units=800,
            unit_name="evolve steps",
            layer="engine",
            why="fig3 curve: one channel build, 800 evolve steps with "
                "per-step fidelity, state validation and an 800-row CSV",
        ),
        Workload(
            name="blp-scan",
            argv=("blp", "--setting", "I", "--beta", "2", "--dt", "0.01",
                  "--delta-grid", "0:0.95:2", "--delta-units", "half-pi"),
            units=2,
            unit_name="cells",
            layer="blp",
            expected_exit=1,
            why="BLP at delta 0 and 0.95 pi/2: block propagation of 512 Bloch "
                "pairs dominates; the only workload that measures blp",
        ),
        Workload(
            name="tpm-ensemble",
            argv=("trajectories", "--preset", "fig5", "--traj", str(TRAJ_PER_RUN)),
            units=TRAJ_PER_RUN * 100,
            unit_name="trajectory-steps",
            layer="trajectories",
            seeded_columns=("mean_stoch_heat", "std_error"),
            min_runs=TPM_MIN_RUNS,
            why="fig5 TPM ensemble in 400-trajectory chunks: batched trajectory "
                "conjugations dominate; engine and blp idle",
        ),
    )
}
