"""The benchmark's workloads: one `sfrbsde sweep` configuration each.

Why each was chosen is recorded in BENCHMARK.json.  Every workload is a
sweep: it is the one command whose outputs pass the gate at every seed.
`solve` writes `np.float64(...)` tokens into its CSVs, and `verify` fails a
3-sigma check at a few seeds in a hundred; both are program defects that
`test_gate.py` keeps visible as strict expected failures.

Every workload pins `workers` and takes its seed from the benchmark's
`--seed`; the program sees only the config file written from the template.
`commands` is how many commands one run measures at least.
`TABLES` are the CSV files whose numeric cells must be plain float literals,
`STABLE` the outputs that must be byte-identical for one seed, and
`SEED_FREE` the values that do not depend on the seed, which are compared
with the stored reference on every run.
"""

from __future__ import annotations

from dataclasses import dataclass

COMMAND = "sweep"
EPS_LIST = (0.5, 0.35, 0.25, 0.18, 0.125)

TABLES = ("sweep_report.csv", "constants.csv", "manifest.csv")
STABLE = ("sweep_report.csv", "constants.csv", "summary.txt")
# constants that depend only on the coefficients, the generator and eps;
# C2..C4 carry Monte-Carlo moments of the averaged system
SEED_FREE = {
    "sweep_report.csv": ("epsilon", "t_lo"),
    "constants.csv": ("L", "C0", "C1", "beta", "phi_bound", "t0", "delta1")
    + tuple(f"alpha0[eps={format(e, 'g')}]" for e in EPS_LIST),
}


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    commands: int

    def config_text(self, seed: int) -> str:
        return self.config.format(seed=seed)

    @property
    def path_array_bytes(self) -> int:
        """Bytes of one float64 n_paths x n_nodes array, computed from the config."""
        keys = dict(line.split(" = ") for line in self.config.strip().splitlines())
        return 8 * int(keys["n_paths"]) * (int(keys["n_time"]) + 1)


_CRIT7 = ("n_time = 256\nn_space = 256\nn_paths = 20000\n"
          "eps_list = 0.5,0.35,0.25,0.18,0.125\nt0 = 0.75\ngenerator = benchmark\n")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(name="sweep-crit7", commands=1,
                 config=_CRIT7 + "seed = {seed}\nworkers = 1\n"),
        Workload(name="sweep-paths60k", commands=1,
                 config="n_time = 128\nn_space = 128\nn_paths = 60000\n"
                        "eps_list = 0.5,0.35,0.25,0.18,0.125\nt0 = 0.75\n"
                        "generator = benchmark\nseed = {seed}\nworkers = 1\n"),
    )
}

# A reduced sweep for the benchmark's own tests (the f-bar sabotage control).
SMALL_SWEEP = Workload(
    name="sweep-small", commands=1,
    config="n_time = 128\nn_space = 128\nn_paths = 4000\n"
           "eps_list = 0.5,0.35,0.25,0.18,0.125\nt0 = 0.75\n"
           "generator = benchmark\nseed = {seed}\nworkers = 1\n",
)

ALL = {**WORKLOADS, SMALL_SWEEP.name: SMALL_SWEEP}
