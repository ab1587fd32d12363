"""The benchmark's workloads: one seeded spinchain config per hot layer.

Each workload is one CLI subcommand run on a config generated from the
seed.  The seed draws only the coupling exponents and the onebody start
site; sizes, grids and partition families are fixed, so the work per
invocation is the same for every seed.  Configs set only the keys a run
needs and leave engine choices to the program's defaults, so a refactor
that drops a tuning key does not break the benchmark.
"""

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str      # spinchain CLI subcommand
    why: str          # one line: the layer it loads and why it was chosen
    n_sites: int
    state: str        # "neel" or "single" (site drawn from the seed)
    strategy: str     # partitions.strategy
    t_max: float      # Kac-rescaled window
    n_points: int
    short_range: str  # second exponent: "nn" or "uniform" from [2, 3]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="quench-n16", command="tmi-vs-entropy",
        why="Neel quench, N=16 (dim 12,870, Krylov path), one long-range "
            "alpha plus nn: sector propagation dominates; few, large "
            "Schmidt blocks (fig2/fig3 desk scale)",
        n_sites=16, state="neel", strategy="quarters", t_max=0.8,
        n_points=31, short_range="nn"),
    Workload(
        name="extremal-n12", command="minmax-scan",
        why="fig4-shaped contiguous-block minmax scan, N=12 (dense path, "
            "full 2^12 table): entropy-plan evaluation dominates; many "
            "small Schmidt blocks, little propagation",
        n_sites=12, state="neel", strategy="contiguous", t_max=5.0,
        n_points=11, short_range="uniform"),
    Workload(
        name="onebody-all-n12", command="onebody-scan",
        why="single-excitation scan over all 2,532,530 triples, N=12: "
            "partition enumeration and onebody gathers, largest working "
            "set, no sector propagation or Schmidt work",
        n_sites=12, state="single", strategy="all", t_max=5.0,
        n_points=17, short_range="uniform"),
)}


@dataclass(frozen=True)
class Params:
    """The seeded inputs of one run."""

    workload: Workload
    alphas: tuple     # exponent labels as written to the config ("0.412", "nn")
    site: int | None  # onebody start site

    @property
    def n_states(self) -> int:
        """States the run produces: exponents times time points."""
        return len(self.alphas) * self.workload.n_points

    def config_text(self, out_dir: str) -> str:
        w = self.workload
        state = "neel" if w.state == "neel" else f"single:{self.site}"
        return "\n".join((
            f"# benchmark workload {w.name}: {w.why}",
            "[model]",
            f"n_sites = {w.n_sites}",
            f"alphas = {', '.join(self.alphas)}",
            "[initial]",
            f"state = {state}",
            "[time]",
            f"t_max = {w.t_max}",
            f"n_points = {w.n_points}",
            "kac_rescaled = true",
            "[partitions]",
            f"strategy = {w.strategy}",
            "[output]",
            f"directory = {out_dir}",
            "formats = csv",
            "",
        ))


def make_params(workload: Workload, seed: int) -> Params:
    """Draw one exponent from [0.1, 1.0], one from [2, 3] (or nn), and a site."""
    rng = random.Random(seed)
    alphas = [f"{rng.uniform(0.1, 1.0):.3f}"]
    alphas.append("nn" if workload.short_range == "nn"
                  else f"{rng.uniform(2.0, 3.0):.3f}")
    site = rng.randrange(workload.n_sites) if workload.state == "single" else None
    return Params(workload, tuple(alphas), site)
