"""Long-range XY spin-chain quench simulator with entanglement diagnostics.

Simulates quenches of product states under H = sum_{m<n} J_mn (X_m X_n +
Y_m Y_n) with power-law couplings J_mn = J0 / |m - n|^alpha on an open
chain, exploiting excitation-number conservation throughout, and measures
how quantum information delocalizes: Von Neumann entropies of arbitrary
site subsets, mutual information, and the tripartite mutual information
across subsystem partitionings, including exhaustive partition scans.
Single-excitation quenches run on the same path as every other.
``evolve`` returns the states as a plain (n_times, dim) array.  The
oracles the pipeline is checked against (full-space evolution and
partial traces, the closed-form k=1 TMI, brute-force extrema) and the
checks of the CLI's ``validate`` live in ``spinchain.reference``, which
is not imported here.
"""

__version__ = "0.1.0"

from .config import RunConfig, load_config
from .entropy import (EntropyTablePlan, SubsetEntropyTable, mutual_information,
                      subset_entropy_table, subsystem_spectrum, tmi, von_neumann)
from .errors import (CapacityError, ConfigError, NumericalConsistencyError,
                     SpinChainError)
from .model import (CouplingMatrix, ModelSpec, SectorBasis, SectorHamiltonian,
                    StateVector, coupling_matrix, enumerate_sector, neel_state,
                    sector_dimension, single_excitation_state)
from .partitions import (PartitionSet, TmiSeries, contiguous_quarters,
                         enumerate_partitions, lightcone_onset, tau_sign_change)
from .propagate import evolve

__all__ = [
    "__version__",
    "CapacityError", "ConfigError", "NumericalConsistencyError",
    "SpinChainError",
    "CouplingMatrix", "ModelSpec", "SectorBasis", "SectorHamiltonian",
    "StateVector", "coupling_matrix", "enumerate_sector",
    "neel_state", "sector_dimension", "single_excitation_state",
    "evolve",
    "EntropyTablePlan", "SubsetEntropyTable",
    "mutual_information", "subset_entropy_table",
    "subsystem_spectrum", "tmi", "von_neumann",
    "PartitionSet", "TmiSeries", "contiguous_quarters",
    "enumerate_partitions", "lightcone_onset", "tau_sign_change",
    "RunConfig", "load_config",
]
