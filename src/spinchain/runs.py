"""Experiment runners: sweep orchestration behind the CLI subcommands.

Every runner is one loop over the coupling exponents.  ``_sweep`` first
resolves the partition set with ``RunConfig.partition_set``, so a
partition setting the runner cannot honour is refused before any work.
The task ``_exponent`` builds an exponent's coupling, physical times
(the configured grid, divided by the Kac constant when ``kac_rescaled``
is set: the one place Kac units are converted) and ``alpha``/``t``/
``t_kac`` columns, and calls the runner's reducer, a module-level
``rows(cfg, pset, coupling, times) -> (columns, extra)``; ``extra``
carries what the runner needs beyond per-time columns.
Sector-quench reducers read ``_table``: one subset-entropy table with a
row per mask and a column per time.  ``_sweep`` maps the task over the
exponents, in a process pool when SPINCHAIN_THREADS asks for one, and
stacks the columns in sweep order either way, so the emitted files do
not depend on the worker count.
"""

import os
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache

import numpy as np

from . import __version__
from .config import RunConfig
from .datasets import Dataset
from .entropy import (EntropyTablePlan, SubsetEntropyTable, mutual_information,
                      subset_entropy_table, tmi)
from .errors import ConfigError, NumericalConsistencyError
from .model import (ModelSpec, coupling_matrix, enumerate_sector, neel_state,
                    reflection_invariant, single_excitation_state)
from .onebody import occupation_weights, onebody_tmi_scan, simplex_scan, tmi_binary
from .partitions import PartitionSet, lightcone_onset, tau_sign_change, tmi_extrema
from .propagate import check_sizes, evolve

# Nonnegativity floor asserted by the 1-excitation scan.
ONEBODY_TMI_FLOOR = 1e-10

__all__ = [
    "run_tmi_grid", "run_tmi_vs_entropy", "run_minmax_scan",
    "run_onebody_scan", "thread_count",
]

_TIME_COLUMNS = ("alpha", "t", "t_kac")


def thread_count() -> int:
    """Worker-pool size from SPINCHAIN_THREADS (default 1: serial)."""
    raw = os.environ.get("SPINCHAIN_THREADS", "1").strip()
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"SPINCHAIN_THREADS must be an integer, got {raw!r}") from None
    return max(n, 1)


def _pmap(fn, items):
    """[fn(*item) for item in items], in a process pool when asked for."""
    items = list(items)
    if thread_count() <= 1 or len(items) <= 1:
        return [fn(*item) for item in items]
    workers = min(thread_count(), len(items))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # pool.map preserves submission order, keeping output deterministic
        return list(pool.map(fn, *zip(*items)))


def _grid(cfg: RunConfig) -> np.ndarray:
    """The configured sample times: t, or t * K when Kac rescaled."""
    return np.linspace(0.0, cfg.t_max, cfg.n_points)


def _initial_state(cfg: RunConfig):
    if cfg.initial_state == "neel":
        basis = enumerate_sector(cfg.n_sites, cfg.n_sites // 2)
        return basis, neel_state(basis)
    basis = enumerate_sector(cfg.n_sites, 1)
    return basis, single_excitation_state(basis, cfg.resolved_site())


def _plan_for(basis, pset: PartitionSet, *extra, reflected: bool) -> EntropyTablePlan:
    """Plan over the masks a partition set reads, plus ``extra`` masks."""
    # an int array for extra: no extras would make union1d's result float
    masks = tuple(np.union1d(pset.read_masks, np.array(extra, dtype=np.int64)).tolist())
    return _cached_plan(basis.n_sites, basis.n_excitations, masks, reflected)


@lru_cache(maxsize=1)
def _cached_plan(n_sites: int, n_excitations: int, masks: tuple,
                 reflected: bool) -> EntropyTablePlan:
    # one plan per process: every exponent of a sweep reuses it
    return EntropyTablePlan(enumerate_sector(n_sites, n_excitations), masks, reflected)


def _base_meta(cfg: RunConfig, **extra) -> dict:
    meta = {
        "package": f"spinchain {__version__}",
        "config_hash": cfg.config_hash(),
        "n_sites": cfg.n_sites,
        "j0": cfg.j0,
        "initial_state": cfg.initial_state if cfg.initial_state == "neel"
        else f"single:{cfg.resolved_site()}",
        "kac_rescaled": cfg.kac_rescaled,
        "t_max": cfg.t_max,
        "n_points": cfg.n_points,
    }
    meta.update(extra)
    return meta


# -- the sweep skeleton ---------------------------------------------------------

def _exponent(cfg: RunConfig, rows, scan: bool, label: str, spec: ModelSpec):
    """Columns of one exponent (alpha, t, t_kac, then the reducer's) and its extra."""
    coupling = coupling_matrix(spec)
    grid = _grid(cfg)
    t = grid / coupling.kac if cfg.kac_rescaled else grid
    # resolved again rather than shipped to a worker: an enumerated family
    # comes from enumerate_partitions' cache, which a forked worker inherits
    try:
        columns, extra = rows(cfg, cfg.partition_set(scan), coupling, t)
    except NumericalConsistencyError as exc:
        raise NumericalConsistencyError(f"{exc} (alpha={label})") from exc
    return {"alpha": [label] * len(t), "t": t.tolist(),
            "t_kac": (t * coupling.kac).tolist(), **columns}, extra


def _sweep(cfg: RunConfig, rows, column_order, scan: bool, insets=()):
    """Run the reducer ``rows`` for every sweep exponent, then every inset.

    ``scan`` says whether the runner takes a partition family (see
    RunConfig.partition_set).  Returns the partition set, the sweep
    exponents' columns stacked in ``column_order``, and the (label, extra)
    pair of every exponent, insets last.
    """
    pset = cfg.partition_set(scan)
    sweep = cfg.sweep()
    exponents = sweep + list(insets)
    results = _pmap(_exponent, [(cfg, rows, scan, label, spec) for label, spec in exponents])
    stacked = {name: [] for name in column_order}
    for columns, _ in results[:len(sweep)]:
        for name in column_order:
            stacked[name] += columns[name]
    return pset, stacked, [(label, extra) for (label, _), (_, extra) in zip(exponents, results)]


def _table(cfg: RunConfig, coupling, times, pset: PartitionSet, *extra_masks):
    """Subset-entropy table with a row per mask and a column per time.

    The initial state of ``cfg`` is quenched under ``coupling``; the table
    holds the masks ``pset`` reads plus ``extra_masks``.  A reflection
    invariant quench (every Neel quench) evaluates one of each mirror pair.
    The size guards run before the plan is built, and the plan before any
    propagation, so a refusal costs neither.
    """
    basis, psi0 = _initial_state(cfg)
    check_sizes(coupling, basis, len(times))
    plan = _plan_for(basis, pset, *extra_masks,
                     reflected=reflection_invariant(coupling, psi0))
    traj = evolve(coupling, basis, psi0, times)
    values = np.column_stack([plan.evaluate(state).values for state in traj.states])
    return SubsetEntropyTable(basis.n_sites, plan.mask_array, values)


# -- tmi-grid ----------------------------------------------------------------

def _grid_rows(cfg: RunConfig, pset: PartitionSet, coupling, times):
    return {"tmi": pset.tmi_values(_table(cfg, coupling, times, pset))[0].tolist()}, None


def run_tmi_grid(cfg: RunConfig) -> list:
    """TMI(alpha, t) of one partition triple (contiguous quarters by default)."""
    pset, columns, _ = _sweep(cfg, _grid_rows, (*_TIME_COLUMNS, "tmi"), scan=False)
    a, b, c = pset[0]
    onset = lightcone_onset(cfg.sweep()[0][1], (a, b, c))
    columns["lightcone_onset"] = [onset] * len(columns["tmi"])
    meta = _base_meta(
        cfg, partition_a=a, partition_b=b, partition_c=c,
        lightcone_onset=onset,
        onset_convention="max over subset pairs of minimal inter-site distance, over 4*j0",
    )
    return [Dataset(name="tmi_grid", meta=meta, columns=columns)]


# -- tmi-vs-entropy ----------------------------------------------------------

def _half_mask(cfg: RunConfig) -> int:
    return (1 << (cfg.n_sites // 2)) - 1


def _entropy_rows(cfg: RunConfig, pset: PartitionSet, coupling, times):
    half = _half_mask(cfg)
    table = _table(cfg, coupling, times, pset, half)
    return {"tmi": pset.tmi_values(table)[0].tolist(),
            "half_chain_entropy": table.gather(half).tolist()}, None


def run_tmi_vs_entropy(cfg: RunConfig) -> list:
    """Quarter-partition TMI and half-chain entropy per coupling exponent."""
    pset, columns, _ = _sweep(cfg, _entropy_rows,
                              ("alpha", "t_kac", "t", "tmi", "half_chain_entropy"), scan=False)
    a, b, c = pset[0]
    meta = _base_meta(cfg, partition_a=a, partition_b=b, partition_c=c,
                      half_chain_mask=_half_mask(cfg))
    return [Dataset(name="tmi_vs_entropy", meta=meta, columns=columns)]


# -- minmax-scan --------------------------------------------------------------

_MINMAX_COLUMNS = ("min_tmi", "min_tmi_proper", "max_tmi",
                   "argmin_a", "argmin_b", "argmin_c", "argmax_a", "argmax_b", "argmax_c")


def _minmax_rows(cfg: RunConfig, pset: PartitionSet, coupling, times):
    scan = tmi_extrema(pset, _table(cfg, coupling, times, pset), times, proper=True)
    proper = scan.min_proper
    columns = {"min_tmi": scan.min_values.tolist(), "max_tmi": scan.max_values.tolist(),
               "min_tmi_proper": [None] * len(times) if proper is None else proper.tolist()}
    for side, j in (("argmin", scan.argmin), ("argmax", scan.argmax)):
        for part, masks in zip("abc", (pset.a, pset.b, pset.c)):
            columns[f"{side}_{part}"] = masks[j].tolist()
    # tau in the configured units: the grid itself, as times * K differs by roundoff
    tau = tau_sign_change(_grid(cfg), columns["min_tmi"], cfg.tau_threshold)
    return columns, (max(columns["max_tmi"]), tau)


def run_minmax_scan(cfg: RunConfig) -> list:
    """Extremal TMI over a partition scan, plus peak/onset summaries.

    Alongside the scan-wide extrema, min_tmi_proper tracks the minimum
    over proper four-part splits only; triples that cover the whole chain
    have identically zero TMI and would pin the plain minimum at zero.
    The summary covers the sweep exponents and any extra scan.inset_alphas:
    per exponent, the largest max-TMI in the window and the first time tau
    at which the minimal TMI turns negative (None when it never does).
    """
    main_labels = [label for label, _ in cfg.sweep()]
    insets = [(f"{a:g}", ModelSpec(cfg.n_sites, j0=cfg.j0, alpha=a))
              for a in cfg.inset_alphas if f"{a:g}" not in main_labels]
    pset, columns, extras = _sweep(cfg, _minmax_rows, (*_TIME_COLUMNS, *_MINMAX_COLUMNS),
                                   scan=True, insets=insets)
    summary = {"alpha": [label for label, _ in extras],
               "peak_max_tmi": [peak for _, (peak, _) in extras],
               "tau": [tau for _, (_, tau) in extras]}
    meta = _base_meta(cfg, strategy=pset.strategy, n_partitions=pset.family_size,
                      n_proper_partitions=pset.family_size - pset.n_covering,
                      tau_threshold=cfg.tau_threshold)
    return [
        Dataset(name="minmax_scan", meta=meta, columns=columns),
        Dataset(name="minmax_summary", meta=meta, columns=summary),
    ]


# -- onebody-scan --------------------------------------------------------------

def _onebody_rows(cfg: RunConfig, pset: PartitionSet, coupling, times):
    basis, psi0 = _initial_state(cfg)
    # k=1 basis states ascend as 1 << site, so column m is site m
    occupations = np.abs(evolve(coupling, basis, psi0, times).states) ** 2
    scan = onebody_tmi_scan(occupations, times, pset)
    columns = {"min_tmi": scan.min_values.tolist(), "max_tmi": scan.max_values.tolist()}
    for m in range(cfg.n_sites):
        columns[f"p{m}"] = occupations[:, m].tolist()
    i = int(np.argmin(scan.min_values))
    return columns, (float(_grid(cfg)[i]), float(scan.min_values[i]),
                     pset[int(scan.argmin[i])])


def run_onebody_scan(cfg: RunConfig) -> list:
    """Single-excitation TMI extrema with occupation-weight trajectories.

    Asserts the closed-form nonnegativity: any partition TMI below
    -1e-10 aborts the run with the offending time and triple.
    """
    if cfg.initial_state != "single":
        raise ConfigError(
            "initial.state: the onebody scan needs a single-excitation state "
            "(state = single[:site])")
    pset, columns, extras = _sweep(cfg, _onebody_rows,
                                   (*_TIME_COLUMNS, "min_tmi", "max_tmi",
                                    *(f"p{m}" for m in range(cfg.n_sites))), scan=True)
    for label, (t_min, v_min, masks) in extras:
        if v_min < -ONEBODY_TMI_FLOOR:
            raise NumericalConsistencyError(
                f"TMI {v_min} below -{ONEBODY_TMI_FLOOR} at alpha={label}, "
                f"t={t_min}, partition masks={masks}")
    meta = _base_meta(cfg, strategy=pset.strategy, n_partitions=pset.family_size,
                      site=cfg.resolved_site(), tmi_floor=ONEBODY_TMI_FLOOR)
    return [Dataset(name="onebody_scan", meta=meta, columns=columns)]


# -- validate ------------------------------------------------------------------

def _check_dynamics_oracle():
    from . import reference
    worst = 0.0
    times = np.array([0.7, 1.9])
    for spec in (ModelSpec(6, alpha=0.7), ModelSpec(6, nn_limit=True)):
        coupling = coupling_matrix(spec)
        for k in (1, 3):
            basis = enumerate_sector(6, k)
            psi0 = neel_state(basis) if k == 3 else single_excitation_state(basis, 2)
            traj = evolve(coupling, basis, psi0, times)
            full = reference.evolve_full(coupling, reference.embed_state(psi0), times)
            for i in range(len(times)):
                dev = np.max(np.abs(full[i][basis.states] - traj.states[i]))
                worst = max(worst, float(dev))
    return worst < 1e-9, f"max amplitude deviation {worst:.3g}"


def _evolved_test_table():
    """Subset-entropy table and full-space vector of one evolved N=6 state."""
    from . import reference
    basis = enumerate_sector(6, 3)
    traj = evolve(coupling_matrix(ModelSpec(6, alpha=0.7)), basis, neel_state(basis),
                  np.array([1.3]))
    psi = traj.state_at(0)
    return subset_entropy_table(psi), reference.embed_state(psi)


def _check_entropy_oracle():
    from . import reference
    table, full = _evolved_test_table()
    worst = max(
        abs(table[m] - reference.subset_entropy_full(full, 6, m))
        for m in range(1 << 6)
    )
    return worst < 1e-9, f"max entropy deviation {worst:.3g} over 64 subsets"


def _check_tmi_oracle():
    from . import reference
    table, full = _evolved_test_table()
    worst = 0.0
    triples = [(0b000001, 0b000010, 0b000100), (0b001001, 0b000010, 0b110000),
               (0b000011, 0b001100, 0b110000)]
    for a, b, c in triples:
        worst = max(worst, abs(mutual_information(table, a, b)
                               - reference.mutual_information_full(full, 6, a, b)))
        worst = max(worst, abs(tmi(table, a, b, c)
                               - reference.tmi_full(full, 6, a, b, c)))
    return worst < 1e-9, f"max MI/TMI deviation {worst:.3g}"


def _check_onebody_oracle():
    basis = enumerate_sector(8, 1)
    psi = evolve(coupling_matrix(ModelSpec(8, alpha=0.5)), basis,
                 single_excitation_state(basis, 3), np.array([2.1])).state_at(0)
    # k=1 basis states ascend as 1 << site, so site amplitudes map directly
    amps = psi.amplitudes
    table = subset_entropy_table(psi)
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(5):
        sites = rng.permutation(8)
        a, b, c = (int(1 << sites[0] | 1 << sites[1]), int(1 << sites[2]),
                   int(1 << sites[3] | 1 << sites[4]))
        w = occupation_weights(amps, a, b, c)
        worst = max(worst, abs(tmi_binary(*w) - tmi(table, a, b, c)))
    return worst < 1e-9, f"max closed-form vs pipeline deviation {worst:.3g}"


def _check_simplex():
    scan = simplex_scan(0.01)
    target = 4.0 * (2.0 - 0.75 * np.log2(3.0)) - 3.0  # 4 H(1/4) - 3
    ok = (scan.min_value == 0.0
          and abs(scan.max_value - target) < 1e-9
          and max(abs(p - 0.25) for p in scan.argmax) <= 0.01)
    return ok, (f"min {scan.min_value}, max {scan.max_value:.12g} at "
                f"{tuple(round(p, 4) for p in scan.argmax)}")


def validate_suite(write=print) -> bool:
    """Quick oracle cross-checks; prints one PASS/FAIL line per check."""
    checks = [
        ("sector evolution vs full-space evolution (N=6)", _check_dynamics_oracle),
        ("subset entropies vs full-space partial traces (N=6)", _check_entropy_oracle),
        ("MI/TMI vs full-space values (N=6)", _check_tmi_oracle),
        ("k=1 closed form vs general pipeline (N=8)", _check_onebody_oracle),
        ("simplex extrema of the k=1 TMI", _check_simplex),
    ]
    all_ok = True
    for name, fn in checks:
        ok, detail = fn()
        all_ok &= ok
        write(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return all_ok
