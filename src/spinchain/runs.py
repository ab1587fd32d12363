"""Experiment runners: sweep orchestration behind the CLI subcommands.

Each runner maps a RunConfig to one or more Datasets.  Sweeps over the
coupling exponent fan out to a process pool when SPINCHAIN_THREADS asks
for one; results are collected in sweep order either way, so the emitted
files do not depend on the worker count.
"""

import os
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache

import numpy as np

from . import __version__
from .config import RunConfig
from .datasets import Dataset
from .entropy import (EntropyTablePlan, SiteSubset, mutual_information,
                      subset_entropy_table, tmi)
from .errors import ConfigError, NumericalConsistencyError
from .model import (ModelSpec, StateVector, coupling_matrix, enumerate_sector,
                    neel_state, single_excitation_state)
from .onebody import occupation_weights, onebody_tmi_scan, simplex_scan, tmi_binary
from .partitions import (PartitionSet, PartitionTriple, TmiSeries, contiguous_quarters,
                         enumerate_partitions, extrema, lightcone_onset,
                         parse_strategy, tau_sign_change)
from .propagate import TimeGrid, evolve, onebody_amplitudes

# Nonnegativity floor asserted by the 1-excitation scan.
ONEBODY_TMI_FLOOR = 1e-10

__all__ = [
    "run_tmi_grid", "run_tmi_vs_entropy", "run_minmax_scan",
    "run_onebody_scan", "thread_count",
]


def thread_count() -> int:
    """Worker-pool size from SPINCHAIN_THREADS (default 1: serial)."""
    raw = os.environ.get("SPINCHAIN_THREADS", "1").strip()
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"SPINCHAIN_THREADS must be an integer, got {raw!r}") from None
    return max(n, 1)


def _pmap(fn, items):
    items = list(items)
    if thread_count() <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    workers = min(thread_count(), len(items))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # pool.map preserves submission order, keeping output deterministic
        return list(pool.map(fn, items))


def _time_grid(cfg: RunConfig) -> TimeGrid:
    return TimeGrid.linspace(cfg.t_max, cfg.n_points, kac_rescaled=cfg.kac_rescaled)


def _initial_state(cfg: RunConfig):
    if cfg.initial_state == "neel":
        basis = enumerate_sector(cfg.n_sites, cfg.n_sites // 2)
        return basis, neel_state(basis)
    basis = enumerate_sector(cfg.n_sites, 1)
    return basis, single_excitation_state(basis, cfg.resolved_site())


def _grid_triple(cfg: RunConfig):
    """Partition triple of the single-partition runners."""
    if cfg.subset_a is not None:
        return PartitionTriple(
            SiteSubset.from_sites(cfg.n_sites, cfg.subset_a),
            SiteSubset.from_sites(cfg.n_sites, cfg.subset_b),
            SiteSubset.from_sites(cfg.n_sites, cfg.subset_c),
        )
    return contiguous_quarters(cfg.n_sites)


def _plan_for(basis, pset: PartitionSet, *extra) -> EntropyTablePlan:
    """Plan over the masks a partition set reads, plus ``extra`` masks."""
    # a presence table, not np.unique: 2.5M triples make 17.7M lookups
    seen = np.zeros(1 << basis.n_sites, dtype=bool)
    for lookup in (*pset.lookup_masks, list(extra)):
        seen[lookup] = True
    masks = tuple(np.flatnonzero(seen).tolist())
    return _cached_plan(basis.n_sites, basis.n_excitations, masks)


@lru_cache(maxsize=1)
def _cached_plan(n_sites: int, n_excitations: int, masks: tuple) -> EntropyTablePlan:
    # one plan per process: every exponent of a sweep reuses it
    return EntropyTablePlan(enumerate_sector(n_sites, n_excitations), masks)


def _scan_partitions(cfg: RunConfig) -> PartitionSet:
    if cfg.strategy.strip().lower() == "quarters":
        return PartitionSet.from_triples([contiguous_quarters(cfg.n_sites)])
    strategy, sizes = parse_strategy(cfg.strategy)
    return enumerate_partitions(cfg.n_sites, strategy,
                                cfg.sizes if cfg.sizes else sizes)


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


# -- tmi-grid ----------------------------------------------------------------

def _task_tmi_grid(args):
    cfg, label, spec = args
    coupling = coupling_matrix(spec)
    grid = _time_grid(cfg)
    basis, psi0 = _initial_state(cfg)
    traj = evolve(coupling, basis, psi0, grid)
    pset = PartitionSet.from_triples([_grid_triple(cfg)])
    plan = _plan_for(basis, pset)
    vals = np.array([pset.tmi_values(plan.evaluate(state))[0] for state in traj.states])
    t = grid.physical_times(coupling.kac)
    return label, t, t * coupling.kac, vals


def run_tmi_grid(cfg: RunConfig) -> list:
    """TMI(alpha, t) of one partition triple (contiguous quarters by default)."""
    sweep = cfg.sweep()
    results = _pmap(_task_tmi_grid, [(cfg, label, spec) for label, spec in sweep])
    triple = _grid_triple(cfg)
    onset = lightcone_onset(sweep[0][1], triple)
    alpha_col, t_col, tk_col, tmi_col = [], [], [], []
    for label, t, tk, vals in results:
        alpha_col += [label] * len(t)
        t_col += t.tolist()
        tk_col += tk.tolist()
        tmi_col += vals.tolist()
    meta = _base_meta(
        cfg,
        partition_a=triple.a.mask, partition_b=triple.b.mask, partition_c=triple.c.mask,
        lightcone_onset=onset,
        onset_convention="max over subset pairs of minimal inter-site distance, over 4*j0",
    )
    data = Dataset(
        name="tmi_grid", meta=meta,
        columns={
            "alpha": alpha_col, "t": t_col, "t_kac": tk_col, "tmi": tmi_col,
            "lightcone_onset": [onset] * len(t_col),
        },
    )
    return [data]


# -- tmi-vs-entropy ----------------------------------------------------------

def _task_tmi_vs_entropy(args):
    cfg, label, spec = args
    coupling = coupling_matrix(spec)
    grid = _time_grid(cfg)
    basis, psi0 = _initial_state(cfg)
    traj = evolve(coupling, basis, psi0, grid)
    pset = PartitionSet.from_triples([_grid_triple(cfg)])
    half_mask = (1 << (cfg.n_sites // 2)) - 1
    plan = _plan_for(basis, pset, half_mask)
    tables = [plan.evaluate(state) for state in traj.states]
    tmi_vals = np.array([pset.tmi_values(table)[0] for table in tables])
    s_half = np.array([table[half_mask] for table in tables])
    t = grid.physical_times(coupling.kac)
    return label, t, t * coupling.kac, tmi_vals, s_half


def run_tmi_vs_entropy(cfg: RunConfig) -> list:
    """Quarter-partition TMI and half-chain entropy per coupling exponent."""
    sweep = cfg.sweep()
    results = _pmap(_task_tmi_vs_entropy, [(cfg, label, spec) for label, spec in sweep])
    triple = _grid_triple(cfg)
    cols = {"alpha": [], "t_kac": [], "t": [], "tmi": [], "half_chain_entropy": []}
    for label, t, tk, tmi_vals, s_half in results:
        cols["alpha"] += [label] * len(t)
        cols["t_kac"] += tk.tolist()
        cols["t"] += t.tolist()
        cols["tmi"] += tmi_vals.tolist()
        cols["half_chain_entropy"] += s_half.tolist()
    meta = _base_meta(
        cfg,
        partition_a=triple.a.mask, partition_b=triple.b.mask, partition_c=triple.c.mask,
        half_chain_mask=(1 << (cfg.n_sites // 2)) - 1,
    )
    return [Dataset(name="tmi_vs_entropy", meta=meta, columns=cols)]


# -- minmax-scan --------------------------------------------------------------

def _task_minmax(args):
    cfg, label, spec = args
    coupling = coupling_matrix(spec)
    grid = _time_grid(cfg)
    basis, psi0 = _initial_state(cfg)
    traj = evolve(coupling, basis, psi0, grid)
    pset = _scan_partitions(cfg)
    plan = _plan_for(basis, pset)
    proper = ~pset.covers_chain
    n_t = len(grid)
    min_vals = np.empty(n_t)
    max_vals = np.empty(n_t)
    min_proper = np.full(n_t, np.nan)
    argmin = np.empty((n_t, 3), dtype=np.int64)
    argmax = np.empty((n_t, 3), dtype=np.int64)
    for i in range(n_t):
        table = plan.evaluate(traj.states[i])
        vals = pset.tmi_values(table)
        min_vals[i], j_min, max_vals[i], j_max = extrema(vals)
        if proper.any():
            min_proper[i] = vals[proper].min()
        argmin[i] = (pset.a[j_min], pset.b[j_min], pset.c[j_min])
        argmax[i] = (pset.a[j_max], pset.b[j_max], pset.c[j_max])
    series = TmiSeries(grid=grid, min_values=min_vals, max_values=max_vals,
                       meta={"alpha": label})
    tau = tau_sign_change(series, threshold=cfg.tau_threshold)
    t = grid.physical_times(coupling.kac)
    return (label, t, t * coupling.kac, min_vals, max_vals, min_proper,
            argmin, argmax, float(np.max(max_vals)), tau)


def run_minmax_scan(cfg: RunConfig) -> list:
    """Extremal TMI over a partition scan, plus peak/onset summaries.

    Alongside the scan-wide extrema, min_tmi_proper tracks the minimum
    over proper four-part splits only; triples that cover the whole chain
    have identically zero TMI and would pin the plain minimum at zero.
    The summary covers the sweep exponents and any extra scan.inset_alphas:
    per exponent, the largest max-TMI in the window and the first time tau
    at which the minimal TMI turns negative (None when it never does).
    """
    sweep = cfg.sweep()
    main_labels = [label for label, _ in sweep]
    extra = [(f"{a:g}", ModelSpec(cfg.n_sites, j0=cfg.j0, alpha=a))
             for a in cfg.inset_alphas if f"{a:g}" not in main_labels]
    results = _pmap(_task_minmax, [(cfg, label, spec) for label, spec in sweep + extra])

    pset = _scan_partitions(cfg)
    cols = {k: [] for k in ("alpha", "t", "t_kac", "min_tmi", "min_tmi_proper",
                            "max_tmi",
                            "argmin_a", "argmin_b", "argmin_c",
                            "argmax_a", "argmax_b", "argmax_c")}
    summary = {"alpha": [], "peak_max_tmi": [], "tau": []}
    for res in results:
        label, t, tk, min_vals, max_vals, min_proper, argmin, argmax, peak, tau = res
        if label in main_labels:
            cols["alpha"] += [label] * len(t)
            cols["t"] += t.tolist()
            cols["t_kac"] += tk.tolist()
            cols["min_tmi"] += min_vals.tolist()
            cols["min_tmi_proper"] += [
                None if np.isnan(v) else v for v in min_proper
            ]
            cols["max_tmi"] += max_vals.tolist()
            for j, key in enumerate(("argmin_a", "argmin_b", "argmin_c")):
                cols[key] += argmin[:, j].tolist()
            for j, key in enumerate(("argmax_a", "argmax_b", "argmax_c")):
                cols[key] += argmax[:, j].tolist()
        summary["alpha"].append(label)
        summary["peak_max_tmi"].append(peak)
        summary["tau"].append(tau)
    meta = _base_meta(cfg, strategy=pset.strategy, n_partitions=len(pset),
                      n_proper_partitions=int((~pset.covers_chain).sum()),
                      tau_threshold=cfg.tau_threshold)
    return [
        Dataset(name="minmax_scan", meta=meta, columns=cols),
        Dataset(name="minmax_summary", meta=meta, columns=summary),
    ]


# -- onebody-scan --------------------------------------------------------------

def _task_onebody(args):
    cfg, label, spec = args
    coupling = coupling_matrix(spec)
    grid = _time_grid(cfg)
    pset = _scan_partitions(cfg)
    scan = onebody_tmi_scan(coupling, cfg.resolved_site(), grid, pset)
    t = grid.physical_times(coupling.kac)
    t_min, v_min, triple = scan.global_min()
    return (label, t, t * coupling.kac, scan.min_values, scan.max_values,
            scan.meta["occupations"], t_min, v_min,
            triple.masks() if triple is not None else None)


def run_onebody_scan(cfg: RunConfig) -> list:
    """Single-excitation TMI extrema with occupation-weight trajectories.

    Asserts the closed-form nonnegativity: any partition TMI below
    -1e-10 aborts the run with the offending time and triple.
    """
    if cfg.initial_state != "single":
        raise ConfigError(
            "initial.state: the onebody scan needs a single-excitation state "
            "(state = single[:site])")
    sweep = cfg.sweep()
    results = _pmap(_task_onebody, [(cfg, label, spec) for label, spec in sweep])
    for label, _, _, _, _, _, t_min, v_min, masks in results:
        if v_min < -ONEBODY_TMI_FLOOR:
            raise NumericalConsistencyError(
                f"TMI {v_min} below -{ONEBODY_TMI_FLOOR} at alpha={label}, "
                f"t={t_min}, partition masks={masks}")
    n = cfg.n_sites
    cols = {k: [] for k in ("alpha", "t", "t_kac", "min_tmi", "max_tmi")}
    for m in range(n):
        cols[f"p{m}"] = []
    for label, t, tk, min_vals, max_vals, occ, *_ in results:
        cols["alpha"] += [label] * len(t)
        cols["t"] += t.tolist()
        cols["t_kac"] += tk.tolist()
        cols["min_tmi"] += min_vals.tolist()
        cols["max_tmi"] += max_vals.tolist()
        for m in range(n):
            cols[f"p{m}"] += occ[:, m].tolist()
    pset = _scan_partitions(cfg)
    meta = _base_meta(cfg, strategy=pset.strategy, n_partitions=len(pset),
                      site=cfg.resolved_site(), tmi_floor=ONEBODY_TMI_FLOOR)
    return [Dataset(name="onebody_scan", meta=meta, columns=cols)]


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
            traj = evolve(coupling, basis, psi0, TimeGrid(times))
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
                  TimeGrid(np.array([1.3])))
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
    coupling = coupling_matrix(ModelSpec(8, alpha=0.5))
    amps = onebody_amplitudes(coupling, 3, np.array([2.1]))[0]
    basis = enumerate_sector(8, 1)
    # k=1 basis states ascend as 1 << site, so site amplitudes map directly
    table = subset_entropy_table(StateVector(basis, amps))
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(5):
        sites = rng.permutation(8)
        a, b, c = (int(1 << sites[0] | 1 << sites[1]), int(1 << sites[2]),
                   int(1 << sites[3] | 1 << sites[4]))
        w = occupation_weights(amps, a, b, c)
        worst = max(worst, abs(tmi_binary(w) - tmi(table, a, b, c)))
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
