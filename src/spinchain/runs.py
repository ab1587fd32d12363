"""Experiment runners: sweep orchestration behind the CLI subcommands.

Every runner is one loop over the coupling exponents.  What they share is
set up once per run by ``_setup``, in this order: the partition set from
``RunConfig.partition_set`` (a partition setting the runner cannot honour
is refused before any work), the initial state, the propagation size
guard, and one entropy plan over the masks the set reads plus the
runner's extra masks, reflected when every exponent's quench is
reflection invariant.  So a refusal costs neither a plan nor a product.
``_sweep`` runs the set-up, then maps ``_exponent`` over the exponents,
in a process pool when SPINCHAIN_THREADS asks for one; the pool's forked
workers inherit the cached set-up.  ``_exponent`` builds an exponent's
coupling and physical times (the configured grid, divided by the Kac
constant when ``kac_rescaled`` is set: the one place Kac units are
converted), evolves the state, evaluates the plan into a time-batched
table (a column per time) and calls the runner's reducer, a module-level
``rows(cfg, pset, table, states, times) -> (columns, extra)``; ``extra``
carries what the runner needs beyond per-time columns.  The columns are
stacked in sweep order either way, so the emitted files do not depend on
the worker count.
The module holds the runners alone: the oracles and the checks behind
the CLI's ``validate`` live in ``reference``, which no runner imports.
"""

import os
from functools import lru_cache

import numpy as np

from . import __version__
from .config import RunConfig
from .datasets import Dataset
from .entropy import EntropyTablePlan
from .errors import ConfigError, NumericalConsistencyError
from .model import (ModelSpec, coupling_matrix, enumerate_sector, neel_state,
                    reflection_invariant, single_excitation_state)
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
    # imported here: a serial run never loads the process pool machinery
    from concurrent.futures import ProcessPoolExecutor

    workers = min(thread_count(), len(items))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # pool.map preserves submission order, keeping output deterministic
        return list(pool.map(fn, *zip(*items)))


def _grid(cfg: RunConfig) -> np.ndarray:
    """The configured sample times: t, or t * K when Kac rescaled."""
    return np.linspace(0.0, cfg.t_max, cfg.n_points)


def _initial_state(cfg: RunConfig):
    if cfg.initial_state == "neel":
        return neel_state(enumerate_sector(cfg.n_sites, cfg.n_sites // 2))
    return single_excitation_state(enumerate_sector(cfg.n_sites, 1), cfg.resolved_site())


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

@lru_cache(maxsize=1)
def _setup(cfg: RunConfig, scan: bool, extra_masks: tuple, insets: tuple):
    """The partition set, initial state and entropy plan a run shares.

    ``scan`` says whether the runner takes a partition family (see
    RunConfig.partition_set).  The plan covers the masks the set reads
    plus ``extra_masks``, and is reflected when the quench of every
    exponent, ``insets`` too, is reflection invariant (every Neel quench
    is).  The size guards run before the plan is built, so a refusal
    costs no plan.  One set-up per process: every exponent of a sweep,
    in a forked worker too, reuses it.
    """
    pset = cfg.partition_set(scan)
    psi0 = _initial_state(cfg)
    couplings = [coupling_matrix(spec) for _, spec in cfg.sweep() + list(insets)]
    check_sizes(couplings[0], psi0.basis, cfg.n_points)
    reflected = all(reflection_invariant(coupling, psi0) for coupling in couplings)
    # a plain concatenation: the plan keeps one representative per orbit
    masks = pset.read_masks.tolist() + list(extra_masks)
    return pset, psi0, EntropyTablePlan(psi0.basis, masks, reflected)


def _exponent(cfg: RunConfig, rows, scan: bool, extra_masks: tuple, insets: tuple,
              label: str, spec: ModelSpec):
    """Columns of one exponent (alpha, t, t_kac, then the reducer's) and its extra."""
    pset, psi0, plan = _setup(cfg, scan, extra_masks, insets)
    coupling = coupling_matrix(spec)
    grid = _grid(cfg)
    t = grid / coupling.kac if cfg.kac_rescaled else grid
    try:
        states = evolve(coupling, psi0, t)
        columns, extra = rows(cfg, pset, plan.evaluate(states), states, t)
    except NumericalConsistencyError as exc:
        raise NumericalConsistencyError(f"{exc} (alpha={label})") from exc
    return {"alpha": [label] * len(t), "t": t.tolist(),
            "t_kac": (t * coupling.kac).tolist(), **columns}, extra


def _sweep(cfg: RunConfig, rows, column_order, scan: bool, extra_masks=(), insets=()):
    """Run the reducer ``rows`` for every sweep exponent, then every inset.

    Sets the run up (``_setup``) before any exponent runs.  Returns the
    partition set, the sweep exponents' columns stacked in
    ``column_order``, and the (label, extra) pair of every exponent,
    insets last.
    """
    pset = _setup(cfg, scan, extra_masks, insets)[0]
    sweep = cfg.sweep()
    exponents = sweep + list(insets)
    results = _pmap(_exponent, [(cfg, rows, scan, extra_masks, insets, label, spec)
                                for label, spec in exponents])
    stacked = {name: [] for name in column_order}
    for columns, _ in results[:len(sweep)]:
        for name in column_order:
            stacked[name] += columns[name]
    return pset, stacked, [(label, extra) for (label, _), (_, extra) in zip(exponents, results)]


# -- tmi-grid ----------------------------------------------------------------

def _grid_rows(cfg: RunConfig, pset: PartitionSet, table, states, times):
    return {"tmi": pset.tmi_values(table)[0].tolist()}, None


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


def _entropy_rows(cfg: RunConfig, pset: PartitionSet, table, states, times):
    return {"tmi": pset.tmi_values(table)[0].tolist(),
            "half_chain_entropy": table.gather(_half_mask(cfg)).tolist()}, None


def run_tmi_vs_entropy(cfg: RunConfig) -> list:
    """Quarter-partition TMI and half-chain entropy per coupling exponent."""
    pset, columns, _ = _sweep(cfg, _entropy_rows,
                              ("alpha", "t_kac", "t", "tmi", "half_chain_entropy"), scan=False,
                              extra_masks=(_half_mask(cfg),))
    a, b, c = pset[0]
    meta = _base_meta(cfg, partition_a=a, partition_b=b, partition_c=c,
                      half_chain_mask=_half_mask(cfg))
    return [Dataset(name="tmi_vs_entropy", meta=meta, columns=columns)]


# -- minmax-scan --------------------------------------------------------------

_MINMAX_COLUMNS = ("min_tmi", "min_tmi_proper", "max_tmi",
                   "argmin_a", "argmin_b", "argmin_c", "argmax_a", "argmax_b", "argmax_c")


def _minmax_rows(cfg: RunConfig, pset: PartitionSet, table, states, times):
    scan = tmi_extrema(pset, table, times, proper=True)
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
    insets = tuple((f"{a:g}", ModelSpec(cfg.n_sites, j0=cfg.j0, alpha=a))
                   for a in cfg.inset_alphas if f"{a:g}" not in main_labels)
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

def _onebody_rows(cfg: RunConfig, pset: PartitionSet, table, states, times):
    scan = tmi_extrema(pset, table, times)
    # k=1 basis states ascend as 1 << site, so column m is site m
    occupations = np.abs(states) ** 2
    columns = {"min_tmi": scan.min_values.tolist(), "max_tmi": scan.max_values.tolist()}
    for m in range(cfg.n_sites):
        columns[f"p{m}"] = occupations[:, m].tolist()
    i = int(np.argmin(scan.min_values))
    return columns, (float(_grid(cfg)[i]), float(scan.min_values[i]),
                     pset[int(scan.argmin[i])])


def run_onebody_scan(cfg: RunConfig) -> list:
    """Single-excitation TMI extrema with occupation-weight trajectories.

    The extrema come from the same entropy table and scan as minmax-scan.
    Asserts the nonnegativity the k=1 closed form proves: any partition
    TMI below -1e-10 aborts the run with the offending time and triple.
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
