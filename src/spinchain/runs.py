"""Experiment runners: sweep orchestration behind the CLI subcommands.

Every runner is one pass over the coupling exponents.  What they share is
set up once per run by ``_setup``, in this order: the partition set from
``RunConfig.partition_set`` (a partition setting the runner cannot honour
is refused before any work; an assignment family comes streamed, never
stored), the initial state, the propagation size guard, the masks the
set reads (listed under a guard of their own), the guard on what a
worker holds (a streamed family's label tables, the read masks, its
exponents' stacked entropy tables, and the chunk buffers and records of
``tmi_extrema``), and one entropy plan over the read masks plus the
runner's extra masks, reflected when every exponent's quench is
reflection invariant.  So a refusal costs neither a plan nor a product.
``_sweep`` runs the set-up, then splits the exponents, insets last, into
min(SPINCHAIN_THREADS, exponents) contiguous groups and maps ``_group``
over them, in a forked process pool when there are two or more; the
workers inherit the cached set-up and the family's label tables.
``_group`` takes its exponents in turn: ``_exponent`` builds each one's
coupling and physical times (the configured grid, divided by the Kac
constant when ``kac_rescaled`` is set: the one place Kac units are
converted), evolves the state, evaluates the plan into a time-batched
table (a column per time) and keeps the table, and the occupations when
the runner asks for them, but not the states.  The group's tables are
stacked column-wise and the runner's reducer,
``rows(cfg, pset, table, exponents) -> (columns, extras)``, runs once
over them: a scan reads its family once per worker, for all of the
worker's exponents.  The reducer cuts what it reports per exponent (an
``extras`` entry each) from the stacked columns by the exponent's column
range.  Each column keeps its own arithmetic and tie rule, and the
columns are stacked in sweep order, so the emitted files do not depend on
the worker count.
The module holds the runners alone: the oracles and the checks behind
the CLI's ``validate`` live in ``reference``, which no runner imports.
"""

import os
from collections import namedtuple
from functools import lru_cache

import numpy as np

from . import __version__
from .config import RunConfig
from .datasets import Dataset
from .entropy import EntropyTablePlan, SubsetEntropyTable
from .errors import ConfigError, NumericalConsistencyError, check_budget
from .model import (ModelSpec, coupling_matrix, enumerate_sector, neel_state,
                    reflection_invariant, single_excitation_state)
from .partitions import (AssignmentFamily, PartitionSet, lightcone_onset, scan_bytes,
                         tau_sign_change, tmi_extrema)
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


def _groups(exponents: list) -> list:
    """``exponents`` cut into min(SPINCHAIN_THREADS, len) contiguous groups, longer ones first."""
    n = min(thread_count(), len(exponents))
    size, longer = divmod(len(exponents), n)
    return [exponents[i * size + min(i, longer):(i + 1) * size + min(i + 1, longer)]
            for i in range(n)]


def _pmap(fn, items):
    """[fn(*item) for item in items], in a process pool when there are two or more."""
    items = list(items)
    if len(items) <= 1:
        return [fn(*item) for item in items]
    # imported here: a serial run never loads the process pool machinery
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # forked whatever the platform's default (forkserver from Python 3.14),
    # so that the workers inherit the run's set-up instead of rebuilding it
    with ProcessPoolExecutor(max_workers=len(items),
                             mp_context=multiprocessing.get_context("fork")) as pool:
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
    costs no plan; a streamed family's label tables are built last.  One
    set-up per process: every group of a sweep, in a forked worker too,
    reuses it.
    """
    pset = cfg.partition_set(scan)
    psi0 = _initial_state(cfg)
    exponents = cfg.sweep() + list(insets)
    couplings = [coupling_matrix(spec) for _, spec in exponents]
    check_sizes(couplings[0], psi0.basis, cfg.n_points)
    read = pset.read_masks
    columns = len(_groups(exponents)[0]) * cfg.n_points
    # the read masks and the plan's input list of them (57 B a mask under
    # tracemalloc), and a table row per mask at most and the zero row: the
    # group's stacked tables, and one exponent's table twice over while it
    # is evaluated, or the tie pass's copy of the columns it places picks in
    n_rows = len(read) + len(extra_masks) + 1
    check_budget(f"a {cfg.n_sites}-site run over {len(pset):,} triples, "
                 f"{columns:,} table columns a worker",
                 pset.layout_bytes + 64 * len(read)
                 + 8 * n_rows * (columns + max(columns, 2 * cfg.n_points))
                 + scan_bytes(len(pset), columns),
                 "in label tables, read masks, entropy tables, chunk buffers and records")
    reflected = all(reflection_invariant(coupling, psi0) for coupling in couplings)
    # a plain concatenation: the plan keeps one representative per orbit
    masks = read.tolist() + list(extra_masks)
    plan = EntropyTablePlan(psi0.basis, masks, reflected)
    if isinstance(pset, AssignmentFamily):
        pset.layout  # its label tables, built before the pool forks: the workers share them
    return pset, psi0, plan


# One exponent of a group: its label, physical times and Kac constant, its
# slice of the group's stacked columns, and its squared amplitudes or None
_Exponent = namedtuple("_Exponent", "label times kac columns occupations")


def _exponent(cfg: RunConfig, psi0, plan, label: str, spec: ModelSpec, occupations: bool):
    """(physical times, Kac constant, entropy table, occupations or None) of one exponent."""
    coupling = coupling_matrix(spec)
    grid = _grid(cfg)
    t = grid / coupling.kac if cfg.kac_rescaled else grid
    try:
        states = evolve(coupling, psi0, t)
        table = plan.evaluate(states)
    except NumericalConsistencyError as exc:
        raise NumericalConsistencyError(f"{exc} (alpha={label})") from exc
    return t, coupling.kac, table, np.abs(states) ** 2 if occupations else None


def _group(cfg: RunConfig, rows, scan: bool, extra_masks: tuple, insets: tuple,
           occupations: bool, group: list):
    """Columns of a group of exponents (alpha, t, t_kac, then the reducer's) and their extras."""
    pset, psi0, plan = _setup(cfg, scan, extra_masks, insets)
    n_t = cfg.n_points
    values = np.empty((len(plan.reps) + 1, n_t * len(group)))
    exponents = []
    for i, (label, spec) in enumerate(group):
        t, kac, table, occ = _exponent(cfg, psi0, plan, label, spec, occupations)
        columns = slice(i * n_t, (i + 1) * n_t)
        values[:, columns] = table.values
        exponents.append(_Exponent(label, t, kac, columns, occ))
    table = SubsetEntropyTable(cfg.n_sites, plan.rows, values)
    columns, extras = rows(cfg, pset, table, exponents)
    return {"alpha": [e.label for e in exponents for _ in e.times],
            "t": [x for e in exponents for x in e.times.tolist()],
            "t_kac": [x for e in exponents for x in (e.times * e.kac).tolist()],
            **columns}, extras


def _sweep(cfg: RunConfig, rows, column_order, scan: bool, extra_masks=(), insets=(),
           occupations: bool = False):
    """Run the reducer ``rows`` over every sweep exponent, then every inset.

    Sets the run up (``_setup``) before any exponent runs; with
    ``occupations`` each exponent keeps its squared amplitudes for the
    reducer.  Returns the partition set, the sweep exponents' columns
    stacked in ``column_order``, and the (label, extra) pair of every
    exponent, insets last.
    """
    pset = _setup(cfg, scan, extra_masks, insets)[0]
    exponents = cfg.sweep() + list(insets)
    results = _pmap(_group, [(cfg, rows, scan, extra_masks, insets, occupations, group)
                             for group in _groups(exponents)])
    # the insets' columns come last, past the sweep's
    n_rows = len(cfg.sweep()) * cfg.n_points
    stacked = {name: [x for columns, _ in results for x in columns[name]][:n_rows]
               for name in column_order}
    extras = [extra for _, group_extras in results for extra in group_extras]
    return pset, stacked, [(label, extra) for (label, _), extra in zip(exponents, extras)]


def _column_names(exponents: list) -> list:
    """Each stacked column's time and exponent, as a non-finite TMI error names them."""
    return [f"{t} (alpha={e.label})" for e in exponents for t in e.times]


# -- tmi-grid ----------------------------------------------------------------

def _grid_rows(cfg: RunConfig, pset: PartitionSet, table, exponents):
    return {"tmi": pset.tmi_values(table)[0].tolist()}, [None] * len(exponents)


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


def _entropy_rows(cfg: RunConfig, pset: PartitionSet, table, exponents):
    return {"tmi": pset.tmi_values(table)[0].tolist(),
            "half_chain_entropy": table.gather(_half_mask(cfg)).tolist()}, [None] * len(exponents)


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


def _minmax_rows(cfg: RunConfig, pset: PartitionSet, table, exponents):
    scan = tmi_extrema(pset, table, _column_names(exponents), proper=True)
    proper = scan.min_proper
    columns = {"min_tmi": scan.min_values.tolist(), "max_tmi": scan.max_values.tolist(),
               "min_tmi_proper": [None] * len(scan.min_values) if proper is None
               else proper.tolist()}
    for side, triples in (("argmin", scan.min_triples), ("argmax", scan.max_triples)):
        for part, masks in zip("abc", triples.T):
            columns[f"{side}_{part}"] = masks.tolist()
    # tau in the configured units: the grid itself, as times * K differs by roundoff
    return columns, [(max(columns["max_tmi"][e.columns]),
                      tau_sign_change(_grid(cfg), columns["min_tmi"][e.columns],
                                      cfg.tau_threshold)) for e in exponents]


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

def _onebody_rows(cfg: RunConfig, pset: PartitionSet, table, exponents):
    scan = tmi_extrema(pset, table, _column_names(exponents))
    # k=1 basis states ascend as 1 << site, so column m is site m
    occupations = np.concatenate([e.occupations for e in exponents])
    columns = {"min_tmi": scan.min_values.tolist(), "max_tmi": scan.max_values.tolist()}
    for m in range(cfg.n_sites):
        columns[f"p{m}"] = occupations[:, m].tolist()
    extras = []
    for e in exponents:
        i = int(np.argmin(scan.min_values[e.columns]))
        j = e.columns.start + i
        extras.append((float(_grid(cfg)[i]), float(scan.min_values[j]),
                       tuple(scan.min_triples[j].tolist())))
    return columns, extras


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
                                    *(f"p{m}" for m in range(cfg.n_sites))), scan=True,
                                   occupations=True)
    for label, (t_min, v_min, masks) in extras:
        if v_min < -ONEBODY_TMI_FLOOR:
            raise NumericalConsistencyError(
                f"TMI {v_min} below -{ONEBODY_TMI_FLOOR} at alpha={label}, "
                f"t={t_min}, partition masks={masks}")
    meta = _base_meta(cfg, strategy=pset.strategy, n_partitions=pset.family_size,
                      site=cfg.resolved_site(), tmi_floor=ONEBODY_TMI_FLOOR)
    return [Dataset(name="onebody_scan", meta=meta, columns=columns)]
