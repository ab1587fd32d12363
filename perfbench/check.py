"""Independent check of one invocation's output files.

A seeded sample of output rows is recomputed along a path the program's
runners do not take, and compared at the acceptance suite's 1e-9
tolerance:

- quench-n16 and extremal-n12: the sector Hamiltonian is built here from
  the couplings, states come from scipy.sparse.linalg.expm_multiply, and
  entropies from per-mask subsystem_spectrum / von_neumann; extremal-n12
  also enumerates its contiguous-block family here;
- onebody-all-n12: the general subset_entropy_table pipeline at k=1 in
  place of the closed form, over the whole all-assignments family.

On every exponent the TMI at t=0 must vanish.  Row counts, exponent
labels and the time columns are checked against the generated config.
"""

import csv
import math
import os
from itertools import combinations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import expm_multiply

TOL = 1e-9
SAMPLE_ROWS = 3  # random rows per exponent, besides the t=0 row


class Check:
    """Collected deviations and problems of one output check."""

    def __init__(self):
        self.problems = []
        self.values = 0
        self.worst = 0.0

    def expect(self, ok, message):
        if not ok:
            self.problems.append(message)
        return ok

    def close(self, what, got, want, tol=TOL):
        dev = abs(got - want)
        self.values += 1
        if math.isfinite(dev):
            self.worst = max(self.worst, dev)
        self.expect(dev <= tol, f"{what}: output {got!r}, recomputed {float(want)!r}")

    @property
    def ok(self):
        return not self.problems


def _read_rows(path):
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _couplings(n, label):
    """J_mn (J0 = 1) and the Kac constant, as the README defines them."""
    if label == "nn":
        j = np.zeros((n, n))
        idx = np.arange(n - 1)
        j[idx, idx + 1] = j[idx + 1, idx] = 1.0
    else:
        dist = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
        np.fill_diagonal(dist, np.inf)
        j = dist ** -float(label)
    return j, float(j[np.triu_indices(n, 1)].sum() / n)


def _sector(n, k):
    masks = np.arange(1 << n, dtype=np.int64)
    return masks[np.bitwise_count(masks) == k]


def _hamiltonian(j, states):
    """XX+YY hopping 2 J_mn between sites m and n, inside one sector."""
    n = j.shape[0]
    rows, cols, vals = [], [], []
    for m, q in combinations(range(n), 2):
        if j[m, q] == 0.0:
            continue
        hop = np.nonzero(((states >> m) ^ (states >> q)) & 1)[0]
        rows.append(np.searchsorted(states, states[hop] ^ ((1 << m) | (1 << q))))
        cols.append(hop)
        vals.append(np.full(len(hop), 2.0 * j[m, q]))
    dim = len(states)
    return csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(dim, dim))


def _evolve(h, psi0, t):
    return psi0 if t == 0.0 else expm_multiply(-1j * t * h, psi0)


def _sample(rng, n_points):
    return [0] + sorted(rng.sample(range(1, n_points), SAMPLE_ROWS))


def _by_exponent(rows, params, chk):
    """Yield (label, couplings, physical times, rows) per exponent.

    Checks the row count and the time columns against the config first.
    """
    w = params.workload
    labels = [a if a == "nn" else f"{float(a):g}" for a in params.alphas]
    chk.expect(len(rows) == len(labels) * w.n_points,
               f"{len(rows)} rows, expected {len(labels) * w.n_points}")
    t_kac = np.linspace(0.0, w.t_max, w.n_points)
    for label in labels:
        block = [r for r in rows if r["alpha"] == label]
        if not chk.expect(len(block) == w.n_points,
                          f"alpha={label}: {len(block)} rows, expected {w.n_points}"):
            continue
        j, kac = _couplings(w.n_sites, label)
        for r, tk in zip(block, t_kac):
            chk.expect(math.isclose(float(r["t_kac"]), tk, rel_tol=TOL, abs_tol=1e-12)
                       and math.isclose(float(r["t"]), tk / kac, rel_tol=TOL, abs_tol=1e-12),
                       f"alpha={label}: time columns {r['t_kac']}, {r['t']} do not match "
                       f"the grid point {tk}")
        yield label, j, t_kac / kac, block


def _entropy_table(basis, amps, masks):
    from spinchain import StateVector, subsystem_spectrum, von_neumann
    psi = StateVector(basis, amps)
    table = np.full(1 << basis.n_sites, np.nan)
    for m in masks:
        table[m] = von_neumann(subsystem_spectrum(psi, subset=int(m)))
    return table


def _tmi(table, a, b, c):
    return (table[a] + table[b] + table[c] + table[a | b | c]
            - table[a | b] - table[a | c] - table[b | c])


def _neel_sector(n, chk):
    from spinchain import enumerate_sector
    states = _sector(n, n // 2)
    basis = enumerate_sector(n, n // 2)
    chk.expect(np.array_equal(basis.states, states), "sector basis order differs")
    psi0 = np.zeros(len(states), dtype=np.complex128)
    psi0[np.searchsorted(states, sum(1 << i for i in range(1, n, 2)))] = 1.0
    return states, basis, psi0


def check_quench(params, out_dir, rng) -> Check:
    chk = Check()
    n = params.workload.n_sites
    rows = _read_rows(os.path.join(out_dir, "tmi_vs_entropy.csv"))
    states, basis, psi0 = _neel_sector(n, chk)
    q = n // 4
    a = (1 << q) - 1
    b, c, half = a << q, a << 2 * q, (1 << n // 2) - 1
    masks = (a, b, c, a | b, a | c, b | c, a | b | c, half)
    for label, j, times, block in _by_exponent(rows, params, chk):
        h = _hamiltonian(j, states)
        for i in _sample(rng, len(block)):
            row = block[i]
            table = _entropy_table(basis, _evolve(h, psi0, times[i]), masks)
            where = f"alpha={label} t_kac={row['t_kac']}"
            tmi = _tmi(table, a, b, c)
            chk.close(f"{where} tmi", float(row["tmi"]), tmi)
            chk.close(f"{where} half_chain_entropy", float(row["half_chain_entropy"]), table[half])
            if i == 0:
                chk.close(f"{where} tmi at t=0", float(row["tmi"]), 0.0)
    return chk


def _contiguous_triples(n):
    """Cuts of the chain into 3 or 4 consecutive blocks; A, B, C = first three."""
    out = []
    for n_blocks in (3, 4):
        for cuts in combinations(range(1, n), n_blocks - 1):
            edges = (0, *cuts, n)
            out.append([((1 << (edges[i + 1] - edges[i])) - 1) << edges[i] for i in range(3)])
    return np.array(sorted(out), dtype=np.int64)


def check_extremal(params, out_dir, rng) -> Check:
    chk = Check()
    n = params.workload.n_sites
    rows = _read_rows(os.path.join(out_dir, "minmax_scan.csv"))
    summary = _read_rows(os.path.join(out_dir, "minmax_summary.csv"))
    states, basis, psi0 = _neel_sector(n, chk)
    fam = _contiguous_triples(n)
    a, b, c = fam[:, 0], fam[:, 1], fam[:, 2]
    needed = np.unique(np.concatenate((a, b, c, a | b, a | c, b | c, a | b | c)))
    proper = (a | b | c) != (1 << n) - 1
    family = {tuple(t) for t in fam.tolist()}
    peaks = {}
    for label, j, times, block in _by_exponent(rows, params, chk):
        peaks[label] = max(float(r["max_tmi"]) for r in block)
        h = _hamiltonian(j, states)
        for i in _sample(rng, len(block)):
            row = block[i]
            table = _entropy_table(basis, _evolve(h, psi0, times[i]), needed)
            vals = _tmi(table, a, b, c)
            where = f"alpha={label} t_kac={row['t_kac']}"
            chk.close(f"{where} min_tmi", float(row["min_tmi"]), vals.min())
            chk.close(f"{where} max_tmi", float(row["max_tmi"]), vals.max())
            chk.close(f"{where} min_tmi_proper", float(row["min_tmi_proper"]),
                      vals[proper].min())
            for kind in ("min", "max"):
                arg = tuple(int(row[f"arg{kind}_{x}"]) for x in "abc")
                if chk.expect(arg in family, f"{where} arg{kind} {arg} is not a contiguous triple"):
                    chk.close(f"{where} tmi at arg{kind}", float(row[f"{kind}_tmi"]),
                              _tmi(table, *arg))
            if i == 0:
                chk.close(f"{where} min_tmi at t=0", float(row["min_tmi"]), 0.0)
                chk.close(f"{where} max_tmi at t=0", float(row["max_tmi"]), 0.0)
    chk.expect([r["alpha"] for r in summary] == list(peaks),
               f"summary exponents {[r['alpha'] for r in summary]}, expected {list(peaks)}")
    for r in summary:
        if r["alpha"] in peaks:
            chk.close(f"alpha={r['alpha']} peak_max_tmi", float(r["peak_max_tmi"]),
                      peaks[r["alpha"]])
    return chk


def check_onebody(params, out_dir, rng) -> Check:
    from spinchain import (StateVector, enumerate_partitions, enumerate_sector,
                           subset_entropy_table)
    chk = Check()
    n = params.workload.n_sites
    rows = _read_rows(os.path.join(out_dir, "onebody_scan.csv"))
    pset = enumerate_partitions(n, "all")
    expected = (4 ** n - 3 * 3 ** n + 3 * 2 ** n - 1) // 6
    chk.expect(len(pset) == expected, f"{len(pset)} triples, expected {expected}")
    a, b, c = pset.a, pset.b, pset.c
    states = _sector(n, 1)
    basis = enumerate_sector(n, 1)
    chk.expect(np.array_equal(basis.states, states), "k=1 basis is not the site basis")
    psi0 = np.zeros(n, dtype=np.complex128)
    psi0[params.site] = 1.0
    for label, j, times, block in _by_exponent(rows, params, chk):
        h = _hamiltonian(j, states)
        for i in _sample(rng, len(block)):
            row = block[i]
            amps = _evolve(h, psi0, times[i])
            entropies = subset_entropy_table(StateVector(basis, amps))
            table = np.array([entropies[m] for m in range(1 << n)])
            vals = _tmi(table, a, b, c)
            where = f"alpha={label} t_kac={row['t_kac']}"
            chk.close(f"{where} min_tmi", float(row["min_tmi"]), vals.min())
            chk.close(f"{where} max_tmi", float(row["max_tmi"]), vals.max())
            occupations = np.abs(amps) ** 2
            for m in range(n):
                chk.close(f"{where} p{m}", float(row[f"p{m}"]), occupations[m])
            if i == 0:
                chk.close(f"{where} min_tmi at t=0", float(row["min_tmi"]), 0.0)
                chk.close(f"{where} max_tmi at t=0", float(row["max_tmi"]), 0.0)
    return chk


CHECKS = {
    "quench-n16": check_quench,
    "extremal-n12": check_extremal,
    "onebody-all-n12": check_onebody,
}
