"""Reference implementations: the oracles the production pipeline is checked against.

The full-space routines work on dense 2^N vectors with no sector
bookkeeping: the Hamiltonian is assembled from explicit Pauli operators,
evolution diagonalizes the full matrix, and reduced density matrices
come from literal partial traces.  Deliberately simple and exponentially
expensive, these routines exist to validate the production pipeline (see
the CLI ``validate`` subcommand) and the test suite, not to run
experiments, and are capped at 12 sites.

Two single-excitation oracles have no cap.  ``onebody_amplitudes``
diagonalizes the N x N single-excitation Hamiltonian.  The k=1 closed
form uses that, with one excitation, every reduced state is at most
rank 2 and all entropies reduce to the binary entropy of subset
occupation weights p_X = sum_{m in X} |c_m|^2.  The TMI then becomes an
explicit function of (p_A, p_B, p_C), which is nonnegative everywhere on
the probability simplex and vanishes exactly on its boundary: a
certificate of the sign structure the general pipeline must reproduce.

``extrema`` is the brute-force pick of TMI extrema that the streamed
``partitions.tmi_extrema`` is checked against, and ``validate_suite``
runs the five quick cross-checks of the CLI's ``validate`` subcommand.
No runtime module imports this one; the CLI loads it for ``validate``
only.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.special import xlogy

from .bits import bit_positions
from .entropy import (SubsetEntropyTable, _disjoint_masks, _xlogx, mutual_information,
                      subset_entropy_table, tmi, tmi_terms)
from .errors import CapacityError
from .model import (CouplingMatrix, ModelSpec, StateVector, coupling_matrix,
                    enumerate_sector, neel_state, single_excitation_state)
from .partitions import _first_within
from .propagate import evolve

FULL_SPACE_MAX_SITES = 12
P_SNAP = 1e-12      # distance from {0, 1} inside which p snaps to the endpoint
NORM_TOL = 1e-10

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
# excited site (set bit) carries Z = +1
PAULI_Z = np.array([[-1.0, 0.0], [0.0, 1.0]])

__all__ = [
    "op_at", "full_hamiltonian", "embed_state", "evolve_full",
    "reduced_spectrum_full", "subset_entropy_full", "mutual_information_full",
    "tmi_full", "onebody_amplitudes",
    "SimplexScan", "binary_entropy", "occupation_weights", "tmi_binary", "simplex_scan",
    "onebody_entropy_table", "extrema", "validate_suite",
]

_LN2 = math.log(2.0)


def _check_sites(n_sites: int):
    if n_sites > FULL_SPACE_MAX_SITES:
        raise CapacityError(
            f"full-space reference routines are capped at "
            f"{FULL_SPACE_MAX_SITES} sites, got {n_sites}"
        )


def op_at(n_sites: int, site: int, op2: np.ndarray) -> sp.csr_matrix:
    """Single-site operator embedded in the full 2^N space.

    Basis index bit i is the occupation of site i, so the site sits
    between an identity on the higher bits and one on the lower bits.
    """
    _check_sites(n_sites)
    left = sp.identity(1 << (n_sites - 1 - site), format="csr")
    right = sp.identity(1 << site, format="csr")
    return sp.kron(sp.kron(left, sp.csr_matrix(op2)), right, format="csr")


def full_hamiltonian(coupling: CouplingMatrix) -> np.ndarray:
    """Dense sum_{m<n} J_mn (X_m X_n + Y_m Y_n) on the full space."""
    n = coupling.n_sites
    _check_sites(n)
    dim = 1 << n
    acc = sp.csr_matrix((dim, dim), dtype=np.complex128)
    for m in range(n):
        x_m = op_at(n, m, PAULI_X)
        y_m = op_at(n, m, PAULI_Y)
        for k in range(m + 1, n):
            j_mk = coupling.entries[m, k]
            if j_mk == 0.0:
                continue
            acc = acc + j_mk * (x_m @ op_at(n, k, PAULI_X) + y_m @ op_at(n, k, PAULI_Y))
    h = acc.toarray()
    assert np.max(np.abs(h.imag)) < 1e-14
    return np.ascontiguousarray(h.real)


def embed_state(psi: StateVector) -> np.ndarray:
    """Sector state as a full 2^N amplitude vector."""
    _check_sites(psi.basis.n_sites)
    full = np.zeros(1 << psi.basis.n_sites, dtype=np.complex128)
    full[psi.basis.states] = psi.amplitudes
    return full


def evolve_full(coupling: CouplingMatrix, psi_full: np.ndarray,
                times) -> np.ndarray:
    """exp(-iHt)|psi> on the full space for every t, via diagonalization."""
    w, v = eigh(full_hamiltonian(coupling), driver="evd")
    psi = np.asarray(psi_full, dtype=np.complex128)
    # real products throughout: a mixed real-complex one copies v as complex
    coeff = v.T @ psi.real + 1j * (v.T @ psi.imag)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    rows = np.exp(-1j * np.outer(times, w)) * coeff
    return rows.real @ v.T + 1j * (rows.imag @ v.T)


def reduced_spectrum_full(psi_full: np.ndarray, n_sites: int, mask: int) -> np.ndarray:
    """Eigenvalues of the reduced density matrix of the sites in ``mask``.

    Literal partial trace: reshape the vector into one axis per site,
    move the kept sites to the front, contract the rest.
    """
    _check_sites(n_sites)
    psi = np.asarray(psi_full).reshape([2] * n_sites)
    sites = bit_positions(mask)
    # C-order reshape puts site i on axis n_sites - 1 - i
    axes = [n_sites - 1 - s for s in sites]
    psi = np.moveaxis(psi, axes, range(len(axes)))
    m = psi.reshape(1 << len(sites), -1)
    rho = m @ m.conj().T
    return np.linalg.eigvalsh(rho)


def subset_entropy_full(psi_full: np.ndarray, n_sites: int, mask: int) -> float:
    """Von Neumann entropy (bits) of a site subset, from the partial trace."""
    if mask == 0 or mask == (1 << n_sites) - 1:
        return 0.0
    lam = reduced_spectrum_full(psi_full, n_sites, mask)
    lam = lam[lam > 0.0]
    return float(-np.sum(xlogy(lam, lam)) / math.log(2.0))


def mutual_information_full(psi_full: np.ndarray, n_sites: int,
                            a: int, b: int) -> float:
    s = subset_entropy_full
    return (s(psi_full, n_sites, a) + s(psi_full, n_sites, b)
            - s(psi_full, n_sites, a | b))


def tmi_full(psi_full: np.ndarray, n_sites: int, a: int, b: int, c: int) -> float:
    s = subset_entropy_full
    return (s(psi_full, n_sites, a) + s(psi_full, n_sites, b)
            + s(psi_full, n_sites, c) + s(psi_full, n_sites, a | b | c)
            - s(psi_full, n_sites, a | b) - s(psi_full, n_sites, a | c)
            - s(psi_full, n_sites, b | c))


def onebody_amplitudes(coupling: CouplingMatrix, site: int, times) -> np.ndarray:
    """Site amplitudes c_m(t) of one excitation starting at ``site``.

    One diagonalization of h_mn = 2 J_mn serves every time.  Returns an
    (n_times, n_sites) array whose column m is site m, which is also the
    rank of 1 << m in the k=1 sector basis.
    """
    w, v = eigh(2.0 * coupling.entries)
    phases = np.exp(-1j * np.outer(np.asarray(times, dtype=float), w))
    return (phases * v[site]) @ v.T


# -- the k=1 closed form -----------------------------------------------------

def binary_entropy(p):
    """H(p) = -p log2 p - (1-p) log2 (1-p), elementwise, in bits.

    Values within 1e-12 outside [0, 1] are clipped; anything farther out
    raises ValueError.
    """
    arr = np.asarray(p, dtype=float)
    if np.any(arr < -P_SNAP) or np.any(arr > 1.0 + P_SNAP):
        bad = arr[(arr < -P_SNAP) | (arr > 1.0 + P_SNAP)]
        raise ValueError(f"probability {np.ravel(bad)[0]} outside [0, 1]")
    h = np.clip(arr, 0.0, 1.0)
    h = (_xlogx(h) + _xlogx(1.0 - h)) / -_LN2  # (-x) / y and x / (-y) round alike
    if np.ndim(p) == 0:
        return float(h)
    return h


def _checked_weights(*weights) -> tuple:
    """Occupation weights (p_a, p_b, p_c) of three disjoint subsets, checked.

    Each must lie in [0, 1] up to P_SNAP, and is clipped into it; a sum
    above 1 + NORM_TOL raises ValueError.
    """
    weights = [float(p) for p in weights]
    for name, p in zip(("p_a", "p_b", "p_c"), weights):
        if not -P_SNAP <= p <= 1.0 + P_SNAP:
            raise ValueError(f"{name}={p} outside [0, 1]")
    p_a, p_b, p_c = (min(max(p, 0.0), 1.0) for p in weights)
    total = p_a + p_b + p_c
    if total > 1.0 + NORM_TOL:
        raise ValueError(f"occupation weights sum to {total} > 1")
    return p_a, p_b, p_c


def occupation_weights(c: np.ndarray, a, b, c_subset) -> tuple:
    """Subset occupation probabilities (p_a, p_b, p_c) of a normalized k=1 amplitude vector.

    ``a``, ``b``, ``c_subset`` are site bitmasks, nonempty and pairwise
    disjoint (ValueError otherwise); site m of the chain is entry m of ``c``.
    """
    c = np.asarray(c, dtype=np.complex128)
    n = len(c)
    norm = np.linalg.norm(c)
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"amplitudes are not normalized (norm {norm})")
    masks = _disjoint_masks(n, (a, b, c_subset))
    w = np.abs(c) ** 2
    ps = [float(np.sum(w[bit_positions(m)])) for m in masks]
    return _checked_weights(*ps)


def tmi_binary(p_a: float, p_b: float, p_c: float) -> float:
    """TMI of a k=1 state as a function of its occupation weights, in bits.

    The weights are checked as occupation_weights' are.  Returns 0.0
    exactly when any weight vanishes or the three sum to one: those are
    the boundary faces of the parameter simplex.
    """
    p_a, p_b, p_c = _checked_weights(p_a, p_b, p_c)
    return float(_tmi_binary_grid(p_a, p_b, p_c, p_a + p_b + p_c))


def _tmi_binary_grid(pa, pb, pc, psum):
    """Vectorized TMI with the same boundary snap as tmi_binary."""
    vals = tmi_terms(*(binary_entropy(p) for p in
                       (pa, pb, pc, pa + pb, pa + pc, pb + pc, psum)))
    boundary = (np.minimum(np.minimum(pa, pb), pc) <= P_SNAP) | (psum >= 1.0 - P_SNAP)
    return np.where(boundary, 0.0, vals)


@dataclass
class SimplexScan:
    """Extrema of the k=1 TMI over the weight simplex p_i >= 0, sum <= 1."""

    resolution: float
    min_value: float
    argmin: tuple
    max_value: float
    argmax: tuple


def simplex_scan(resolution: float = 0.01) -> SimplexScan:
    """Scan tmi_binary over a regular simplex grid.

    The minimum sits on the simplex boundary (where the TMI vanishes
    identically) and the maximum at the interior point (1/4, 1/4, 1/4);
    the maximum is then polished on two successively finer local grids.
    """
    steps = round(1.0 / resolution)
    if steps < 4 or abs(steps * resolution - 1.0) > 1e-9:
        raise ValueError(f"resolution {resolution} must divide 1 into >= 4 steps")
    i, j, k = np.meshgrid(np.arange(steps + 1), np.arange(steps + 1),
                          np.arange(steps + 1), indexing="ij")
    keep = (i + j + k) <= steps
    i, j, k = i[keep], j[keep], k[keep]
    # integer sums keep the simplex boundary i+j+k == steps exact
    vals = _tmi_binary_grid(i / steps, j / steps, k / steps, (i + j + k) / steps)
    i_min = int(np.argmin(vals))
    i_max = int(np.argmax(vals))
    argmin = (i[i_min] / steps, j[i_min] / steps, k[i_min] / steps)
    argmax = (i[i_max] / steps, j[i_max] / steps, k[i_max] / steps)
    max_value = float(vals[i_max])

    span = resolution
    for _ in range(2):
        span /= 10.0
        offsets = np.linspace(-5 * span, 5 * span, 11)
        pa = argmax[0] + offsets[:, None, None]
        pb = argmax[1] + offsets[None, :, None]
        pc = argmax[2] + offsets[None, None, :]
        pa, pb, pc = np.broadcast_arrays(pa, pb, pc)
        ok = (pa > 0) & (pb > 0) & (pc > 0) & (pa + pb + pc < 1.0)
        vals_f = np.full(pa.shape, -np.inf)
        vals_f[ok] = _tmi_binary_grid(pa[ok], pb[ok], pc[ok],
                                      pa[ok] + pb[ok] + pc[ok])
        best = np.unravel_index(np.argmax(vals_f), vals_f.shape)
        if vals_f[best] > max_value:
            max_value = float(vals_f[best])
            argmax = (float(pa[best]), float(pb[best]), float(pc[best]))
    return SimplexScan(resolution=resolution, min_value=float(vals[i_min]),
                       argmin=tuple(float(x) for x in argmin),
                       max_value=max_value,
                       argmax=tuple(float(x) for x in argmax))


def _subset_probability_table(weights: np.ndarray) -> np.ndarray:
    """p[mask] = sum of site weights selected by the mask, for all masks.

    ``weights`` has a row per site; further axes (times) carry through.
    """
    n = len(weights)
    table = np.empty((1 << n, *weights.shape[1:]))
    table[0] = 0.0
    for s in range(n):
        half = 1 << s
        # the masks with top bit s are those below 2^s with site s added;
        # contiguous blocks, so numpy needs no buffers
        np.add(table[:half], weights[s], out=table[half:2 * half])
    return table


def onebody_entropy_table(occupations: np.ndarray) -> SubsetEntropyTable:
    """Closed-form entropies of every subset of a k=1 state, a column per time.

    ``occupations`` holds the site weights |c_m(t)|^2, a row per time and
    a column per site; the entropy of subset X is the binary entropy of
    its weight p_X.  The table is dense: a row per mask, 0 to 2^N - 1.
    """
    n = occupations.shape[1]
    entropies = binary_entropy(_subset_probability_table(occupations.T))
    return SubsetEntropyTable(n, np.arange(1 << n), entropies)


# -- brute-force extrema, and the checks of the CLI's validate ------------------

def extrema(vals: np.ndarray) -> tuple:
    """(min, argmin, max, argmax) of a TMI array along its first axis.

    Values within EXTREMUM_TIE_TOL of an extremum count as tied with it,
    and ties go to the first index, as in partitions.tmi_extrema, which
    streams its triples in chunks and is checked against this.
    """
    lo, hi = vals.min(axis=0), vals.max(axis=0)
    i_min, i_max = _first_within(vals, lo, hi)
    return lo, i_min, hi, i_max


def _check_dynamics_oracle():
    worst = 0.0
    times = np.array([0.7, 1.9])
    for spec in (ModelSpec(6, alpha=0.7), ModelSpec(6, nn_limit=True)):
        coupling = coupling_matrix(spec)
        for k in (1, 3):
            basis = enumerate_sector(6, k)
            psi0 = neel_state(basis) if k == 3 else single_excitation_state(basis, 2)
            states = evolve(coupling, psi0, times)
            full = evolve_full(coupling, embed_state(psi0), times)
            worst = max(worst, float(np.max(np.abs(full[:, basis.states] - states))))
    return worst < 1e-9, f"max amplitude deviation {worst:.3g}"


def _evolved_test_table():
    """Subset-entropy table and full-space vector of one evolved N=6 state."""
    basis = enumerate_sector(6, 3)
    states = evolve(coupling_matrix(ModelSpec(6, alpha=0.7)), neel_state(basis),
                    np.array([1.3]))
    psi = StateVector(basis, states[0])
    return subset_entropy_table(psi), embed_state(psi)


def _check_entropy_oracle():
    table, full = _evolved_test_table()
    worst = max(abs(table[m] - subset_entropy_full(full, 6, m)) for m in range(1 << 6))
    return worst < 1e-9, f"max entropy deviation {worst:.3g} over 64 subsets"


def _check_tmi_oracle():
    table, full = _evolved_test_table()
    worst = 0.0
    triples = [(0b000001, 0b000010, 0b000100), (0b001001, 0b000010, 0b110000),
               (0b000011, 0b001100, 0b110000)]
    for a, b, c in triples:
        worst = max(worst, abs(mutual_information(table, a, b)
                               - mutual_information_full(full, 6, a, b)))
        worst = max(worst, abs(tmi(table, a, b, c) - tmi_full(full, 6, a, b, c)))
    return worst < 1e-9, f"max MI/TMI deviation {worst:.3g}"


def _check_onebody_oracle():
    basis = enumerate_sector(8, 1)
    states = evolve(coupling_matrix(ModelSpec(8, alpha=0.5)),
                    single_excitation_state(basis, 3), np.array([2.1]))
    # k=1 basis states ascend as 1 << site, so site amplitudes map directly
    amps = states[0]
    table = subset_entropy_table(StateVector(basis, amps))
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(5):
        sites = rng.permutation(8)
        a, b, c = (int(1 << sites[0] | 1 << sites[1]), int(1 << sites[2]),
                   int(1 << sites[3] | 1 << sites[4]))
        worst = max(worst, abs(tmi_binary(*occupation_weights(amps, a, b, c))
                               - tmi(table, a, b, c)))
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
    """Quick oracle cross-checks; writes one PASS/FAIL line per check."""
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
