"""Quench time evolution inside an excitation sector.

One path serves every sector size and every grid: a Chebyshev expansion
of exp(-iHt) (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967, 1984) whose
vectors T_k(H/R) psi0 come from one three-term recurrence on the sector
Hamiltonian's ``apply``, weighted by Bessel coefficients J_k(Rt) into
the state at each sample time.  H is real, so the recurrence runs on
real vectors: a real psi0 (every Neel and single-excitation quench) in
one pass, a complex one as its real and then its imaginary part.  The
single-excitation sector takes the same path as every other.
"""

import numpy as np

from .errors import check_budget
from .model import CouplingMatrix, SectorBasis, SectorHamiltonian, StateVector

__all__ = ["evolve"]


# Coefficients below 2^-53 change no amplitude of a unit-norm state in
# double precision, since every ||T_k(H/R)|| <= 1
_CUT = 2.0**-53
# Real T_k vectors folded into the trajectory per block, half of them even
# k and half odd.  At N=16, evolve on fig2's grid (alpha 0 and nn, best of
# 12 on a 2-core Xeon, one BLAS thread) took 1.54 and 0.27 s with 8,
# 1.01 and 0.17 s with 16, and 0.90 and 0.13 s with 32, whose 16 more
# vectors add 1.6 MB to quench-n16's peak RSS
_BLOCK = 16
# Trajectory rows per fold GEMM of a block's coefficients into one reused
# buffer; 8 rows timed the same as 4
_ROWS = 4


def _chebyshev_coefficients(z: np.ndarray):
    """Real a_k(z), with exp(-i z x) = sum_k i^(k mod 2) a_k(z) T_k(x) on [-1, 1].

    c_k = 2 (-i)^k J_k(z) (c_0 = J_0(z)) is real for even k and imaginary
    for odd k; a_k is its real or imaginary part, a row per ascending z.
    Every J_k(z) comes from one backward Miller recurrence
    J_{k-1} = (2k/z) J_k - J_{k+1} (Abramowitz and Stegun 9.12; Numerical
    Recipes 6.5), started past the last term any row keeps and normalised
    by J_0 + 2 sum_j J_2j = 1.  It runs on the ratios J_k / J_{k-1}, which
    rescales every row to J_k = 1 at each step: no z overflows, and z = 0
    gives exactly J_0 = 1.  Past k = z, J_k(z) falls with k and grows with
    z, so the rows cut below 2^-53 there are a prefix that no later column
    brings back: they are set to zero.  Returns the table and, per column,
    its first uncut row; the columns end where every row is cut.
    """
    z_max = float(z[-1])
    # the last kept term is near k = z + 15 (z/2)^(1/3) for large z (Debye's
    # expansion); starting 8 (z/2)^(1/3) + 40 orders past it leaves the kept
    # terms within roundoff of J_k
    n_start = int(z_max + 23 * (z_max / 2) ** (1 / 3)) + 40
    table = np.empty((n_start, len(z)))  # row k: J_k / J_{k-1}, at last a_k
    ratio, den = np.zeros(len(z)), np.empty(len(z))
    for k in range(n_start - 1, 0, -1):
        np.subtract(2.0 * k, np.multiply(z, ratio, out=den), out=den)
        # J_{k-1} = 0 to rounding: a tiny denominator keeps this ratio and
        # the next finite, and their product is still -1
        den[den == 0.0] = 1e-200
        np.divide(z, den, out=ratio)
        table[k] = ratio
    table[0] = 1.0
    np.cumprod(table, axis=0, out=table)  # J_k / J_0
    table *= 1.0 / (1.0 + 2.0 * table[2::2].sum(axis=0))
    table[1:] *= 2.0
    table[1::4] *= -1.0  # (-i)^k is -i or -1 at k = 1 or 2 (mod 4)
    table[2::4] *= -1.0
    live = (np.abs(table) >= _CUT) | (np.arange(n_start)[:, None] <= z)
    if live[-1, -1]:
        raise AssertionError(f"Bessel recurrence started too low for z = {z_max}")
    n_terms = int(np.argmin(live[:, -1]))  # the largest z is cut last
    firsts = np.maximum.accumulate(np.argmax(live[:n_terms], axis=1))
    coef = table[:n_terms].T.copy()
    coef[np.arange(len(z))[:, None] < firsts] = 0.0
    return coef, firsts.tolist()


def check_sizes(coupling: CouplingMatrix, basis: SectorBasis, n_times: int):
    """The sector Hamiltonian, unbuilt, once it passes its byte guard and,
    with ``n_times`` states, the guard of the whole propagation.

    One budget counts the Hamiltonian's tables and work buffers, the
    complex trajectory, the real fold block and its product rows, and the
    three real vectors of the recurrence.
    """
    ham = SectorHamiltonian(coupling, basis)
    check_budget(f"sector ({basis.n_sites}, {basis.n_excitations}) trajectory has "
                 f"{n_times} states of {basis.dim:,} amplitudes",
                 ham.nbytes + (16 * n_times + 8 * (_BLOCK + _ROWS + 3)) * basis.dim,
                 f"with its Chebyshev vectors and the {ham.nbytes / 1e9:.1f} GB Hamiltonian")
    return ham


def evolve(coupling: CouplingMatrix, psi0: StateVector, times) -> np.ndarray:
    """States exp(-iHt)|psi0> at each of ``times``, from one Chebyshev series.

    Returns an (n_times, dim) complex array, a row per time, over the
    sector of ``psi0.basis``.  ``psi0`` has unit norm, and ``times`` is a
    1-D array of physical times, nonempty, finite, nonnegative and
    strictly increasing; anything else raises ValueError before any
    allocation.  exp(-iHt) psi0 = sum_k c_k(Rt) T_k(H/R) psi0
    (Tal-Ezer and Kosloff, 1984; Weisse et al., Rev. Mod. Phys. 78, 275,
    2006).  The vectors T_k(H/R) psi0 do not depend on t, so one three-term
    recurrence on the sector Hamiltonian's ``apply`` serves every time,
    uniform or not.  It runs on real vectors, once per nonzero part of
    psi0, and folds even k into the real and odd k into the imaginary
    part of each state (the other way round for the imaginary part of
    psi0).  H is real, symmetric and entrywise nonnegative, so
    R = max(H @ 1) is its exact 1-norm and bounds every ||T_k(H/R)|| by 1;
    a negative coupling raises ValueError.  check_sizes refuses the
    Hamiltonian or the trajectory in bytes before any product.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a nonempty 1d array")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if times[0] < 0:
        raise ValueError("times must be nonnegative")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    if np.any(coupling.entries < 0):
        raise ValueError("couplings must be nonnegative")
    if abs(psi0.norm - 1.0) > 1e-10:
        raise ValueError(f"initial state is not normalized (norm {psi0.norm})")
    basis = psi0.basis
    ham = check_sizes(coupling, basis, len(times))
    dim = basis.dim
    radius = float(ham.apply(np.ones(dim)).max())
    coef, firsts = _chebyshev_coefficients(radius * times)
    n_terms = coef.shape[1]
    # even-k and odd-k coefficients apart, so a chunk of rows is a
    # contiguous GEMM operand
    halves = (coef[:, 0::2].copy(), coef[:, 1::2].copy())
    out = np.zeros((len(times), dim), dtype=np.complex128)
    block = np.empty((2, _BLOCK // 2, dim))  # even k, then odd k, each contiguous
    prod = np.empty((_ROWS, dim))
    # H is real, so psi0 = u + iw evolves as U u + i U w, each part through
    # real vectors: T_k u enters out with the phase i^(k mod 2), T_k w with
    # i^(k mod 2 + 1)
    for j, part in enumerate((psi0.amplitudes.real, psi0.amplitudes.imag)):
        if not part.any():
            continue
        prev, cur = None, np.ascontiguousarray(part)
        for k in range(n_terms):
            if k:  # T_1 = (H/R) T_0, T_{k+1} = 2 (H/R) T_k - T_{k-1}
                nxt = ham.apply(cur)
                nxt *= min(k, 2) / radius
                if k > 1:
                    nxt -= prev
                prev, cur = cur, nxt
            block[k % 2, k % _BLOCK // 2] = cur
            if k % _BLOCK == _BLOCK - 1 or k == n_terms - 1:
                lo = k - k % _BLOCK
                for p in range(min(2, k - lo + 1)):
                    dest = (out.real, out.imag)[(p + j) % 2]
                    fold = np.subtract if p + j == 2 else np.add
                    cols = halves[p][:, lo // 2:(k - p) // 2 + 1]
                    for r in range(firsts[lo], len(times), _ROWS):
                        c = cols[r:r + _ROWS]
                        np.matmul(c, block[p, :c.shape[1]], out=prod[:len(c)])
                        fold(dest[r:r + _ROWS], prod[:len(c)], out=dest[r:r + _ROWS])
    return out
