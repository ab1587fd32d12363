"""Sector propagation over arrays of physical times, the single-excitation sector included."""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply
from scipy.special import jv

from spinchain import (
    ModelSpec,
    SectorHamiltonian,
    contiguous_quarters,
    coupling_matrix,
    enumerate_sector,
    evolve,
    neel_state,
    single_excitation_state,
    subset_entropy_table,
    tmi,
)
from spinchain import reference, runs
from spinchain.config import load_config
from spinchain.errors import CapacityError
from spinchain.model import CouplingMatrix, StateVector
from spinchain.propagate import _chebyshev_coefficients, check_sizes


def _coupling(n, alpha):
    spec = ModelSpec(n, nn_limit=True) if alpha == "nn" else ModelSpec(n, alpha=alpha)
    return coupling_matrix(spec)


def _exact_norm1(coupling, basis):
    block = reference.full_hamiltonian(coupling)[np.ix_(basis.states, basis.states)]
    return np.abs(block).sum(axis=0).max()


class TestEvolveTimes:
    def test_validation(self, basis6, monkeypatch):
        # every check runs before the Hamiltonian is built or applied
        def no_hamiltonian(*args):
            raise AssertionError("the Hamiltonian was touched before the time checks")

        monkeypatch.setattr(SectorHamiltonian, "__init__", no_hamiltonian)
        coupling = coupling_matrix(ModelSpec(6, alpha=0.7))
        for times, message in ((np.array([-1.0, 0.0]), "nonnegative"),
                               (np.array([0.0, 1.0, 1.0]), "strictly increasing"),
                               (np.array([0.0, np.inf]), "finite"),
                               (np.array([]), "nonempty 1d array"),
                               (np.array([[0.0, 1.0]]), "nonempty 1d array")):
            with pytest.raises(ValueError, match=f"^times must be (a )?{message}$"):
                evolve(coupling, neel_state(basis6), times)


class TestTimeGrid:
    """The runner's time grid: t, or t * K with Kac rescaling.

    The class keeps its original name so that its test ids stay stable.
    """

    n_points, t_max = 5, 2.0

    def _columns(self, kac):
        cfg = load_config("smoke", {"time.kac_rescaled": str(kac).lower(),
                                    "time.n_points": str(self.n_points),
                                    "time.t_max": str(self.t_max)})
        (data,) = runs.run_tmi_grid(cfg)
        for label, spec in cfg.sweep():
            rows = np.array(data.columns["alpha"]) == label
            coupling = coupling_matrix(spec)
            assert coupling.kac != 1.0
            yield (coupling, np.array(data.columns["t"])[rows],
                   np.array(data.columns["t_kac"])[rows],
                   np.array(data.columns["tmi"])[rows])

    @staticmethod
    def _check_last_tmi(coupling, t, tmi_column):
        basis = enumerate_sector(8, 4)
        psi = StateVector(basis, evolve(coupling, neel_state(basis), t[-1:])[0])
        expected = tmi(subset_entropy_table(psi), *contiguous_quarters(8))
        assert abs(tmi_column[-1] - expected) < 1e-12

    def test_linspace(self):
        # with Kac off the t column is the plain linspace grid
        grid = np.linspace(0.0, self.t_max, self.n_points)
        for coupling, t, t_kac, tmi_column in self._columns(kac=False):
            np.testing.assert_array_equal(t, grid)
            np.testing.assert_array_equal(t_kac, t * coupling.kac)
            self._check_last_tmi(coupling, t, tmi_column)

    def test_physical_times(self):
        # with Kac on the grid is in t * K; evolve and the t column see
        # physical times, and t_kac is t * K
        grid = np.linspace(0.0, self.t_max, self.n_points)
        for coupling, t, t_kac, tmi_column in self._columns(kac=True):
            np.testing.assert_array_equal(t, grid / coupling.kac)
            np.testing.assert_array_equal(t_kac, t * coupling.kac)
            self._check_last_tmi(coupling, t, tmi_column)


class TestDenseEvolution:
    """evolve against exact references: closed form, full space, invariants."""

    def test_two_site_closed_form(self):
        # Single coupled pair: |10> rotates as cos(2Jt)|10> - i sin(2Jt)|01>.
        spec = ModelSpec(2, j0=0.8, alpha=1.0)
        basis = enumerate_sector(2, 1)
        psi0 = single_excitation_state(basis, 1)
        times = np.array([0.0, 0.3, 1.1])
        states = evolve(coupling_matrix(spec), psi0, times)
        for i, t in enumerate(times):
            expected = np.array(
                [-1j * np.sin(1.6 * t), np.cos(1.6 * t)], dtype=complex
            )
            np.testing.assert_allclose(states[i], expected, atol=1e-12)

    def test_t_zero_reproduces_input(self, basis6):
        coupling = coupling_matrix(ModelSpec(6, alpha=0.9))
        psi0 = neel_state(basis6)
        states = evolve(coupling, psi0, np.array([0.0]))
        np.testing.assert_array_equal(states[0], psi0.amplitudes)

    def test_matches_full_space(self, basis6):
        coupling = coupling_matrix(ModelSpec(6, alpha=0.7))
        psi0 = neel_state(basis6)
        times = np.array([0.0, 0.4, 1.1, 2.7])
        states = evolve(coupling, psi0, times)
        full = reference.evolve_full(coupling, reference.embed_state(psi0), times)
        for i in range(len(times)):
            np.testing.assert_allclose(
                states[i], full[i][basis6.states], atol=1e-12
            )

    def test_norm_and_energy_conserved(self, basis8):
        coupling = coupling_matrix(ModelSpec(8, alpha=0.4))
        ham = SectorHamiltonian(coupling, basis8)
        psi0 = neel_state(basis8)
        states = evolve(coupling, psi0, np.linspace(0.0, 3.0, 7))
        e0 = ham.expectation(psi0.amplitudes)
        for i in range(len(states)):
            amps = states[i]
            assert abs(np.linalg.norm(amps) - 1.0) < 1e-12
            assert abs(ham.expectation(amps) - e0) < 1e-10

    def test_time_reversal(self, basis8):
        # H is real, so conjugation reverses time: U(-t) psi = conj(U(t) conj(psi)).
        coupling = coupling_matrix(ModelSpec(8, alpha=0.4))
        psi0 = neel_state(basis8)
        fwd = evolve(coupling, psi0, np.array([1.3]))
        back = evolve(
            coupling,
            StateVector(basis8, fwd[0].conj()),
            np.array([1.3]),
        )
        np.testing.assert_allclose(
            back[0].conj(), psi0.amplitudes, atol=1e-12
        )


class TestLongTimeEvolution:
    """Neel quenches out to t = 4-5 on a uniform grid, against the full space."""

    @pytest.mark.parametrize("alpha", [0.2, 1.0, 3.0])
    def test_matches_full_space(self, basis8, alpha):
        coupling = coupling_matrix(ModelSpec(8, alpha=alpha))
        psi0 = neel_state(basis8)
        times = np.linspace(0.0, 4.0, 9)
        full = reference.evolve_full(coupling, reference.embed_state(psi0), times)
        states = evolve(coupling, psi0, times)
        assert np.max(np.abs(full[:, basis8.states] - states)) < 1e-12

    def test_norm_preserved(self, basis8):
        coupling = coupling_matrix(ModelSpec(8, alpha=0.3))
        states = evolve(coupling, neel_state(basis8), np.linspace(0.0, 5.0, 6))
        norms = np.linalg.norm(states, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)


class TestTaylorStepper:
    """The Chebyshev propagator against the full-space diagonalization.

    The class keeps its original name so that its test ids stay stable.
    """

    @pytest.mark.parametrize("n", [8, 10])
    @pytest.mark.parametrize("alpha", [0.2, 1.0, 3.0, "nn"])
    def test_matches_full_space(self, n, alpha):
        coupling = _coupling(n, alpha)
        basis = enumerate_sector(n, n // 2)
        psi0 = neel_state(basis)
        grids = [
            np.linspace(0.0, 0.8, 31) / coupling.kac,  # a Kac-rescaled grid
            np.array([0.0, 0.01, 0.3, 0.31, 1.7, 4.2, 4.25]),
            # one interval with ||dt H||_1 = 100: about 150 terms
            np.array([0.0, 100.0 / _exact_norm1(coupling, basis)]),
        ]
        states = np.concatenate([evolve(coupling, psi0, g) for g in grids])
        times = np.concatenate(grids)
        full = reference.evolve_full(coupling, reference.embed_state(psi0), times)
        assert np.max(np.abs(full[:, basis.states] - states)) < 1e-12

    def test_long_physical_window(self):
        # fig2's window at alpha = 0, where R t reaches its largest
        coupling = _coupling(12, 0.0)
        basis = enumerate_sector(12, 6)
        psi0 = neel_state(basis)
        times = np.linspace(0.0, 5.0, 201)
        states = evolve(coupling, psi0, times)
        # scipy's expm_multiply on the Pauli-built full-space matrix: no
        # 4,096 x 4,096 diagonalization, and independent of the sector code
        h = sp.csr_matrix(reference.full_hamiltonian(coupling))
        full = expm_multiply(-1j * h, reference.embed_state(psi0),
                             start=0.0, stop=5.0, num=201, endpoint=True)
        assert np.max(np.abs(full[:, basis.states] - states)) < 1e-12

    def test_single_excitation_sector(self):
        coupling = _coupling(8, 0.5)
        basis = enumerate_sector(8, 1)
        psi0 = single_excitation_state(basis, 2)
        times = np.array([0.0, 0.2, 1.5, 6.0])
        states = evolve(coupling, psi0, times)
        full = reference.evolve_full(coupling, reference.embed_state(psi0), times)
        assert np.max(np.abs(full[:, basis.states] - states)) < 1e-12

    @pytest.mark.parametrize("k", [0, 8])
    def test_zero_hamiltonian_returns_input(self, k):
        # the empty and the full sector hold one state and H = 0, so R = 0
        basis = enumerate_sector(8, k)
        psi0 = StateVector(basis, np.array([1j]))
        states = evolve(_coupling(8, 0.5), psi0, np.linspace(0.0, 5.0, 11))
        np.testing.assert_array_equal(states, np.full((11, 1), 1j))

    def test_products_are_propagation_plus_one_norm(self, monkeypatch):
        # one product for the 1-norm R, then one per Chebyshev term past T_0:
        # K terms, cut after max(R t) at the first k with every
        # |c_k| = 2 |J_k(R t)| below 2^-53.  The real and imaginary parts
        # of psi0 each run the K - 1 products of one real recurrence, and a
        # part that is all zero runs none
        coupling = _coupling(12, 0.5)
        basis = enumerate_sector(12, 6)
        times = np.linspace(0.0, 0.8, 31) / coupling.kac
        z = _exact_norm1(coupling, basis) * times
        n_terms = next(k for k in range(1, 1000)
                       if k > z.max() and 2 * np.abs(jv(k, z)).max() < 2.0**-53)
        assert n_terms <= 60
        u, w = np.random.default_rng(3).normal(size=(2, basis.dim))
        calls = []
        apply = SectorHamiltonian.apply
        monkeypatch.setattr(SectorHamiltonian, "apply",
                            lambda self, vec: calls.append(vec.dtype) or apply(self, vec))
        for amps, parts in ((neel_state(basis).amplitudes, 1), (u + 1j * w, 2), (1j * w, 1)):
            calls.clear()
            evolve(coupling, StateVector(basis, amps / np.linalg.norm(amps)), times)
            assert len(calls) == 1 + parts * (n_terms - 1)
            assert set(calls) == {np.dtype(float)}

    def test_complex_state_matches_full_space(self):
        # a generic complex psi0: real and imaginary parts both nonzero and
        # not proportional, each run through the real recurrence
        coupling = _coupling(10, 0.7)
        basis = enumerate_sector(10, 5)
        u, w = np.random.default_rng(5).normal(size=(2, basis.dim))
        assert np.linalg.matrix_rank(np.stack([u, w])) == 2
        psi0 = StateVector(basis, (u + 1j * w) / np.linalg.norm(u + 1j * w))
        times = np.array([0.0, 0.01, 0.3, 1.7, 4.2])
        states = evolve(coupling, psi0, times)
        full = reference.evolve_full(coupling, reference.embed_state(psi0), times)
        assert np.max(np.abs(full[:, basis.states] - states)) < 1e-12

    def test_trajectory_refused_before_any_product(self, basis8, monkeypatch):
        # one budget: the Hamiltonian's 15,800 B of tables and buffers, 31
        # complex states, then a fold block of 16 real Chebyshev vectors, its
        # 4 product rows and the three real vectors of the recurrence, all of
        # 70 amplitudes
        need = 15_800 + 16 * 31 * 70 + 8 * (16 + 4 + 3) * 70
        coupling = _coupling(8, 0.4)
        monkeypatch.setattr("spinchain.errors.MEMORY_BUDGET", need)
        check_sizes(coupling, basis8, 31)
        monkeypatch.setattr("spinchain.errors.MEMORY_BUDGET", need - 1)

        def no_product(self, vec):
            raise AssertionError("a product ran before the trajectory guard")

        monkeypatch.setattr(SectorHamiltonian, "apply", no_product)
        with pytest.raises(CapacityError,
                           match=r"sector \(8, 4\) trajectory has 31 states of 70 amplitudes"):
            evolve(coupling, neel_state(basis8), np.linspace(0.0, 3.0, 31))

    def test_negative_coupling_refused(self, basis6):
        entries = coupling_matrix(ModelSpec(6, alpha=1.0)).entries.copy()
        entries[0, 1] = entries[1, 0] = -0.5
        coupling = CouplingMatrix(entries=entries, kac=1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            evolve(coupling, neel_state(basis6), np.linspace(0.0, 1.0, 3))

    def test_global_rng_untouched(self, basis8):
        state = np.random.get_state()
        evolve(_coupling(8, 0.4), neel_state(basis8), np.linspace(0.0, 3.0, 7))
        after = np.random.get_state()
        assert after[0] == state[0] and after[2:] == state[2:]
        np.testing.assert_array_equal(after[1], state[1])


def _jv_terms(k, z):
    """a_k(z) from scipy's jv: c_k = 2 (-i)^k J_k(z) (c_0 = J_0(z)) without its i^(k mod 2)."""
    k = np.asarray(k)
    return np.where(k > 0, 2.0, 1.0) * np.array([1, -1, -1, 1])[k % 4] * jv(k, z)


def _jv_coefficients(z):
    """a_k(z) column by column from scipy's jv, cut as _chebyshev_coefficients
    cuts them: (table, firsts), as that function returns them."""
    columns, firsts, first = [], [], 0
    for k in itertools.count():
        a = _jv_terms(k, z[first:])
        live = (k <= z[first:]) | (np.abs(a) >= 2.0**-53)
        if not live.any():
            break
        skip = int(np.argmax(live))
        first += skip
        columns.append(a[skip:])
        firsts.append(first)
    coef = np.zeros((len(z), len(columns)))
    for k, a in enumerate(columns):
        coef[firsts[k]:, k] = a
    return coef, firsts


def _grid_z(n, k, alpha, t_max, n_points, kac):
    """R t on a runner's grid: R = max(H @ 1) of the (n, k) sector, t in Kac units if ``kac``."""
    coupling = _coupling(n, alpha)
    basis = enumerate_sector(n, k)
    radius = SectorHamiltonian(coupling, basis).apply(np.ones(basis.dim)).max()
    times = np.linspace(0.0, t_max, n_points)
    return radius * (times / coupling.kac if kac else times)


class TestBesselCoefficients:
    """The Miller-recurrence table against scipy.special.jv."""

    Z = np.array([0.0, 1e-300, 1e-12, 1e-6, 0.5, 3.0, 30.0, 300.0, 3000.0])

    def test_matches_jv(self):
        # one table over every z, and each z alone
        for z in [self.Z, *self.Z[:, None]]:
            coef, _ = _chebyshev_coefficients(z)
            assert np.all(np.isfinite(coef))
            expected = _jv_terms(np.arange(coef.shape[1]), z[:, None])
            assert np.max(np.abs(coef - expected)) <= 1e-13

    def test_zero_row_is_exact(self):
        coef, _ = _chebyshev_coefficients(self.Z)
        np.testing.assert_array_equal(coef[0], np.eye(1, coef.shape[1])[0])
        coef, firsts = _chebyshev_coefficients(np.zeros(3))
        np.testing.assert_array_equal(coef, np.ones((3, 1)))
        assert firsts == [0]

    def test_large_argument_is_finite(self):
        # rescaled at every step: nothing overflows up to z = 1e4
        z = np.array([0.0, 1e-300, 1.0, 1e4])
        coef, firsts = _chebyshev_coefficients(z)
        assert np.all(np.isfinite(coef))
        assert coef.shape[1] > 1e4 and firsts[-1] == 3
        expected = _jv_terms(np.arange(coef.shape[1]), 1e4)
        assert np.max(np.abs(coef[3] - expected)) <= 1e-12

    @pytest.mark.parametrize("n, k, alphas, t_max, n_points, kac", [
        (16, 8, (0.1, 0.55, 1.0, "nn"), 0.8, 31, True),
        (12, 6, (0.1, 0.55, 1.0, 2.0, 3.0), 5.0, 11, True),
        (12, 1, (0.1, 0.55, 1.0, 2.0, 3.0), 5.0, 17, True),
        (16, 8, (0.3, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, "nn"), 5.0, 201, False),
    ], ids=["quench-n16", "extremal-n12", "onebody-all-n12", "fig2"])
    def test_same_terms_as_jv_on_runner_grids(self, n, k, alphas, t_max, n_points, kac):
        # the benchmark workloads' grids and fig2's: the same number of
        # terms and the same first uncut row of every column
        for alpha in alphas:
            z = _grid_z(n, k, alpha, t_max, n_points, kac)
            coef, firsts = _chebyshev_coefficients(z)
            expected, expected_firsts = _jv_coefficients(z)
            assert coef.shape == expected.shape
            assert firsts == expected_firsts
            assert np.max(np.abs(coef - expected)) <= 1e-13


class TestEvolveDispatcher:
    def test_returns_plain_states_array(self, basis6):
        coupling = coupling_matrix(ModelSpec(6, alpha=0.7))
        psi0 = neel_state(basis6)
        states = evolve(coupling, psi0, np.linspace(0.0, 1.0, 3))
        assert type(states) is np.ndarray
        assert states.shape == (3, basis6.dim) and states.dtype == np.complex128
        np.testing.assert_array_equal(states[0], psi0.amplitudes)

    def test_sector_comes_from_the_state(self):
        # C(8, 5) = C(8, 3): the k=5 sector has the dimension of the k=3 one,
        # so only psi0's own basis can place the state
        basis = enumerate_sector(8, 5)
        psi0 = StateVector(basis, np.zeros(basis.dim))
        psi0.amplitudes[basis.rank(0b11111)] = 1.0
        coupling = _coupling(8, 0.6)
        times = np.linspace(0.0, 2.0, 5)
        states = evolve(coupling, psi0, times)
        full = reference.evolve_full(coupling, reference.embed_state(psi0), times)
        assert np.max(np.abs(full[:, basis.states] - states)) < 1e-12


class TestOneBody:
    @pytest.mark.parametrize("n", [8, 16, 24])
    @pytest.mark.parametrize("alpha", [0.3, 2.5, "nn"])
    def test_amplitudes_match_sector_evolution(self, n, alpha):
        # k=1 sector masks ascend as 1 << site, so columns line up with sites;
        # the N x N oracle is exact beyond the full-space reference's cap
        site = 3
        coupling = _coupling(n, alpha)
        times = np.array([0.0, 0.9, 2.2])
        basis = enumerate_sector(n, 1)
        states = evolve(coupling, single_excitation_state(basis, site),
                      times)
        oracle = reference.onebody_amplitudes(coupling, site, times)
        np.testing.assert_allclose(states, oracle, rtol=0, atol=1e-12)
        norms = np.linalg.norm(states, axis=1)
        np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-12)
