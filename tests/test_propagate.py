"""Time grids, sector propagation and the single-excitation propagator."""

import numpy as np
import pytest

from spinchain import (
    ModelSpec,
    SectorHamiltonian,
    TimeGrid,
    coupling_matrix,
    enumerate_sector,
    evolve,
    neel_state,
    onebody_amplitudes,
    single_excitation_state,
)
from spinchain import reference
from spinchain.model import StateVector


class TestTimeGrid:
    def test_linspace(self):
        grid = TimeGrid.linspace(2.0, 5)
        np.testing.assert_allclose(grid.times, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert not grid.kac_rescaled

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([-1.0, 0.0]))
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, np.inf]))

    def test_physical_times(self):
        grid = TimeGrid(np.array([0.0, 1.0, 2.0]), kac_rescaled=True)
        np.testing.assert_allclose(grid.physical_times(4.0), [0.0, 0.25, 0.5])
        plain = TimeGrid(np.array([0.0, 1.0]))
        np.testing.assert_allclose(plain.physical_times(4.0), [0.0, 1.0])


class TestDenseEvolution:
    """evolve against exact references: closed form, full space, invariants."""

    def test_two_site_closed_form(self):
        # Single coupled pair: |10> rotates as cos(2Jt)|10> - i sin(2Jt)|01>.
        spec = ModelSpec(2, j0=0.8, alpha=1.0)
        basis = enumerate_sector(2, 1)
        psi0 = single_excitation_state(basis, 1)
        times = np.array([0.0, 0.3, 1.1])
        traj = evolve(coupling_matrix(spec), basis, psi0, TimeGrid(times))
        for i, t in enumerate(times):
            expected = np.array(
                [-1j * np.sin(1.6 * t), np.cos(1.6 * t)], dtype=complex
            )
            np.testing.assert_allclose(traj.states[i], expected, atol=1e-12)

    def test_t_zero_reproduces_input(self, basis6):
        coupling = coupling_matrix(ModelSpec(6, alpha=0.9))
        psi0 = neel_state(basis6)
        traj = evolve(coupling, basis6, psi0, TimeGrid(np.array([0.0])))
        np.testing.assert_array_equal(traj.states[0], psi0.amplitudes)

    def test_matches_full_space(self, basis6):
        coupling = coupling_matrix(ModelSpec(6, alpha=0.7))
        psi0 = neel_state(basis6)
        times = np.array([0.0, 0.4, 1.1, 2.7])
        traj = evolve(coupling, basis6, psi0, TimeGrid(times))
        full = reference.evolve_full(coupling, reference.embed_state(psi0), times)
        for i in range(len(times)):
            np.testing.assert_allclose(
                traj.states[i], full[i][basis6.states], atol=1e-12
            )

    def test_norm_and_energy_conserved(self, basis8):
        coupling = coupling_matrix(ModelSpec(8, alpha=0.4))
        ham = SectorHamiltonian(coupling, basis8)
        psi0 = neel_state(basis8)
        traj = evolve(coupling, basis8, psi0, TimeGrid.linspace(3.0, 7))
        e0 = ham.expectation(psi0.amplitudes)
        for i in range(len(traj)):
            amps = traj.states[i]
            assert abs(np.linalg.norm(amps) - 1.0) < 1e-12
            assert abs(ham.expectation(amps) - e0) < 1e-10

    def test_time_reversal(self, basis8):
        # H is real, so conjugation reverses time: U(-t) psi = conj(U(t) conj(psi)).
        coupling = coupling_matrix(ModelSpec(8, alpha=0.4))
        psi0 = neel_state(basis8)
        fwd = evolve(coupling, basis8, psi0, TimeGrid(np.array([1.3])))
        back = evolve(
            coupling,
            basis8,
            StateVector(basis8, fwd.states[0].conj()),
            TimeGrid(np.array([1.3])),
        )
        np.testing.assert_allclose(
            back.states[0].conj(), psi0.amplitudes, atol=1e-12
        )


class TestKrylovEvolution:
    """The legacy engine name 'krylov' runs the one propagation path."""

    @pytest.mark.parametrize("alpha", [0.2, 1.0, 3.0])
    def test_matches_dense(self, basis8, alpha):
        coupling = coupling_matrix(ModelSpec(8, alpha=alpha))
        psi0 = neel_state(basis8)
        grid = TimeGrid.linspace(4.0, 9)
        full = reference.evolve_full(coupling, reference.embed_state(psi0), grid.times)
        krylov = evolve(coupling, basis8, psi0, grid, engine="krylov")
        assert np.max(np.abs(full[:, basis8.states] - krylov.states)) < 1e-12

    def test_norm_preserved(self, basis8):
        coupling = coupling_matrix(ModelSpec(8, alpha=0.3))
        traj = evolve(coupling, basis8, neel_state(basis8), TimeGrid.linspace(5.0, 6),
                      engine="krylov")
        norms = np.linalg.norm(traj.states, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)


class TestEvolveDispatcher:
    def test_matrix_free_matches_csr(self, basis8, monkeypatch):
        coupling = coupling_matrix(ModelSpec(8, alpha=0.4))
        psi0 = neel_state(basis8)
        grid = TimeGrid.linspace(3.0, 5)
        csr = evolve(coupling, basis8, psi0, grid)
        monkeypatch.setattr("spinchain.model.SPARSE_CACHE_THRESHOLD", 0)

        def no_matrix(self):
            raise AssertionError("the matrix-free path built a CSR matrix")

        monkeypatch.setattr(SectorHamiltonian, "matrix", no_matrix)
        free = evolve(coupling, basis8, psi0, grid)
        assert np.max(np.abs(csr.states - free.states)) < 1e-12

    def test_engine_names(self, basis6):
        coupling = coupling_matrix(ModelSpec(6, alpha=0.7))
        psi0 = neel_state(basis6)
        grid = TimeGrid.linspace(1.0, 3)
        runs = [evolve(coupling, basis6, psi0, grid, engine=name).states
                for name in ("auto", "dense", "krylov")]
        for states in runs[1:]:
            np.testing.assert_array_equal(states, runs[0])
        with pytest.raises(ValueError):
            evolve(coupling, basis6, psi0, grid, engine="magic")

    def test_trajectory_state_at(self, basis6):
        coupling = coupling_matrix(ModelSpec(6, alpha=0.7))
        traj = evolve(coupling, basis6, neel_state(basis6), TimeGrid.linspace(1.0, 3))
        assert len(traj) == 3
        sv = traj.state_at(2)
        assert sv.basis is basis6
        np.testing.assert_array_equal(sv.amplitudes, traj.states[2])


class TestOneBody:
    def test_amplitudes_match_sector_evolution(self):
        # k=1 sector masks ascend as 1 << site, so columns line up with sites.
        n, site = 8, 3
        coupling = coupling_matrix(ModelSpec(n, alpha=0.5))
        times = np.array([0.0, 0.9, 2.2])
        amps = onebody_amplitudes(coupling, site, times)
        basis = enumerate_sector(n, 1)
        traj = evolve(coupling, basis, single_excitation_state(basis, site),
                      TimeGrid(times))
        np.testing.assert_allclose(amps, traj.states, atol=1e-11)
        norms = np.linalg.norm(amps, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
