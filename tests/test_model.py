"""Couplings, sector bases, initial states, and the sector Hamiltonian."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinchain import (
    CapacityError,
    ModelSpec,
    SectorHamiltonian,
    StateVector,
    apply_hamiltonian,
    coupling_matrix,
    enumerate_sector,
    neel_state,
    sector_dimension,
    single_excitation_state,
    total_excitation_mask_weight,
)
from spinchain import reference
from spinchain.bits import popcount


class TestModelSpec:
    def test_requires_alpha_or_nn_limit(self):
        with pytest.raises(ValueError):
            ModelSpec(4)
        with pytest.raises(ValueError):
            ModelSpec(4, alpha=1.0, nn_limit=True)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ModelSpec(1, alpha=1.0)
        with pytest.raises(ValueError):
            ModelSpec(4, j0=0.0, alpha=1.0)
        with pytest.raises(ValueError):
            ModelSpec(4, alpha=-0.5)
        with pytest.raises(ValueError):
            ModelSpec(4, alpha=math.inf)

    def test_alpha_zero_is_uniform(self):
        entries = coupling_matrix(ModelSpec(4, alpha=0.0)).entries
        off = entries[~np.eye(4, dtype=bool)]
        assert np.all(off == 1.0)


class TestCouplingMatrix:
    def test_two_site_chain(self):
        cm = coupling_matrix(ModelSpec(2, j0=0.7, alpha=1.3))
        assert cm.entries[0, 1] == pytest.approx(0.7)
        assert cm.entries[0, 0] == 0.0

    def test_power_law_values(self):
        cm = coupling_matrix(ModelSpec(4, alpha=1.0))
        expected = np.array(
            [
                [0.0, 1.0, 0.5, 1.0 / 3.0],
                [1.0, 0.0, 1.0, 0.5],
                [0.5, 1.0, 0.0, 1.0],
                [1.0 / 3.0, 0.5, 1.0, 0.0],
            ]
        )
        np.testing.assert_allclose(cm.entries, expected, rtol=0, atol=1e-15)

    def test_nn_limit_band(self):
        cm = coupling_matrix(ModelSpec(5, nn_limit=True))
        expected = np.diag(np.ones(4), 1) + np.diag(np.ones(4), -1)
        np.testing.assert_array_equal(cm.entries, expected)

    def test_kac_constant(self):
        # N=4, alpha=1: pair sum 3*1 + 2*(1/2) + 1/3, divided by N
        cm = coupling_matrix(ModelSpec(4, alpha=1.0))
        assert cm.kac == pytest.approx((3.0 + 1.0 + 1.0 / 3.0) / 4.0, rel=1e-14)
        nn = coupling_matrix(ModelSpec(6, nn_limit=True))
        assert nn.kac == pytest.approx(5.0 / 6.0, rel=1e-14)

    def test_symmetry(self):
        cm = coupling_matrix(ModelSpec(7, alpha=0.4))
        np.testing.assert_array_equal(cm.entries, cm.entries.T)


class TestSectorBasis:
    def test_dimension_matches_binomial(self):
        assert sector_dimension(12, 6) == 924
        assert sector_dimension(16, 8) == 12870
        with pytest.raises(ValueError):
            sector_dimension(4, 5)

    def test_states_sorted_with_fixed_weight(self):
        basis = enumerate_sector(6, 2)
        assert basis.dim == 15
        assert np.all(np.diff(basis.states) > 0)
        assert np.all(popcount(basis.states) == 2)

    def test_rank_round_trip(self, basis8):
        for i in (0, 1, 17, basis8.dim - 1):
            assert basis8.rank(int(basis8.states[i])) == i
        ranks = basis8.rank_many(basis8.states)
        np.testing.assert_array_equal(ranks, np.arange(basis8.dim))

    def test_rank_rejects_foreign_mask(self, basis8):
        with pytest.raises(KeyError):
            basis8.rank(0b111)  # weight 3, not in the k=4 sector

    def test_enumerate_sector_is_cached(self):
        assert enumerate_sector(6, 3) is enumerate_sector(6, 3)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            enumerate_sector(40, 20)

    @given(
        st.integers(min_value=2, max_value=10).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=n))
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_rank_inverts_enumeration(self, nk):
        n, k = nk
        basis = enumerate_sector(n, k)
        idx = basis.rank_many(basis.states)
        assert np.array_equal(idx, np.arange(basis.dim))


class TestInitialStates:
    def test_neel_mask(self, basis6):
        psi = neel_state(basis6)
        hot = np.flatnonzero(psi.amplitudes)
        assert hot.size == 1
        assert basis6.states[hot[0]] == 0b101010
        assert psi.amplitudes[hot[0]] == 1.0

    def test_neel_requires_half_filling(self):
        with pytest.raises(ValueError):
            neel_state(enumerate_sector(6, 2))

    def test_single_excitation(self):
        basis = enumerate_sector(5, 1)
        psi = single_excitation_state(basis, 3)
        assert psi.amplitudes[basis.rank(1 << 3)] == 1.0
        assert psi.norm == pytest.approx(1.0)
        with pytest.raises(ValueError):
            single_excitation_state(basis, 5)

    def test_state_vector_validation(self, basis6):
        with pytest.raises(ValueError):
            StateVector(basis6, np.ones(3, dtype=np.complex128))


class TestSectorHamiltonian:
    def test_matches_full_space_restriction(self, rng):
        # Project the 2^N-space Hamiltonian onto the sector and compare.
        for spec in (ModelSpec(6, alpha=0.7), ModelSpec(6, nn_limit=True)):
            coupling = coupling_matrix(spec)
            full = reference.full_hamiltonian(coupling)
            for k in (1, 2, 3):
                basis = enumerate_sector(6, k)
                block = full[np.ix_(basis.states, basis.states)]
                ham = SectorHamiltonian(coupling, basis)
                np.testing.assert_allclose(ham.dense(), block, atol=1e-13)

    def test_full_space_block_diagonal(self):
        # H never connects different excitation sectors.
        coupling = coupling_matrix(ModelSpec(6, alpha=1.2))
        full = reference.full_hamiltonian(coupling)
        weight = popcount(np.arange(1 << 6))
        off_sector = weight[:, None] != weight[None, :]
        assert np.max(np.abs(full[off_sector])) == 0.0

    def test_apply_matches_matrix(self, basis8, rng):
        coupling = coupling_matrix(ModelSpec(8, alpha=0.5))
        ham = SectorHamiltonian(coupling, basis8)
        vec = rng.normal(size=basis8.dim) + 1j * rng.normal(size=basis8.dim)
        np.testing.assert_allclose(
            ham.apply(vec), ham.matrix() @ vec, rtol=0, atol=1e-12
        )
        psi = StateVector(basis8, vec / np.linalg.norm(vec))
        out = apply_hamiltonian(coupling, basis8, psi)
        np.testing.assert_allclose(
            out.amplitudes, ham.apply(psi.amplitudes), atol=1e-14
        )

    def test_matrix_free_path(self, basis8, rng, monkeypatch):
        ham = SectorHamiltonian(coupling_matrix(ModelSpec(8, alpha=0.5)), basis8)
        vec = rng.normal(size=basis8.dim) + 1j * rng.normal(size=basis8.dim)
        # LinearOperator.matmat hands apply single columns of shape (dim, 1)
        col = vec[:, None]
        cached = ham.apply(vec), ham.apply(col)
        # apply reads the threshold when it runs: 0 sends every sector matrix-free
        monkeypatch.setattr("spinchain.model.SPARSE_CACHE_THRESHOLD", 0)

        def no_matrix(self):
            raise AssertionError("the matrix-free path read the CSR matrix")

        monkeypatch.setattr(SectorHamiltonian, "matrix", no_matrix)
        np.testing.assert_allclose(ham.apply(vec), cached[0], atol=1e-12)
        assert ham.apply(col).shape == cached[1].shape == (basis8.dim, 1)
        np.testing.assert_allclose(ham.apply(col), cached[1], atol=1e-12)

    def test_hermitian(self, basis6):
        ham = SectorHamiltonian(coupling_matrix(ModelSpec(6, alpha=0.3)), basis6)
        dense = ham.dense()
        np.testing.assert_array_equal(dense, dense.T.conj())

    def test_expectation_real(self, basis6, rng):
        ham = SectorHamiltonian(coupling_matrix(ModelSpec(6, alpha=0.3)), basis6)
        vec = rng.normal(size=basis6.dim) + 1j * rng.normal(size=basis6.dim)
        vec /= np.linalg.norm(vec)
        val = ham.expectation(vec)
        assert isinstance(val, float)
        ref = np.vdot(vec, ham.apply(vec))
        assert val == pytest.approx(ref.real, abs=1e-12)


def test_total_excitation_weight(basis8):
    weights = total_excitation_mask_weight(basis8)
    np.testing.assert_array_equal(weights, np.zeros(basis8.dim))  # 2k - N = 0
    basis = enumerate_sector(5, 1)
    np.testing.assert_array_equal(
        total_excitation_mask_weight(basis), np.full(basis.dim, -3)
    )
