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
    coupling_matrix,
    enumerate_sector,
    neel_state,
    sector_dimension,
    single_excitation_state,
)
from spinchain import reference
from spinchain.bits import reverse_bits
from spinchain.model import reflection_invariant

from conftest import skewed_coupling


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
        assert np.all(np.bitwise_count(basis.states) == 2)

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
        # 8 B per int64 mask, refused before Gosper's loop runs
        with pytest.raises(CapacityError, match=r"sector \(40, 20\) has 137,846,528,820 "
                                                r"states, about 1102\.8 GB as int64 masks"):
            enumerate_sector(40, 20)
        with pytest.raises(CapacityError, match=r"sector \(32, 16\) has 601,080,390 states, "
                                                r"about 4\.8 GB as int64 masks, over the "
                                                r"2 GiB budget"):
            enumerate_sector(32, 16)

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


class TestReflectionInvariant:
    def test_reverse_bits(self):
        for n in (1, 5, 8):
            masks = np.arange(1 << n)
            expected = [int(format(m, f"0{n}b")[::-1], 2) for m in range(1 << n)]
            np.testing.assert_array_equal(reverse_bits(masks, n), expected)

    @pytest.mark.parametrize("n", range(2, 15))
    def test_neel_state_at_every_n(self, n):
        basis = enumerate_sector(n, n // 2)
        for spec in (ModelSpec(n, alpha=0.3), ModelSpec(n, nn_limit=True)):
            assert reflection_invariant(coupling_matrix(spec), neel_state(basis))

    @pytest.mark.parametrize("n", [7, 8, 9])
    def test_single_excitation_only_at_the_centre_of_odd_chains(self, n):
        basis = enumerate_sector(n, 1)
        coupling = coupling_matrix(ModelSpec(n, alpha=0.5))
        for site in range(n):
            found = reflection_invariant(coupling, single_excitation_state(basis, site))
            assert found == (n % 2 == 1 and site == n // 2), (n, site)

    @pytest.mark.parametrize("n", [8, 9])
    def test_neel_state_under_skewed_couplings(self, n):
        basis = enumerate_sector(n, n // 2)
        assert not reflection_invariant(skewed_coupling(n), neel_state(basis))

    def test_amplitudes_must_match_exactly(self, basis8):
        coupling = coupling_matrix(ModelSpec(8, alpha=0.5))
        amps = neel_state(basis8).amplitudes.copy()
        # 0b00011011 is fixed by neither R nor RF
        amps[basis8.rank(0b00011011)] = 1e-17
        assert not reflection_invariant(coupling, StateVector(basis8, amps))


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
                np.testing.assert_allclose(ham.matrix().toarray(), block, atol=1e-13)

    def test_full_space_block_diagonal(self):
        # H never connects different excitation sectors.
        coupling = coupling_matrix(ModelSpec(6, alpha=1.2))
        full = reference.full_hamiltonian(coupling)
        weight = np.bitwise_count(np.arange(1 << 6))
        off_sector = weight[:, None] != weight[None, :]
        assert np.max(np.abs(full[off_sector])) == 0.0

    def test_apply_matches_matrix(self, basis8, rng):
        coupling = coupling_matrix(ModelSpec(8, alpha=0.5))
        ham = SectorHamiltonian(coupling, basis8)
        vec = rng.normal(size=basis8.dim) + 1j * rng.normal(size=basis8.dim)
        np.testing.assert_allclose(
            ham.apply(vec), ham.matrix() @ vec, rtol=0, atol=1e-12
        )
        # apply also takes a block of columns, here one of shape (dim, 1)
        col = ham.apply(vec[:, None])
        assert col.shape == (basis8.dim, 1)
        np.testing.assert_allclose(col[:, 0], ham.apply(vec), atol=1e-14)

    @pytest.mark.parametrize("n", [8, 9, 10, 12])
    @pytest.mark.parametrize("alpha", [0.5, 3.0, "nn"])
    def test_csr_exact_size(self, n, alpha):
        # nnz = coupled pairs x 2 C(N-2, k-1), and the byte estimate the
        # guard refuses on is exactly what the built matrix holds
        spec = ModelSpec(n, nn_limit=True) if alpha == "nn" else ModelSpec(n, alpha=alpha)
        coupling = coupling_matrix(spec)
        pairs = n - 1 if alpha == "nn" else n * (n - 1) // 2
        for k in (0, 1, 2, n // 2, n - 1, n):
            ham = SectorHamiltonian(coupling, enumerate_sector(n, k))
            mat = ham.matrix()
            assert mat.nnz == ham.nnz == (pairs * 2 * math.comb(n - 2, k - 1) if k else 0)
            assert mat.indices.dtype == mat.indptr.dtype == np.int32
            assert mat.has_sorted_indices
            for row in np.split(mat.indices, mat.indptr[1:-1]):
                assert np.all(np.diff(row) > 0)
            assert ham.nbytes == mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes

    def test_budget_refuses_before_building(self, basis8, monkeypatch):
        coupling = coupling_matrix(ModelSpec(8, alpha=0.5))
        # 28 pairs x 2 C(6, 3) = 1,120 nonzeros; 12 B each plus 71 row pointers
        assert SectorHamiltonian(coupling, basis8).nbytes == 13_724
        monkeypatch.setattr("spinchain.errors.MEMORY_BUDGET", 13_723)

        def no_matrix(self):
            raise AssertionError("the guard let the CSR build start")

        monkeypatch.setattr(SectorHamiltonian, "matrix", no_matrix)
        with pytest.raises(CapacityError,
                           match=r"sector \(8, 4\) Hamiltonian has 1,120 nonzeros, "
                                 r"about 0\.0 GB as a CSR matrix"):
            SectorHamiltonian(coupling, basis8)
        monkeypatch.setattr("spinchain.errors.MEMORY_BUDGET", 13_724)
        SectorHamiltonian(coupling, basis8)

    def test_hermitian(self, basis6):
        ham = SectorHamiltonian(coupling_matrix(ModelSpec(6, alpha=0.3)), basis6)
        dense = ham.matrix().toarray()
        np.testing.assert_array_equal(dense, dense.T.conj())

    def test_expectation_real(self, basis6, rng):
        ham = SectorHamiltonian(coupling_matrix(ModelSpec(6, alpha=0.3)), basis6)
        vec = rng.normal(size=basis6.dim) + 1j * rng.normal(size=basis6.dim)
        vec /= np.linalg.norm(vec)
        val = ham.expectation(vec)
        assert isinstance(val, float)
        ref = np.vdot(vec, ham.apply(vec))
        assert val == pytest.approx(ref.real, abs=1e-12)


def total_excitation_mask_weight(basis):
    """Eigenvalues of sum_m Z_m per basis state (Z|1> = +|1>, Z|0> = -|0>)."""
    return 2.0 * np.bitwise_count(basis.states) - basis.n_sites


def test_total_excitation_weight(basis8):
    weights = total_excitation_mask_weight(basis8)
    np.testing.assert_array_equal(weights, np.zeros(basis8.dim))  # 2k - N = 0
    basis = enumerate_sector(5, 1)
    np.testing.assert_array_equal(
        total_excitation_mask_weight(basis), np.full(basis.dim, -3)
    )
