"""Schmidt spectra, subset entropy tables, MI and TMI."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinchain import (
    EntropyTablePlan,
    ModelSpec,
    NumericalConsistencyError,
    SchmidtSpectrum,
    SubsetEntropyTable,
    TimeGrid,
    coupling_matrix,
    enumerate_sector,
    evolve,
    mutual_information,
    neel_state,
    subset_entropy_table,
    subsystem_spectrum,
    tmi,
    von_neumann,
)
from spinchain import entropy, reference, runs
from spinchain.bits import reverse_bits
from spinchain.config import RunConfig
from spinchain.model import StateVector, reflection_invariant
from spinchain.partitions import PartitionSet, contiguous_quarters, enumerate_partitions

from conftest import random_sector_state, skewed_coupling


class TestMaskValidation:
    def test_rejects_out_of_range(self, basis6):
        table = subset_entropy_table(neel_state(basis6))
        for mask in (1 << 6, -1):
            with pytest.raises(ValueError, match="outside a 6-site chain"):
                table[mask]
            with pytest.raises(ValueError, match="outside a 6-site chain"):
                subsystem_spectrum(neel_state(basis6), mask)
        with pytest.raises(ValueError, match="outside a 6-site chain"):
            EntropyTablePlan(basis6, [0b11, 1 << 6])

    def test_rejects_non_integer_masks(self, basis6):
        # a float is refused, never truncated to the mask below it
        table = subset_entropy_table(neel_state(basis6))
        with pytest.raises(TypeError):
            table[2.7]
        with pytest.raises(TypeError):
            tmi(table, 1, 2, 4.9)
        with pytest.raises(TypeError):
            EntropyTablePlan(basis6, [2.5])
        # numpy integers are masks like any other
        assert table[np.int64(0b1011)] == table[0b1011]
        assert tmi(table, np.uint8(1), 2, np.int32(4)) == tmi(table, 1, 2, 4)
        assert EntropyTablePlan(basis6, np.array([2])).mask_array.tolist() == [0, 2, 63]


class TestSchmidtSpectrum:
    def test_tiny_negative_weights_snap_to_zero(self):
        spec = SchmidtSpectrum(np.array([1.0 + 5e-13, -5e-13]))
        assert spec.weights[-1] == 0.0
        assert spec.entropy() == pytest.approx(0.0, abs=1e-11)

    def test_rejects_genuinely_negative_weights(self):
        with pytest.raises(NumericalConsistencyError):
            SchmidtSpectrum(np.array([1.0, -1e-6]))

    def test_rejects_bad_normalization(self):
        with pytest.raises(NumericalConsistencyError):
            SchmidtSpectrum(np.array([0.7, 0.2]))

    def test_sorted_descending(self):
        spec = SchmidtSpectrum(np.array([0.25, 0.5, 0.25]))
        np.testing.assert_array_equal(spec.weights, [0.5, 0.25, 0.25])

    def test_entropy_values(self):
        assert SchmidtSpectrum(np.array([1.0])).entropy() == 0.0
        assert SchmidtSpectrum(np.array([0.5, 0.5])).entropy() == pytest.approx(1.0)
        assert von_neumann(np.array([0.25] * 4)) == pytest.approx(2.0)


class TestSubsystemSpectrum:
    def test_product_state_is_pure(self, basis6):
        psi = neel_state(basis6)
        spec = subsystem_spectrum(psi, 0b000111)
        np.testing.assert_allclose(spec.weights[0], 1.0, atol=1e-14)
        assert spec.entropy() == pytest.approx(0.0, abs=1e-12)

    def test_bell_pair(self):
        basis = enumerate_sector(2, 1)
        psi = StateVector(basis, np.array([1.0, 1.0]) / np.sqrt(2.0))
        spec = subsystem_spectrum(psi, 0b01)
        np.testing.assert_allclose(spec.weights, [0.5, 0.5], atol=1e-14)
        assert spec.entropy() == pytest.approx(1.0)

    def test_matches_full_space(self, evolved8, rng):
        full = reference.embed_state(evolved8)
        for mask in rng.integers(1, 255, size=12):
            mask = int(mask)
            mine = subsystem_spectrum(evolved8, subset=mask).weights
            ref = reference.reduced_spectrum_full(full, 8, mask)
            ref = np.sort(ref)[::-1][: len(mine)]
            np.testing.assert_allclose(mine, ref, atol=1e-10)

    def test_subset_accepts_site_subset(self, evolved8):
        # a site subset is an integer mask, numpy's included
        via_mask = subsystem_spectrum(evolved8, subset=0b1010)
        via_numpy = subsystem_spectrum(evolved8, subset=np.int64(0b1010))
        np.testing.assert_array_equal(via_mask.weights, via_numpy.weights)


def grids_from_site_lists(basis, mask):
    """Excitation-block index grids built from explicit site lists.

    Row r of split j is the r-th j-site pattern on the subset and column c
    the c-th pattern on the rest, both in ascending mask order; the cell
    is the basis rank of their union.
    """
    n, k = basis.n_sites, basis.n_excitations
    rank = {int(s): i for i, s in enumerate(basis.states)}
    inside = [s for s in range(n) if mask >> s & 1]
    outside = [s for s in range(n) if not mask >> s & 1]

    def patterns(sites, count):
        return sorted(sum(1 << s for s in comb) for comb in combinations(sites, count))

    grids = []
    for j in range(k + 1):
        rows, cols = patterns(inside, j), patterns(outside, k - j)
        if rows and cols:
            grids.append(np.array([[rank[r | c] for c in cols] for r in rows],
                                  dtype=np.int32))
    return grids


@pytest.mark.parametrize("n, k", [(8, 4), (10, 3), (12, 1), (12, 6)])
def test_block_grids_match_site_list_construction(n, k):
    basis = enumerate_sector(n, k)
    rng = np.random.default_rng(1000 * n + k)
    top = 1 << (n - 1)
    masks = [1, top, 1 << (n // 2), top | 1, (1 << n) - 2]
    masks += [int(m) for m in rng.integers(1, 1 << n, 12)]
    masks += [int(m) | top for m in rng.integers(1, top, 4)]
    for mask in masks:
        expected = grids_from_site_lists(basis, mask)
        found = list(entropy._block_index_grids(basis, mask))
        assert len(found) == len(expected)
        for grid, ref in zip(found, expected):
            assert grid.dtype == np.int32
            assert np.array_equal(grid, ref), (n, k, mask)


class TestSubsetEntropyTable:
    def test_trivial_subsets_have_zero_entropy(self, evolved8):
        table = subset_entropy_table(evolved8)
        assert table[0] == 0.0
        assert table[0b11111111] == 0.0

    def test_complement_symmetry_exact(self, evolved8):
        table = subset_entropy_table(evolved8)
        dense = table.dense
        full = 0b11111111
        for mask in range(1 << 8):
            assert dense[mask] == dense[full ^ mask]

    def test_matches_full_space_everywhere(self, evolved8):
        table = subset_entropy_table(evolved8)
        full = reference.embed_state(evolved8)
        worst = max(
            abs(table[m] - reference.subset_entropy_full(full, 8, m))
            for m in range(1 << 8)
        )
        assert worst < 1e-10

    def test_masks_mode(self, evolved8):
        masks = [0b1, 0b1100, 0b11110000]
        table = subset_entropy_table(evolved8, masks=masks)
        assert not table.is_dense
        assert set(table.mask_array) >= set(masks)
        dense = subset_entropy_table(evolved8)
        for m in masks:
            assert table[m] == pytest.approx(dense[m], abs=1e-12)
        with pytest.raises(KeyError):
            table[0b1010]

    def test_gather_rejects_absent_masks(self, evolved8):
        table = subset_entropy_table(evolved8, masks=[0b1, 0b1100, 0b110000])
        present = np.array([0b110000, 0b1, 0b1100, 0])
        np.testing.assert_array_equal(
            table.gather(present), [table[int(m)] for m in present])
        # 0b1010 sorts between the present masks 0b1 and 0b1100
        for absent in (0b1010, 0b1101, 0b11):
            with pytest.raises(KeyError):
                table.gather(np.array([0b1, absent]))
            with pytest.raises(KeyError):
                table[absent]
        # below the first and above the last stored mask
        sparse = SubsetEntropyTable(8, np.array([0b10, 0b100]), np.array([0.5, 0.25]))
        for absent in (0b1, 0b11, 0b1000):
            with pytest.raises(KeyError):
                sparse.gather(np.array([absent]))
        assert sparse[0b100] == 0.25

    def test_neel_entropies_exactly_zero(self, basis8):
        # a product state: every Gram matrix is diagonal with entries 0 and 1,
        # so eigvalsh roundoff must not leave a nonzero or NaN entropy
        traj = evolve(coupling_matrix(ModelSpec(8, alpha=0.6)), basis8,
                      neel_state(basis8), TimeGrid(np.array([0.0, 0.3])))
        for masks in (None, [0b1, 0b110, 0b11110000, 0b10101010]):
            plan = EntropyTablePlan(basis8, masks)
            for amps in (neel_state(basis8).amplitudes, traj.states[0]):
                values = plan.evaluate(amps).values
                assert not np.any(np.isnan(values))
                assert np.all(values == 0.0)

    def test_roundoff_gram_eigenvalues_snap_to_zero(self, basis8, monkeypatch):
        # Neel Gram eigenvalues are exactly 0 and 1; push them just below
        plan = EntropyTablePlan(basis8)
        monkeypatch.setattr(entropy, "eigvalsh",
                            lambda g: np.linalg.eigvalsh(g) - 0.5 * entropy.WEIGHT_CLIP)
        values = plan.evaluate(neel_state(basis8).amplitudes).values
        assert not np.any(np.isnan(values))
        assert np.max(values) < 1e-10

    def test_negative_gram_eigenvalue_raises(self, evolved8, basis8, monkeypatch):
        def low_eigvalsh(gram):
            w = np.linalg.eigvalsh(gram)
            w[..., 0] = -2.0 * entropy.WEIGHT_CLIP
            return w

        plan = EntropyTablePlan(basis8)
        monkeypatch.setattr(entropy, "eigvalsh", low_eigvalsh)
        with pytest.raises(NumericalConsistencyError, match="roundoff floor"):
            plan.evaluate(evolved8.amplitudes)

    def test_plan_reuse_across_states(self, basis8, rng):
        plan = EntropyTablePlan(basis8)
        t1 = plan.evaluate(random_sector_state(basis8, rng))
        t2 = plan.evaluate(random_sector_state(basis8, rng))
        assert t1.dense.shape == t2.dense.shape
        assert not np.array_equal(t1.dense, t2.dense)

    def test_entropy_bounds(self, evolved8):
        # 0 <= S(A) <= min(|A|, |complement|) qubits for any subset
        table = subset_entropy_table(evolved8)
        masks = np.arange(1 << 8)
        sizes = np.bitwise_count(masks).astype(float)
        bound = np.minimum(sizes, 8.0 - sizes)
        assert np.all(table.dense >= 0.0)
        assert np.all(table.dense <= bound + 1e-12)


class TestReflectedPlans:
    """Plans that identify mirror images, for reflection-invariant quenches."""

    @pytest.mark.parametrize("n", [8, 9, 10, 11, 12])
    @pytest.mark.parametrize("spec", [{"alpha": 0.3}, {"alpha": 3.0}, {"nn_limit": True}],
                             ids=["alpha0.3", "alpha3", "nn"])
    def test_matches_general_plan(self, n, spec):
        basis = enumerate_sector(n, n // 2)
        coupling = coupling_matrix(ModelSpec(n, **spec))
        psi0 = neel_state(basis)
        assert reflection_invariant(coupling, psi0)
        grid = TimeGrid.linspace(5.0, 4, kac_rescaled=True)
        general = EntropyTablePlan(basis, None)
        reflected = EntropyTablePlan(basis, None, reflected=True)
        masks = np.arange(1 << n)
        full = (1 << n) - 1
        mirrored = reverse_bits(masks, n)
        for amps in evolve(coupling, basis, psi0, grid).states:
            expected = general.evaluate(amps).dense
            found = reflected.evaluate(amps).dense
            np.testing.assert_allclose(found, expected, rtol=0, atol=1e-12)
            # every image of a mask reads its representative's slot
            for image in (full ^ masks, mirrored, full ^ mirrored):
                assert np.array_equal(found[image], found)

    @pytest.mark.parametrize("n, family, general, reflected", [
        (12, "contiguous", 231, 121),
        (12, "all", 2047, 1055),
        (16, "quarters", 7, 5),
    ])
    def test_representative_counts(self, n, family, general, reflected):
        basis = enumerate_sector(n, n // 2)
        if family == "all":
            masks = None  # every bitmask
        elif family == "quarters":  # tmi-vs-entropy: quarters plus the half chain
            a, b, c = contiguous_quarters(n)
            masks = np.union1d(PartitionSet(n, [a], [b], [c]).read_masks, [(1 << n // 2) - 1])
        else:
            masks = enumerate_partitions(n, family).read_masks
        assert len(EntropyTablePlan(basis, masks).reps) == general
        assert len(EntropyTablePlan(basis, masks, reflected=True).reps) == reflected

    @pytest.fixture
    def built_plans(self, monkeypatch):
        """Every plan the runners build during a test, in order."""
        built = []

        class Recorded(EntropyTablePlan):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(runs, "EntropyTablePlan", Recorded)
        runs._cached_plan.cache_clear()
        yield built
        runs._cached_plan.cache_clear()

    @staticmethod
    def _run_table(cfg, coupling):
        pset = enumerate_partitions(cfg.n_sites, "contiguous")
        runs._table(cfg, coupling, runs._time_grid(cfg), pset)
        basis, _ = runs._initial_state(cfg)
        return basis, pset.read_masks

    @pytest.mark.parametrize("initial_state, site, skewed", [
        ("single", 2, False),  # an off-centre excitation
        ("neel", None, True),  # couplings that are not reflection symmetric
    ])
    def test_runner_keeps_general_plan_without_symmetry(self, built_plans, initial_state,
                                                        site, skewed):
        cfg = RunConfig(n_sites=8, alphas=(0.6,), initial_state=initial_state,
                        initial_site=site, n_points=3, t_max=1.0)
        coupling = skewed_coupling(8) if skewed else coupling_matrix(cfg.sweep()[0][1])
        basis, masks = self._run_table(cfg, coupling)
        (plan,) = built_plans
        general = EntropyTablePlan(basis, masks).reps
        assert len(EntropyTablePlan(basis, masks, reflected=True).reps) < len(general)
        np.testing.assert_array_equal(plan.reps, general)

    def test_cached_plan_keys_on_reflection(self, built_plans):
        cfg = RunConfig(n_sites=8, alphas=(0.6,), n_points=3, t_max=1.0)
        basis, masks = self._run_table(cfg, coupling_matrix(cfg.sweep()[0][1]))
        self._run_table(cfg, skewed_coupling(8))
        reflected, general = built_plans
        np.testing.assert_array_equal(
            reflected.reps, EntropyTablePlan(basis, masks, reflected=True).reps)
        np.testing.assert_array_equal(general.reps, EntropyTablePlan(basis, masks).reps)
        assert len(reflected.reps) < len(general.reps)


class TestInformationMeasures:
    def test_mutual_information_identity(self, evolved8):
        table = subset_entropy_table(evolved8)
        a, b = 0b11, 0b1100
        assert mutual_information(table, a, b) == pytest.approx(
            table[a] + table[b] - table[a | b], abs=1e-14
        )

    def test_disjointness_enforced(self, evolved8):
        table = subset_entropy_table(evolved8)
        with pytest.raises(ValueError):
            mutual_information(table, 0b11, 0b110)
        with pytest.raises(ValueError):
            tmi(table, 0b1, 0b10, 0b11)

    def test_tmi_symmetry_in_arguments(self, evolved8):
        table = subset_entropy_table(evolved8)
        a, b, c = 0b11, 0b1100, 0b110000
        vals = {
            tmi(table, a, b, c),
            tmi(table, b, a, c),
            tmi(table, c, b, a),
            tmi(table, a, c, b),
        }
        assert max(vals) - min(vals) < 1e-12

    def test_mi_nonnegative_and_monotone(self, evolved8):
        table = subset_entropy_table(evolved8)
        rng = np.random.default_rng(7)
        for _ in range(40):
            sites = rng.permutation(8)
            a = int(1 << sites[0])
            b = int(1 << sites[1])
            c = int((1 << sites[2]) | (1 << sites[3]))
            assert mutual_information(table, a, b) >= -1e-9
            assert (
                mutual_information(table, a, b | c)
                >= mutual_information(table, a, b) - 1e-9
            )


@given(st.integers(min_value=0, max_value=(1 << 8) - 1))
@settings(max_examples=40, deadline=None)
def test_table_weights_consistent_under_random_masks(mask):
    # Spectrum-based entropy equals the table entry for every subset.
    basis = enumerate_sector(8, 4)
    rng = np.random.default_rng(mask)
    psi = StateVector(basis, random_sector_state(basis, rng))
    table = subset_entropy_table(psi)
    spec = subsystem_spectrum(psi, subset=mask)
    assert abs(table[mask] - spec.entropy()) < 1e-10
