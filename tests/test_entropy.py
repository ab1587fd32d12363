"""Schmidt spectra, subset entropy tables, MI and TMI."""

import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import eigvalsh

from spinchain import (
    CapacityError,
    EntropyTablePlan,
    ModelSpec,
    NumericalConsistencyError,
    SectorHamiltonian,
    SubsetEntropyTable,
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
        # the plan covers mask 2, its complement and the trivial masks
        plan = EntropyTablePlan(basis6, np.array([2]))
        assert np.flatnonzero(plan.rows >= 0).tolist() == [0, 2, 61, 63]


class TestSchmidtSpectrum:
    """Checks on arrays of Schmidt weights: the roundoff snap and floor of
    the plan path's _snap_weights, and the sum and order that
    subsystem_spectrum enforces.  The class keeps the name of the spectrum
    type that made these checks before the weights became plain arrays,
    so the test ids stay."""

    def test_tiny_negative_weights_snap_to_zero(self):
        w = entropy._snap_weights(np.array([1.0 + 5e-13, -5e-13]))
        assert w[-1] == 0.0
        assert von_neumann(w) == pytest.approx(0.0, abs=1e-11)
        # the plan path snaps the Gram eigenvalues: those of a rank-1 block
        # that should be zero come out as roundoff, here negative
        rng = np.random.default_rng(0)
        u, v = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        block = np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))[None]
        assert eigvalsh(block @ block.conj().transpose(0, 2, 1)).min() < 0.0
        w = entropy._gram_weights(block)
        assert w.min() == 0.0 and w.sum() == pytest.approx(1.0, abs=1e-14)

    def test_rejects_genuinely_negative_weights(self):
        with pytest.raises(NumericalConsistencyError, match="below the roundoff floor"):
            entropy._snap_weights(np.array([1.0, -1e-6]))

    def test_rejects_bad_normalization(self, basis6):
        amps = np.zeros(basis6.dim, dtype=complex)
        amps[[0, 1]] = np.sqrt([0.7, 0.2])
        psi = StateVector(basis6, amps)
        with pytest.raises(NumericalConsistencyError,
                           match=r"^Schmidt weights sum to 0\.[89]\d*, expected 1 within 1e-10$"):
            subsystem_spectrum(psi, 0b000111)

    def test_sorted_descending(self, evolved8):
        for mask in (0b1, 0b1010, 0b01110001):
            w = subsystem_spectrum(evolved8, mask)
            assert len(w) > 1
            assert np.all(np.diff(w) <= 0.0)

    def test_entropy_values(self):
        assert von_neumann(np.array([1.0])) == 0.0
        assert von_neumann(np.array([0.5, 0.5])) == pytest.approx(1.0)
        assert von_neumann(np.array([0.25] * 4)) == pytest.approx(2.0)


class TestSubsystemSpectrum:
    def test_product_state_is_pure(self, basis6):
        psi = neel_state(basis6)
        w = subsystem_spectrum(psi, 0b000111)
        np.testing.assert_allclose(w[0], 1.0, atol=1e-14)
        assert von_neumann(w) == pytest.approx(0.0, abs=1e-12)

    def test_bell_pair(self):
        basis = enumerate_sector(2, 1)
        psi = StateVector(basis, np.array([1.0, 1.0]) / np.sqrt(2.0))
        w = subsystem_spectrum(psi, 0b01)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-14)
        assert von_neumann(w) == pytest.approx(1.0)

    def test_matches_full_space(self, evolved8, rng):
        full = reference.embed_state(evolved8)
        for mask in rng.integers(1, 255, size=12):
            mask = int(mask)
            mine = subsystem_spectrum(evolved8, subset=mask)
            ref = reference.reduced_spectrum_full(full, 8, mask)
            ref = np.sort(ref)[::-1][: len(mine)]
            np.testing.assert_allclose(mine, ref, atol=1e-10)

    def test_subset_accepts_site_subset(self, evolved8):
        # a site subset is an integer mask, numpy's included
        via_mask = subsystem_spectrum(evolved8, subset=0b1010)
        via_numpy = subsystem_spectrum(evolved8, subset=np.int64(0b1010))
        np.testing.assert_array_equal(via_mask, via_numpy)


def grids_from_site_lists(basis, mask):
    """Excitation-block index grids built from explicit site lists.

    Row r of split j is the r-th j-site pattern on the subset and column c
    the c-th pattern on the rest, both in ascending mask order; the cell
    is the basis rank of their union.
    """
    n, k = basis.n_sites, basis.n_excitations
    inside = [s for s in range(n) if mask >> s & 1]
    outside = [s for s in range(n) if not mask >> s & 1]

    def patterns(sites, count):
        return sorted(sum(1 << s for s in comb) for comb in combinations(sites, count))

    grids = []
    for j in range(k + 1):
        rows, cols = patterns(inside, j), patterns(outside, k - j)
        if rows and cols:
            grids.append(basis.rank_many(np.bitwise_or.outer(rows, cols)).astype(np.int32))
    return grids


def groups_from_site_lists(basis, reps):
    """A plan's groups as a loop over representatives makes them.

    Each representative's site-list grids, split by split, join the stack
    of their shape; the stacks come in order of each shape's first grid.
    """
    groups = {}
    for rep_id, mask in enumerate(reps.tolist()):
        for grid in grids_from_site_lists(basis, mask):
            grids, ids = groups.setdefault(grid.shape, ([], []))
            grids.append(grid)
            ids.append(rep_id)
    return [(np.stack(grids), np.array(ids)) for grids, ids in groups.values()]


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


@pytest.mark.parametrize("n", [8, 9, 10, 11, 12])
@pytest.mark.parametrize("half", [False, True], ids=["k1", "half-filling"])
def test_plan_stacks_match_site_list_grids(monkeypatch, n, half):
    # every mask, the contiguous family's and the orbit set's read masks,
    # reflected and not; the stacks are filled in place a sort chunk at a
    # time, and a chunk of one representative must give the same arrays
    basis = enumerate_sector(n, n // 2 if half else 1)
    families = [None, enumerate_partitions(n, "contiguous").read_masks,
                enumerate_partitions(n, "all", orbits=True).read_masks]
    for masks, reflected in product(families, (False, True)):
        plan = EntropyTablePlan(basis, masks, reflected)
        with monkeypatch.context() as patch:
            patch.setattr(entropy, "_SORT_CHUNK_BYTES", 1)
            one_by_one = EntropyTablePlan(basis, masks, reflected)
        expected = groups_from_site_lists(basis, plan.reps)
        for groups in (plan.groups, one_by_one.groups):
            assert len(groups) == len(expected)
            for (stack, ids), (ref_stack, ref_ids) in zip(groups, expected):
                assert stack.dtype == np.int32 and ids.dtype == np.int64
                np.testing.assert_array_equal(stack, ref_stack)
                np.testing.assert_array_equal(ids, ref_ids)


class TestSubsetEntropyTable:
    def test_trivial_subsets_have_zero_entropy(self, evolved8):
        table = subset_entropy_table(evolved8)
        assert table[0] == 0.0
        assert table[0b11111111] == 0.0

    def test_complement_symmetry_exact(self, evolved8):
        table = subset_entropy_table(evolved8)
        dense = table.values
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
        # a row per representative (0b1, 0b1100, 0b1111) and the zero row
        assert len(table.values) == 4
        dense = subset_entropy_table(evolved8)
        np.testing.assert_allclose(table.gather(masks), dense.gather(masks), rtol=0, atol=1e-12)
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
        rows = np.full(1 << 8, -1)
        rows[[0b10, 0b100]] = [0, 1]
        sparse = SubsetEntropyTable(8, rows, np.array([0.5, 0.25]))
        for absent in (0b1, 0b11, 0b1000):
            with pytest.raises(KeyError):
                sparse.gather(np.array([absent]))
        assert sparse[0b100] == 0.25

    @pytest.mark.parametrize("kind", ["plan", "identity"])
    def test_lookups_outside_the_map_raise(self, evolved8, kind):
        # a clipped take would read the row of mask 0 or of mask 255
        table = subset_entropy_table(evolved8, None if kind == "identity" else [0b1, 0b110])
        absent = [-1, 1 << 8] + ([0b1010] if kind == "plan" else [])
        for mask in absent:
            for lookup in (table.gather, table.positions):
                with pytest.raises(KeyError, match=f"mask {mask:#x} was not included"):
                    lookup(np.array([0b1, mask]))
        assert table.positions(np.array([0, 0b1, 255])).shape == (3,)

    def test_table_needs_a_row_map_of_every_mask(self):
        with pytest.raises(ValueError, match="for each mask of 3 sites"):
            SubsetEntropyTable(3, np.arange(7), np.zeros(7))
        with pytest.raises(ValueError, match="for each mask of 3 sites"):
            SubsetEntropyTable(3, np.arange(8), np.zeros(7))

    def test_neel_entropies_exactly_zero(self, basis8):
        # a product state: every Gram matrix is diagonal with entries 0 and 1,
        # so eigvalsh roundoff must not leave a nonzero or NaN entropy
        states = evolve(coupling_matrix(ModelSpec(8, alpha=0.6)),
                        neel_state(basis8), np.array([0.0, 0.3]))
        for masks in (None, [0b1, 0b110, 0b11110000, 0b10101010]):
            plan = EntropyTablePlan(basis8, masks)
            for amps in (neel_state(basis8).amplitudes, states[0]):
                values = plan.evaluate(amps).gather(np.arange(1 << 8) if masks is None
                                                    else masks)
                assert not np.any(np.isnan(values))
                assert np.all(values == 0.0)

    def test_roundoff_gram_eigenvalues_snap_to_zero(self, basis8, monkeypatch):
        # Neel Gram eigenvalues are exactly 0 and 1; push them just below
        plan = EntropyTablePlan(basis8)
        monkeypatch.setattr(entropy, "eigvalsh",
                            lambda g: np.linalg.eigvalsh(g) - 0.5 * entropy.WEIGHT_CLIP)
        values = plan.evaluate(neel_state(basis8).amplitudes).gather(np.arange(1 << 8))
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

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_amplitude_raises(self, k, bad):
        # a NaN passes the weight-sum check at k=1 and stops eigvalsh at k>=2;
        # neither may reach the table
        basis = enumerate_sector(6, k)
        amps = np.zeros(basis.dim, dtype=complex)
        amps[0], amps[2] = 1.0, bad
        with pytest.raises(NumericalConsistencyError,
                           match="^non-finite amplitude at sector rank 2$"):
            EntropyTablePlan(basis).evaluate(amps)

    def test_plan_reuse_across_states(self, basis8, rng):
        plan = EntropyTablePlan(basis8)
        t1 = plan.evaluate(random_sector_state(basis8, rng))
        t2 = plan.evaluate(random_sector_state(basis8, rng))
        assert t1.values.shape == t2.values.shape
        assert not np.array_equal(t1.values, t2.values)

    def test_entropy_bounds(self, evolved8):
        # 0 <= S(A) <= min(|A|, |complement|) qubits for any subset
        table = subset_entropy_table(evolved8)
        masks = np.arange(1 << 8)
        sizes = np.bitwise_count(masks).astype(float)
        bound = np.minimum(sizes, 8.0 - sizes)
        assert np.all(table.values >= 0.0)
        assert np.all(table.values <= bound + 1e-12)


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
        times = np.linspace(0.0, 5.0, 4) / coupling.kac
        general = EntropyTablePlan(basis, None)
        reflected = EntropyTablePlan(basis, None, reflected=True)
        masks = np.arange(1 << n)
        full = (1 << n) - 1
        mirrored = reverse_bits(masks, n)
        for amps in evolve(coupling, psi0, times):
            expected = general.evaluate(amps).gather(masks)
            found = reflected.evaluate(amps).gather(masks)
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
        runs._table(cfg, coupling, runs._grid(cfg), pset)
        basis = runs._initial_state(cfg).basis
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

    def test_time_batched_table_has_a_row_per_representative(self, built_plans):
        # the N=12 contiguous scan plans 299 masks (the 298 it reads and the
        # empty set) and keeps 121 reflected representatives and the zero row
        cfg = RunConfig(n_sites=12, alphas=(0.6,), n_points=3, t_max=1.0)
        pset = enumerate_partitions(12, "contiguous")
        table, states = runs._table(cfg, coupling_matrix(cfg.sweep()[0][1]),
                                    runs._grid(cfg), pset)
        (plan,) = built_plans
        assert len(np.union1d(pset.read_masks, [0])) == 299
        assert table.values.shape == (len(plan.reps) + 1, 3) == (122, 3)
        assert table.rows is plan.rows
        for k, state in enumerate(states):
            np.testing.assert_array_equal(table.gather(pset.read_masks)[:, k],
                                          plan.evaluate(state).gather(pset.read_masks))

    def test_cached_plan_keys_on_reflection(self, built_plans):
        cfg = RunConfig(n_sites=8, alphas=(0.6,), n_points=3, t_max=1.0)
        basis, masks = self._run_table(cfg, coupling_matrix(cfg.sweep()[0][1]))
        self._run_table(cfg, skewed_coupling(8))
        reflected, general = built_plans
        np.testing.assert_array_equal(
            reflected.reps, EntropyTablePlan(basis, masks, reflected=True).reps)
        np.testing.assert_array_equal(general.reps, EntropyTablePlan(basis, masks).reps)
        assert len(reflected.reps) < len(general.reps)


class TestPlanBudget:
    """Plan builds are refused in bytes before their mask array or any index grid."""

    @pytest.mark.parametrize("masks", [None, [0b1, 0b110, 0b11110000]],
                             ids=["full", "explicit"])
    def test_refused_before_any_grid(self, basis8, monkeypatch, masks):
        # _block_index_grids cuts every grid of a build, a sort chunk of
        # representatives at a time: a build within the budget calls it
        chunks = []
        cut = entropy._block_index_grids
        monkeypatch.setattr(entropy, "_block_index_grids",
                            lambda *args: chunks.append(args) or cut(*args))
        EntropyTablePlan(basis8, masks)
        assert chunks

        def no_grids(*args):
            raise AssertionError("an index grid was cut before the budget check")

        monkeypatch.setattr(entropy, "_block_index_grids", no_grids)
        monkeypatch.setattr("spinchain.errors.MEMORY_BUDGET", 1 << 10)
        with pytest.raises(CapacityError,
                           match=r"sector \(8, 4\) entropy plan has \d+ representatives"):
            EntropyTablePlan(basis8, masks)

    def test_full_plan_refused_before_its_mask_array(self, monkeypatch):
        # the N=20 mask array alone is 8 MiB
        basis = enumerate_sector(20, 1)
        monkeypatch.setattr("spinchain.errors.MEMORY_BUDGET", 1 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="524,287 representatives of 20 states"):
                EntropyTablePlan(basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("n, k, family, reflected", [
        (12, 6, "full", False), (12, 6, "contiguous", True), (14, 1, "full", False),
        (12, 0, "full", False), (14, 7, "one mask", False), (12, 6, "full", True),
        (16, 8, "contiguous", False),
    ])
    def test_peak_within_guard(self, monkeypatch, n, k, family, reflected):
        # the bytes the guard refuses above must cover the build's peak; at
        # N=16 a sort chunk holds 40 of the 575 representatives
        basis = enumerate_sector(n, k)
        masks = {"full": None, "one mask": [0b1]}.get(family)
        if family == "contiguous":
            masks = enumerate_partitions(n, family).read_masks
        needs = []
        check = entropy.check_budget
        monkeypatch.setattr(entropy, "check_budget",
                            lambda subject, need, what: needs.append(need)
                            or check(subject, need, what))
        tracemalloc.start()
        try:
            EntropyTablePlan(basis, masks, reflected)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(needs) == 1
        assert peak <= needs[0]

    def test_admits_a_plan_the_old_estimate_refused(self, monkeypatch):
        # the N=12 half-filling full plan holds 7.6 MB of index stacks.  Its
        # grids once sat in lists until each group was stacked, estimated at
        # 10 B per (representative, state), 32 B per state and 600 B per
        # block: 27.6 MB.  Filled in place it is estimated at 22.4 MB
        basis = enumerate_sector(12, 6)
        n_reps, blocks = 2047, 7
        old = ((10 * n_reps + 32) * basis.dim + 600 * n_reps * blocks
               + (2 << 12) + (1 << 16))
        budget = 24_000_000
        monkeypatch.setattr("spinchain.errors.MEMORY_BUDGET", budget)
        needs = []
        check = entropy.check_budget
        monkeypatch.setattr(entropy, "check_budget",
                            lambda subject, need, what: needs.append(need)
                            or check(subject, need, what))
        tracemalloc.start()
        try:
            plan = EntropyTablePlan(basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(plan.reps) == n_reps
        assert old > budget >= needs[0] >= peak

    def test_full_plan_peaks_near_its_stacks(self):
        # the N=14 reflected half-filling plan: 4,159 representatives and
        # 57.1 MB of index stacks.  Stacked from lists of grids it peaked at
        # 121.6 MB; filled in place, at the stacks and one sort chunk
        basis = enumerate_sector(14, 7)
        tracemalloc.start()
        try:
            plan = EntropyTablePlan(basis, None, reflected=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stacks = sum(stack.nbytes for stack, _ in plan.groups)
        assert stacks == entropy._INDEX_BYTES * len(plan.reps) * basis.dim
        assert peak <= 1.25 * stacks

    def test_full_plan_counts_its_representatives_exactly(self, monkeypatch):
        # the guard counts the orbits of every mask before any 2^N array exists
        counts = []
        monkeypatch.setattr(entropy, "check_budget", lambda subject, need, what: counts.append(
            int(subject.split(" has ")[1].split()[0].replace(",", ""))))
        for n in range(1, 13):
            basis = enumerate_sector(n, n // 2)
            for reflected in (False, True):
                assert len(EntropyTablePlan(basis, None, reflected).reps) == counts[-1]
        assert counts[-2:] == [2047, 1055]

    def test_contiguous_plan_admitted_at_n20(self, monkeypatch):
        # the reflected plan over the contiguous family's masks: 589
        # representatives, counted before any grid is cut, about 0.45 GB
        class Estimated(Exception):
            pass

        def estimate(subject, need, what):
            raise Estimated(subject, need)

        masks = enumerate_partitions(20, "contiguous").read_masks
        monkeypatch.setattr(entropy, "check_budget", estimate)
        with pytest.raises(Estimated) as caught:
            EntropyTablePlan(enumerate_sector(20, 10), masks, reflected=True)
        subject, need = caught.value.args
        assert "has 589 representatives of 184,756 states" in subject
        assert need < 2 << 30

    def test_table_refuses_before_propagation(self, monkeypatch):
        # the 3-state trajectory (12 KB with its Chebyshev vectors) fits the
        # budget and the plan over the contiguous family's masks does not
        cfg = RunConfig(n_sites=8, alphas=(0.6,), n_points=3, t_max=1.0)
        pset = enumerate_partitions(8, "contiguous")
        calls = []
        apply = SectorHamiltonian.apply
        monkeypatch.setattr(SectorHamiltonian, "apply",
                            lambda self, vec: calls.append(1) or apply(self, vec))
        monkeypatch.setattr("spinchain.errors.MEMORY_BUDGET", 50_000)
        runs._cached_plan.cache_clear()
        try:
            with pytest.raises(CapacityError, match=r"sector \(8, 4\) entropy plan"):
                runs._table(cfg, coupling_matrix(cfg.sweep()[0][1]), runs._grid(cfg), pset)
        finally:
            runs._cached_plan.cache_clear()
        assert calls == []


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
    w = subsystem_spectrum(psi, subset=mask)
    assert abs(table[mask] - von_neumann(w)) < 1e-10
