"""Partition enumeration, extremal TMI, sign-change times, onset estimates."""

from itertools import product

import numpy as np
import pytest

from spinchain import (
    CapacityError,
    EntropyTablePlan,
    ModelSpec,
    NumericalConsistencyError,
    PartitionSet,
    PartitionTriple,
    SubsetEntropyTable,
    TimeGrid,
    contiguous_quarters,
    coupling_matrix,
    enumerate_partitions,
    evolve,
    extrema,
    lightcone_onset,
    neel_state,
    onebody_tmi_scan,
    subset_entropy_table,
    tau_sign_change,
    tmi,
)
from spinchain import partitions, reference
from spinchain.onebody import P_SNAP, _subset_probability_table, binary_entropy
from spinchain.partitions import parse_strategy, tmi_extrema


def brute_force_all_assignments(n):
    """Canonical {A,B,C} triples from raw site->bin assignments, small n."""
    seen = set()
    for assign in product(range(4), repeat=n):
        masks = [0, 0, 0, 0]
        for site, bin_ in enumerate(assign):
            masks[bin_] |= 1 << site
        a, b, c = masks[:3]
        if a and b and c:
            seen.add(tuple(sorted((a, b, c))))
    return seen


class TestPartitionTriple:
    def test_canonical_order(self):
        trip = PartitionTriple.from_masks(6, 0b110000, 0b000011, 0b001100)
        assert trip.masks() == (0b000011, 0b001100, 0b110000)

    def test_rejects_overlap_and_empty(self):
        with pytest.raises(ValueError):
            PartitionTriple.from_masks(6, 0b11, 0b10, 0b100)
        with pytest.raises(ValueError):
            PartitionTriple.from_masks(6, 0b11, 0, 0b100)

    def test_complement_part(self):
        trip = PartitionTriple.from_masks(8, 0b11, 0b1100, 0b110000)
        assert trip.d.mask == 0b11000000


class TestEnumeration:
    def test_all_assignments_counts(self):
        # inclusion-exclusion over empty bins, divided by the 3! relabelings
        for n in (4, 6, 8):
            expected = (4**n - 3 * 3**n + 3 * 2**n - 1) // 6
            assert len(enumerate_partitions(n, "all")) == expected
        assert len(enumerate_partitions(12, "all")) == 2_532_530

    def test_all_assignments_matches_brute_force(self):
        # the order, not only the set: extremum ties go to the first triple
        for n in range(3, 9):
            brute = sorted(brute_force_all_assignments(n))
            families = {"all": brute}
            # fixed sizes: the assignments whose sorted part sizes match
            for sizes in product(range(1, n - 1), repeat=3):
                if sum(sizes) <= n:
                    families["fixed:" + ",".join(map(str, sizes))] = [
                        t for t in brute
                        if sorted(m.bit_count() for m in t) == sorted(sizes)]
            for strategy, expected in families.items():
                pset = enumerate_partitions(n, strategy)
                mine = list(zip(pset.a.tolist(), pset.b.tolist(), pset.c.tolist()))
                assert mine == expected, (n, strategy)

    def test_triples_are_canonical_and_disjoint(self):
        pset = enumerate_partitions(8, "all")
        assert np.all(pset.a < pset.b)
        assert np.all(pset.b < pset.c)
        assert not np.any(pset.a & pset.b)
        assert not np.any((pset.a | pset.b) & pset.c)

    def test_contiguous_counts(self):
        # 3-block cuts C(n-1, 2) plus 4-block cuts C(n-1, 3)
        assert len(enumerate_partitions(12, "contiguous")) == 55 + 165
        pset = enumerate_partitions(6, "contiguous")
        assert len(pset) == 10 + 10

    def test_contiguous_blocks_are_intervals(self):
        for trip in enumerate_partitions(6, "contiguous"):
            for sub in (trip.a, trip.b, trip.c):
                sites = sub.sites
                assert sites == tuple(range(sites[0], sites[-1] + 1))

    def test_fixed_sizes(self):
        pset = enumerate_partitions(4, "fixed:1,1,1")
        assert len(pset) == 4
        sizes = {tuple(sorted((t.a.size, t.b.size, t.c.size))) for t in pset}
        assert sizes == {(1, 1, 1)}
        assert len(enumerate_partitions(6, "fixed:2,2,2")) == 15

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            enumerate_partitions(18, "all")

    def test_capacity_guard_counts_bytes_before_allocating(self, monkeypatch):
        calls = []
        monkeypatch.setattr(partitions, "_enumerate_assignments",
                            lambda n, sizes: calls.append(n) or n)
        try:
            # 171,798,901 triples of three int64 masks (4.1 GB), and the
            # (B, C) labeling tables (0.09 GB): 4.2 GB
            with pytest.raises(CapacityError, match="171,798,901 triples, about 4.2 GB"):
                enumerate_partitions(15, "all")
            assert calls == []
            # 42,355,950 triples, 1.05 GB with the tables: inside the budget
            assert enumerate_partitions(14, "all") == 14
            assert calls == [14]
        finally:
            partitions._enumerate_cached.cache_clear()

    def test_fixed_sizes_count_matches_enumeration(self):
        for sizes in ((2, 2, 2), (1, 1, 2), (1, 2, 3)):
            for n in range(6, 10):
                strategy = "fixed:" + ",".join(map(str, sizes))
                assert partitions.fixed_sizes_count(n, sizes) == \
                    len(enumerate_partitions(n, strategy))

    def test_fixed_sizes_guard_refuses_before_enumerating(self, monkeypatch):
        calls = []
        monkeypatch.setattr(partitions, "_enumerate_assignments",
                            lambda n, sizes: calls.append(n) or n)
        try:
            # 107,207,100 triples of three int64 masks: 2.6 GB
            with pytest.raises(CapacityError,
                               match="107,207,100 triples, about 2.6 GB"):
                enumerate_partitions(18, "fixed:4,4,4")
            # 4,060 triples, but 32 B of scratch per mask of 30 sites: 34.4 GB
            with pytest.raises(CapacityError, match="4,060 triples, about 34.4 GB"):
                enumerate_partitions(30, "fixed:1,1,1")
            assert calls == []
            # 560,560 triples, 0.01 GB: inside the budget
            assert enumerate_partitions(14, "fixed:3,3,3") == 14
            assert calls == [14]
        finally:
            partitions._enumerate_cached.cache_clear()

    def test_covers_chain_flag(self):
        pset = enumerate_partitions(6, "contiguous")
        full = (1 << 6) - 1
        expect = (pset.a | pset.b | pset.c) == full
        np.testing.assert_array_equal(pset.covers_chain, expect)
        assert int(pset.covers_chain.sum()) == 10

    def test_parse_strategy(self):
        assert parse_strategy(" Quarters") == ("quarters", None)
        assert parse_strategy("all")[0] == "all-assignments"
        assert parse_strategy("contiguous")[0] == "contiguous-blocks"
        name, sizes = parse_strategy("fixed:3,3,3")
        assert name == "fixed-sizes" and sizes == (3, 3, 3)
        with pytest.raises(ValueError):
            parse_strategy("bogus")
        for bad in ("fixed:", "fixed", "fixed:0,1,1", "fixed:1,x,1", "all:3", "quarters:4"):
            with pytest.raises(ValueError):
                parse_strategy(bad)
        with pytest.raises(ValueError):
            enumerate_partitions(6, "fixed:1,2")
        with pytest.raises(ValueError, match="one triple, not a family"):
            enumerate_partitions(8, "quarters")

    def test_quarters(self):
        trip = contiguous_quarters(12)
        assert trip.masks() == (0b000000000111, 0b000000111000, 0b000111000000)
        with pytest.raises(ValueError):
            contiguous_quarters(7)


class TestExtremaAndTau:
    def test_minmax_brackets_quarters(self, evolved8):
        table = subset_entropy_table(evolved8)
        pset = enumerate_partitions(8, "all")
        lo, i_min, hi, i_max = extrema(pset.tmi_values(table))
        quarters = contiguous_quarters(8)
        val = tmi(table, *quarters.masks())
        assert lo <= val <= hi
        assert lo == pytest.approx(tmi(table, *pset[int(i_min)].masks()), abs=1e-12)
        assert hi == pytest.approx(tmi(table, *pset[int(i_max)].masks()), abs=1e-12)

    def test_covering_triples_have_zero_tmi(self, evolved8):
        table = subset_entropy_table(evolved8)
        pset = enumerate_partitions(8, "contiguous")
        vals = pset.tmi_values(table)
        assert np.max(np.abs(vals[pset.covers_chain])) < 1e-12

    def test_tmi_values_matches_scalar(self, evolved8):
        table = subset_entropy_table(evolved8)
        pset = enumerate_partitions(8, "contiguous")
        vals = pset.tmi_values(table)
        for i in (0, 7, len(pset) - 1):
            trip = pset[i]
            assert vals[i] == pytest.approx(tmi(table, *trip.masks()), abs=1e-12)

    @pytest.mark.parametrize("strategy", ["contiguous", "fixed:2,2,2", "all"])
    def test_mask_driven_plan_matches_full_plan(self, evolved8, basis8, strategy):
        pset = enumerate_partitions(8, strategy)
        masks = np.unique(np.concatenate(pset.lookup_masks))
        driven = EntropyTablePlan(basis8, masks).evaluate(evolved8.amplitudes)
        full = EntropyTablePlan(basis8).evaluate(evolved8.amplitudes)
        # the exhaustive family touches every nonempty mask: a dense table
        assert driven.is_dense == (strategy == "all")
        diff = pset.tmi_values(driven) - pset.tmi_values(full)
        assert np.max(np.abs(diff)) < 1e-12

    def test_extremum_ties_resolve_to_first(self):
        vals = np.array([0.3, -0.5 + 1e-15, 0.1, -0.5, 0.7, 0.7 + 2e-13])
        assert extrema(vals) == (-0.5, 1, 0.7 + 2e-13, 4)
        assert extrema(np.array([0.0, -1e-9, 1e-9])) == (-1e-9, 1, 1e-9, 2)

    def test_mirrored_triples_pick_canonical_first(self, basis8):
        # H and the Neel state are invariant under reflection combined with a
        # global spin flip, and a pure state's TMI is symmetric in A, B, C, D,
        # so the contiguous triple with block sizes (a, b, c, d) ties exactly
        # with its mirror (d, c, b, a).  The extremum is the earlier of the two.
        n = 8
        pset = enumerate_partitions(n, "contiguous")
        index = {t.masks(): i for i, t in enumerate(pset)}

        def mirror(i):
            sizes = [t.size for t in (pset[i].a, pset[i].b, pset[i].c)]
            edges = np.cumsum([0, n - sum(sizes)] + sizes[::-1])
            return index[tuple(((1 << int(hi - lo)) - 1) << int(lo)
                               for lo, hi in zip(edges[:3], edges[1:]))]

        grid = TimeGrid(np.linspace(0.1, 0.6, 6))
        checked = 0
        for alpha in (0.2, 0.6, 1.5):
            traj = evolve(coupling_matrix(ModelSpec(n, alpha=alpha)), basis8,
                          neel_state(basis8), grid)
            for k in range(len(grid)):
                table = subset_entropy_table(traj.state_at(k))
                vals = pset.tmi_values(table)
                lo, i_min, hi, i_max = extrema(vals)
                for value, i in ((lo, int(i_min)), (hi, int(i_max))):
                    if pset.covers_chain[i]:
                        continue
                    j = mirror(i)
                    assert abs(vals[j] - value) < 1e-12
                    assert i <= j
                    checked += i != j
        assert checked > 0

    @pytest.mark.parametrize("n_points", [1, 9])
    def test_block_boundaries_do_not_change_sector_extrema(self, basis8, monkeypatch,
                                                           n_points):
        # the Neel quench is invariant under reflection with a spin flip, so
        # mirror triples tie exactly, and in blocks of 150 triples the ties
        # straddle block boundaries
        pset = enumerate_partitions(8, "all")
        monkeypatch.setattr(partitions, "_BLOCK_BYTES", 8 * n_points * 150)
        assert len(pset) / 150 >= 50
        grid = TimeGrid(np.linspace(0.3, 2.7, n_points))
        traj = evolve(coupling_matrix(ModelSpec(8, alpha=0.6)), basis8,
                      neel_state(basis8), grid)
        tables = [subset_entropy_table(traj.state_at(k)) for k in range(n_points)]
        batched = SubsetEntropyTable(8, tables[0].mask_array,
                                     np.column_stack([t.values for t in tables]))
        found = tmi_extrema(pset, batched, grid.times, proper=True)
        for k, table in enumerate(tables):
            vals = pset.tmi_values(table)
            assert (found.min_values[k], found.argmin[k], found.max_values[k],
                    found.argmax[k]) == extrema(vals)
            assert found.min_proper[k] == vals[~pset.covers_chain].min()

    @pytest.mark.parametrize("n_points", [1, 9])
    def test_block_boundaries_do_not_change_onebody_extrema(self, monkeypatch, n_points):
        # the boundary snap makes many exact zeros, which tie across blocks
        n = 8
        pset = enumerate_partitions(n, "all")
        monkeypatch.setattr(partitions, "_BLOCK_BYTES", 8 * n_points * 150)
        ia, ib, ic, *_, iabc = pset.lookup_masks

        def per_time_scan(occupations):
            # the scan the kernel replaced, one time at a time: the reference
            for occ in occupations:
                p = _subset_probability_table(occ)
                vals = pset.tmi_values(SubsetEntropyTable(n, np.arange(1 << n),
                                                          binary_entropy(p)))
                boundary = (np.minimum(np.minimum(p[ia], p[ib]), p[ic]) <= P_SNAP) \
                    | (p[iabc] >= 1.0 - P_SNAP)
                yield extrema(np.where(boundary, 0.0, vals))

        coupling = coupling_matrix(ModelSpec(n, alpha=0.8))
        times = np.linspace(0.0, 2.0, n_points)
        occupations = np.abs(reference.onebody_amplitudes(coupling, 3, times)) ** 2
        # with its mirror image on site 4 added, the occupations are
        # reflection-symmetric, so mirror triples tie exactly as well
        for occ in (occupations, 0.5 * (occupations + occupations[:, ::-1])):
            series = onebody_tmi_scan(occ, times, pset)
            assert series.min_proper is None
            for k, expected in enumerate(per_time_scan(occ)):
                assert (series.min_values[k], series.argmin[k], series.max_values[k],
                        series.argmax[k]) == expected

    def test_tmi_extrema_refuses_non_finite(self):
        pset = enumerate_partitions(6, "contiguous")
        values = np.zeros((1 << 6, 3))
        values[0b11, 2] = np.nan
        table = SubsetEntropyTable(6, np.arange(1 << 6), values)
        with pytest.raises(NumericalConsistencyError, match="non-finite TMI at t=0.5"):
            tmi_extrema(pset, table, np.array([0.0, 0.25, 0.5]))

    def test_tau_interpolates(self):
        times = np.array([0.0, 1.0, 2.0, 3.0])
        min_values = np.array([0.1, 0.05, -0.05, -0.2])
        # crosses -0.0 halfway between t=1 and t=2
        assert tau_sign_change(times, min_values, threshold=0.0) == pytest.approx(1.5)
        # higher threshold pushes the crossing later
        assert tau_sign_change(times, min_values, threshold=0.1) == pytest.approx(
            2.0 + (0.1 - 0.05) / 0.15
        )

    def test_tau_none_without_crossing(self):
        assert tau_sign_change(np.array([0.0, 1.0]), np.array([0.2, 0.1]),
                               threshold=0.0) is None

    def test_tau_immediate(self):
        assert tau_sign_change(np.array([0.0, 1.0]), np.array([-0.5, -1.0]),
                               threshold=1e-10) == 0.0

    def test_tau_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            tau_sign_change(np.array([0.0, 1.0]), np.array([0.1, -0.1]), threshold=-1.0)


class TestLightconeOnset:
    def test_quarters_examples(self):
        # widest pair gap dominates: for quarters of width w it is w + 1
        assert lightcone_onset(
            ModelSpec(20, nn_limit=True), contiguous_quarters(20)
        ) == pytest.approx(6.0 / 4.0)
        assert lightcone_onset(
            ModelSpec(16, alpha=3.0), contiguous_quarters(16)
        ) == pytest.approx(5.0 / 4.0)

    def test_j0_scaling(self):
        trip = contiguous_quarters(12)
        base = lightcone_onset(ModelSpec(12, alpha=2.0), trip)
        assert lightcone_onset(
            ModelSpec(12, j0=2.0, alpha=2.0), trip
        ) == pytest.approx(base / 2.0)

    def test_single_site_pair_distance(self):
        trip = PartitionTriple.from_masks(10, 1 << 0, 1 << 1, 1 << 7)
        # farthest pair is sites 0 and 7
        assert lightcone_onset(ModelSpec(10, alpha=1.0), trip) == pytest.approx(
            7.0 / 4.0
        )


class TestPartitionSetBasics:
    def test_sequence_protocol(self):
        pset = enumerate_partitions(6, "contiguous")
        assert isinstance(pset[0], PartitionTriple)
        sliced = pset[:5]
        assert isinstance(sliced, PartitionSet)
        assert len(sliced) == 5
        assert [t.masks() for t in sliced] == [pset[i].masks() for i in range(5)]

    def test_from_triples_round_trip(self):
        triples = [
            PartitionTriple.from_masks(6, 0b1, 0b10, 0b100),
            PartitionTriple.from_masks(6, 0b1, 0b110, 0b11000),
        ]
        pset = PartitionSet.from_triples(triples)
        assert len(pset) == 2
        assert pset[1].masks() == triples[1].masks()
