"""Partition enumeration, extremal TMI, sign-change times, onset estimates."""

import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest

from spinchain import (
    CapacityError,
    EntropyTablePlan,
    ModelSpec,
    NumericalConsistencyError,
    PartitionSet,
    RunConfig,
    StateVector,
    SubsetEntropyTable,
    contiguous_quarters,
    coupling_matrix,
    enumerate_partitions,
    enumerate_sector,
    evolve,
    lightcone_onset,
    neel_state,
    subset_entropy_table,
    tau_sign_change,
    tmi,
)
from spinchain import partitions, reference, runs
from spinchain.bits import bit_positions, mask_dtype, submask_tables
from spinchain.partitions import AssignmentFamily, parse_strategy, tmi_extrema
from spinchain.reference import _subset_probability_table, binary_entropy, extrema

from conftest import lookup_masks


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


def brute_force_fixed_sizes(n, sizes):
    """Canonical triples with parts of these sizes, in order, from site combinations."""
    seen = set()
    for a in combinations(range(n), sizes[0]):
        rest = [s for s in range(n) if s not in a]
        for b in combinations(rest, sizes[1]):
            for c in combinations([s for s in rest if s not in b], sizes[2]):
                seen.add(tuple(sorted(sum(1 << s for s in part) for part in (a, b, c))))
    return sorted(seen)


def brute_force_family(n, sizes=None, orbits=False):
    """Canonical triples as int64 rows (a, b, c) in family order, from pairwise
    disjointness tests of every mask: the (b, c) pairs of each a from one
    outer product, no labeling or submask tables.  ``sizes`` keeps the
    triples whose parts have these sizes in some order, ``orbits`` those
    whose remainder is empty or holds the top site."""
    every = np.arange(1, 1 << n, dtype=np.int64)
    if sizes is not None:
        every = every[np.isin(np.bitwise_count(every), sizes)]
    full, rows = (1 << n) - 1, []
    for a in every:
        later = every[(every > a) & ((every & a) == 0)]
        # row-major nonzero: ascending b, then ascending c
        b, c = (later[i] for i in np.nonzero((later[:, None] < later)
                                              & ((later[:, None] & later) == 0)))
        keep = np.ones(len(b), dtype=bool)
        if sizes is not None:
            counts = np.sort(np.bitwise_count(np.stack([np.full_like(b, a), b, c])), axis=0)
            keep &= (counts == np.sort(sizes)[:, None]).all(axis=0)
        if orbits:
            rest = full ^ (a | b | c)
            keep &= (rest == 0) | (rest >> (n - 1) == 1)
        rows.append(np.stack([np.full(np.count_nonzero(keep), a), b[keep], c[keep]]))
    return np.concatenate(rows, axis=1)


def stirling2(n, k):
    """Partitions of n sites into k nonempty blocks (Stirling number of the second kind)."""
    row = [1] + [0] * k
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def orbit_representatives(pset):
    """Indices of the triples whose remainder is empty or holds the top site."""
    union = pset.a | pset.b | pset.c
    full = (1 << pset.n_sites) - 1
    return np.flatnonzero((union < 1 << (pset.n_sites - 1)) | (union == full))


def covers_chain(pset):
    """Boolean flag per triple: A, B, C jointly cover every site."""
    return (pset.a | pset.b | pset.c) == (1 << pset.n_sites) - 1


def batched_table(tables):
    """One time-batched table from per-time tables of the same row map."""
    return SubsetEntropyTable(tables[0].n_sites, tables[0].rows,
                              np.column_stack([t.values for t in tables]))


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

    def test_small_fixed_family_on_a_long_chain(self):
        # the rest's bits come from two half-chain tables, not from a pass
        # over all 2^N masks per A; the order is still (a, b, c).  The last
        # triple holds the top site: 1 << 14 fits int16 at N=15, and 1 << 15
        # needs int32 at N=16
        for n, sizes in ((22, (1, 1, 1)), (16, (1, 1, 2)), (13, (2, 1, 2)),
                         (15, (1, 1, 1)), (16, (1, 1, 1))):
            expected = brute_force_fixed_sizes(n, sizes)
            pset = enumerate_partitions(n, "fixed:" + ",".join(map(str, sizes)))
            mine = list(zip(pset.a.tolist(), pset.b.tolist(), pset.c.tolist()))
            assert mine == expected and pset.a.dtype == mask_dtype(n), (n, sizes)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_narrow_masks_match_int64_brute_force(self, n):
        families = [("all", None, False), ("all", None, True)] + [
            ("fixed:" + ",".join(map(str, sizes)), sizes, False)
            for sizes in ((1, 1, 1), (1, 2, 1), (2, 3, 2)) if sum(sizes) <= n]
        for strategy, sizes, orbits in families:
            pset = enumerate_partitions(n, strategy, orbits=orbits)
            expected = brute_force_family(n, sizes, orbits)
            for masks, column in zip((pset.a, pset.b, pset.c), expected):
                assert masks.dtype == mask_dtype(n)
                np.testing.assert_array_equal(masks, column, err_msg=f"{n} {strategy}")

    @pytest.mark.parametrize("n, dtype", [(7, np.int8), (8, np.int16), (15, np.int16),
                                          (16, np.int32), (31, np.int32), (32, np.int64)])
    def test_masks_take_the_narrowest_signed_type(self, n, dtype):
        # N bits, and their complements down to -2^N, must fit
        top, full = 1 << (n - 1), (1 << n) - 1
        explicit = RunConfig(n_sites=n, alphas=(1.0,), subset_a=(0,), subset_b=(1,),
                             subset_c=(n - 1,)).partition_set(scan=False)
        # the second triple covers the chain
        given = PartitionSet(n, [1, 1], [2, 2], [top, full ^ 3])
        for pset in (given, explicit, enumerate_partitions(n, "contiguous")):
            assert pset.a.dtype == pset.b.dtype == pset.c.dtype == dtype
        assert given[0] == explicit[0] == (1, 2, top) and given.n_covering == 1

    def test_submask_tables(self):
        # entry i is the i-th smallest submask: the bits of i on the mask's sites
        rng = np.random.default_rng(4)
        for n_bits in (1, 2, 5, 8, 11):
            for mask in [0, (1 << n_bits) - 1, *rng.integers(0, 1 << n_bits, 4).tolist()]:
                low, high, shift = submask_tables(mask, n_bits)
                assert len(low) == 1 << shift
                i = np.arange(1 << mask.bit_count())
                expected = [m for m in range(1 << n_bits) if m & ~mask == 0]
                np.testing.assert_array_equal(low[i & (len(low) - 1)] | high[i >> shift],
                                              expected)

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
        pset = enumerate_partitions(6, "contiguous")
        for i in range(len(pset)):
            for mask in pset[i]:
                sites = bit_positions(mask)
                assert sites == list(range(sites[0], sites[-1] + 1))

    def test_fixed_sizes(self):
        pset = enumerate_partitions(4, "fixed:1,1,1")
        assert len(pset) == 4
        sizes = {tuple(sorted(m.bit_count() for m in pset[i])) for i in range(len(pset))}
        assert sizes == {(1, 1, 1)}
        assert len(enumerate_partitions(6, "fixed:2,2,2")) == 15

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            enumerate_partitions(18, "all")

    def test_capacity_guard_counts_bytes_before_allocating(self, monkeypatch):
        calls = []
        monkeypatch.setattr(partitions, "_enumerate_assignments",
                            lambda n, *rest: calls.append(n) or n)
        # 694,337,290 triples of three int32 masks (8.3 GB), and the
        # (B, C) labeling tables with their lookup index (0.19 GB): 8.5 GB
        with pytest.raises(CapacityError, match="694,337,290 triples, about 8.5 GB"):
            enumerate_partitions(16, "all")
        assert calls == []
        # 171,798,901 triples of three int16 masks, 1.07 GB with the
        # tables: inside the budget
        assert enumerate_partitions(15, "all") == 15
        assert calls == [15]

    def test_orbit_guard_counts_representatives(self, monkeypatch):
        calls = []
        monkeypatch.setattr(partitions, "_enumerate_assignments",
                            lambda n, *rest: calls.append(n) or n)
        # S(16,3) + S(16,4) = 178,940,587 representatives of three int32
        # masks (2.1 GB), and the filtered labeling tables: 2.2 GB
        with pytest.raises(CapacityError, match="178,940,587 orbit representatives, "
                                                "about 2.2 GB"):
            enumerate_partitions(16, "all", orbits=True)
        assert calls == []
        # 44,731,051 representatives of three int16 masks, 0.28 GB with
        # the tables: inside the budget
        assert enumerate_partitions(15, "all", orbits=True) == 15
        assert calls == [15]

    def test_fixed_sizes_count_matches_enumeration(self):
        for sizes in ((2, 2, 2), (1, 1, 2), (1, 2, 3)):
            for n in range(6, 10):
                strategy = "fixed:" + ",".join(map(str, sizes))
                assert partitions.fixed_sizes_count(n, sizes) == \
                    len(enumerate_partitions(n, strategy))

    def test_fixed_sizes_guard_refuses_before_enumerating(self, monkeypatch):
        calls = []
        monkeypatch.setattr(partitions, "_enumerate_assignments",
                            lambda n, *rest: calls.append(n) or n)
        # 727,476,750 triples of three int32 masks: 8.7 GB
        with pytest.raises(CapacityError,
                           match="727,476,750 triples, about 8.7 GB"):
            enumerate_partitions(20, "fixed:4,4,4")
        assert calls == []
        # 560,560 triples, 0.01 GB, 107,207,100 of three int32 masks,
        # 1.3 GB, and 4,060 on a 30-site chain, whose choices of A come
        # from the sector bases with no pass over the 2^30 masks: inside
        # the budget
        assert enumerate_partitions(14, "fixed:3,3,3") == 14
        assert enumerate_partitions(18, "fixed:4,4,4") == 18
        assert enumerate_partitions(30, "fixed:1,1,1") == 30
        assert calls == [14, 18, 30]

    @pytest.mark.parametrize("pair, orbits", [(None, False), (None, True), ((1, 1), False),
                                              ((1, 2), False), ((2, 3), False)])
    def test_labelings_match_brute_force(self, pair, orbits):
        # every bit to B, to C or to neither; disjoint nonempty beta < gamma
        # with popcounts pair (any order), and for orbits a union that lacks
        # the top bit or is every bit; sorted by (beta, gamma)
        for n_bits in range(1, 10):
            top, full = 1 << (n_bits - 1), (1 << n_bits) - 1
            expected = []
            for labels in product(range(3), repeat=n_bits):
                beta, gamma = (sum(1 << i for i, x in enumerate(labels) if x == part)
                               for part in (1, 2))
                union = beta | gamma
                if (0 < beta < gamma
                        and (pair is None or sorted((beta.bit_count(), gamma.bit_count()))
                             == sorted(pair))
                        and (not orbits or union < top or union == full)):
                    expected.append((beta, gamma))
            beta, gamma = partitions._labelings(n_bits, pair, orbits, mask_dtype(n_bits + 1))
            assert beta.dtype == gamma.dtype == mask_dtype(n_bits + 1)
            assert list(zip(beta.tolist(), gamma.tolist())) == sorted(expected), n_bits

    @pytest.mark.parametrize("n, strategy, orbits", [(12, "all", True),
                                                     (20, "fixed:3,3,3", False)])
    def test_enumeration_peak_within_its_estimate(self, monkeypatch, n, strategy, orbits):
        # the labeling tables' ternary doubling included; N=20 fixed:3,3,3
        # holds 47M triples of int32 masks, 0.57 GB
        needs = []
        check = partitions.check_budget
        monkeypatch.setattr(partitions, "check_budget",
                            lambda subject, need, what: needs.append(need)
                            or check(subject, need, what))
        tracemalloc.start()
        try:
            pset = enumerate_partitions(n, strategy, orbits=orbits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(needs) == 1
        assert 3 * pset.a.nbytes < peak <= needs[0]

    def test_covers_chain_flag(self):
        # n_covering counts the triples that covers_chain flags
        pset = enumerate_partitions(6, "contiguous")
        assert pset.n_covering == int(covers_chain(pset).sum()) == 10
        assert PartitionSet(6, [], [], []).n_covering == 0

    def test_covering_count_needs_no_set_sized_array(self):
        # 8 B per triple would be an int64 array as long as the set
        pset = enumerate_partitions(12, "all", orbits=True)
        expected = int(covers_chain(pset).sum())
        tracemalloc.start()
        try:
            count = pset.n_covering
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == expected == stirling2(12, 3)
        assert peak < 8 * len(pset) / 4, peak

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
        assert contiguous_quarters(12) == (0b000000000111, 0b000000111000, 0b000111000000)
        with pytest.raises(ValueError):
            contiguous_quarters(7)


class TestExtremaAndTau:
    def test_minmax_brackets_quarters(self, evolved8):
        table = subset_entropy_table(evolved8)
        pset = enumerate_partitions(8, "all")
        lo, i_min, hi, i_max = extrema(pset.tmi_values(table))
        val = tmi(table, *contiguous_quarters(8))
        assert lo <= val <= hi
        assert lo == pytest.approx(tmi(table, *pset[i_min]), abs=1e-12)
        assert hi == pytest.approx(tmi(table, *pset[i_max]), abs=1e-12)

    def test_covering_triples_have_zero_tmi(self, evolved8):
        table = subset_entropy_table(evolved8)
        pset = enumerate_partitions(8, "contiguous")
        vals = pset.tmi_values(table)
        assert np.max(np.abs(vals[covers_chain(pset)])) < 1e-12

    def test_tmi_values_matches_scalar(self, evolved8):
        table = subset_entropy_table(evolved8)
        pset = enumerate_partitions(8, "contiguous")
        vals = pset.tmi_values(table)
        for i in (0, 7, len(pset) - 1):
            assert vals[i] == pytest.approx(tmi(table, *pset[i]), abs=1e-12)

    @pytest.mark.parametrize("strategy", ["contiguous", "fixed:2,2,2", "all"])
    def test_mask_driven_plan_matches_full_plan(self, evolved8, basis8, strategy):
        pset = enumerate_partitions(8, strategy)
        masks = np.unique(np.concatenate(lookup_masks(pset)))
        driven = EntropyTablePlan(basis8, masks).evaluate(evolved8.amplitudes)
        full = EntropyTablePlan(basis8).evaluate(evolved8.amplitudes)
        # the exhaustive family touches every nonempty mask: a map of every mask
        assert np.all(driven.rows >= 0) == (strategy == "all")
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
        index = {pset[i]: i for i in range(len(pset))}

        def mirror(i):
            sizes = [m.bit_count() for m in pset[i]]
            edges = np.cumsum([0, n - sum(sizes)] + sizes[::-1])
            return index[tuple(((1 << int(hi - lo)) - 1) << int(lo)
                               for lo, hi in zip(edges[:3], edges[1:]))]

        times = np.linspace(0.1, 0.6, 6)
        covers = covers_chain(pset)
        checked = 0
        for alpha in (0.2, 0.6, 1.5):
            states = evolve(coupling_matrix(ModelSpec(n, alpha=alpha)),
                            neel_state(basis8), times)
            for k in range(len(times)):
                table = subset_entropy_table(StateVector(basis8, states[k]))
                vals = pset.tmi_values(table)
                lo, i_min, hi, i_max = extrema(vals)
                for value, i in ((lo, int(i_min)), (hi, int(i_max))):
                    if covers[i]:
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
        # mirror triples tie exactly, and so do the triples of an orbit up
        # to roundoff; in blocks of 150 triples the ties straddle block
        # boundaries
        pset = enumerate_partitions(8, "all")
        monkeypatch.setattr(partitions, "_BLOCK_BYTES", 8 * n_points * 150)
        assert len(pset) / 150 >= 50
        times = np.linspace(0.3, 2.7, n_points)
        states = evolve(coupling_matrix(ModelSpec(8, alpha=0.6)),
                        neel_state(basis8), times)
        tables = [subset_entropy_table(StateVector(basis8, states[k])) for k in range(n_points)]
        found = tmi_extrema(pset, batched_table(tables), times, proper=True)
        for k, table in enumerate(tables):
            vals = pset.tmi_values(table)
            assert (found.min_values[k], found.argmin[k], found.max_values[k],
                    found.argmax[k]) == extrema(vals)
            assert found.min_proper[k] == vals[~covers_chain(pset)].min()

    @pytest.mark.parametrize("n_points", [1, 9])
    def test_block_boundaries_do_not_change_onebody_extrema(self, monkeypatch, n_points):
        # the k=1 TMI vanishes on the simplex boundary, so many values sit
        # within roundoff of zero and tie across blocks
        n = 8
        pset = enumerate_partitions(n, "all")
        monkeypatch.setattr(partitions, "_BLOCK_BYTES", 8 * n_points * 150)

        def per_time_scan(occupations):
            # the scan the kernel replaced, one time at a time: the reference
            for occ in occupations:
                p = _subset_probability_table(occ)
                yield extrema(pset.tmi_values(SubsetEntropyTable(n, np.arange(1 << n),
                                                                 binary_entropy(p))))

        coupling = coupling_matrix(ModelSpec(n, alpha=0.8))
        times = np.linspace(0.0, 2.0, n_points)
        occupations = np.abs(reference.onebody_amplitudes(coupling, 3, times)) ** 2
        # with its mirror image on site 4 added, the occupations are
        # reflection-symmetric, so mirror triples tie exactly as well
        for occ in (occupations, 0.5 * (occupations + occupations[:, ::-1])):
            series = tmi_extrema(pset, reference.onebody_entropy_table(occ), times)
            assert series.min_proper is None
            for k, expected in enumerate(per_time_scan(occ)):
                assert (series.min_values[k], series.argmin[k], series.max_values[k],
                        series.argmax[k]) == expected

    # of the contiguous triples of six sites, only the last one reads this
    # mask (its AC); in blocks of two triples it sits in the tenth block
    LAST_READ_ONLY = 0b101111

    def test_tmi_extrema_refuses_non_finite(self, monkeypatch):
        pset = enumerate_partitions(6, "contiguous")
        values = np.zeros((1 << 6, 3))
        values[0b11, 2] = np.nan
        table = SubsetEntropyTable(6, np.arange(1 << 6), values)
        with pytest.raises(NumericalConsistencyError, match="non-finite TMI at t=0.5"):
            tmi_extrema(pset, table, np.array([0.0, 0.25, 0.5]))
        # in a later block, the first of two bad times is named
        reads = (lookup_masks(pset) == self.LAST_READ_ONLY).any(axis=0)
        assert np.flatnonzero(reads).tolist() == [len(pset) - 1] == [19]
        monkeypatch.setattr(partitions, "_BLOCK_BYTES", 8 * 3 * 2)
        values[0b11, 2] = 0.0
        values[self.LAST_READ_ONLY, 1:] = [np.inf, np.nan]
        with pytest.raises(NumericalConsistencyError, match="non-finite TMI at t=0.25"):
            tmi_extrema(pset, table, np.array([0.0, 0.25, 0.5]))

    def test_tmi_extrema_refuses_sparse_table_missing_a_mask(self, monkeypatch):
        # a sparse table of every mask the family reads but one
        pset = enumerate_partitions(6, "contiguous")
        monkeypatch.setattr(partitions, "_BLOCK_BYTES", 8 * 2 * 2)
        masks = pset.read_masks
        kept = masks[masks != self.LAST_READ_ONLY]
        rows = np.full(1 << 6, -1)
        rows[kept] = np.arange(len(kept))
        table = SubsetEntropyTable(6, rows, np.zeros((len(kept), 2)))
        assert np.count_nonzero(table.rows >= 0) == len(masks) - 1
        with pytest.raises(KeyError, match=f"mask {self.LAST_READ_ONLY:#x} was not included"):
            tmi_extrema(pset, table, np.array([0.0, 0.5]))

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


class TestOrbitReducedScan:
    """The runners scan the all family through one stored triple per orbit."""

    # blocks of 37 triples: orbits and ties straddle chunk edges
    ROWS = 37

    def test_one_representative_per_orbit_and_it_comes_first(self):
        pset = enumerate_partitions(8, "all")
        reps = orbit_representatives(pset)
        # Stirling numbers S(8, 4) + S(8, 3): four-part splits, covering triples
        assert len(reps) == 1701 + 966
        triples = list(zip(pset.a.tolist(), pset.b.tolist(), pset.c.tolist()))
        index = {t: i for i, t in enumerate(triples)}
        is_rep = np.zeros(len(pset), dtype=bool)
        is_rep[reps] = True
        for a, b, c in triples:
            parts = (a, b, c, 0xFF ^ a ^ b ^ c)
            orbit = [index[tuple(sorted(trio))]
                     for trio in combinations(parts, 3) if all(trio)]
            assert is_rep[orbit].sum() == 1 and is_rep[min(orbit)]

    def test_representatives_are_the_filtered_family(self):
        # element for element and in family order, at odd and even N
        for n in range(3, 13):
            family = enumerate_partitions(n, "all")
            pset = enumerate_partitions(n, "all", orbits=True)
            reps = orbit_representatives(family)
            assert len(pset) == len(reps) == stirling2(n, 3) + stirling2(n, 4)
            for part in "abc":
                assert np.array_equal(getattr(pset, part), getattr(family, part)[reps])
            assert (pset.strategy, pset.orbits, family.orbits) == \
                (family.strategy, True, False)
            # every covering triple is its own representative
            assert pset.family_size == family.family_size == len(family)
            assert pset.n_covering == family.n_covering == stirling2(n, 3)
        assert enumerate_partitions(9, "all", orbits=True).family_size == 34_105

    def test_representatives_read_every_mask_the_family_reads(self):
        for n in range(4, 11):
            masks = enumerate_partitions(n, "all", orbits=True).read_masks
            assert np.array_equal(masks, enumerate_partitions(n, "all").read_masks)
            assert np.array_equal(masks, np.arange(1, 1 << n))

    def test_other_families_ignore_orbits(self):
        for strategy in ("contiguous", "fixed:2,2,2"):
            pset, whole = (enumerate_partitions(8, strategy, orbits=o) for o in (True, False))
            assert not pset.orbits and pset.strategy == whole.strategy
            for masks, expected in zip((pset.a, pset.b, pset.c), (whole.a, whole.b, whole.c)):
                np.testing.assert_array_equal(masks, expected)

    def check_matches_family(self, pset, family, tables, times, exact=0):
        """tmi_extrema over ``pset`` picks the triples and values that
        extrema picks over every triple of ``family``: the first ``exact``
        of (min, max, proper min) bitwise, all within 1e-12."""
        found = tmi_extrema(pset, batched_table(tables), times, proper=True)
        covers = covers_chain(family)
        for k, table in enumerate(tables):
            vals = family.tmi_values(table)
            lo, i_min, hi, i_max = extrema(vals)
            assert pset[found.argmin[k]] == family[i_min]
            assert pset[found.argmax[k]] == family[i_max]
            got = (found.min_values[k], found.max_values[k], found.min_proper[k])
            expected = (lo, hi, vals[~covers].min())
            assert np.max(np.abs(np.subtract(got, expected))) < 1e-12
            assert got[:exact] == expected[:exact]

    @pytest.mark.parametrize("spec", [ModelSpec(8, alpha=0.6), ModelSpec(8, alpha=2.5),
                                      ModelSpec(8, nn_limit=True)],
                             ids=["alpha0.6", "alpha2.5", "nn"])
    def test_neel_quench_matches_full_family(self, basis8, monkeypatch, spec):
        times = np.linspace(0.0, 2.7, 10)
        monkeypatch.setattr(partitions, "_BLOCK_BYTES", 8 * len(times) * self.ROWS)
        states = evolve(coupling_matrix(spec), neel_state(basis8), times)
        tables = [subset_entropy_table(StateVector(basis8, states[k])) for k in range(len(times))]
        self.check_matches_family(enumerate_partitions(8, "all", orbits=True),
                                  enumerate_partitions(8, "all"), tables, times)

    def test_onebody_tables_match_full_family(self, monkeypatch):
        n, times = 8, np.linspace(0.0, 2.0, 9)
        monkeypatch.setattr(partitions, "_BLOCK_BYTES", 8 * len(times) * self.ROWS)
        coupling = coupling_matrix(ModelSpec(n, alpha=0.8))
        occupations = np.abs(reference.onebody_amplitudes(coupling, 3, times)) ** 2
        # the mirror-symmetric average makes mirror triples tie exactly, and
        # the extrema then match bitwise (the proper minimum only to roundoff)
        for occ, exact in ((occupations, 0),
                           (0.5 * (occupations + occupations[:, ::-1]), 2)):
            closed = reference.onebody_entropy_table(occ)
            tables = [SubsetEntropyTable(n, closed.rows, column)
                      for column in closed.values.T]
            self.check_matches_family(enumerate_partitions(n, "all", orbits=True),
                                      enumerate_partitions(n, "all"), tables, times, exact)

    @pytest.mark.parametrize("strategy", ["contiguous", "fixed:2,2,2", "fixed:1,2,3",
                                          "explicit", "all"])
    def test_other_sets_scan_every_triple(self, basis8, monkeypatch, strategy):
        # the explicit triple's remainder lacks the top site: no orbit member
        # of the all family would stand for it, and it is still scanned; the
        # whole all family is scanned whole, and argmin/argmax index it
        pset = PartitionSet(8, [0b1], [0b10], [0b10000000]) \
            if strategy == "explicit" else enumerate_partitions(8, strategy)
        times = np.linspace(0.0, 2.7, 10)
        monkeypatch.setattr(partitions, "_BLOCK_BYTES", 8 * len(times) * self.ROWS)
        states = evolve(coupling_matrix(ModelSpec(8, alpha=0.6)),
                        neel_state(basis8), times)
        tables = [subset_entropy_table(StateVector(basis8, states[k])) for k in range(len(times))]
        self.check_matches_family(pset, pset, tables, times, exact=3)

    def test_runner_scan_stores_no_family(self, monkeypatch):
        # the runner's orbit set is streamed: no mask arrays, and a runner's
        # exhaustive scan never builds a stored family
        cfg = RunConfig(n_sites=10, alphas=(1.0,), strategy="all", initial_state="single",
                        n_points=3, t_max=1.0)
        pset = cfg.partition_set(scan=True)
        assert isinstance(pset, AssignmentFamily)
        assert len(pset) == stirling2(10, 3) + stirling2(10, 4) and pset.orbits
        assert not any(hasattr(pset, part) for part in "abc")

        def refuse(*args):
            raise AssertionError("a stored family was enumerated")

        monkeypatch.setattr(partitions, "_enumerate_assignments", refuse)
        monkeypatch.setenv("SPINCHAIN_THREADS", "1")  # the patch lives in this process
        (data,) = runs.run_onebody_scan(cfg)
        assert data.meta["n_partitions"] == stirling2(11, 4)

    @pytest.mark.parametrize("strategy, orbits", [("all", False), ("all", True),
                                                  ("fixed:2,2,2", False),
                                                  ("fixed:1,2,3", False)])
    def test_range_fill_matches_the_stored_family(self, strategy, orbits):
        # chunks of 1 and 7 triples start and end inside the slices of one
        # A; the default chunk of a 17-column scan too, up to N=12
        for n in range(max(3, sum(parse_strategy(strategy)[1] or (3,))), 13):
            stored = enumerate_partitions(n, strategy, orbits=orbits)
            family = AssignmentFamily(n, parse_strategy(strategy)[1], orbits)
            assert len(family) == len(stored)
            expected = np.stack([stored.a, stored.b, stored.c])
            default = partitions._chunk_plan(len(family), 17)[0]
            for rows in (1, 7, default) if len(family) < 10_000 else (default,):
                buffer = np.empty((7, rows), dtype=np.int64)
                for start in range(0, len(family), rows):
                    stop = min(start + rows, len(family))
                    masks = family._lookups(start, stop, buffer)
                    np.testing.assert_array_equal(masks[:3], expected[:, start:stop],
                                                  err_msg=f"{n} {rows} {start}")
                    np.testing.assert_array_equal(masks[6], masks[0] | masks[1] | masks[2])
            assert family[len(family) - 1] == stored[-1] and family[0] == stored[0]

    @pytest.mark.parametrize("proper, rows", [(False, ROWS), (True, ROWS), (True, 5)])
    def test_one_stacked_pass_matches_per_column_passes(self, monkeypatch, proper, rows):
        # a centred excitation on an odd chain stays mirror symmetric, so
        # mirror triples tie exactly; two exponents' tables side by side
        # give the values and picks of one pass per exponent, in segments
        # of two chunks of 37 triples, or of 15 chunks of 5 triples, fewer
        # than the 12 columns (each chunk's rows folded together)
        n, times = 9, np.linspace(0.0, 2.0, 6)
        monkeypatch.setattr(partitions, "_BLOCK_BYTES", 8 * 2 * len(times) * rows)
        monkeypatch.setattr(partitions, "_SEGMENTS", 150)
        family = AssignmentFamily(n, orbits=True)
        assert partitions._chunk_plan(len(family), 2 * len(times))[:2] == \
            (rows, 2 if rows == self.ROWS else 15)
        closed = [reference.onebody_entropy_table(np.abs(reference.onebody_amplitudes(
            coupling_matrix(ModelSpec(n, alpha=alpha)), n // 2, times)) ** 2)
            for alpha in (0.4, 2.5)]
        stacked = SubsetEntropyTable(n, closed[0].rows,
                                     np.column_stack([t.values for t in closed]))
        found = tmi_extrema(family, stacked, np.tile(times, 2), proper=proper)
        monkeypatch.setattr(partitions, "_BLOCK_BYTES", 8 * len(times) * self.ROWS)
        singles = [tmi_extrema(family, table, times, proper=proper) for table in closed]
        mirrored = 0
        for name in ("min_values", "argmin", "max_values", "argmax", "min_triples",
                     "max_triples", "min_proper"):
            parts = [getattr(single, name) for single in singles]
            if name == "min_proper" and not proper:
                assert found.min_proper is None and parts == [None, None]
                continue
            np.testing.assert_array_equal(getattr(found, name), np.concatenate(parts), name)
        # and the brute-force picks, column by column
        values = enumerate_partitions(n, "all", orbits=True).tmi_values(stacked)
        for k in range(2 * len(times)):
            assert extrema(values[:, k]) == (found.min_values[k], found.argmin[k],
                                             found.max_values[k], found.argmax[k])
        for i, triple in zip(np.concatenate([found.argmin, found.argmax]),
                             np.concatenate([found.min_triples, found.max_triples])):
            assert family[i] == tuple(triple.tolist())
            a, b, c = triple.tolist()
            rest = (1 << n) - 1 ^ a ^ b ^ c
            mirror = sorted(int(f"{m:0{n}b}"[::-1], 2) for m in (b, c, rest))
            mirrored += rest != 0 and tuple(mirror) != (a, b, c)
        assert mirrored > 0

    @pytest.mark.parametrize("n, strategy, orbits, n_columns", [
        (12, "all", True, 34), (10, "all", False, 3), (12, "fixed:3,3,3", False, 400),
        (14, "fixed:1,4,4", False, 17)])
    def test_streamed_scan_within_its_estimates(self, n, strategy, orbits, n_columns):
        # the layout's build and a scan's buffers and records, each at most
        # what the run's set-up guard counts for them
        family = AssignmentFamily(n, parse_strategy(strategy)[1], orbits)
        tracemalloc.start()
        try:
            tables = family.layout[0]
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        labels = sum(len(beta) for beta, _ in tables.values())
        assert labels == sum(partitions._label_counts(n, family.sizes, orbits))
        assert 2 * mask_dtype(n).itemsize * labels < held < peak <= family.layout_bytes
        values = np.random.default_rng(n).random((1 << n, n_columns))
        table = SubsetEntropyTable(n, np.arange(1 << n), values)
        tracemalloc.start()
        try:
            tmi_extrema(family, table, np.arange(n_columns), proper=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= partitions.scan_bytes(len(family), n_columns)

    def test_records_bounded_at_any_column_count(self):
        # fig4's 11 exponents of 101 times in one pass over the N=12 orbit
        # set: a record per chunk would take 24,070 x 1,111 x 16 B (0.43 GB)
        n_triples, n_columns = stirling2(12, 3) + stirling2(12, 4), 1111
        rows, per_segment, n_segments = partitions._chunk_plan(n_triples, n_columns)
        assert (rows, -(-n_triples // rows)) == (29, 24_070)
        assert n_segments <= partitions._SEGMENTS and (n_segments - 1) * per_segment * rows \
            < n_triples <= n_segments * per_segment * rows
        assert 16 * n_segments * n_columns <= 16 * partitions._SEGMENTS * n_columns < 5e6
        assert partitions.scan_bytes(n_triples, n_columns) < 1e7

    def test_scan_holds_no_whole_family_temporary(self):
        # one int64 per triple of the N=12 family is 20 MB; the scan's peak
        # read 3.1 MB under tracemalloc (its work buffer is 1.8 MB)
        pset = enumerate_partitions(12, "all")
        occupations = np.random.default_rng(5).random((17, 12))
        occupations /= occupations.sum(axis=1, keepdims=True)
        table = reference.onebody_entropy_table(occupations)
        tracemalloc.start()
        try:
            tmi_extrema(pset, table, np.arange(17.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * len(pset)

    def test_scan_extrema_held_in_two_arrays(self, monkeypatch):
        # two triples a chunk: 3,885 chunks of the N=8 family, whose minima
        # and maxima at one time fill two 31 KB arrays; kept as a list of
        # arrays and then copied, they peaked at 1.2 MB under tracemalloc
        pset = enumerate_partitions(8, "all")
        monkeypatch.setattr(partitions, "_BLOCK_BYTES", 8 * 2)
        occupations = np.random.default_rng(5).random((1, 8))
        table = reference.onebody_entropy_table(occupations / occupations.sum())
        n_chunks = -(-len(pset) // 2)
        tracemalloc.start()
        try:
            tmi_extrema(pset, table, np.zeros(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n_chunks == 3885 and peak < 2 * 16 * n_chunks

    @pytest.mark.parametrize("strategy, orbits", [
        ("all", False), ("all", True), ("fixed:2,3,4", False), ("fixed:3,3,3", False),
        ("fixed:1,1,6", False), ("fixed:4,4,4", False)])
    def test_family_read_masks_by_popcount(self, monkeypatch, strategy, orbits):
        # a family's read masks come from the popcounts its part sizes sum
        # to, with no pass over its triples; they are the masks its
        # triples' lookups hold
        sizes = parse_strategy(strategy)[1] or (1, 1, 1)
        for n in range(max(3, sum(sizes)), 13):
            pset = enumerate_partitions(n, strategy, orbits=orbits)
            seen = np.zeros(1 << n, dtype=bool)
            seen[lookup_masks(pset)] = True
            with monkeypatch.context() as patch:
                patch.setattr(PartitionSet, "_lookups", None)
                masks = pset.read_masks
            np.testing.assert_array_equal(masks, np.flatnonzero(seen), err_msg=f"{n}")
            assert masks.dtype == np.int64 and not masks.flags.writeable

    def test_read_masks_refused_before_the_presence_table(self, monkeypatch):
        # 2^30 flags of presence are 1.1 GB, over a 0.5 GiB budget
        monkeypatch.setattr("spinchain.errors.MEMORY_BUDGET", 1 << 29)
        pset = PartitionSet(30, [1], [2], [4])
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="read masks of a 30-site partition "
                                                    "set, about 1.1 GB"):
                pset.read_masks
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert PartitionSet(8, [1], [2], [4]).read_masks.tolist() == [1, 2, 3, 4, 5, 6, 7]


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
        trip = (1 << 0, 1 << 1, 1 << 7)
        # farthest pair is sites 0 and 7
        assert lightcone_onset(ModelSpec(10, alpha=1.0), trip) == pytest.approx(
            7.0 / 4.0
        )


class TestPartitionSetBasics:
    def test_sequence_protocol(self):
        # a triple is an ascending (a, b, c) tuple of Python ints
        pset = enumerate_partitions(6, "contiguous")
        assert len(pset) == 20
        for i in range(len(pset)):
            triple = pset[i]
            assert [type(m) for m in triple] == [int, int, int]
            assert triple == (pset.a[i], pset.b[i], pset.c[i])
            assert 0 < triple[0] < triple[1] < triple[2]
        assert pset[np.int64(3)] == pset[3] and pset[-1] == pset[19]

    def test_mask_arrays_round_trip(self):
        triples = [(0b1, 0b10, 0b100), (0b1, 0b110, 0b11000)]
        pset = PartitionSet(6, *np.array(triples).T)
        assert len(pset) == 2
        assert [pset[i] for i in range(2)] == triples

    def test_mask_arrays_refuse_a_lossy_cast(self):
        # int16 holds 8-site masks; a wider array must not wrap into it
        with pytest.raises(ValueError, match="do not fit int16 unchanged"):
            PartitionSet(8, np.array([1]), np.array([2]), np.array([1 << 16]))
        with pytest.raises(ValueError, match="do not fit int8 unchanged"):
            PartitionSet(7, [1], [2.5], [4])
        pset = PartitionSet(8, np.array([1]), np.array([2]), np.array([1 << 7]))
        assert pset[0] == (1, 2, 128) and pset.c.dtype == np.int16

    def test_sweep_builds_one_plan_and_reads_the_family_once(self, monkeypatch):
        # every exponent of a serial sweep reuses the run's one set-up: the
        # plan is built once, from one read of the family's masks
        masks = enumerate_partitions(8, "contiguous").read_masks
        reads, built = [], []
        read_masks = PartitionSet.read_masks.func
        monkeypatch.setattr(PartitionSet, "read_masks",
                            property(lambda self: reads.append(1) or read_masks(self)))

        class Recorded(EntropyTablePlan):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(runs, "EntropyTablePlan", Recorded)
        monkeypatch.setenv("SPINCHAIN_THREADS", "1")
        cfg = RunConfig(n_sites=8, alphas=(0.5, 1.0, 2.0), nn_limit=True,
                        strategy="contiguous", n_points=3, t_max=1.0)
        (data, _) = runs.run_minmax_scan(cfg)
        assert len(set(data.columns["alpha"])) == 4
        assert len(built) == 1 and len(reads) == 1
        # a Neel quench under power-law couplings: the reflected plan
        np.testing.assert_array_equal(
            built[0].reps, EntropyTablePlan(enumerate_sector(8, 4), masks, reflected=True).reps)
