"""The k=1 closed form (a reference oracle) and the single-excitation runner."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinchain import (
    EntropyTablePlan,
    ModelSpec,
    PartitionSet,
    RunConfig,
    coupling_matrix,
    enumerate_partitions,
    evolve,
    runs,
)
from spinchain import reference
from spinchain.bits import bit_positions
from spinchain.config import load_config
from spinchain.model import reflection_invariant
from spinchain.partitions import tmi_extrema
from spinchain.reference import (
    _subset_probability_table,
    binary_entropy,
    occupation_weights,
    simplex_scan,
    tmi_binary,
)
from spinchain.runs import run_onebody_scan

# 3 H(1/4) + H(3/4) - 3 H(1/2) at the simplex center
TMI_AT_QUARTER_POINT = 4.0 * (0.5 + 0.75 * math.log2(4.0 / 3.0)) - 3.0

unit = st.floats(0.0, 1.0, allow_nan=False)


def _occupations(coupling, site, times):
    """Site weights |c_m(t)|^2 from the N x N oracle, a row per time."""
    return np.abs(reference.onebody_amplitudes(coupling, site, times)) ** 2


def _runner_scan(spec, site, times, pset):
    """The onebody runner's extrema: tmi_extrema over the table its plan
    (over the masks ``pset`` reads, reflected when the quench allows)
    gives for the quench."""
    cfg = RunConfig(n_sites=spec.n_sites, alphas=(1.0,), initial_state="single",
                    initial_site=site)
    psi0, coupling = runs._initial_state(cfg), coupling_matrix(spec)
    plan = EntropyTablePlan(psi0.basis, pset.read_masks, reflection_invariant(coupling, psi0))
    return tmi_extrema(pset, plan.evaluate(evolve(coupling, psi0, times)), times)


class TestBinaryEntropy:
    def test_endpoints_and_center(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_known_value(self):
        assert binary_entropy(0.25) == pytest.approx(
            0.5 + 0.75 * math.log2(4.0 / 3.0), abs=1e-14
        )

    def test_array_input(self):
        h = binary_entropy(np.array([0.0, 0.5, 1.0]))
        np.testing.assert_allclose(h, [0.0, 1.0, 0.0], atol=1e-15)

    def test_snaps_tiny_overshoot(self):
        assert binary_entropy(-1e-13) == 0.0
        assert binary_entropy(1.0 + 1e-13) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(1.01)
        with pytest.raises(ValueError):
            binary_entropy(np.array([0.3, -0.2]))

    @given(unit, unit)
    def test_symmetry(self, p, q):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)
        del q

    @given(unit, unit, st.floats(0.0, 1.0))
    @settings(max_examples=60)
    def test_concavity(self, p, q, lam):
        mix = lam * p + (1.0 - lam) * q
        assume(0.0 <= mix <= 1.0)
        lhs = binary_entropy(mix)
        rhs = lam * binary_entropy(p) + (1.0 - lam) * binary_entropy(q)
        assert lhs >= rhs - 1e-12


class TestOccupationWeights:
    def test_from_amplitudes(self):
        c = np.sqrt(np.array([0.4, 0.3, 0.2, 0.1]))
        p_a, p_b, p_c = occupation_weights(c, 0b0001, 0b0010, 0b1100)
        assert p_a == pytest.approx(0.4)
        assert p_b == pytest.approx(0.3)
        assert p_c == pytest.approx(0.3)

    def test_requires_normalization(self):
        with pytest.raises(ValueError):
            occupation_weights(np.array([1.0, 1.0]), 0b01, 0b10, 0)

    def test_requires_disjoint(self):
        c = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            occupation_weights(c, 0b011, 0b010, 0b100)

    def test_requires_nonempty(self):
        # the same check as entropy.tmi, which refuses an empty subset
        c = np.array([0.0, 1.0, 0.0, 0.0])
        for a, b, c_subset in ((0, 0b10, 0b100), (0b1, 0, 0b100), (0b1, 0b10, 0)):
            with pytest.raises(ValueError, match="^subsets must be nonempty$"):
                occupation_weights(c, a, b, c_subset)

    def test_weight_validation(self):
        # occupation_weights and tmi_binary share one check of the weights
        with pytest.raises(ValueError, match=r"^occupation weights sum to 1\.2 > 1$"):
            tmi_binary(0.5, 0.4, 0.3)
        with pytest.raises(ValueError, match=r"^p_a=-0\.1 outside \[0, 1\]$"):
            tmi_binary(-0.1, 0.1, 0.1)
        with pytest.raises(ValueError, match=r"^p_c=1\.5 outside \[0, 1\]$"):
            tmi_binary(0.0, 0.0, 1.5)
        # roundoff past [0, 1] is clipped, and the clipped weights are returned
        assert reference._checked_weights(1.0 + 5e-13, -5e-13, 0.0) == (1.0, 0.0, 0.0)


class TestTmiBinary:
    def test_boundary_faces_are_exact_zero(self):
        assert tmi_binary(0.0, 0.3, 0.3) == 0.0
        assert tmi_binary(0.3, 0.0, 0.3) == 0.0
        assert tmi_binary(0.3, 0.3, 0.0) == 0.0
        # p_a + p_b + p_c = 1 leaves the fourth party empty
        assert tmi_binary(0.2, 0.3, 0.5) == 0.0

    def test_quarter_point(self):
        assert tmi_binary(0.25, 0.25, 0.25) == pytest.approx(
            TMI_AT_QUARTER_POINT, abs=1e-14
        )

    def test_accepts_weights_object(self):
        # the weights occupation_weights returns unpack into tmi_binary
        c = np.full(4, 0.5)
        w = occupation_weights(c, 0b0001, 0b0010, 0b0100)
        assert w == (0.25, 0.25, 0.25)
        assert tmi_binary(*w) == tmi_binary(0.25, 0.25, 0.25)

    def test_symmetry_in_arguments(self):
        val = tmi_binary(0.1, 0.2, 0.3)
        assert tmi_binary(0.3, 0.1, 0.2) == pytest.approx(val, abs=1e-14)

    @given(unit, unit, unit, st.floats(0.01, 1.0))
    @settings(max_examples=120)
    def test_nonnegative_on_simplex(self, x, y, z, w):
        total = x + y + z + w
        assume(total > 1e-6)
        p = (x / total, y / total, z / total)
        assert tmi_binary(*p) >= 0.0


class TestSimplexScan:
    def test_extrema(self):
        scan = simplex_scan(resolution=0.02)
        assert scan.min_value == 0.0
        assert scan.max_value == pytest.approx(TMI_AT_QUARTER_POINT, abs=1e-6)
        for coord in scan.argmax:
            assert coord == pytest.approx(0.25, abs=2e-3)

    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            simplex_scan(resolution=0.3)
        with pytest.raises(ValueError):
            simplex_scan(resolution=0.013)


class TestSubsetProbabilityTable:
    def test_matches_direct_sum(self, rng):
        weights = rng.random(6)
        table = _subset_probability_table(weights)
        for mask in (0, 0b1, 0b101010, 0b111111, 0b011011):
            direct = weights[list(bit_positions(mask))].sum() if mask else 0.0
            assert table[mask] == pytest.approx(direct, abs=1e-14)


class TestOnebodyScan:
    def test_matches_sector_pipeline(self):
        # the runner's extrema against the closed form over the whole family
        spec = ModelSpec(8, alpha=0.7)
        times = np.linspace(0.0, 1.2, 7)
        pset = enumerate_partitions(8, "all")

        series = _runner_scan(spec, 3, times, pset)
        closed = reference.onebody_entropy_table(_occupations(coupling_matrix(spec), 3, times))
        vals = pset.tmi_values(closed)
        np.testing.assert_allclose(series.min_values, vals.min(axis=0), rtol=0, atol=1e-10)
        np.testing.assert_allclose(series.max_values, vals.max(axis=0), rtol=0, atol=1e-10)

    def test_minimum_never_negative(self):
        spec = ModelSpec(10, alpha=0.4)
        times = np.linspace(0.0, 3.0, 31)
        series = _runner_scan(spec, 4, times, enumerate_partitions(10, "all"))
        assert series.min_values.min() >= -1e-12

    def test_initial_state_has_zero_tmi(self):
        spec = ModelSpec(8, nn_limit=True)
        times = np.linspace(0.0, 1.0, 3)
        series = _runner_scan(spec, 0, times, enumerate_partitions(8, "contiguous"))
        assert series.min_values[0] == 0.0
        assert series.max_values[0] == 0.0

    def test_mirrored_triples_pick_canonical_first(self):
        # an excitation on the middle site of an odd chain keeps the state
        # reflection-symmetric, and a pure state's TMI is symmetric in A, B,
        # C, D, so (A, B, C) ties exactly with (refl D, refl C, refl B); the
        # scan's extremum is the earlier of the two
        n = 7
        full = (1 << n) - 1
        pset = enumerate_partitions(n, "contiguous")
        index = {pset[i]: i for i in range(len(pset))}

        def refl(mask):
            return int(f"{mask:0{n}b}"[::-1], 2)

        times = np.linspace(0.1, 1.6, 16)
        checked = 0
        for alpha in (0.2, 0.6, 1.5):
            series = _runner_scan(ModelSpec(n, alpha=alpha), 3, times, pset)
            for i in np.concatenate([series.argmin, series.argmax]):
                a, b, c = pset[i]
                if a | b | c == full:
                    continue
                i, j = index[(a, b, c)], index[(refl(full ^ a ^ b ^ c), refl(c), refl(b))]
                assert i <= j
                checked += i != j
        assert checked > 0

    def test_scan_keeps_no_lookup_arrays(self):
        # the scan derives AB, AC, BC and ABC per block of triples; the seven
        # full-length lookup arrays are never built
        family = enumerate_partitions(8, "all")
        pset = PartitionSet(8, family.a, family.b, family.c)
        _runner_scan(ModelSpec(8, alpha=0.7), 3, np.linspace(0.0, 1.2, 5), pset)
        assert not any(np.shape(value) == (7, len(pset)) for value in vars(pset).values())

    def test_rejects_mismatched_chain(self):
        times = np.linspace(0.0, 1.0, 3)
        pset = enumerate_partitions(6, "all")
        with pytest.raises(ValueError):
            _runner_scan(ModelSpec(8, alpha=1.0), 0, times, pset)


class TestOnebodyRunner:
    def test_occupation_columns_match_oracle(self):
        # the runner reads column m of the k=1 trajectory as site m, which
        # holds because the sector rank of 1 << m is m
        n, site = 16, 5
        cfg = load_config(None, {
            "model.n_sites": str(n), "model.alphas": "0.3, 2.5, nn",
            "initial.state": f"single:{site}", "time.t_max": "3.0", "time.n_points": "9",
            "time.kac_rescaled": "true", "partitions.strategy": "contiguous"})
        (data,) = run_onebody_scan(cfg)
        labels = np.array(data.columns["alpha"])
        for label, spec in cfg.sweep():
            rows = labels == label
            times = np.array(data.columns["t"])[rows]
            oracle = np.abs(reference.onebody_amplitudes(coupling_matrix(spec), site,
                                                         times)) ** 2
            occupations = np.column_stack([np.array(data.columns[f"p{m}"])[rows]
                                           for m in range(n)])
            np.testing.assert_allclose(occupations, oracle, rtol=0, atol=1e-12)
