"""Acceptance gate: ten numbered criteria, one test per criterion.

Each test prints one `CRITERION n: PASS/FAIL (detail)` line before its
assertions, so `pytest tests/test_acceptance.py -v -rA` reports every
criterion with its measured numbers.  Criteria the dynamics genuinely
does not satisfy fail honestly here rather than behind loosened
tolerances; the detail lines carry the measured values either way.

Budget: the module runs in about 35 s on a 2-core Xeon (34-36 s
measured); the largest parts, about 5-6 s each, are the fixtures of
criteria 7 and 9 and the k=1 scan of criterion 3.
"""

import math
import time

import numpy as np
import pytest

from spinchain import (
    ModelSpec,
    SectorHamiltonian,
    StateVector,
    coupling_matrix,
    enumerate_partitions,
    enumerate_sector,
    evolve,
    neel_state,
    occupation_weights,
    onebody_tmi_scan,
    simplex_scan,
    single_excitation_state,
    subset_entropy_table,
    tmi,
    tmi_binary,
)
from spinchain import reference
from spinchain.cli import main as cli_main
from spinchain.config import load_config
from spinchain.runs import (
    run_minmax_scan,
    run_tmi_grid,
    run_tmi_vs_entropy,
    validate_suite,
)

from conftest import lookup_masks

# exact peak of the 1-excitation TMI at the simplex center: 4 H(1/4) - 3
SIMPLEX_PEAK = 4.0 * (0.5 + 0.75 * math.log2(4.0 / 3.0)) - 3.0

pytestmark = pytest.mark.acceptance


def _line(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _tracks(dataset, label, *keys):
    """Per-exponent column slices of a sweep dataset, as float arrays."""
    cols = dataset.columns
    idx = [i for i, a in enumerate(cols["alpha"]) if a == label]
    return tuple(np.array([cols[k][i] for i in idx], dtype=float) for k in keys)


# -- shared expensive artifacts ----------------------------------------------

@pytest.fixture(scope="session")
def fig4_results():
    t0 = time.time()
    data = run_minmax_scan(load_config("fig4"))
    return {d.name: d for d in data}, time.time() - t0


@pytest.fixture(scope="session")
def fig2_results():
    cfg = load_config("fig2").replace(
        alphas=(0.3, 2.0, 2.5, 3.0), nn_limit=False, t_max=2.5, n_points=101)
    t0 = time.time()
    data = run_tmi_grid(cfg)
    return data[0], time.time() - t0


@pytest.fixture(scope="session")
def fig3_results():
    t0 = time.time()
    data = run_tmi_vs_entropy(load_config("fig3"))
    return data[0], time.time() - t0


# -- criteria ------------------------------------------------------------------

def test_criterion_01_sector_vs_full_dynamics():
    t0 = time.time()
    times = np.linspace(0.25, 2.4, 10)
    worst, n_runs = 0.0, 0
    for n in (6, 8, 10):
        specs = (ModelSpec(n, alpha=0.0), ModelSpec(n, alpha=0.5),
                 ModelSpec(n, alpha=2.0), ModelSpec(n, nn_limit=True))
        for spec in specs:
            coupling = coupling_matrix(spec)
            for k in (n // 2, 1):
                basis = enumerate_sector(n, k)
                psi0 = neel_state(basis) if k == n // 2 \
                    else single_excitation_state(basis, n // 2)
                traj = evolve(coupling, basis, psi0, times)
                full = reference.evolve_full(
                    coupling, reference.embed_state(psi0), times)
                for i in range(len(times)):
                    dev = np.max(np.abs(full[i][basis.states] - traj.states[i]))
                    worst = max(worst, float(dev))
                n_runs += 1
    ok = worst < 1e-9
    _line(1, ok, f"max amplitude deviation {worst:.3g} over {n_runs} quenches "
                 f"x 10 times, {time.time() - t0:.0f}s")
    assert ok, f"sector evolution deviates from full-space evolution by {worst}"


def _disjoint_pairs(n):
    """Every unordered pair of disjoint nonempty subset masks."""
    full = (1 << n) - 1
    for a in range(1, full + 1):
        rest = full & ~a
        b = rest
        while b:
            if b < a:
                yield a, b
            b = (b - 1) & rest


def test_criterion_02_sector_vs_full_entropies():
    t0 = time.time()
    worst_s = worst_mi = worst_tmi = 0.0
    for n in (6, 8, 10):
        basis = enumerate_sector(n, n // 2)
        coupling = coupling_matrix(ModelSpec(n, alpha=0.7))
        traj = evolve(coupling, basis, neel_state(basis),
                      np.array([1.3]))
        psi = traj.state_at(0)
        table = subset_entropy_table(psi).values
        full = reference.embed_state(psi)
        s_full = np.array([reference.subset_entropy_full(full, n, m)
                           for m in range(1 << n)])
        worst_s = max(worst_s, float(np.max(np.abs(table - s_full))))
        for a, b in _disjoint_pairs(n):
            dev = abs((table[a] + table[b] - table[a | b])
                      - (s_full[a] + s_full[b] - s_full[a | b]))
            worst_mi = max(worst_mi, float(dev))
        ia, ib, ic, iab, iac, ibc, iabc = lookup_masks(enumerate_partitions(n, "all"))
        tmi_sec = (table[ia] + table[ib] + table[ic] + table[iabc]
                   - table[iab] - table[iac] - table[ibc])
        tmi_ful = (s_full[ia] + s_full[ib] + s_full[ic] + s_full[iabc]
                   - s_full[iab] - s_full[iac] - s_full[ibc])
        worst_tmi = max(worst_tmi, float(np.max(np.abs(tmi_sec - tmi_ful))))
    ok = max(worst_s, worst_mi, worst_tmi) < 1e-9
    _line(2, ok, f"max deviation: entropy {worst_s:.3g}, MI {worst_mi:.3g}, "
                 f"TMI {worst_tmi:.3g} (exhaustive, N=6/8/10), {time.time() - t0:.0f}s")
    assert ok, (worst_s, worst_mi, worst_tmi)


def test_criterion_03_onebody_nonnegativity():
    t0 = time.time()
    # one triple per {A, B, C, D} orbit, as the runners scan the family: a
    # pure state's TMI ties across each orbit
    pset = enumerate_partitions(12, "all", orbits=True)
    grid = np.linspace(0.0, 5.0, 101)  # Kac units
    specs = [ModelSpec(12, alpha=a) for a in (0.0, 0.2, 0.5, 1.0, 3.0)]
    specs.append(ModelSpec(12, nn_limit=True))
    floor = np.inf
    for spec in specs:
        coupling = coupling_matrix(spec)
        times = grid / coupling.kac
        occupations = np.abs(reference.onebody_amplitudes(coupling, 6, times)) ** 2
        scan = onebody_tmi_scan(occupations, times, pset)
        floor = min(floor, float(scan.min_values.min()))
    ok_scan = floor >= -1e-10

    sx = simplex_scan(resolution=0.01)
    ok_sx = (sx.min_value == 0.0
             and abs(sx.max_value - SIMPLEX_PEAK) < 1e-9
             and max(abs(p - 0.25) for p in sx.argmax) <= 0.01)
    ok = ok_scan and ok_sx
    _line(3, ok, f"min TMI {floor:.3g} over 6 exponents x {pset.family_size} partitions "
                 f"x 101 times; simplex min {sx.min_value}, "
                 f"max {sx.max_value:.12g} at {tuple(round(p, 4) for p in sx.argmax)}, "
                 f"{time.time() - t0:.0f}s")
    assert ok_scan, f"1-excitation TMI dipped to {floor}"
    assert ok_sx, (sx.min_value, sx.max_value, sx.argmax)


def test_criterion_04_closed_form_vs_pipeline():
    t0 = time.time()
    rng = np.random.default_rng(20250819)
    coupling = coupling_matrix(ModelSpec(12, alpha=0.5))
    basis = enumerate_sector(12, 1)
    times = rng.uniform(0.0, 4.0, size=50)
    amps = reference.onebody_amplitudes(coupling, 6, times)
    worst = 0.0
    for i in range(50):
        psi = StateVector(basis, amps[i])
        table = subset_entropy_table(psi)
        sites = rng.permutation(12)
        sa, sb, sc = rng.integers(1, 4, size=3)
        a = int(sum(1 << s for s in sites[:sa]))
        b = int(sum(1 << s for s in sites[sa:sa + sb]))
        c = int(sum(1 << s for s in sites[sa + sb:sa + sb + sc]))
        w = occupation_weights(amps[i], a, b, c)
        worst = max(worst, abs(tmi_binary(*w) - tmi(table, a, b, c)))
    ok = worst < 1e-9
    _line(4, ok, f"max closed-form vs table deviation {worst:.3g} over 50 "
                 f"random (t, partition) samples, {time.time() - t0:.0f}s")
    assert ok, worst


def test_criterion_05_permutation_symmetry():
    t0 = time.time()
    basis = enumerate_sector(12, 6)
    coupling = coupling_matrix(ModelSpec(12, alpha=0.5))
    times = np.linspace(0.3, 3.0, 10)
    traj = evolve(coupling, basis, neel_state(basis), times)
    rng = np.random.default_rng(20250819)
    parts = []
    for _ in range(100):
        sites = rng.permutation(12)
        cuts = np.sort(rng.choice(np.arange(1, 12), size=3, replace=False))
        groups = np.split(sites, cuts)
        parts.append(tuple(int(sum(1 << s for s in g)) for g in groups))
    worst = 0.0
    for i in range(len(times)):
        table = subset_entropy_table(traj.state_at(i))
        for a, b, c, d in parts:
            worst = max(worst, abs(tmi(table, a, b, c) - tmi(table, b, c, d)))
    ok = worst < 1e-9
    _line(5, ok, f"max |tmi(A,B,C) - tmi(B,C,D)| = {worst:.3g} over 10 times "
                 f"x 100 partitions, {time.time() - t0:.0f}s")
    assert ok, worst


def test_criterion_06_invariant_suite():
    t0 = time.time()
    worst = {"norm": 0.0, "energy": 0.0, "bound": 0.0, "mi": 0.0,
             "mono": 0.0, "mirror": 0.0}
    n_states = 0
    for n in (6, 8, 10):
        specs = (ModelSpec(n, alpha=0.5), ModelSpec(n, alpha=2.0),
                 ModelSpec(n, nn_limit=True))
        sizes = np.bitwise_count(np.arange(1 << n, dtype=np.uint32)).astype(int)
        bound = np.minimum(sizes, n - sizes)
        mirror = np.arange(1 << n) ^ ((1 << n) - 1)
        ia, ib, ic, iab, iac, ibc, iabc = lookup_masks(enumerate_partitions(n, "all"))
        for spec in specs:
            coupling = coupling_matrix(spec)
            for k in (n // 2, 1):
                basis = enumerate_sector(n, k)
                ham = SectorHamiltonian(coupling, basis)
                psi0 = neel_state(basis) if k == n // 2 \
                    else single_excitation_state(basis, n // 2)
                times = np.array([0.9, 2.3])
                traj = evolve(coupling, basis, psi0, times)
                e0 = ham.expectation(psi0.amplitudes)
                for i in range(len(times)):
                    psi = traj.state_at(i)
                    n_states += 1
                    worst["norm"] = max(worst["norm"], abs(psi.norm - 1.0))
                    et = ham.expectation(psi.amplitudes)
                    worst["energy"] = max(worst["energy"],
                                          abs(et - e0) / max(1.0, abs(e0)))
                    t = subset_entropy_table(psi).values
                    worst["bound"] = max(worst["bound"],
                                         float(np.max(t - bound)), float(-t.min()))
                    worst["mirror"] = max(worst["mirror"],
                                          float(np.max(np.abs(t - t[mirror]))))
                    mi_ab = t[ia] + t[ib] - t[iab]
                    worst["mi"] = max(worst["mi"], float(-mi_ab.min()))
                    # monotonicity I_{X:YZ} >= I_{X:Y}; the S_X term cancels,
                    # leaving (S_YZ - S_XYZ) - (S_Y - S_XY) per role of X
                    for joint, two, pair in ((ibc, ib, iab),
                                             (iac, ia, iab),
                                             (iab, ia, iac)):
                        gain = (t[joint] - t[iabc]) - (t[two] - t[pair])
                        worst["mono"] = max(worst["mono"], float(-gain.min()))
    oracle_ok = validate_suite(write=lambda _: None)
    ok = (worst["norm"] < 1e-10 and worst["energy"] < 1e-9
          and worst["bound"] < 1e-9 and worst["mi"] < 1e-9
          and worst["mono"] < 1e-9 and worst["mirror"] < 1e-10 and oracle_ok)
    _line(6, ok, f"{n_states} states: norm drift {worst['norm']:.2g}, "
                 f"energy drift {worst['energy']:.2g}, bound excess {worst['bound']:.2g}, "
                 f"MI floor -{worst['mi']:.2g}, monotonicity floor -{worst['mono']:.2g}, "
                 f"mirror gap {worst['mirror']:.2g}, oracle suite "
                 f"{'ok' if oracle_ok else 'FAILED'}, {time.time() - t0:.0f}s")
    assert ok, worst


def test_criterion_07_extremal_tmi_reproduction(fig4_results):
    data, elapsed = fig4_results
    scan, summary = data["minmax_scan"], data["minmax_summary"]

    # (a) alpha = 3.0: max TMI pinned near zero, min TMI negative for good
    (mx3,) = _tracks(scan, "3", "max_tmi")
    (mn3,) = _tracks(scan, "3", "min_tmi")
    neg = np.nonzero(mn3 < -1e-10)[0]
    ok_a = (np.max(np.abs(mx3)) <= 0.05
            and len(neg) > 0 and bool(np.all(mn3[neg[0]:] < -1e-10)))

    # (b) alpha = 0.2: strictly positive minimum over proper splits at first,
    # then a resolved sign change
    (mp2,) = _tracks(scan, "0.2", "min_tmi_proper")
    first_neg = np.nonzero(mp2 < 0)[0]
    ok_b = (len(first_neg) > 0 and first_neg[0] >= 2
            and bool(np.all(mp2[1:first_neg[0]] > 0)))

    # (c) sign-change time per exponent: finite through 0.5, vanishing above
    taus = dict(zip(summary.columns["alpha"], summary.columns["tau"]))
    step = 5.0 / 100  # grid resolution in Kac units
    finite_set = ("0.1", "0.2", "0.3", "0.4", "0.5")
    vanish_set = ("0.6", "0.7", "0.8", "0.9", "1")
    bad = []
    for label in finite_set:
        if taus[label] is None or taus[label] < step:
            bad.append(f"alpha={label}: tau={taus[label]} not resolved finite")
    for label in vanish_set:
        if taus[label] is None or taus[label] >= step:
            bad.append(f"alpha={label}: tau={taus[label]} not below grid step")
    tau_text = ", ".join(
        f"{k}:{taus[k]:.3g}" if taus[k] is not None else f"{k}:never"
        for k in finite_set + vanish_set)
    ok = ok_a and ok_b and not bad
    _line(7, ok, f"(a) peak |max| {np.max(np.abs(mx3)):.3g} {'ok' if ok_a else 'VIOLATED'}; "
                 f"(b) initial proper-min interval {'ok' if ok_b else 'VIOLATED'}; "
                 f"(c) tau[{tau_text}] Kac units; violations: {bad or 'none'}; "
                 f"{elapsed:.0f}s")
    assert ok_a, "alpha=3.0 extremum shape violated"
    assert ok_b, "alpha=0.2 early positive minimum violated"
    assert not bad, "; ".join(bad)


def test_criterion_08_quarter_tmi_onset(fig2_results):
    data, elapsed = fig2_results
    onset = float(data.meta["lightcone_onset"])
    (t,) = _tracks(data, "3", "t")

    (tr03,) = _tracks(data, "0.3", "tmi")
    i03 = int(np.argmax(np.abs(tr03) > 1e-3))
    ok_pos = bool(np.abs(tr03).max() > 1e-3) and tr03[i03] > 0

    quiet, neg_ok = {}, {}
    for label in ("2", "2.5", "3"):
        (tr,) = _tracks(data, label, "tmi")
        exceed = np.nonzero(np.abs(tr) > 1e-3)[0]
        quiet[label] = t[exceed[0]] if len(exceed) else np.inf
        neg_ok[label] = bool(tr.min() < -1e-3)
    ok_neg = all(neg_ok.values())
    ok_quiet = all(tq >= 0.5 * onset - 1e-12 for tq in quiet.values())
    quiet_text = ", ".join(f"{k}:{v:.3g}" for k, v in quiet.items())
    ok = ok_pos and ok_neg and ok_quiet
    _line(8, ok, f"onset {onset:.3g} (need quiet to {0.5 * onset:.3g}); "
                 f"first |TMI|>1e-3 at t[{quiet_text}]; "
                 f"negative attained {'yes' if ok_neg else 'NO'}; "
                 f"alpha=0.3 positive first {'yes' if ok_pos else 'NO'}; {elapsed:.0f}s")
    assert ok_pos, "alpha=0.3 did not peak positive before any negative excursion"
    assert ok_neg, f"TMI never below -1e-3: {neg_ok}"
    assert ok_quiet, (
        f"quarter TMI leaves the +-1e-3 band before 0.5 x onset ({0.5 * onset:.3g}): "
        f"{quiet_text}")


def test_criterion_09_entropy_growth_and_peak_suppression(fig3_results):
    data, elapsed = fig3_results
    labels = ("0.3", "0.5", "1", "2", "3", "nn")
    non_monotone = []
    peaks = {}
    for label in labels:
        tmi_vals, s_half = _tracks(data, label, "tmi", "half_chain_entropy")
        if not np.all(np.diff(s_half) >= -1e-12):
            non_monotone.append(label)
        peaks[label] = float(tmi_vals.max())
    ordered = ("0.3", "0.5", "1", "2", "3")
    order_bad = []
    for hi, lo in zip(ordered, ordered[1:]):
        drop_ok = peaks[lo] <= peaks[hi] + 1e-9
        strict_ok = peaks[hi] <= 1e-6 or peaks[lo] < peaks[hi]
        if not (drop_ok and strict_ok):
            order_bad.append(f"{hi}->{lo}")
    peak_text = ", ".join(f"{k}:{peaks[k]:.3g}" for k in labels)
    ok = not non_monotone and not order_bad
    _line(9, ok, f"S_half monotone for all of {labels} "
                 f"{'yes' if not non_monotone else non_monotone}; "
                 f"peaks[{peak_text}]; ordering violations: {order_bad or 'none'}; "
                 f"{elapsed:.0f}s")
    assert not non_monotone, f"half-chain entropy not monotone at {non_monotone}"
    assert not order_bad, f"peak ordering violated at {order_bad}"


def test_criterion_10_determinism(tmp_path, monkeypatch):
    t0 = time.time()

    def read_dir(path):
        return {p.name: p.read_bytes() for p in sorted(path.iterdir())}

    # the bundled smoke preset through the CLI, repeated and reparallelized
    cli_runs = {}
    for tag, threads in (("a", "1"), ("b", "1"), ("c", "2")):
        monkeypatch.setenv("SPINCHAIN_THREADS", threads)
        out = tmp_path / f"smoke_{tag}"
        assert cli_main(["tmi-vs-entropy", "--config", "smoke",
                         "--out", str(out)]) == 0
        cli_runs[tag] = read_dir(out)
    ok_cli = cli_runs["a"] == cli_runs["b"] == cli_runs["c"]

    # the extremal-scan preset, shortened, across worker counts
    scan_runs = {}
    cfg = load_config("fig4").replace(n_points=11, inset_alphas=(0.4, 0.7))
    for threads in ("1", "2"):
        monkeypatch.setenv("SPINCHAIN_THREADS", threads)
        out = tmp_path / f"scan_{threads}"
        for dataset in run_minmax_scan(cfg):
            dataset.write(out, cfg.formats, cfg.precision)
        scan_runs[threads] = read_dir(out)
    ok_scan = scan_runs["1"] == scan_runs["2"]

    ok = ok_cli and ok_scan
    _line(10, ok, f"smoke preset x3 (threads 1,1,2) byte-identical: {ok_cli}; "
                  f"extremal scan threads 1 vs 2 byte-identical: {ok_scan}; "
                  f"{time.time() - t0:.0f}s")
    assert ok_cli, "smoke preset outputs differ across repeats or worker counts"
    assert ok_scan, "extremal scan outputs differ across worker counts"
