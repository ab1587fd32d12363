"""CLI subcommands, exit codes, and output determinism."""

import ast
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import spinchain
from spinchain import ModelSpec, coupling_matrix, reference
from spinchain.cli import main

SMOKE_CFG = """\
[model]
n_sites = 8
alphas = 0.5, 3.0

[time]
t_max = 1.0
n_points = 5

[output]
formats = csv
"""
ONEBODY_CFG = SMOKE_CFG + "\n[initial]\nstate = single:4\n"
RUNNERS = ("tmi-grid", "tmi-vs-entropy", "minmax-scan", "onebody-scan")
# an explicit triple on a chain the default quarters cannot split
TRIPLE_CFG = SMOKE_CFG.replace("n_sites = 8", "n_sites = 10") + """
[initial]
state = single:4

[partitions]
a = 0, 1
b = 4
c = 8, 9
"""


def run_cli(argv):
    return main(argv)


class TestValidate:
    def test_validate_passes(self, capsys):
        assert run_cli(["validate"]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
        assert len(lines) == 5
        assert all(ln.startswith("PASS") for ln in lines)


class TestRunners:
    def test_tmi_grid_smoke(self, tmp_path, capsys):
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(SMOKE_CFG)
        out_dir = tmp_path / "out"
        code = run_cli(["tmi-grid", "--config", str(cfg), "--out", str(out_dir),
                        "--format", "csv,json"])
        assert code == 0
        csv_path = out_dir / "tmi_grid.csv"
        json_path = out_dir / "tmi_grid.json"
        assert csv_path.exists() and json_path.exists()
        assert str(csv_path) in capsys.readouterr().out

        lines = csv_path.read_text().splitlines()
        meta = [ln for ln in lines if ln.startswith("# ")]
        assert any(ln.startswith("# config_hash = ") for ln in meta)
        # two exponents x five grid times
        assert len(lines) - len(meta) - 1 == 10

        payload = json.loads(json_path.read_text())
        assert payload["meta"]["n_sites"] == 8
        assert len(payload["columns"]["tmi"]) == 10

    @pytest.mark.parametrize("command, name, header", [
        ("tmi-grid", "tmi_grid", "alpha,t,t_kac,tmi,lightcone_onset"),
        ("tmi-vs-entropy", "tmi_vs_entropy", "alpha,t_kac,t,tmi,half_chain_entropy"),
        ("minmax-scan", "minmax_scan",
         "alpha,t,t_kac,min_tmi,min_tmi_proper,max_tmi,"
         "argmin_a,argmin_b,argmin_c,argmax_a,argmax_b,argmax_c"),
        ("minmax-scan", "minmax_summary", "alpha,peak_max_tmi,tau"),
        ("onebody-scan", "onebody_scan",
         "alpha,t,t_kac,min_tmi,max_tmi," + ",".join(f"p{m}" for m in range(8))),
    ])
    def test_csv_column_order(self, tmp_path, command, name, header):
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(ONEBODY_CFG if command == "onebody-scan" else SMOKE_CFG)
        out_dir = tmp_path / "out"
        assert run_cli([command, "--config", str(cfg), "--out", str(out_dir)]) == 0
        lines = (out_dir / f"{name}.csv").read_text().splitlines()
        assert next(ln for ln in lines if not ln.startswith("# ")) == header

    def test_minmax_scan_writes_summary(self, tmp_path):
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(SMOKE_CFG)
        out_dir = tmp_path / "out"
        code = run_cli(["minmax-scan", "--config", str(cfg),
                        "--partitions", "contiguous", "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "minmax_scan.csv").exists()
        assert (out_dir / "minmax_summary.csv").exists()

    def test_onebody_scan_needs_single_state(self, tmp_path, capsys):
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(SMOKE_CFG)
        code = run_cli(["onebody-scan", "--config", str(cfg),
                        "--out", str(tmp_path / "out")])
        assert code == 2
        assert "single" in capsys.readouterr().err

    def test_onebody_scan_smoke(self, tmp_path):
        cfg = tmp_path / "one.cfg"
        cfg.write_text(ONEBODY_CFG)
        out_dir = tmp_path / "out"
        code = run_cli(["onebody-scan", "--config", str(cfg),
                        "--partitions", "all", "--out", str(out_dir)])
        assert code == 0
        lines = (out_dir / "onebody_scan.csv").read_text().splitlines()
        header = next(ln for ln in lines if not ln.startswith("# "))
        assert "p0" in header.split(",")  # occupation columns present
        assert "p7" in header.split(",")


class TestExitCodes:
    def test_config_error_is_2(self, capsys):
        assert run_cli(["tmi-grid", "--config", "nope"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_flag_value_is_2(self, tmp_path):
        assert run_cli(["tmi-grid", "--alpha", "1.0", "--n-points", "lots",
                        "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command", RUNNERS)
    def test_bad_strategy_is_2(self, tmp_path, command):
        out_dir = tmp_path / "out"
        assert run_cli([command, "--config", "smoke", "--partitions", "bogus",
                        "--out", str(out_dir)]) == 2
        assert not out_dir.exists()

    def test_capacity_guard_is_3(self, tmp_path, capsys):
        code = run_cli(["tmi-grid", "--alpha", "1.0", "--n-sites", "40",
                        "--out", str(tmp_path)])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_numerical_failure_is_4(self, tmp_path, capsys, monkeypatch):
        # states of norm 1.01 carry Schmidt weights summing to 1.0201, which
        # the entropy layer's weight-sum check must refuse
        from spinchain import runs
        real_evolve = runs.evolve

        def inflated(*args, **kwargs):
            return real_evolve(*args, **kwargs) * 1.01

        monkeypatch.setattr(runs, "evolve", inflated)
        monkeypatch.setenv("SPINCHAIN_THREADS", "1")  # patch lives in this process
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(SMOKE_CFG)
        code = run_cli(["tmi-grid", "--config", str(cfg),
                        "--out", str(tmp_path / "out")])
        assert code == 4
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Schmidt weights" in err

    def test_non_finite_tmi_is_4(self, tmp_path, capsys, monkeypatch):
        # one NaN entropy in the onebody runner's table reaches the TMI of
        # every triple that reads it
        from spinchain import runs

        class OneNan(runs.EntropyTablePlan):
            def evaluate(self, amplitudes):
                table = super().evaluate(amplitudes)
                if table.values.ndim == 2:  # the time-batched table
                    table.values[1, 2] = np.nan
                return table

        monkeypatch.setattr(runs, "EntropyTablePlan", OneNan)
        monkeypatch.setenv("SPINCHAIN_THREADS", "1")  # patch lives in this process
        cfg = tmp_path / "one.cfg"
        cfg.write_text(ONEBODY_CFG)
        out_dir = tmp_path / "out"
        code = run_cli(["onebody-scan", "--config", str(cfg), "--out", str(out_dir)])
        assert code == 4
        err = capsys.readouterr().err
        assert "error: non-finite TMI at t=" in err and "(alpha=0.5)" in err
        assert not out_dir.exists()

    def test_non_finite_amplitude_is_4(self, tmp_path, capsys, monkeypatch):
        # a NaN amplitude in a Neel trajectory is refused by the entropy plan
        # rather than handed to eigvalsh
        from spinchain import runs
        real_evolve = runs.evolve

        def one_nan(*args):
            states = real_evolve(*args)
            states[1, 3] = np.nan
            return states

        monkeypatch.setattr(runs, "evolve", one_nan)
        monkeypatch.setenv("SPINCHAIN_THREADS", "1")  # patch lives in this process
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(SMOKE_CFG)
        out_dir = tmp_path / "out"
        code = run_cli(["tmi-grid", "--config", str(cfg), "--out", str(out_dir)])
        assert code == 4
        err = capsys.readouterr().err
        assert "error: non-finite amplitude at sector rank 3 (alpha=0.5)" in err
        assert not out_dir.exists()

    def test_all_assignments_capacity_is_3(self, tmp_path, capsys):
        cfg = tmp_path / "one.cfg"
        cfg.write_text(ONEBODY_CFG)
        out_dir = tmp_path / "out"
        # the scan streams the orbit set from its label tables, whose build
        # outgrows the budget at N=19 (4.7 GB of 96,855,113 rows; N=18 fits)
        code = run_cli(["onebody-scan", "--config", str(cfg), "--n-sites", "19",
                        "--partitions", "all", "--out", str(out_dir)])
        assert code == 3
        assert ("a 19-site run over 11,453,115,051 triples, 10 table columns a worker, "
                "about 4.8 GB in label tables") in capsys.readouterr().err
        assert not out_dir.exists()

    def test_fixed_sizes_capacity_is_3(self, tmp_path, capsys):
        cfg = tmp_path / "one.cfg"
        cfg.write_text(ONEBODY_CFG)
        out_dir = tmp_path / "out"
        # B and C of 6 sites each from the other 20: a label table of
        # 58,198,140 rows, 2.8 GB at its build's peak (N=20 fits, 1.2 GB)
        code = run_cli(["onebody-scan", "--config", str(cfg), "--n-sites", "21",
                        "--partitions", "fixed:1,6,6", "--out", str(out_dir)])
        assert code == 3
        assert ("a 21-site run over 1,222,160,940 triples, 10 table columns a worker, "
                "about 3.0 GB in label tables" in capsys.readouterr().err)
        assert not out_dir.exists()

    def test_all_assignments_refused_before_its_read_masks(self, tmp_path, capsys,
                                                           monkeypatch):
        # one excitation on 30 sites passes the sector guards; the 2^30 - 1
        # read masks are counted from their popcounts and refused unlisted
        from spinchain import partitions

        def refuse(*args):
            raise AssertionError("the read masks were listed")

        monkeypatch.setattr(partitions, "_masks_of_popcounts", refuse)
        cfg = tmp_path / "one.cfg"
        cfg.write_text(ONEBODY_CFG)
        out_dir = tmp_path / "out"
        code = run_cli(["onebody-scan", "--config", str(cfg), "--n-sites", "30",
                        "--partitions", "all", "--out", str(out_dir)])
        assert code == 3
        assert ("the read masks of a 30-site partition set, about 25.8 GB in mask arrays"
                in capsys.readouterr().err)
        assert not out_dir.exists()

    def test_hamiltonian_capacity_is_3(self, tmp_path, capsys):
        # fig3 at paper scale: the N=24 Neel sector's Hamiltonian (2.0 GB of
        # index tables and work buffers) fits alone, but not with even two
        # states and the Chebyshev vectors, so it is refused before the
        # tables are built
        out_dir = tmp_path / "out"
        code = run_cli(["tmi-vs-entropy", "--n-sites", "24", "--alpha", "0.3",
                        "--n-points", "2", "--out", str(out_dir)])
        assert code == 3
        assert ("sector (24, 12) trajectory has 2 states of 2,704,156 amplitudes, about 2.6 GB "
                "with its Chebyshev vectors and the 2.0 GB Hamiltonian"
                in capsys.readouterr().err)
        assert not out_dir.exists()

    def test_trajectory_capacity_is_3(self, tmp_path, capsys):
        # fig3 at paper scale, nn: 161 states of the N=24 Neel sector do not
        # fit, so evolve refuses before any product
        out_dir = tmp_path / "out"
        code = run_cli(["tmi-vs-entropy", "--config", "fig3", "--paper-scale",
                        "--alpha", "nn", "--out", str(out_dir)])
        assert code == 3
        assert ("sector (24, 12) trajectory has 161 states of 2,704,156 amplitudes, "
                "about 9.4 GB" in capsys.readouterr().err)
        assert not out_dir.exists()

    def test_read_masks_capacity_is_3(self, tmp_path, capsys):
        # one excitation on 36 sites passes the sector guards; the presence
        # table of the quarter triple's read masks would hold 2^36 flags
        cfg = tmp_path / "one.cfg"
        cfg.write_text(SMOKE_CFG + "\n[initial]\nstate = single:3\n")
        out_dir = tmp_path / "out"
        code = run_cli(["tmi-grid", "--config", str(cfg), "--n-sites", "36",
                        "--out", str(out_dir)])
        assert code == 3
        assert ("the read masks of a 36-site partition set, about 68.7 GB in a presence table"
                in capsys.readouterr().err)
        assert not out_dir.exists()

    def test_onebody_floor_check_is_4(self, tmp_path, capsys, monkeypatch):
        # a TMI below -ONEBODY_TMI_FLOOR contradicts the k=1 closed form
        from spinchain import runs
        real_scan = runs.tmi_extrema

        def negative(*args, **kwargs):
            scan = real_scan(*args, **kwargs)
            scan.min_values[2] = -1e-9
            return scan

        monkeypatch.setattr(runs, "tmi_extrema", negative)
        monkeypatch.setenv("SPINCHAIN_THREADS", "1")  # patch lives in this process
        cfg = tmp_path / "one.cfg"
        cfg.write_text(ONEBODY_CFG)
        out_dir = tmp_path / "out"
        code = run_cli(["onebody-scan", "--config", str(cfg), "--out", str(out_dir)])
        assert code == 4
        err = capsys.readouterr().err
        assert "TMI -1e-09 below -1e-10 at alpha=0.5, t=0.5, partition masks=(" in err
        assert not out_dir.exists()  # the check runs before anything is written

    def test_second_group_failures_name_their_alpha(self, tmp_path, capsys, monkeypatch):
        # two workers take the exponents 0.5, 1 and 2, 3 as two groups; a
        # failure in the columns of 3, the second exponent of the second
        # group, names alpha=3, whether the floor check or a non-finite
        # TMI finds it
        from spinchain import runs
        real_scan, real_exponent = runs.tmi_extrema, runs._exponent

        def negative_at_3(pset, table, times, **kwargs):
            scan = real_scan(pset, table, times, **kwargs)
            columns = [i for i, name in enumerate(times) if name.endswith("(alpha=3)")]
            if columns:
                scan.min_values[columns[2]] = -1e-9
            return scan

        def nan_at_3(cfg, psi0, plan, label, spec, occupations):
            t, kac, table, occ = real_exponent(cfg, psi0, plan, label, spec, occupations)
            if label == "3":
                table.values[1, 2] = np.nan
            return t, kac, table, occ

        monkeypatch.setenv("SPINCHAIN_THREADS", "2")  # forked workers inherit the patches
        cfg = tmp_path / "one.cfg"
        cfg.write_text(ONEBODY_CFG)
        for patch, message in (
                ((runs, "tmi_extrema", negative_at_3),
                 "TMI -1e-09 below -1e-10 at alpha=3, t=0.5, partition masks=("),
                ((runs, "_exponent", nan_at_3), "error: non-finite TMI at t=")):
            with monkeypatch.context() as m:
                m.setattr(*patch)
                out_dir = tmp_path / patch[1]
                code = run_cli(["onebody-scan", "--config", str(cfg), "--alpha", "0.5,1,2,3",
                                "--out", str(out_dir)])
            err = capsys.readouterr().err
            assert code == 4 and message in err and err.count("alpha=") == 1, err
            assert "alpha=3" in err and not out_dir.exists()

    def test_paper_scale_needs_preset_key(self, tmp_path):
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(SMOKE_CFG)
        assert run_cli(["tmi-grid", "--config", str(cfg), "--paper-scale",
                        "--out", str(tmp_path / "out")]) == 2

    def test_paper_scale_refuses_n_sites(self, tmp_path, capsys, monkeypatch):
        # --paper-scale sets N, so an --n-sites beside it would be dropped;
        # the stub runner stands in for an N=20 run that must not start
        started = []
        monkeypatch.setattr("spinchain.runs.run_tmi_grid", lambda cfg: started.append(cfg) or [])
        code = run_cli(["tmi-grid", "--config", "fig2", "--n-sites", "12", "--paper-scale",
                        "--out", str(tmp_path / "out")])
        assert (code, started) == (2, [])
        assert "--paper-scale" in capsys.readouterr().err
        assert run_cli(["tmi-grid", "--config", "fig2", "--paper-scale"]) == 0
        assert [cfg.n_sites for cfg in started] == [20]


class TestPartitionRules:
    """Every runner reads what [partitions] names, or exits 2 before writing."""

    @pytest.mark.parametrize("command", ["tmi-grid", "tmi-vs-entropy"])
    @pytest.mark.parametrize("strategy", ["all", "contiguous", "fixed:1,1,1"])
    def test_single_triple_runner_refuses_family(self, tmp_path, capsys, command,
                                                 strategy):
        out_dir = tmp_path / "out"
        assert run_cli([command, "--config", "smoke", "--partitions", strategy,
                        "--out", str(out_dir)]) == 2
        assert "partition family" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("strategy, flags", [
        ("fixed", []),
        ("contiguous", []),
        ("quarters", ["--partitions", "fixed:1,1,1"]),
    ])
    def test_sizes_key_is_2(self, tmp_path, capsys, strategy, flags):
        cfg = tmp_path / "sizes.cfg"
        cfg.write_text(SMOKE_CFG + f"\n[partitions]\nstrategy = {strategy}\nsizes = 2, 2, 2\n")
        out_dir = tmp_path / "out"
        assert run_cli(["minmax-scan", "--config", str(cfg), *flags,
                        "--out", str(out_dir)]) == 2
        assert "unknown key partitions.sizes" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", RUNNERS)
    def test_triple_with_family_strategy_is_2(self, tmp_path, capsys, command):
        cfg = tmp_path / "triple.cfg"
        cfg.write_text(TRIPLE_CFG + "strategy = contiguous\n")
        out_dir = tmp_path / "out"
        assert run_cli([command, "--config", str(cfg), "--out", str(out_dir)]) == 2
        assert "partitions.a/b/c" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command, name", [("minmax-scan", "minmax_scan"),
                                               ("onebody-scan", "onebody_scan")])
    def test_scan_takes_explicit_triple(self, tmp_path, command, name):
        cfg = tmp_path / "triple.cfg"
        cfg.write_text(TRIPLE_CFG)
        out_dir = tmp_path / "out"
        assert run_cli([command, "--config", str(cfg), "--out", str(out_dir),
                        "--format", "json"]) == 0
        payload = json.loads((out_dir / f"{name}.json").read_text())
        assert payload["meta"]["strategy"] == "explicit"
        assert payload["meta"]["n_partitions"] == 1
        columns = payload["columns"]
        assert columns["min_tmi"] == columns["max_tmi"]
        if command == "minmax-scan":
            triple = {(a, b, c) for a, b, c in zip(columns["argmin_a"], columns["argmin_b"],
                                                   columns["argmin_c"])}
            assert triple == {(0b11, 0b10000, 0b1100000000)}

    @pytest.mark.parametrize("n", [15, 16])
    def test_scan_writes_top_site_masks_as_positive_ints(self, tmp_path, n):
        # one excitation starting on the top site: the extremal triples
        # hold its mask 1 << (N-1), which int16 holds at N=15 and not at 16
        cfg = tmp_path / "edge.cfg"
        cfg.write_text(SMOKE_CFG.replace("n_sites = 8", f"n_sites = {n}")
                       + f"\n[initial]\nstate = single:{n - 1}\n")
        out_dir = tmp_path / "out"
        assert run_cli(["minmax-scan", "--config", str(cfg), "--partitions", "fixed:1,1,1",
                        "--alpha", "1.0", "--out", str(out_dir), "--format", "json"]) == 0
        columns = json.loads((out_dir / "minmax_scan.json").read_text())["columns"]
        amplitudes = reference.onebody_amplitudes(
            coupling_matrix(ModelSpec(n, alpha=1.0)), n - 1, columns["t"])
        for side in ("min", "max"):
            triples = list(zip(*(columns[f"arg{side}_{part}"] for part in "abc")))
            assert all(0 < a < b < c < 1 << n and a.bit_count() == b.bit_count()
                       == c.bit_count() == 1 for a, b, c in triples)
            values = [reference.tmi_binary(*reference.occupation_weights(amps, *triple))
                      for amps, triple in zip(amplitudes, triples)]
            np.testing.assert_allclose(values, columns[f"{side}_tmi"], atol=1e-9)
        assert 1 << (n - 1) in columns["argmax_c"]


class TestDeterminism:
    @pytest.mark.parametrize("command", ["tmi-grid", "tmi-vs-entropy", "minmax-scan",
                                         "onebody-scan"])
    def test_byte_identical_across_worker_counts(self, tmp_path, monkeypatch, command):
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(ONEBODY_CFG if command == "onebody-scan" else SMOKE_CFG)
        outputs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("SPINCHAIN_THREADS", threads)
            out_dir = tmp_path / f"out{threads}"
            # the single-triple runners read the quarters, the scans a family
            family = [] if command in ("tmi-grid", "tmi-vs-entropy") \
                else ["--partitions", "contiguous"]
            code = run_cli([command, "--config", str(cfg), *family,
                            "--out", str(out_dir), "--format", "csv,json"])
            assert code == 0
            outputs[threads] = {
                name: (out_dir / name).read_bytes()
                for name in sorted(os.listdir(out_dir))
            }
        assert outputs["1"].keys() == outputs["2"].keys()
        for name in outputs["1"]:
            assert outputs["1"][name] == outputs["2"][name], name

    def test_repeated_runs_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPINCHAIN_THREADS", "1")
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(SMOKE_CFG)
        blobs = []
        for tag in ("a", "b"):
            out_dir = tmp_path / tag
            assert run_cli(["tmi-grid", "--config", str(cfg),
                            "--out", str(out_dir)]) == 0
            blobs.append((out_dir / "tmi_grid.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestOneSetUp:
    def test_workers_inherit_the_plan(self, tmp_path, monkeypatch):
        # the sweep builds the plan before the pool forks; a worker that
        # built one of its own would raise, and the run would not exit 0
        from spinchain import runs
        parent = os.getpid()

        class ParentOnly(runs.EntropyTablePlan):
            def __init__(self, *args, **kwargs):
                if os.getpid() != parent:
                    raise AssertionError("a worker built an entropy plan")
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(runs, "EntropyTablePlan", ParentOnly)
        monkeypatch.setenv("SPINCHAIN_THREADS", "2")
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(SMOKE_CFG)
        assert run_cli(["minmax-scan", "--config", str(cfg),
                        "--out", str(tmp_path / "out")]) == 0

    def test_pool_forks_one_worker_a_group(self, tmp_path, monkeypatch):
        # the workers must be forked to inherit the set-up, whatever the
        # platform's default start method; no more of them than exponents
        import concurrent.futures
        pools = []
        real = concurrent.futures.ProcessPoolExecutor

        class Recorded(real):
            def __init__(self, max_workers=None, mp_context=None, **kwargs):
                pools.append((max_workers, mp_context and mp_context.get_start_method()))
                super().__init__(max_workers, mp_context, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
        monkeypatch.setenv("SPINCHAIN_THREADS", "3")
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(SMOKE_CFG)
        assert run_cli(["minmax-scan", "--config", str(cfg),
                        "--out", str(tmp_path / "out")]) == 0
        assert pools == [(2, "fork")]

    def test_groups_are_contiguous_longer_first(self, monkeypatch):
        from spinchain import runs
        for threads, n, sizes in (("1", 11, [11]), ("2", 11, [6, 5]), ("2", 4, [2, 2]),
                                  ("4", 6, [2, 2, 1, 1]), ("8", 3, [1, 1, 1])):
            monkeypatch.setenv("SPINCHAIN_THREADS", threads)
            groups = runs._groups(list(range(n)))
            assert [len(g) for g in groups] == sizes
            assert sum(groups, []) == list(range(n))


def test_runtime_imports_leave_scipy_linalg_out():
    # only the reference oracles use scipy; the runtime modules import
    # numpy alone
    src = os.path.dirname(os.path.dirname(os.path.abspath(spinchain.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, spinchain.cli, spinchain.runs; "
                               "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_serial_run_imports_no_oracles_or_pool(tmp_path):
    # a one-worker run of every runner loads no scipy module (only the
    # oracles use scipy), not the process pool and not numpy.ma (which a
    # plain np.unique or np.union1d imports on its first call)
    src = os.path.dirname(os.path.dirname(os.path.abspath(spinchain.__file__)))
    env = dict(os.environ, SPINCHAIN_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    (tmp_path / "one.cfg").write_text(ONEBODY_CFG)
    script = (
        "import sys\n"
        "from spinchain.cli import main\n"
        "for command in ('tmi-grid', 'tmi-vs-entropy', 'minmax-scan'):\n"
        "    assert main([command, '--config', 'smoke', '--out', 'out']) == 0\n"
        "assert main(['onebody-scan', '--config', 'one.cfg', '--partitions', 'all',\n"
        "             '--out', 'out']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
        "             or m in ('concurrent.futures.process', 'numpy.ma')))\n")
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"


def _reference_imports(tree):
    """The import statements of a module's syntax tree that load spinchain.reference."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names = [base] + [f"{base}.{a.name}" if base else a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        if any(name.removeprefix("spinchain.") == "reference" for name in names):
            yield node


def test_only_validate_imports_the_oracles():
    # the layering in source: no runtime module imports reference.py, and
    # cli.py does only inside its validate branch
    src = os.path.dirname(os.path.abspath(spinchain.__file__))
    found = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py") and name != "reference.py":
            with open(os.path.join(src, name)) as fh:
                tree = ast.parse(fh.read(), filename=name)
            allowed = set()
            if name == "cli.py":
                for node in ast.walk(tree):
                    if isinstance(node, ast.If) and any(
                            isinstance(c, ast.Constant) and c.value == "validate"
                            for c in ast.walk(node.test)):
                        allowed |= {id(n) for stmt in node.body for n in ast.walk(stmt)}
            found[name] = [(node.lineno, id(node) in allowed)
                           for node in _reference_imports(tree)]
    assert {name: lines for name, lines in found.items()
            if name != "cli.py" and lines} == {}
    assert len(found["cli.py"]) == 1 and found["cli.py"][0][1], found["cli.py"]
