"""Config grammar, validation messages, sweep labels, canonical hashing."""

import pytest

from spinchain import ModelSpec, RunConfig, load_config
from spinchain.config import PRESET_NAMES, preset_path
from spinchain.errors import ConfigError

GOOD_CFG = """\
[model]
n_sites = 10
j0 = 0.5
alphas = 0.3, 1.0, nn

[time]
t_max = 2.0
n_points = 41
kac_rescaled = true

[partitions]
strategy = contiguous

[output]
directory = runs/demo
formats = csv, json
"""


class TestFileGrammar:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "demo.cfg"
        path.write_text(GOOD_CFG)
        cfg = load_config(path)
        assert cfg.n_sites == 10
        assert cfg.j0 == 0.5
        assert cfg.alphas == (0.3, 1.0)
        assert cfg.nn_limit is True
        assert cfg.t_max == 2.0
        assert cfg.n_points == 41
        assert cfg.kac_rescaled is True
        assert cfg.strategy == "contiguous"
        assert cfg.out_dir == "runs/demo"
        assert cfg.formats == ("csv", "json")

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[models]\nn_sites = 8\n")
        with pytest.raises(ConfigError, match=r"\[models\]"):
            load_config(path)
        # configs written for the removed [engine] section fail loudly
        path.write_text("[model]\nalphas = 1\n[engine]\nkind = auto\n")
        with pytest.raises(ConfigError, match=r"\[engine\]"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[model]\nalphas = 1\nn_site = 8\n")
        with pytest.raises(ConfigError, match="model.n_site"):
            load_config(path)

    def test_bad_value_names_the_field(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[model]\nalphas = 1\nn_sites = many\n")
        with pytest.raises(ConfigError, match="model.n_sites"):
            load_config(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/no/such/file.cfg")

    def test_single_excitation_with_site(self, tmp_path):
        path = tmp_path / "one.cfg"
        path.write_text("[model]\nalphas = 1\n[initial]\nstate = single:3\n")
        cfg = load_config(path)
        assert cfg.initial_state == "single"
        assert cfg.initial_site == 3
        assert cfg.resolved_site() == 3

    def test_default_site_is_middle(self):
        cfg = RunConfig(n_sites=12, alphas=(1.0,), initial_state="single")
        assert cfg.resolved_site() == 6


class TestOverrides:
    def test_flag_values_win(self, tmp_path):
        path = tmp_path / "demo.cfg"
        path.write_text(GOOD_CFG)
        cfg = load_config(path, {"model.n_sites": "14", "time.n_points": "11"})
        assert cfg.n_sites == 14
        assert cfg.n_points == 11
        assert cfg.alphas == (0.3, 1.0)  # untouched keys survive

    def test_override_unknown_key(self):
        with pytest.raises(ConfigError, match="model.bogus"):
            load_config(None, {"model.bogus": "1", "model.alphas": "1"})

    def test_override_uses_same_parser(self):
        with pytest.raises(ConfigError, match="time.n_points"):
            load_config(None, {"model.alphas": "1", "time.n_points": "lots"})


class TestValidation:
    def test_needs_at_least_one_exponent(self):
        with pytest.raises(ConfigError, match="model.alphas"):
            RunConfig(alphas=(), nn_limit=False)

    def test_rejects_negative_alpha(self):
        with pytest.raises(ConfigError, match="model.alphas"):
            RunConfig(alphas=(-1.0,))

    def test_rejects_bad_engine(self):
        # propagation has no settings: any engine key is an unknown key
        with pytest.raises(ConfigError, match="unknown key engine.kind"):
            load_config(None, {"model.alphas": "1", "engine.kind": "krylov"})
        with pytest.raises(TypeError):
            RunConfig(alphas=(1.0,), engine="krylov")

    def test_rejects_bad_format(self):
        with pytest.raises(ConfigError, match="output.formats"):
            RunConfig(alphas=(1.0,), formats=("yaml",))

    def test_rejects_partial_subset_triple(self):
        with pytest.raises(ConfigError, match="partitions"):
            RunConfig(alphas=(1.0,), subset_a=(0, 1))

    def test_rejects_negative_tau_threshold(self):
        with pytest.raises(ConfigError, match="tau_threshold"):
            RunConfig(alphas=(1.0,), tau_threshold=-1e-3)

    def test_neel_takes_no_site(self):
        # a site would change config_hash yet leave the run as it was
        with pytest.raises(ConfigError, match="^initial.state: .*neel:3"):
            load_config("smoke", {"initial.state": "neel:3"})

    def test_rejects_unparseable_strategy(self):
        for bad in ("garbage", "fixed", "fixed:2,2", "all:3"):
            with pytest.raises(ConfigError, match="^partitions.strategy: "):
                RunConfig(alphas=(1.0,), strategy=bad)

    def test_rejects_fixed_sizes_that_do_not_fit(self):
        RunConfig(n_sites=8, alphas=(1.0,), strategy="fixed:2,3,3")
        with pytest.raises(ConfigError, match="do not fit a 8-site chain"):
            RunConfig(n_sites=8, alphas=(1.0,), strategy="fixed:3,3,3")
        # a new chain length is checked again
        cfg = RunConfig(n_sites=12, alphas=(1.0,), strategy="fixed:3,3,3")
        with pytest.raises(ConfigError, match="do not fit"):
            cfg.replace(n_sites=8)

    def test_explicit_triple_goes_only_with_quarters(self):
        triple = {"subset_a": (0, 1), "subset_b": (4,), "subset_c": (8, 9)}
        RunConfig(n_sites=10, alphas=(1.0,), **triple)
        RunConfig(n_sites=10, alphas=(1.0,), strategy="quarters", **triple)
        for strategy in ("contiguous", "all", "fixed:1,1,1"):
            with pytest.raises(ConfigError, match="^partitions.a/b/c: .*" + strategy):
                RunConfig(n_sites=10, alphas=(1.0,), strategy=strategy, **triple)

    def test_rejects_bad_triple(self):
        with pytest.raises(ConfigError, match="^partitions.a/b/c: .*disjoint"):
            RunConfig(n_sites=10, alphas=(1.0,), subset_a=(0, 1), subset_b=(1,),
                      subset_c=(5,))
        with pytest.raises(ConfigError, match=r"^partitions.a/b/c: site 10 outside"):
            RunConfig(n_sites=10, alphas=(1.0,), subset_a=(0,), subset_b=(1,),
                      subset_c=(10,))

    def test_rejects_empty_subset(self):
        with pytest.raises(ConfigError, match="^partitions.a/b/c: .*nonempty"):
            RunConfig(n_sites=10, alphas=(1.0,), subset_a=(0, 1), subset_b=(),
                      subset_c=(5,))


class TestPartitionSet:
    def test_load_does_not_enumerate(self, monkeypatch):
        from spinchain import config

        def refuse(*args, **kwargs):
            raise AssertionError("partitions enumerated while loading")

        # a scan's assignment family is built streamed, other families stored
        monkeypatch.setattr(config, "enumerate_partitions", refuse)
        monkeypatch.setattr(config, "AssignmentFamily", refuse)
        for strategy in ("all", "contiguous"):
            cfg = load_config(None, {"model.alphas": "1", "partitions.strategy": strategy})
            with pytest.raises(AssertionError, match="enumerated"):
                cfg.partition_set(scan=True)

    def test_one_triple_for_quarters_and_explicit(self):
        pset = RunConfig(n_sites=8, alphas=(1.0,)).partition_set(scan=False)
        assert (len(pset), pset[0]) == (1, (0b11, 0b1100, 0b110000))
        cfg = RunConfig(n_sites=10, alphas=(1.0,), subset_a=(8, 9), subset_b=(0,),
                        subset_c=(4, 5))
        for scan in (False, True):
            pset = cfg.partition_set(scan=scan)
            assert pset.strategy == "explicit"
            assert (len(pset), pset[0]) == (1, (0b1, 0b110000, 0b1100000000))

    def test_explicit_triple_masks_from_site_lists(self):
        # site i is bit i and a repeated site counts once
        cfg = RunConfig(n_sites=6, alphas=(1.0,), subset_a=(3, 0, 3), subset_b=(1, 4),
                        subset_c=(5, 2))
        assert cfg.partition_set(scan=False)[0] == (0b001001, 0b010010, 0b100100)

    def test_explicit_triple_sorted_ascending(self):
        # the masks sort ascending whatever order the lists come in
        cfg = RunConfig(n_sites=6, alphas=(1.0,), subset_a=(4, 5), subset_b=(0, 1),
                        subset_c=(2, 3))
        assert cfg.partition_set(scan=False)[0] == (0b000011, 0b001100, 0b110000)

    def test_family_only_for_scans(self):
        from spinchain import enumerate_partitions

        cfg = RunConfig(n_sites=8, alphas=(1.0,), strategy="fixed:1,2,2")
        pset, family = cfg.partition_set(scan=True), enumerate_partitions(8, "fixed:1,2,2")
        assert pset.strategy == family.strategy and not pset.orbits
        assert [pset[i] for i in range(len(pset))] == [family[i] for i in range(len(family))]
        with pytest.raises(ConfigError, match="partition family"):
            cfg.partition_set(scan=False)


class TestSweep:
    def test_labels_and_order(self):
        cfg = RunConfig(alphas=(0.3, 1.0, 2.5), nn_limit=True)
        labels = [label for label, _ in cfg.sweep()]
        assert labels == ["0.3", "1", "2.5", "nn"]

    def test_specs_match_labels(self):
        cfg = RunConfig(n_sites=8, j0=0.5, alphas=(0.7,), nn_limit=True)
        sweep = dict(cfg.sweep())
        assert sweep["0.7"] == ModelSpec(8, j0=0.5, alpha=0.7)
        assert sweep["nn"] == ModelSpec(8, j0=0.5, nn_limit=True)


class TestProvenance:
    def test_hash_is_stable_and_sensitive(self):
        a = RunConfig(alphas=(1.0,))
        b = RunConfig(alphas=(1.0,))
        c = RunConfig(alphas=(1.0,), n_points=102)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()
        assert len(a.config_hash()) == 12

    def test_hash_ignores_output_destination(self):
        a = RunConfig(alphas=(1.0,))
        b = RunConfig(alphas=(1.0,), out_dir="elsewhere", formats=("json",))
        assert a.config_hash() == b.config_hash()

    def test_canonical_string_lists_every_field(self):
        text = RunConfig(alphas=(0.5,)).canonical_string()
        lines = dict(line.split("=", 1) for line in text.splitlines())
        import dataclasses

        assert set(lines) == {f.name for f in dataclasses.fields(RunConfig)}

    def test_replace(self):
        cfg = RunConfig(alphas=(1.0,))
        assert cfg.replace(n_sites=16).n_sites == 16
        with pytest.raises(ConfigError):
            cfg.replace(n_points=1)


class TestPresets:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_load(self, name):
        cfg = load_config(name)
        assert cfg.n_sites >= 2
        assert cfg.alphas or cfg.nn_limit

    def test_figure_presets_sweep_nn(self):
        # the nn token replaced a separate nn_limit key; the experiments,
        # and so their hashes, are the same
        for name, digest in (("fig2", "f3de28b1c264"), ("fig3", "2d6b82cb5f59")):
            cfg = load_config(name)
            assert cfg.sweep()[-1] == ("nn", ModelSpec(16, nn_limit=True))
            assert cfg.config_hash() == digest

    def test_figure_presets_desk_scale(self):
        assert load_config("fig2").n_sites == 16
        assert load_config("fig3").n_sites == 16
        assert load_config("fig4").n_sites == 12
        assert load_config("fig2").paper_n_sites == 20
        assert load_config("fig3").paper_n_sites == 24

    def test_readme_example_loads(self, tmp_path):
        from pathlib import Path

        readme = (Path(__file__).parents[1] / "README.md").read_text()
        blocks = readme.split("```ini\n")
        assert len(blocks) == 2, "README holds one ini example"
        path = tmp_path / "readme.cfg"
        path.write_text(blocks[1].split("```")[0])
        cfg = load_config(path)
        assert (cfg.n_sites, cfg.strategy, cfg.inset_alphas) == (12, "contiguous", (0.1, 0.3))

    def test_readme_python_examples_run(self):
        from pathlib import Path

        readme = (Path(__file__).parents[1] / "README.md").read_text()
        blocks = [part.split("```")[0] for part in readme.split("```python\n")[1:]]
        assert len(blocks) == 2, "README holds two python examples"
        namespace = {}  # later examples use names the earlier ones define
        for block in blocks:
            exec(compile(block, "README.md", "exec"), namespace)
        assert len(namespace["pset"]) == 2_532_530

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset_path("fig9")


# One value per config key, and the RunConfig fields it sets.  Together
# they form one valid config, so the strategy is the one that an explicit
# a/b/c triple may go with; every other value is a non-default.
KEY_SAMPLES = {
    "model.n_sites": ("10", {"n_sites": 10}),
    "model.j0": ("0.5", {"j0": 0.5}),
    "model.alphas": ("0.3, nn", {"alphas": (0.3,), "nn_limit": True}),
    "model.paper_n_sites": ("20", {"paper_n_sites": 20}),
    "initial.state": ("single:3", {"initial_state": "single", "initial_site": 3}),
    "time.t_max": ("2.5", {"t_max": 2.5}),
    "time.n_points": ("7", {"n_points": 7}),
    "time.kac_rescaled": ("yes", {"kac_rescaled": True}),
    "partitions.strategy": ("quarters", {"strategy": "quarters"}),
    "partitions.a": ("0, 1", {"subset_a": (0, 1)}),
    "partitions.b": ("3", {"subset_b": (3,)}),
    "partitions.c": ("5, 6", {"subset_c": (5, 6)}),
    "scan.inset_alphas": ("0.1, 0.2", {"inset_alphas": (0.1, 0.2)}),
    "scan.tau_threshold": ("1e-8", {"tau_threshold": 1e-8}),
    "output.directory": ("elsewhere", {"out_dir": "elsewhere"}),
    "output.formats": ("json, csv", {"formats": ("json", "csv")}),
    "output.precision": ("9", {"precision": 9}),
}


def _ini(values: dict) -> str:
    sections = {}
    for dotted, text in values.items():
        section, key = dotted.split(".")
        sections.setdefault(section, []).append(f"{key} = {text}")
    return "".join(f"[{s}]\n" + "\n".join(lines) + "\n" for s, lines in sections.items())


class TestKeyTable:
    def test_every_field_set_by_some_key(self):
        import dataclasses

        from spinchain.config import _KEYS

        assert set(KEY_SAMPLES) == set(_KEYS)
        set_fields = set()
        for dotted, (text, fields) in KEY_SAMPLES.items():
            assert _KEYS[dotted](text, dotted) == fields, dotted
            set_fields |= set(fields)
        assert set_fields == {f.name for f in dataclasses.fields(RunConfig)}

    def test_every_key_parses_from_file_and_override(self, tmp_path):
        expected = RunConfig(**{k: v for _, fields in KEY_SAMPLES.values()
                                for k, v in fields.items()})
        path = tmp_path / "all.cfg"
        path.write_text(_ini({k: text for k, (text, _) in KEY_SAMPLES.items()}))
        assert load_config(path) == expected
        assert load_config(None, {k: text for k, (text, _) in KEY_SAMPLES.items()}) == expected

    @pytest.mark.parametrize("section", ["model", "initial", "time", "partitions",
                                         "scan", "output"])
    def test_keys_outside_table_rejected(self, tmp_path, section):
        path = tmp_path / "bad.cfg"
        path.write_text(f"[{section}]\nbogus = 1\n")
        with pytest.raises(ConfigError, match=rf"^unknown key {section}\.bogus$"):
            load_config(path)
        with pytest.raises(ConfigError, match=rf"^unknown key {section}\.bogus$"):
            load_config(None, {f"{section}.bogus": "1"})
        path.write_text(f"[{section}s]\nbogus = 1\n")
        with pytest.raises(ConfigError, match=rf"^unknown config section \[{section}s\]$"):
            load_config(path)

    def test_partitions_sizes_is_unknown(self, tmp_path):
        # sizes are spelled only inside the strategy, as fixed:SA,SB,SC
        path = tmp_path / "sizes.cfg"
        path.write_text("[model]\nalphas = 1\n[partitions]\nstrategy = fixed\nsizes = 2, 2, 2\n")
        with pytest.raises(ConfigError, match=r"^unknown key partitions\.sizes$"):
            load_config(path)
        with pytest.raises(ConfigError, match=r"^unknown key partitions\.sizes$"):
            load_config(None, {"model.alphas": "1", "partitions.sizes": "2, 2, 2"})

    def test_nn_limit_key_is_unknown(self, tmp_path):
        # the nn token in model.alphas is the one spelling of the limit
        path = tmp_path / "old.cfg"
        path.write_text("[model]\nalphas = 1\nnn_limit = true\n")
        with pytest.raises(ConfigError, match=r"^unknown key model\.nn_limit$"):
            load_config(path)
        from spinchain.cli import main

        assert main(["tmi-grid", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        with pytest.raises(SystemExit):
            main(["tmi-grid", "--alpha", "1", "--nn-limit"])

    def test_inset_alphas_checked_like_alphas(self):
        for text, bad in (("-1, nan", "-1.0"), ("0.5, nan", "nan"), ("inf", "inf")):
            with pytest.raises(ConfigError,
                               match=rf"^scan\.inset_alphas: exponent {bad} must be finite"):
                load_config("smoke", {"scan.inset_alphas": text})
        with pytest.raises(ConfigError, match=r"^scan\.inset_alphas: exponent -0\.5 "):
            RunConfig(alphas=(1.0,), inset_alphas=(-0.5,))

    def test_inset_alphas_rejects_nn(self, tmp_path):
        path = tmp_path / "insets.cfg"
        path.write_text("[model]\nalphas = 1\n[scan]\ninset_alphas = 0.5, nn\n")
        with pytest.raises(ConfigError, match="scan.inset_alphas"):
            load_config(path)
        with pytest.raises(ConfigError, match="scan.inset_alphas"):
            load_config(None, {"model.alphas": "1", "scan.inset_alphas": "nn"})
        from spinchain.cli import main

        assert main(["minmax-scan", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
