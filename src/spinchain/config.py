"""Run configuration: file grammar, validation, canonical hashing.

Configs are INI files with the sections [model], [initial], [time],
[partitions], [scan], [output]; every key can be overridden by the
command-line flag of the same name.  Unknown sections or keys are
rejected with field-level messages rather than ignored, so a typo cannot
silently change an experiment.
"""

import configparser
import dataclasses
import hashlib
import math
from dataclasses import dataclass
from importlib import resources

from .entropy import _disjoint_masks
from .errors import ConfigError
from .model import ModelSpec
from .partitions import (CONTIGUOUS_BLOCKS, QUARTERS, AssignmentFamily, PartitionSet,
                         contiguous_quarters, enumerate_partitions, parse_strategy)

FORMATS = ("csv", "json")
PRESET_NAMES = ("fig2", "fig3", "fig4", "smoke")
# where and how results are written; not part of the experiment identity
_OUTPUT_FIELDS = ("out_dir", "formats", "precision")

__all__ = ["RunConfig", "load_config", "preset_path"]


def _parse_bool(text, where):
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got {text!r}")


def _parse_float(text, where):
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {text!r}") from None


def _parse_int(text, where):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{where}: expected an integer, got {text!r}") from None


def _parse_alpha_list(text, where):
    """Comma list of exponents; the token 'nn' selects the nearest-neighbour limit."""
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    nn = any(tok.lower() == "nn" for tok in tokens)
    return tuple(_parse_float(tok, where) for tok in tokens if tok.lower() != "nn"), nn


def _parse_site_list(text, where):
    if not text.strip():
        return None
    return tuple(_parse_int(tok, where) for tok in text.split(","))


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters of one experiment run."""

    n_sites: int = 12
    j0: float = 1.0
    alphas: tuple = ()
    nn_limit: bool = False
    paper_n_sites: int | None = None

    initial_state: str = "neel"
    initial_site: int | None = None

    t_max: float = 5.0
    n_points: int = 101
    kac_rescaled: bool = False

    strategy: str = QUARTERS
    subset_a: tuple | None = None
    subset_b: tuple | None = None
    subset_c: tuple | None = None

    inset_alphas: tuple = ()
    tau_threshold: float = 1e-10

    out_dir: str = "runs"
    formats: tuple = ("csv",)
    precision: int = 12

    def __post_init__(self):
        if self.n_sites < 2:
            raise ConfigError(f"model.n_sites: need at least 2 sites, got {self.n_sites}")
        if self.j0 <= 0 or not math.isfinite(self.j0):
            raise ConfigError(f"model.j0: must be positive and finite, got {self.j0}")
        if not self.alphas and not self.nn_limit:
            raise ConfigError("model.alphas: at least one coupling exponent (or 'nn') required")
        for key, exponents in (("model.alphas", self.alphas),
                               ("scan.inset_alphas", self.inset_alphas)):
            for a in exponents:
                if not math.isfinite(a) or a < 0:
                    raise ConfigError(f"{key}: exponent {a} must be finite and >= 0")
        if self.paper_n_sites is not None and self.paper_n_sites < 2:
            raise ConfigError(f"model.paper_n_sites: need at least 2 sites, got {self.paper_n_sites}")
        if self.initial_state not in ("neel", "single"):
            raise ConfigError(f"initial.state: expected 'neel' or 'single[:site]', got {self.initial_state!r}")
        if self.initial_state == "neel" and self.initial_site is not None:
            raise ConfigError(f"initial.state: the Neel state takes no site, "
                              f"got 'neel:{self.initial_site}'")
        if self.initial_site is not None and not 0 <= self.initial_site < self.n_sites:
            raise ConfigError(
                f"initial.state: site {self.initial_site} outside [0, {self.n_sites})")
        if self.t_max <= 0 or not math.isfinite(self.t_max):
            raise ConfigError(f"time.t_max: must be positive and finite, got {self.t_max}")
        if self.n_points < 2:
            raise ConfigError(f"time.n_points: need at least 2 points, got {self.n_points}")
        triple = (self.subset_a, self.subset_b, self.subset_c)
        if any(s is not None for s in triple) and any(s is None for s in triple):
            raise ConfigError("partitions.a/b/c: give all three subsets or none")
        try:
            strategy, sizes = parse_strategy(self.strategy)
        except ValueError as exc:
            raise ConfigError(f"partitions.strategy: {exc}") from None
        if sizes is not None and sum(sizes) > self.n_sites:
            raise ConfigError(f"partitions.strategy: sizes {sizes} do not fit "
                              f"a {self.n_sites}-site chain")
        if self.subset_a is not None:
            if strategy != QUARTERS:
                raise ConfigError(
                    "partitions.a/b/c: an explicit triple replaces the quarters "
                    f"strategy and cannot go with strategy {self.strategy!r}")
            try:
                self._triple()
            except ValueError as exc:
                raise ConfigError(f"partitions.a/b/c: {exc}") from None
        for fmt in self.formats:
            if fmt not in FORMATS:
                raise ConfigError(f"output.formats: expected csv/json, got {fmt!r}")
        if not self.formats:
            raise ConfigError("output.formats: need at least one format")
        if not 1 <= self.precision <= 17:
            raise ConfigError(f"output.precision: expected 1..17, got {self.precision}")
        if self.tau_threshold < 0:
            raise ConfigError(f"scan.tau_threshold: must be >= 0, got {self.tau_threshold}")

    # -- sweep helpers ---------------------------------------------------

    def sweep(self):
        """(label, ModelSpec) per coupling exponent, 'nn' last if present."""
        out = [(f"{a:g}", ModelSpec(self.n_sites, j0=self.j0, alpha=a))
               for a in self.alphas]
        if self.nn_limit:
            out.append(("nn", ModelSpec(self.n_sites, j0=self.j0, nn_limit=True)))
        return out

    def _triple(self) -> tuple:
        """The a/b/c site lists as ascending masks; ValueError unless they form a triple."""
        lists = (self.subset_a, self.subset_b, self.subset_c)
        for site in (site for sites in lists for site in sites):
            if not 0 <= site < self.n_sites:
                raise ValueError(f"site {site} outside [0, {self.n_sites})")
        masks = [sum(1 << site for site in set(sites)) for sites in lists]
        return tuple(sorted(_disjoint_masks(self.n_sites, masks)))

    def partition_set(self, scan: bool) -> PartitionSet:
        """The partition triples a runner reads.

        An explicit a/b/c triple, or else the default quarters, is a
        one-triple set; any other strategy is a family, which only a
        ``scan`` runner takes, the all-assignments family as one triple per
        {A, B, C, D} orbit.  An assignment family comes back streamed
        (partitions.AssignmentFamily), never stored.  Families are
        enumerated here, at run time, never while the config loads.
        """
        strategy, sizes = parse_strategy(self.strategy)
        if self.subset_a is not None:
            a, b, c = self._triple()
        elif strategy == QUARTERS:
            a, b, c = contiguous_quarters(self.n_sites)
        elif scan and strategy == CONTIGUOUS_BLOCKS:
            return enumerate_partitions(self.n_sites, strategy)
        elif scan:
            return AssignmentFamily(self.n_sites, sizes, orbits=sizes is None)
        else:
            raise ConfigError(
                f"partitions.strategy: {self.strategy!r} is a partition family; this "
                "runner reads one triple (quarters, or partitions.a/b/c)")
        return PartitionSet(self.n_sites, [a], [b], [c], strategy="explicit")

    def resolved_site(self) -> int:
        """Initial site of a single-excitation run (middle site by default)."""
        return self.initial_site if self.initial_site is not None else self.n_sites // 2

    def replace(self, **kw) -> "RunConfig":
        return dataclasses.replace(self, **kw)

    # -- provenance ------------------------------------------------------

    def canonical_string(self, include_output: bool = True) -> str:
        """Deterministic flat rendering of every field, for hashing and logs."""

        def fmt(v):
            if isinstance(v, float):
                return f"{v:.12g}"
            if isinstance(v, tuple):
                return ",".join(fmt(x) for x in v)
            return str(v)

        fields = sorted(dataclasses.asdict(self).items())
        if not include_output:
            fields = [(k, v) for k, v in fields if k not in _OUTPUT_FIELDS]
        return "\n".join(f"{k}={fmt(v)}" for k, v in fields)

    def config_hash(self) -> str:
        """Short digest identifying the experiment.

        Output destination and formatting are excluded: the same run
        written elsewhere is the same experiment, and emitted files stay
        byte-identical across output directories.
        """
        text = self.canonical_string(include_output=False)
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def _parse_alphas(text, where):
    alphas, nn = _parse_alpha_list(text, where)
    return {"alphas": alphas, "nn_limit": nn}


def _parse_insets(text, where):
    alphas, nn = _parse_alpha_list(text, where)
    if nn:
        raise ConfigError(f"{where}: the nearest-neighbour limit is not an inset "
                          "exponent; put 'nn' in model.alphas")
    return {"inset_alphas": alphas}


def _parse_state(text, where):
    state, _, site = text.strip().lower().partition(":")
    return {"initial_state": state, **({"initial_site": _parse_int(site, where)} if site else {})}


def _field(name, parse):
    """Parser of a key that sets one RunConfig field."""
    return lambda text, where: {name: parse(text, where)}


def _text(text, where):
    return text.strip()


def _formats(text, where):
    return tuple(t.strip().lower() for t in text.split(",") if t.strip())


# Every config key: dotted name -> parser(text, where) returning the
# RunConfig fields the key sets.  Sections are the dotted prefixes.
_KEYS = {
    "model.n_sites": _field("n_sites", _parse_int),
    "model.j0": _field("j0", _parse_float),
    "model.alphas": _parse_alphas,
    "model.paper_n_sites": _field("paper_n_sites", _parse_int),
    "initial.state": _parse_state,
    "time.t_max": _field("t_max", _parse_float),
    "time.n_points": _field("n_points", _parse_int),
    "time.kac_rescaled": _field("kac_rescaled", _parse_bool),
    "partitions.strategy": _field("strategy", _text),
    "partitions.a": _field("subset_a", _parse_site_list),
    "partitions.b": _field("subset_b", _parse_site_list),
    "partitions.c": _field("subset_c", _parse_site_list),
    "scan.inset_alphas": _parse_insets,
    "scan.tau_threshold": _field("tau_threshold", _parse_float),
    "output.directory": _field("out_dir", _text),
    "output.formats": _field("formats", _formats),
    "output.precision": _field("precision", _parse_int),
}
_SECTIONS = {dotted.partition(".")[0] for dotted in _KEYS}


def _read_ini(path) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from None
    values = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, val in parser.items(section):
            if f"{section}.{key}" not in _KEYS:
                raise ConfigError(f"unknown key {section}.{key}")
            values[f"{section}.{key}"] = val
    return values


def preset_path(name: str):
    """Filesystem path of a bundled preset config."""
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    return resources.files("spinchain").joinpath("presets", f"{name}.cfg")


def load_config(source=None, overrides=None) -> RunConfig:
    """Build a RunConfig from a file path, preset name, or nothing.

    ``overrides`` maps dotted keys ('model.n_sites') to raw value strings,
    applied on top of the file; they use the same parsers, so flag and
    file values cannot diverge in meaning.
    """
    values = {}
    if source is not None:
        import os
        source = str(source)
        if os.path.exists(source):
            values = _read_ini(source)
        elif source in PRESET_NAMES:
            with resources.as_file(preset_path(source)) as p:
                values = _read_ini(p)
        else:
            raise ConfigError(f"config {source!r} is neither a file nor a preset name")
    for dotted, text in (overrides or {}).items():
        if dotted not in _KEYS:
            raise ConfigError(f"unknown key {dotted}")
        values[dotted] = text
    kw = {}
    for dotted, text in values.items():
        kw.update(_KEYS[dotted](text, dotted))
    return RunConfig(**kw)
